import numpy as np
import pytest

import nearsemiring as nsr
from nearsemiring import fixtures, transforms
from nearsemiring.core import PreconditionError


def test_basic_from_lns_recovers_mv3_oplus():
    basic = nsr.basic_from_lns(fixtures.mv3())
    assert np.array_equal(basic.oplus, fixtures.mv3_basic().oplus)
    assert np.array_equal(basic.neg, fixtures.mv3_basic().neg)


def test_basic_from_lns_bool2():
    basic = nsr.basic_from_lns(fixtures.bool2())
    assert basic.oplus.tolist() == [[0, 1], [1, 1]]
    assert basic.neg.tolist() == [1, 0]


def test_basic_from_lns_mo2_is_not_associative():
    basic = nsr.basic_from_lns(fixtures.mo2())
    report = nsr.check_basic_algebra(basic)
    assert report.passed and report.tag("mv") is False
    op = basic.oplus
    assert any(op[op[x, y], z] != op[x, op[y, z]]
               for x in range(6) for y in range(6) for z in range(6))


def test_basic_from_lns_requires_lukasiewicz():
    with pytest.raises(PreconditionError):
        nsr.basic_from_lns(fixtures.ex28())


def test_lns_from_basic_mv3_gives_max_and_product():
    algebra = nsr.lns_from_basic(fixtures.mv3_basic())
    assert algebra.add.tolist() == [[0, 1, 2], [1, 1, 2], [2, 2, 2]]   # max
    assert algebra.mul.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 2]]   # truncated product
    assert nsr.check_axioms(algebra, "semiring").passed


def test_lns_from_basic_bool2_identity():
    basic = nsr.basic_from_lns(fixtures.bool2())
    assert nsr.lns_from_basic(basic).same_tables(fixtures.bool2())


def test_lns_from_basic_roundtrip_mo2():
    mo2 = fixtures.mo2()
    again = nsr.lns_from_basic(nsr.basic_from_lns(mo2))
    assert again.same_tables(mo2)


def test_ons_from_oml_mo2_projection_is_noncommutative():
    algebra = nsr.ons_from_oml(fixtures.mo2_ortholattice())
    a, b = 1, 3
    assert algebra.mul[a, b] == b
    assert algebra.mul[b, a] == a


def test_ons_from_oml_boolean_gives_meet():
    lat = fixtures.bool4_ortholattice()
    algebra = nsr.ons_from_oml(lat)
    assert np.array_equal(algebra.mul, lat.meet)


def test_ons_from_oml_chain2_is_bool2():
    algebra = nsr.ons_from_oml(fixtures.chain2_ortholattice())
    assert algebra.same_tables(fixtures.bool2())


def test_oml_from_ons_roundtrips():
    lat = fixtures.mo2_ortholattice()
    again = nsr.oml_from_ons(nsr.ons_from_oml(lat))
    assert again.same_tables(lat)
    b4 = fixtures.bool4_ortholattice()
    assert nsr.oml_from_ons(nsr.ons_from_oml(b4)).same_tables(b4)


def test_oml_from_ons_bool2_two_chain():
    lat = nsr.oml_from_ons(fixtures.bool2())
    assert lat.join.tolist() == [[0, 1], [1, 1]]
    assert lat.ortho.tolist() == [1, 0]


def test_oml_from_ons_requires_orthomodular():
    with pytest.raises(PreconditionError):
        nsr.oml_from_ons(fixtures.mv3())


def test_roundtrip_reports():
    assert nsr.roundtrip_check(fixtures.mv3(), "basic").pointwise_equal
    assert nsr.roundtrip_check(fixtures.mo2(), "oml").pointwise_equal
    assert nsr.roundtrip_check(fixtures.bool2(), "basic").pointwise_equal
    assert nsr.roundtrip_check(fixtures.mv3_basic(), "basic").pointwise_equal
    assert nsr.roundtrip_check(fixtures.mo2_ortholattice(), "oml").pointwise_equal


def test_roundtrip_report_renders_each_mismatch():
    report = transforms._compare("lns-via-basic", [("add", [[0, 1], [1, 1]], [[0, 1], [1, 0]]),
                                                   ("zero", 0, 1)], verbose=True)
    assert report.render() == ("roundtrip lns-via-basic: MISMATCH\n"
                               "  first mismatch: add(1, 1) expected 1, got 0\n"
                               "  also: zero() expected 0, got 1")
    report = transforms._compare("lns-via-basic",
                                 [("add", [[0, 1], [1, 1]], [[1, 1], [1, 0]])], False)
    assert report.render() == ("roundtrip lns-via-basic: MISMATCH\n"
                               "  first mismatch: add(0, 0) expected 0, got 1")


def test_roundtrip_rejects_wrong_via():
    with pytest.raises(nsr.AlgebraError):
        nsr.roundtrip_check(fixtures.mv3_basic(), "oml")
    with pytest.raises(nsr.AlgebraError):
        nsr.roundtrip_check(fixtures.mv3(), "nonsense")


def test_mv_tag_tracks_semiring_profile():
    # associative ⊕ on the basic side must match the semiring profile on the
    # near-semiring side, in both directions
    for name in ("BOOL2", "BOOL4", "MV3", "MO2", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        basic = nsr.basic_from_lns(algebra)
        assert (nsr.check_basic_algebra(basic).tag("mv")
                == nsr.check_axioms(algebra, "semiring").passed)


def test_roundtrip_identity_for_enumerated_lukasiewicz_models():
    for n in (1, 2, 3):
        result = nsr.enumerate_models(n, nsr.parse_constraint("involutive,lukasiewicz"))
        for model in result.models:
            assert nsr.roundtrip_check(model, "basic").pointwise_equal


def test_roundtrip_identity_for_enumerated_orthomodular_models():
    for n in (1, 2, 3, 4):
        constraint = nsr.parse_constraint("involutive,lukasiewicz,orthomodular")
        for model in nsr.enumerate_models(n, constraint).models:
            assert nsr.roundtrip_check(model, "oml").pointwise_equal
