from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import core, fixtures, varieties
from nearsemiring.core import PreconditionError
from nearsemiring.varieties import BasicAlgebra, OrthoLattice


def test_lukasiewicz_bool2():
    report = nsr.check_lukasiewicz(fixtures.bool2())
    assert report.passed and report.tag("semiring") is True


def test_lukasiewicz_mv3_semiring_tag():
    report = nsr.check_lukasiewicz(fixtures.mv3())
    assert report.passed and report.tag("semiring") is True


def test_lukasiewicz_ex28_fails_with_first_pair():
    report = nsr.check_lukasiewicz(fixtures.ex28())
    assert not report.passed
    assert report.violations[0].clause == "lukasiewicz"
    assert report.violations[0].witness == (0, 1)
    # consistent with non-integrality: the exchange identity forces x+1=1
    assert not nsr.check_axioms(fixtures.ex28(), "integral").passed


def test_lukasiewicz_requires_involutive():
    with pytest.raises(PreconditionError):
        nsr.check_lukasiewicz(fixtures.ex24())


def test_lukasiewicz_suite_mv3_all_pass():
    report = nsr.lukasiewicz_suite(fixtures.mv3())
    assert report.passed
    assert report.clause("mv-sum-recovery").counterexample is None
    assert report.clause("assoc-implies-comm").detail == ""


def test_lukasiewicz_suite_bool2():
    assert nsr.lukasiewicz_suite(fixtures.bool2()).passed


def test_lukasiewicz_suite_mo2_vacuous_and_skipped():
    report = nsr.lukasiewicz_suite(fixtures.mo2())
    assert report.passed
    assert "vacuous" in report.clause("assoc-implies-comm").detail
    assert "vacuous" in report.clause("assoc-implies-left-distributivity").detail
    assert "skipped" in report.clause("mv-sum-recovery").detail
    for name in ("self-annihilation", "integrality", "annihilates-sum-complement",
                 "sum-cancellation", "sum-recovery", "order-via-product"):
        assert report.clause(name).passed


def test_sectional_involution_at_zero_is_alpha():
    b = fixtures.bool2()
    sec = nsr.sectional_involution(b, 0)
    assert sec.carrier == (0, 1)
    assert sec.images == tuple(int(v) for v in b.inv)


def test_sectional_involution_mv3_swaps_h_and_one():
    sec = nsr.sectional_involution(fixtures.mv3(), 1)
    assert sec.as_mapping() == {1: 2, 2: 1}


def test_sectional_involution_singleton():
    sec = nsr.sectional_involution(fixtures.mv3(), 2)
    assert sec.as_mapping() == {2: 2}


def test_sectional_involution_out_of_range():
    with pytest.raises(nsr.AlgebraError):
        nsr.sectional_involution(fixtures.mv3(), 9)


def test_sectional_involution_reverses_interval_order():
    a = fixtures.mo2()
    for base in range(a.n):
        sec = nsr.sectional_involution(a, base)
        h = sec.as_mapping()
        for x in sec.carrier:
            assert h[h[x]] == x
            for y in sec.carrier:
                if a.add[x, y] == y:
                    assert a.add[h[y], h[x]] == h[x]


def test_orthomodular_mo2_passes():
    report = nsr.check_orthomodular_ns(fixtures.mo2())
    assert report.passed
    assert report.tag("interval-multiplication-prose-variant") is False


def test_orthomodular_bool2_passes():
    assert nsr.check_orthomodular_ns(fixtures.bool2()).passed


def test_orthomodular_mv3_fails_absorption():
    report = nsr.check_orthomodular_ns(fixtures.mv3())
    assert not report.passed
    v = {v.clause: v for v in report.violations}["mul-absorbs-sum"]
    assert v.witness == (1, 0)                # h·(h+0) = h·h = 0 ≠ h


MV3_BASIC = fixtures.mv3_basic()
BOOL2_BASIC = BasicAlgebra([[0, 1], [1, 1]], [1, 0], 0, name="B2")


def test_basic_algebra_mv3_passes_with_mv_tag():
    report = nsr.check_basic_algebra(MV3_BASIC)
    assert report.passed and report.tag("mv") is True


def test_basic_algebra_bool2():
    report = nsr.check_basic_algebra(BOOL2_BASIC)
    assert report.passed and report.tag("mv") is True


def test_basic_algebra_perturbed_mv3_fails_ba3_or_ba4():
    op = np.array(MV3_BASIC.oplus)
    op[1, 1] = 0
    bad = BasicAlgebra(op, MV3_BASIC.neg, 0, name="MV3broken")
    report = nsr.check_basic_algebra(bad)
    assert not report.passed
    clauses = {v.clause for v in report.violations}
    assert clauses & {"BA3", "BA4"}
    assert not clauses & {"BA1", "BA2"}


def test_basic_algebra_one_is_neg_zero():
    assert MV3_BASIC.one == 2


def test_basic_algebra_order_consistency_clauses():
    report = nsr.check_basic_algebra(MV3_BASIC)
    assert not any(v.clause.startswith("order") for v in report.violations)


def test_basic_algebra_irreflexive_order_pins_diagonal_witness():
    # identity negation makes x'⊕x = x⊕x, which is not constantly 1
    bad = BasicAlgebra(MV3_BASIC.oplus, [0, 1, 2], 0, name="degenerate")
    report = nsr.check_basic_algebra(bad)
    v = {v.clause: v for v in report.violations}["order-partial-order"]
    assert v.witness == (1, 1)
    assert "reflexive" in v.equation


MO2_LAT = fixtures.mo2_ortholattice()


def test_oml_mo2_passes():
    assert nsr.check_oml(MO2_LAT).passed


def test_oml_bool4_passes():
    assert nsr.check_oml(fixtures.bool4_ortholattice()).passed


def _pentagon_with_fake_complement():
    # 0 < a < c < 1 and 0 < b < 1, with b incomparable to a and c;
    # the candidate complement swaps a and c, fixes b
    n = 5
    ZERO, A, B, C, ONE = range(5)
    leq = np.eye(n, dtype=bool)
    leq[ZERO, :] = True
    leq[:, ONE] = True
    leq[A, C] = True
    join = np.empty((n, n), dtype=int)
    for x in range(n):
        for y in range(n):
            ub = [z for z in range(n) if leq[x, z] and leq[y, z]]
            join[x, y] = [z for z in ub if all(leq[z, w] for w in ub)][0]
    return OrthoLattice(join, [ONE, C, B, A, ZERO], ZERO, ONE,
                        name="N5fake", labels=("0", "a", "b", "c", "1"))


def test_oml_pentagon_lattice_passes_but_orthomodular_fails():
    report = nsr.check_oml(_pentagon_with_fake_complement())
    assert not report.passed
    failed = {v.clause for v in report.violations}
    lattice_clauses = {"join-idempotence", "join-commutativity", "join-associativity",
                       "meet-idempotence", "meet-commutativity", "meet-associativity",
                       "absorption", "bounds"}
    assert not failed & lattice_clauses
    assert "orthomodular-identity" in failed
    v = {v.clause: v for v in report.violations}["orthomodular-identity"]
    assert v.witness == (0, 1)


def test_oml_commutes_suite_mo2():
    report = nsr.oml_commutes_suite(MO2_LAT)
    assert report.passed
    # distinct atoms commute only with themselves, their complement and the
    # bounds, so the distributivity instances are sparse: 2*36 + 4*16 = 136
    detail = report.clause("restricted-distributivity").detail
    assert detail == "checked 136 commuting triples"


def test_oml_commutes_suite_bool4_all_pairs_commute():
    lat = fixtures.bool4_ortholattice()
    report = nsr.oml_commutes_suite(lat)
    assert report.passed
    assert report.clause("restricted-distributivity").detail == "checked 64 commuting triples"


def test_oml_commutes_suite_chain2():
    assert nsr.oml_commutes_suite(fixtures.chain2_ortholattice()).passed


def _commutation_matches_loops(lat):
    """The three commutation clauses, evaluated straight through the clause set, and the
    whole suite with its OML precondition bypassed, against the loops in naive.py."""
    loops = naive.oml_commutation(lat.join.tolist(), lat.meet.tolist(), lat.ortho.tolist(),
                                  lat.labels)
    found = core.find_violations(lat, varieties._COMMUTES)
    assert [(c.name, c.name not in found, found[c.name].witness if c.name in found else None,
             found[c.name].equation if c.name in found else "")
            for c in varieties._COMMUTES.clauses[:3]] == loops[:3]
    with mock.patch.object(varieties, "require_oml", lambda *args: None):
        report = varieties.oml_commutes_suite(lat)
    assert [(r.clause, r.passed, r.counterexample, r.detail) for r in report.clauses] == loops
    return loops


@pytest.mark.parametrize("lat", [MO2_LAT, fixtures.chain2_ortholattice(),
                                 fixtures.bool4_ortholattice(), _pentagon_with_fake_complement()],
                         ids=lambda lat: lat.name)
def test_commutation_clauses_match_the_loops_on_the_fixtures(lat):
    loops = _commutation_matches_loops(lat)
    assert all(passed for _name, passed, _w, _d in loops) == (lat.name != "N5fake")


@st.composite
def join_ortho_tables(draw):
    """A join table (arbitrary, or the join of a random chain) and an ortho permutation."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        join = [[x if rank[x] >= rank[y] else y for y in range(n)] for x in range(n)]
    else:
        join = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    zero, one = draw(st.permutations(range(n)))[:2] if n >= 2 else (0, 0)
    return OrthoLattice(join, draw(st.permutations(range(n))), zero, one,
                        labels=tuple(f"<{x}>" for x in range(n)))


@settings(max_examples=150, deadline=None)
@given(join_ortho_tables())
def test_commutation_clauses_match_the_loops_on_drawn_tables(lat):
    _commutation_matches_loops(lat)


def test_lukasiewicz_implies_integral_on_fixtures():
    for name in ("BOOL2", "BOOL4", "MV3", "MO2", "MV3xBOOL2"):
        a = fixtures.fixture(name)
        if nsr.check_lukasiewicz(a).passed:
            assert nsr.check_axioms(a, "integral").passed


def test_order_via_product_matches_sum_order_matrix():
    for name in ("MV3", "MO2", "BOOL4"):
        a = fixtures.fixture(name)
        order = nsr.induced_order(a, "sum")
        rel = np.zeros_like(order.leq)
        for x in range(a.n):
            for y in range(a.n):
                rel[x, y] = a.mul[x, a.inv[y]] == a.zero
        assert np.array_equal(order.leq, rel)
