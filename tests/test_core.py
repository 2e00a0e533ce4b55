import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import core, fixtures
from nearsemiring.core import DocumentError, PreconditionError


EX24_DOC = json.dumps(fixtures.ex24().to_document())


def test_load_ex24_matches_tables():
    a = nsr.load_algebra(EX24_DOC)
    # a+1=a and 1·a=a in the printed labelling 0,a,1
    assert a.label(1) == "a" and a.label(2) == "1"
    assert a.add[1, 2] == 1
    assert a.mul[2, 1] == 1
    assert a.zero == 0 and a.one == 2


def test_load_rejects_out_of_range_entry():
    doc = fixtures.ex24().to_document()
    doc["add"][0][0] = 7
    with pytest.raises(DocumentError):
        nsr.load_algebra(json.dumps(doc))


def test_load_rejects_non_integer_entries():
    doc = fixtures.ex24().to_document()
    doc["add"][0][0] = 0.5
    with pytest.raises(DocumentError, match="integer"):
        nsr.load_algebra(json.dumps(doc))
    doc = fixtures.ex24().to_document()
    doc["mul"][0][0] = "0"
    with pytest.raises(DocumentError, match="integer"):
        nsr.FiniteNearSemiring.from_document(doc)


def test_load_rejects_bad_involution_and_empty_universe():
    doc = fixtures.ex28().to_document()
    doc["inv"] = [0, 0, 2]
    with pytest.raises(DocumentError):
        nsr.load_algebra(json.dumps(doc))
    with pytest.raises(DocumentError):
        nsr.load_algebra(json.dumps({"name": "E", "size": 0, "zero": 0, "one": 0,
                                     "add": [], "mul": []}))


def test_apxb_loads_despite_broken_annihilation():
    a = fixtures.apxb()
    assert a.mul[0, 2] == 2  # 0·a = a as printed
    report = nsr.check_axioms(a, "near-semiring")
    assert not report.passed


def test_document_roundtrip_preserves_tables():
    for name in ("EX24", "EX28", "APXA", "APXB", "MV3", "MO2"):
        a = fixtures.fixture(name)
        b = nsr.load_algebra(nsr.dump_algebra(a))
        assert a.same_tables(b)
        assert a.labels == b.labels


def test_check_axioms_ex24_integral():
    report = nsr.check_axioms(fixtures.ex24(), "integral")
    assert not report.passed
    assert report.violations == (
        nsr.Violation("integrality", (1,), "a+1=a"),)


def test_check_axioms_bool2_semiring_passes():
    assert nsr.check_axioms(fixtures.bool2(), "semiring").passed


def test_check_axioms_apxb_near_semiring():
    report = nsr.check_axioms(fixtures.apxb(), "near-semiring")
    bad = {v.clause: v for v in report.violations}
    assert bad["annihilation"].witness == (2,)
    assert bad["annihilation"].equation == "0·a=a"


def test_check_axioms_apxa_idempotence_and_neutrality():
    a = fixtures.apxa()
    rep = nsr.check_axioms(a, "idempotent-add")
    assert rep.violations == (
        nsr.Violation("add-idempotence", (4,), "b+b=a"),)
    rep = nsr.check_axioms(a, "near-semiring")
    bad = {v.clause: v for v in rep.violations}
    assert bad["add-neutral"].equation == "0+b=a"
    assert bad["add-neutral"].witness == (4,)


def test_check_axioms_unknown_profile_and_missing_inv():
    with pytest.raises(nsr.AlgebraError):
        nsr.check_axioms(fixtures.bool2(), "nonsense")
    with pytest.raises(PreconditionError):
        nsr.check_axioms(fixtures.ex24(), "involutive")


def test_violations_sorted_by_clause_then_witness():
    report = nsr.check_axioms(fixtures.apxa(), "near-semiring")
    keys = [(v.clause, v.witness) for v in report.violations]
    assert keys == sorted(keys)


def test_induced_order_ex24_sum_chain():
    order = nsr.induced_order(fixtures.ex24(), "sum")
    assert order.is_partial_order and order.is_join_semilattice
    assert order.bottom == 0 and order.top == 1          # top carries label "a"
    assert order.covers() == ((0, 2), (2, 1))            # 0 < 1 < a


def test_induced_order_ex24_mul_chain():
    order = nsr.induced_order(fixtures.ex24(), "mul")
    assert order.is_partial_order
    assert order.bottom == 0 and order.top == 2          # top carries label "1"
    assert order.covers() == ((0, 1), (1, 2))            # 0 < a < 1


def test_induced_order_bool2():
    order = nsr.induced_order(fixtures.bool2(), "sum")
    assert order.covers() == ((0, 1),)


def test_induced_order_precondition_names_witness():
    with pytest.raises(PreconditionError, match=r"b\+b=a"):
        nsr.induced_order(fixtures.apxa(), "sum")
    z2 = nsr.FiniteNearSemiring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1, name="Z2")
    with pytest.raises(PreconditionError, match="idempotent"):
        nsr.induced_order(z2, "sum")


def test_check_involution_ex28():
    a = fixtures.ex28()
    report = nsr.check_involution(a)
    assert report.passed
    assert a.inv[a.zero] == 2 and a.one == 1             # α(0)=2≠1


def test_check_involution_bool2_complement():
    assert nsr.check_involution(fixtures.bool2()).passed


def test_check_involution_identity_map_fails_antitone():
    a = fixtures.ex28()
    bad = nsr.FiniteNearSemiring(a.add, a.mul, a.zero, a.one, inv=[0, 1, 2],
                                 name="EX28-id")
    report = nsr.check_involution(bad)
    assert not report.passed
    v = report.violations[0]
    assert v.clause == "involution-antitone"
    assert v.witness == (0, 1)


def test_check_involution_requires_inv_and_order():
    with pytest.raises(PreconditionError):
        nsr.check_involution(fixtures.ex24())


def test_dual_ex28():
    dual = nsr.dual_algebra(fixtures.ex28())
    assert dual.zero == 2 and dual.one == 1
    assert nsr.check_axioms(dual, "involutive").passed


def test_dual_refuses_an_involution_that_is_not_antitone():
    bool4 = fixtures.bool4()
    identity = nsr.FiniteNearSemiring(bool4.add, bool4.mul, bool4.zero, bool4.one, inv=range(4),
                                      name="BOOL4id")
    with pytest.raises(PreconditionError) as refused:
        nsr.dual_algebra(identity)
    assert str(refused.value) == ("BOOL4id has no valid involution: "
                                  "involution-antitone: 0≤1 but α(1)≰α(0)")


def test_dual_bool2_swaps_operations():
    b = fixtures.bool2()
    dual = nsr.dual_algebra(b)
    assert np.array_equal(dual.add, b.mul)
    assert np.array_equal(dual.mul, b.add)
    assert dual.zero == b.one and dual.one == b.zero


def test_dual_is_involutive_on_algebras():
    a = fixtures.ex28()
    back = nsr.dual_algebra(nsr.dual_algebra(a))
    assert back.same_tables(a)


def test_dual_duality_identities_hold():
    a = fixtures.ex28()
    dual = nsr.dual_algebra(a)
    inv = a.inv
    for x in range(a.n):
        for y in range(a.n):
            assert a.add[x, y] == inv[dual.add[inv[x], inv[y]]]
            assert a.mul[x, y] == inv[dual.mul[inv[x], inv[y]]]


def test_core_property_suite_ex28_biconditional_both_false():
    report = nsr.core_property_suite(fixtures.ex28())
    assert report.passed
    clause = report.clause("integral-iff-inv-zero-is-one")
    assert clause.passed and "fail" in clause.detail


def test_core_property_suite_inv_zero_is_one_but_not_integral():
    # a near semiring on the chain 0 < 1 < 2 whose one is not the top: 2+1 = 2
    chain = [[max(x, y) for y in range(3)] for x in range(3)]
    mul = [[0 if 0 in (x, y) else max(x, y) for y in range(3)] for x in range(3)]
    algebra = nsr.FiniteNearSemiring(chain, mul, 0, 1, inv=[1, 0, 2], labels=("z", "u", "t"))
    clause = nsr.core_property_suite(algebra).clause("integral-iff-inv-zero-is-one")
    assert (clause.passed, clause.counterexample, clause.detail) == (
        False, (2,), "α(z)=u but t+u≠u")


def test_core_property_suite_bool2_and_mv3():
    assert nsr.core_property_suite(fixtures.bool2()).passed
    assert nsr.core_property_suite(fixtures.mv3()).passed


def test_core_property_suite_monotonicity_on_plain_near_semiring():
    report = nsr.core_property_suite(fixtures.ex24())
    assert report.clause("mul-right-monotone").passed
    assert "skipped" in report.clause("inv-sum-absorption").detail


def test_product_algebra_componentwise():
    p = nsr.product_algebra(fixtures.mv3(), fixtures.bool2())
    assert p.n == 6 and p.zero == 0 and p.one == 5
    assert nsr.check_axioms(p, "involutive-integral").passed
    with pytest.raises(nsr.AlgebraError):
        nsr.product_algebra(fixtures.mv3(), fixtures.ex24())


def test_reports_are_deterministic():
    a = fixtures.apxa()
    r1 = nsr.check_axioms(a, "near-semiring")
    r2 = nsr.check_axioms(a, "near-semiring")
    assert r1 == r2
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


@st.composite
def random_algebras(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    cell = st.integers(min_value=0, max_value=n - 1)
    table = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    add = draw(table)
    mul = draw(table)
    inv = draw(st.one_of(st.none(), st.permutations(range(n))))
    one = 1 if n >= 2 else 0
    return nsr.FiniteNearSemiring(add, mul, 0, one, inv=inv, name="rand")


@settings(max_examples=60, deadline=None)
@given(random_algebras())
def test_document_roundtrip_random(algebra):
    again = nsr.load_algebra(nsr.dump_algebra(algebra))
    assert algebra.same_tables(again)


@settings(max_examples=60, deadline=None)
@given(random_algebras(), st.randoms(use_true_random=False))
def test_relabel_preserves_check_verdicts(algebra, rng):
    perm = list(range(algebra.n))
    rng.shuffle(perm)
    other = algebra.relabel(perm)
    for profile in ("near-semiring", "idempotent-add", "integral"):
        assert (nsr.check_axioms(algebra, profile).passed
                == nsr.check_axioms(other, profile).passed)


def _count_evaluations(monkeypatch):
    calls = []
    original = core.ClauseSet.violations

    def spy(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(core.ClauseSet, "violations", spy)
    return calls


def test_find_violations_evaluates_a_clause_set_once_per_structure(monkeypatch):
    apxb = fixtures.apxb()
    clauses = core._PROFILE_CLAUSES["near-semiring"]
    calls = _count_evaluations(monkeypatch)
    first = core.find_violations(apxb, clauses)
    second = core.find_violations(apxb, clauses)
    assert first and second == first and second is not first
    assert nsr.check_axioms(apxb, "near-semiring").violations == tuple(
        sorted(first.values(), key=lambda v: (v.clause, v.witness)))
    assert calls == [clauses]
    # every clause's verdict is kept, a passing one as None
    assert all(apxb._kept[c] == first.get(c.name) for c in clauses.clauses)
    assert None in (apxb._kept[c] for c in clauses.clauses)


def _mutant(name, table, x, y, value):
    a = fixtures.fixture(name)
    tables = {"add": a.add.copy(), "mul": a.mul.copy()}
    tables[table][x, y] = value
    return nsr.FiniteNearSemiring(tables["add"], tables["mul"], a.zero, a.one, inv=a.inv,
                                  labels=a.labels)


def test_find_violations_evaluates_only_the_clauses_not_kept(monkeypatch):
    profiles = ("near-semiring", "semiring", "involutive", "involutive-integral", "integral")
    sets = [core._PROFILE_CLAUSES[p] for p in profiles]
    mutant = _mutant("MV3", "mul", 2, 1, 2)       # 1·h=1 breaks the unit and more
    other = fixtures.mv3()
    fresh = [c.violations(mutant.ops(), mutant.n, mutant.labels) for c in sets]
    calls = _count_evaluations(monkeypatch)
    got = [core.find_violations(mutant, c) for c in sets]
    # equal to a whole-set evaluation, in clause order
    assert [list(g.items()) for g in got] == [list(f.items()) for f in fresh]
    assert got[1] and got[2] != got[1]
    assert [tuple(c.name for c in s.clauses) for s in calls] == [
        core.PROFILES["near-semiring"],
        ("mul-associativity", "left-distributivity"),
        ("add-idempotence", "involution-period-two", "involution-antitone"),
        ("integrality",),
    ]
    assert calls[0] is sets[0]
    for c in sets:                                # everything is kept now
        core.find_violations(mutant, c)
    assert len(calls) == 4
    # a compiled subset is cached: another structure missing the same clauses reuses it
    for c in sets[:2]:
        core.find_violations(other, c)
    assert calls[4:] == [sets[0], calls[1]] and calls[5] is calls[1]


def test_find_violations_result_is_a_fresh_dict():
    apxb = fixtures.apxb()
    clauses = core._PROFILE_CLAUSES["near-semiring"]
    expected = dict(core.find_violations(apxb, clauses))
    core.find_violations(apxb, clauses).clear()
    core.find_violations(apxb, clauses)["extra"] = None
    assert core.find_violations(apxb, clauses) == expected


def test_equal_tables_in_a_new_object_are_evaluated_again(monkeypatch):
    mv3 = fixtures.mv3()
    twin = nsr.load_algebra(nsr.dump_algebra(mv3))
    assert twin.same_tables(mv3)
    calls = _count_evaluations(monkeypatch)
    for _ in range(2):
        assert nsr.check_axioms(mv3, "involutive") == nsr.check_axioms(twin, "involutive")
    assert calls == [core._PROFILE_CLAUSES["involutive"]] * 2


def test_pickled_structures_leave_kept_results_behind():
    mv3 = fixtures.mv3()
    basic = nsr.basic_from_lns(mv3)
    assert mv3._kept and basic._kept
    # clause verdicts and checker reports alike
    assert any(isinstance(key, core.Clause) for key in mv3._kept)
    assert any(isinstance(key, tuple) for key in mv3._kept)
    for structure in (mv3, basic, nsr.oml_from_ons(fixtures.mo2())):
        again = pickle.loads(pickle.dumps(structure))
        assert again.same_tables(structure) and again.labels == structure.labels
        assert again._kept == {}
