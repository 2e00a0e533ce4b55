"""Kept results: clause verdicts and checker reports, computed once per structure.

Whatever order the checks run in on one live structure, each result equals
the same call on a fresh reload of the structure's document, where nothing
is kept yet.
"""
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import center, core, fixtures
from nearsemiring.core import AlgebraError, PreconditionError, TableStack

from test_congruences import small_tables

BASES = ("BOOL2", "EX24", "EX28", "APXA", "APXB", "MV3", "MO2", "BOOL4", "MV3xBOOL2")


@st.composite
def fixture_variants(draw):
    """A fixture relabelled by a drawn permutation, with zero to two cells changed."""
    base = fixtures.fixture(draw(st.sampled_from(BASES)))
    a = base.relabel(draw(st.permutations(range(base.n))))
    add, mul = a.add.copy(), a.mul.copy()
    for _ in range(draw(st.integers(0, 2))):
        table = draw(st.sampled_from([add, mul]))
        table[draw(st.integers(0, a.n - 1)), draw(st.integers(0, a.n - 1))] = \
            draw(st.integers(0, a.n - 1))
    return nsr.FiniteNearSemiring(add, mul, a.zero, a.one, inv=a.inv, name=a.name,
                                  labels=a.labels)


def _from_small_tables(drawn):
    add, mul, inv, _p, _q = drawn
    n = len(add)
    return nsr.FiniteNearSemiring(add, mul, 0, min(n - 1, 1), inv=inv)


algebras = fixture_variants() | small_tables().map(_from_small_tables)


def _structures(algebra):
    """The algebra, and with an involution the basic algebra and the ortholattice
    candidates on its sum table: (kind, structure) pairs."""
    out = [("ns", algebra)]
    if algebra.has_inv:
        out.append(("basic", nsr.BasicAlgebra(algebra.add, algebra.inv, algebra.zero,
                                              name="B", labels=algebra.labels)))
        out.append(("lattice", nsr.OrthoLattice(algebra.add, algebra.inv, algebra.zero,
                                                algebra.one, name="L", labels=algebra.labels)))
    return out


CLASSES = {"ns": nsr.FiniteNearSemiring, "basic": nsr.BasicAlgebra, "lattice": nsr.OrthoLattice}
CALLS = {
    "ns": [(f"profile {p}", lambda a, p=p: nsr.check_axioms(a, p)) for p in sorted(nsr.PROFILES)]
    + [("involution clauses",     # the engine itself needs the involution table
        lambda a: core.find_violations(a, core._INVOLUTION) if a.has_inv else {}),
       ("sum order", lambda a: nsr.induced_order(a, "sum")),
       ("mul order", lambda a: nsr.induced_order(a, which="mul")),
       ("default order", nsr.induced_order),
       ("involution", nsr.check_involution),
       ("core suite", nsr.core_property_suite),
       ("lukasiewicz", nsr.check_lukasiewicz),
       ("lukasiewicz suite", nsr.lukasiewicz_suite),
       ("orthomodular", nsr.check_orthomodular_ns),
       ("witness terms", nsr.witness_term_checks),
       ("selector", center.check_church),
       ("roundtrip basic", lambda a: nsr.roundtrip_check(a, "basic")),
       ("roundtrip oml", lambda a: nsr.roundtrip_check(a, "oml"))],
    "basic": [("basic algebra", nsr.check_basic_algebra),
              ("roundtrip", lambda b: nsr.roundtrip_check(b, "basic"))],
    "lattice": [("oml", nsr.check_oml),
                ("commutation suite", nsr.oml_commutes_suite),
                ("roundtrip", lambda l: nsr.roundtrip_check(l, "oml"))],
}


def _outcome(call, structure):
    """A call's result in comparable form, or its error's type and message."""
    try:
        result = call(structure)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, dict):
        return list(result.items())         # find_violations: clause order counts
    return result.to_dict()


@settings(max_examples=120, deadline=None)
@given(algebras, st.data())
def test_kept_results_do_not_depend_on_call_order(algebra, data):
    live = _structures(algebra)
    calls = [(kind, i) for kind, _s in live for i in range(len(CALLS[kind]))]
    order = data.draw(st.permutations(calls))
    order += data.draw(st.lists(st.sampled_from(calls), max_size=8))     # repeats
    structures = dict(live)
    for kind, i in order:
        _name, call = CALLS[kind][i]
        fresh = CLASSES[kind].from_document(structures[kind].to_document())
        assert _outcome(call, structures[kind]) == _outcome(call, fresh), CALLS[kind][i][0]


def test_kept_checkers_return_the_kept_report(monkeypatch):
    mv3, mo2 = fixtures.mv3(), fixtures.mo2()
    basic, lattice = nsr.basic_from_lns(mv3), nsr.oml_from_ons(mo2)
    calls = []
    original = core.ClauseSet.violations
    monkeypatch.setattr(core.ClauseSet, "violations",
                        lambda self, *args, **kw: calls.append(self) or original(self, *args, **kw))
    for checker, structure in ((nsr.check_lukasiewicz, mv3), (nsr.check_orthomodular_ns, mo2),
                               (nsr.check_basic_algebra, basic), (nsr.check_oml, lattice)):
        first = checker(structure)
        assert checker(structure) is first
    assert nsr.induced_order(mo2, "sum") is nsr.induced_order(mo2, "sum")
    assert calls == []                     # each was kept by the translations above
    twin = nsr.load_algebra(nsr.dump_algebra(mv3))
    assert nsr.check_lukasiewicz(twin) is not nsr.check_lukasiewicz(mv3)
    assert nsr.check_lukasiewicz(twin) == nsr.check_lukasiewicz(mv3)


def test_kept_checker_raises_again_on_a_second_call():
    mv3 = fixtures.mv3()
    add = mv3.add.copy()
    add[1, 2] = 1                          # h+1=h: no longer idempotent-commutative
    broken = nsr.FiniteNearSemiring(add, mv3.mul, mv3.zero, mv3.one, inv=mv3.inv)
    apxa = fixtures.apxa()
    for checker, structure in ((nsr.check_lukasiewicz, broken),
                               (nsr.check_orthomodular_ns, broken),
                               (nsr.induced_order, apxa)):
        messages = []
        for _ in range(2):
            with pytest.raises(PreconditionError) as caught:
                checker(structure)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert not any(isinstance(key, tuple) and key[0] is checker.__wrapped__
                       for key in structure._kept)
    with pytest.raises(AlgebraError, match="which must be"):
        nsr.induced_order(mv3, "neither")
    with pytest.raises(AlgebraError, match="which must be"):
        nsr.induced_order(mv3, "neither")


def test_kept_bypasses_objects_without_the_slot():
    made = []
    checker = core.kept(lambda structure, x: made.append(x) or object())
    mv3 = fixtures.mv3()
    stack = TableStack.of([mv3, mv3])
    assert checker(stack, 1) is not checker(stack, 1)
    assert checker(mv3, 1) is checker(mv3, 1) and checker(mv3, 2) is not checker(mv3, 1)
    assert made == [1, 1, 1, 2]

