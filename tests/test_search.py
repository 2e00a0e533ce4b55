import json
import multiprocessing
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import fixtures
from nearsemiring import search
from nearsemiring.search import SearchConstraint, canonical_form

import naive
from naive import naive_models


def test_enumerate_trivial_size_one():
    result = nsr.enumerate_models(1, nsr.parse_constraint("near-semiring"))
    assert len(result.models) == 1 and result.models[0].n == 1
    assert result.exhaustive


def test_enumerate_size_two_involutive_integral_matches_naive():
    constraint = nsr.parse_constraint("involutive-integral")
    result = nsr.enumerate_models(2, constraint)
    expected = naive_models(2, constraint)
    assert {canonical_form(m) for m in result.models} == expected
    assert len(result.models) == 1


def test_enumerate_lukasiewicz_includes_mv3():
    result = nsr.enumerate_models(3, nsr.parse_constraint("involutive,lukasiewicz"))
    assert any(nsr.are_isomorphic(m, fixtures.mv3()) is not None for m in result.models)


@pytest.mark.parametrize("names", [
    "near-semiring",
    "involutive-integral",
    "involutive,lukasiewicz",
    "involutive-integral,central-1",
    "semiring",
])
@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_matches_naive_oracle(n, names):
    constraint = nsr.parse_constraint(names)
    got = {canonical_form(m) for m in nsr.enumerate_models(n, constraint).models}
    assert got == naive_models(n, constraint)


def test_enumerate_outputs_pairwise_nonisomorphic():
    for names in ("near-semiring", "involutive-integral"):
        for n in (2, 3):
            models = nsr.enumerate_models(n, nsr.parse_constraint(names)).models
            for i, a in enumerate(models):
                for b in models[i + 1:]:
                    assert nsr.are_isomorphic(a, b) is None


def test_enumerate_emits_canonical_sorted_models():
    result = nsr.enumerate_models(3, nsr.parse_constraint("involutive-integral"))
    keys = [canonical_form(m) for m in result.models]
    assert keys == sorted(keys)
    for m in result.models:
        assert m.zero == 0 and m.one == 1
        assert nsr.check_axioms(m, "involutive-integral").passed


def test_enumerate_respects_size_cap():
    with pytest.raises(nsr.AlgebraError):
        nsr.enumerate_models(7, nsr.parse_constraint("involutive-integral"))


def test_parallel_enumeration_is_byte_identical():
    constraint = nsr.parse_constraint("involutive-integral")
    serial = nsr.enumerate_models(4, constraint)
    parallel = nsr.enumerate_models(4, constraint, workers=2)
    ser = [json.dumps(m.to_document()) for m in serial.models]
    par = [json.dumps(m.to_document()) for m in parallel.models]
    assert ser == par


def test_parallel_pool_has_at_most_one_worker_per_sum_table(monkeypatch):
    sizes = []
    real = multiprocessing.get_context

    class Spy:
        def __init__(self, method):
            self.ctx = real(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.ctx.Pool(processes)

    monkeypatch.setattr(multiprocessing, "get_context", Spy)
    constraint = nsr.parse_constraint("involutive-integral")
    assert len(search._canonical_add_tables(4, constraint)) == 2
    parallel = nsr.enumerate_models(4, constraint, workers=3)
    assert sizes == [2]
    assert [canonical_form(m) for m in parallel.models] == \
        [canonical_form(m) for m in nsr.enumerate_models(4, constraint).models]


@pytest.mark.parametrize("workers", [0, -3])
def test_enumerate_workers_below_one_is_rejected(workers):
    with pytest.raises(nsr.AlgebraError, match="at least 1"):
        nsr.enumerate_models(3, nsr.parse_constraint("involutive-integral"), workers=workers)


@pytest.mark.parametrize("names, sizes", [
    ("involutive-integral", range(1, 7)),
    ("near-semiring", range(1, 5)),
])
def test_column_candidates_match_plain_lists(names, sizes):
    constraint = nsr.parse_constraint(names)
    for n in sizes:
        for add in search._canonical_add_tables(n, constraint):
            got = search._column_candidates(add)
            assert sorted(got) == list(range(2, n))
            for z, cols in got.items():
                assert cols.tolist() == naive.right_distributive_columns(add.tolist(), z)


def test_column_candidates_memory_is_bounded_at_size_seven():
    # the join table of the chain 0 < 6 < 5 < ... < 2 < 1, the last canonical lattice root at n = 7
    rank = np.array([0, 6, 5, 4, 3, 2, 1])
    add = np.where(rank[:, None] >= rank[None, :], np.arange(7)[:, None], np.arange(7))
    tracemalloc.start()
    try:
        search._column_candidates(add)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_are_isomorphic_bool4_vs_product():
    witness = nsr.are_isomorphic(fixtures.bool4(), fixtures.fixture("BOOL2xBOOL2"))
    assert witness is not None


def test_are_isomorphic_size_mismatch_is_none():
    assert nsr.are_isomorphic(fixtures.mv3(), fixtures.bool2()) is None


def test_are_isomorphic_signature_mismatch_raises():
    with pytest.raises(nsr.AlgebraError):
        nsr.are_isomorphic(fixtures.ex24(), fixtures.mv3())


def test_are_isomorphic_recovers_relabeling():
    a = fixtures.ex24()
    perm = (2, 0, 1)
    b = a.relabel(perm)
    witness = nsr.are_isomorphic(a, b)
    assert witness == perm


def test_are_isomorphic_first_witness_is_lexicographic_least():
    b4 = fixtures.bool4()
    autos = [p for p in permutations(range(4)) if b4.relabel(p).same_tables(b4)]
    assert len(autos) == 2                  # identity and the middle swap
    assert nsr.are_isomorphic(b4, b4) == min(autos)


def test_identity_catalog_evaluation():
    mv3 = fixtures.mv3()
    assert nsr.identity_holds(nsr.IDENTITIES["lukasiewicz"], mv3)
    assert nsr.identity_holds(nsr.IDENTITIES["mv-semiring"], mv3)
    assert not nsr.identity_holds(nsr.IDENTITIES["orthomodular"], mv3)
    # h is not central, so the closed centrality identities fail on MV3
    assert not nsr.identity_holds(nsr.IDENTITIES["central-1"], mv3)
    assert not nsr.identity_holds(nsr.IDENTITIES["central-2"], mv3)
    b4 = fixtures.bool4()
    assert nsr.identity_holds(nsr.IDENTITIES["central-1"], b4)
    assert nsr.identity_holds(nsr.IDENTITIES["central-2"], b4)


def test_identity_first_violation_is_lexicographic():
    mv3 = fixtures.mv3()
    ident = nsr.IDENTITIES["central-1"]
    w = nsr.identity_first_violation(ident, mv3.add, mv3.mul, mv3.inv, mv3.n)
    assert w == (1, 0, 0)       # e=h, x=0, y=0


def test_find_model_definitive_verdicts_small():
    result = nsr.find_model(2, "near-semiring", "lukasiewicz")
    assert result.exhaustive ^ bool(result.models)
    result = nsr.find_model(3, "involutive-integral,central-2", "central-1")
    assert result.exhaustive and not result.models
    assert result.sizes == (1, 2, 3)


def test_find_model_witness_has_recorded_violation():
    # idempotent sum without the exchange identity exists at size 3
    result = nsr.find_model(3, "involutive-integral", "lukasiewicz")
    assert result.models
    model = result.models[0]
    assert nsr.check_axioms(model, "involutive-integral").passed
    (name, witness), = result.violations
    assert name == "lukasiewicz"
    env = dict(witness)
    x, y = env["x"], env["y"]
    inv, mul = model.inv, model.mul
    assert mul[inv[mul[x, inv[y]]], inv[y]] != mul[inv[mul[y, inv[x]]], inv[x]]


@pytest.mark.parametrize("satisfy, violate", [
    ("involutive-integral,central-1", ""),
    ("involutive-integral,central-1", "central-2"),
    ("involutive-integral,central-1", "central-2,lukasiewicz"),
    ("involutive-integral", "orthomodular"),
    ("involutive-integral", "lukasiewicz,mv-semiring"),
])
def test_find_model_splits_the_violate_set_for_both_constraint_forms(satisfy, violate):
    given_str = nsr.find_model(3, satisfy, violate)
    given_obj = nsr.find_model(3, nsr.parse_constraint(satisfy), violate)
    assert given_obj.exhaustive == given_str.exhaustive
    assert given_obj.sizes == given_str.sizes
    assert given_obj.violations == given_str.violations
    assert [m.to_document() for m in given_obj.models] \
        == [m.to_document() for m in given_str.models]
    if given_str.models:
        assert [name for name, _ in given_str.violations] == [s for s in violate.split(",") if s]


def test_enumerated_models_pass_independent_checkers():
    constraint = nsr.parse_constraint("involutive,lukasiewicz")
    for model in nsr.enumerate_models(3, constraint).models:
        assert nsr.check_lukasiewicz(model).passed
    constraint = nsr.parse_constraint("involutive,lukasiewicz,orthomodular")
    for model in nsr.enumerate_models(4, constraint).models:
        assert nsr.check_orthomodular_ns(model).passed


def test_canonicalize_is_stable():
    for name in ("MV3", "BOOL4", "MO2"):
        a = fixtures.fixture(name)
        c = nsr.canonicalize(a)
        assert canonical_form(c) == canonical_form(a)
        assert nsr.are_isomorphic(a, c) is not None
        assert canonical_form(nsr.canonicalize(c)) == canonical_form(c)


def test_canonical_form_invariant_under_relabeling():
    a = fixtures.fixture("MV3xBOOL2")
    perm = (3, 0, 5, 2, 4, 1)
    assert canonical_form(a.relabel(perm)) == canonical_form(a)


@st.composite
def random_algebras(draw):
    """Tables with no axioms, constants at random positions, with or without inv."""
    n = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    add = np.array(draw(cells)).reshape(n, n)
    mul = np.array(draw(cells)).reshape(n, n)
    zero, one = draw(st.permutations(range(n)))[:2] if n >= 2 else (0, 0)
    inv = draw(st.one_of(st.none(), st.permutations(range(n))))
    return nsr.FiniteNearSemiring(add, mul, zero, one, inv=inv)


@settings(max_examples=200, deadline=None)
@given(algebra=random_algebras(), data=st.data())
def test_canonical_form_and_relabel_match_plain_lists(algebra, data):
    add, mul = algebra.add.tolist(), algebra.mul.tolist()
    inv = None if algebra.inv is None else algebra.inv.tolist()
    assert canonical_form(algebra) == naive.canonical_form(
        add, mul, inv, algebra.zero, algebra.one)
    perm = data.draw(st.permutations(range(algebra.n)))
    got = algebra.relabel(perm)
    want = naive.relabel(add, mul, inv, perm)
    assert (got.add.tolist(), got.mul.tolist(), None if got.inv is None else got.inv.tolist()) \
        == want
    assert (got.zero, got.one) == (perm[algebra.zero], perm[algebra.one])


def test_canonical_form_refuses_more_than_ten_factorial_relabellings():
    zeros = np.zeros((13, 13), dtype=int)
    algebra = nsr.FiniteNearSemiring(zeros, zeros, 0, 1)
    for fn in (canonical_form, nsr.canonicalize):
        with pytest.raises(nsr.AlgebraError, match="39,916,800 relabellings"):
            fn(algebra)


def test_search_constraint_validation():
    with pytest.raises(nsr.AlgebraError):
        SearchConstraint(profiles=("no-such",))
    with pytest.raises(nsr.AlgebraError):
        nsr.parse_constraint("involutive, lukasiewicz")   # stray space
    c = nsr.parse_constraint("involutive,lukasiewicz", "central-2")
    assert c.profiles == ("involutive",)
    assert c.require == ("lukasiewicz",)
    assert c.forbid == ("central-2",)


# per profile: idempotent_add, integral, antitone_inv, needs_inv
PROFILE_FLAGS = {
    "near-semiring": (False, False, False, False),
    "idempotent-add": (True, False, False, False),
    "commutative-mul": (False, False, False, False),
    "associative-mul": (False, False, False, False),
    "integral": (False, True, False, False),
    "semiring": (False, False, False, False),
    "involutive": (True, False, True, True),
    "involutive-integral": (True, True, True, True),
}


def test_search_constraint_flags_follow_the_profiles():
    assert set(PROFILE_FLAGS) == set(nsr.PROFILES)
    for profile, flags in PROFILE_FLAGS.items():
        c = SearchConstraint(profiles=(profile,))
        assert (c.idempotent_add, c.integral, c.antitone_inv, c.needs_inv) == flags, profile
    both = SearchConstraint(profiles=("idempotent-add", "integral"))
    assert (both.idempotent_add, both.integral, both.antitone_inv, both.needs_inv) \
        == (True, True, False, False)
    assert SearchConstraint(require=("lukasiewicz",)).needs_inv
    assert SearchConstraint(forbid=("central-1",)).needs_inv
    assert not SearchConstraint().needs_inv


@pytest.mark.parametrize("names", sorted(nsr.PROFILES) + sorted(nsr.IDENTITIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_leaf_is_rejected_without_a_forbid_set(n, names):
    # a rejected leaf is a table the DFS should have pruned
    result = nsr.enumerate_models(n, nsr.parse_constraint(names))
    assert result.rejected == 0 and result.leaves >= len(result.models)


def test_no_leaf_is_rejected_for_involutive_at_size_five():
    result = nsr.enumerate_models(5, nsr.parse_constraint("involutive"))
    assert (result.leaves, result.rejected, len(result.models)) == (11863, 0, 10317)


def test_leaf_counts_stay_out_of_json():
    result = nsr.enumerate_models(3, nsr.parse_constraint("involutive-integral"))
    assert result.leaves > 0
    assert set(result.to_dict()) == {"models", "exhaustive", "nodes", "sizes", "violations"}


def _plain_involution_candidates(add, antitone):
    """Period-two permutations (antitone if asked), least of each orbit under the sum
    table's automorphisms, ascending; over plain lists."""
    n = len(add)
    fixed = list(range(min(n, 2)))
    autos = [p for p in permutations(range(n)) if list(p[:len(fixed)]) == fixed
             and naive.relabel(add, add, None, p)[0] == add]
    keys = {min(tuple(naive.relabel(add, add, inv, p)[2]) for p in autos)
            for inv in naive._involutions(n) if not antitone or naive._antitone(add, inv, n)}
    return [list(key) for key in sorted(keys)]


@pytest.mark.parametrize("names, sizes", [
    ("involutive-integral", range(1, 7)),
    ("involutive", range(1, 6)),
])
def test_involution_candidates_match_plain_lists(names, sizes):
    constraint = nsr.parse_constraint(names)
    for n in sizes:
        for add in search._canonical_add_tables(n, constraint):
            got = search._involution_candidates(add, constraint)
            assert [inv.tolist() for inv in got] == \
                _plain_involution_candidates(add.tolist(), constraint.antitone_inv)


# counts from the paper's representation theorems, n = 1..6: finite MV-algebras (the
# Łukasiewicz near semirings that are semirings) are products of Łukasiewicz chains,
# one per unordered factorization of n (OEIS A001055); orthomodular lattices; and
# basic algebras (the Łukasiewicz near semirings)
@pytest.mark.parametrize("names, counts", [
    ("involutive-integral,lukasiewicz,semiring", (1, 1, 1, 2, 1, 2)),
    ("involutive-integral,lukasiewicz,associative-mul", (1, 1, 1, 2, 1, 2)),
    ("involutive-integral,lukasiewicz,commutative-mul", (1, 1, 1, 2, 1, 2)),
    ("involutive-integral,lukasiewicz,orthomodular", (1, 1, 0, 1, 0, 1)),
    ("involutive-integral,lukasiewicz", (1, 1, 1, 3, 4, 11)),
])
def test_model_counts_match_the_representation_theorems(names, counts):
    constraint = nsr.parse_constraint(names)
    got = tuple(len(nsr.enumerate_models(n, constraint).models) for n in range(1, 7))
    assert got == counts
