import json
import math
import multiprocessing
import tracemalloc
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import core, fixtures
from nearsemiring import search
from nearsemiring.cli import main
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


def test_enumerate_takes_names_as_find_model_does():
    want = [canonical_form(m) for m in nsr.enumerate_models(
        4, nsr.parse_constraint("involutive-integral,lukasiewicz")).models]
    assert len(want) > 1
    for names in ("involutive-integral,lukasiewicz", ["involutive-integral", "lukasiewicz"]):
        assert [canonical_form(m) for m in nsr.enumerate_models(4, names).models] == want
    with pytest.raises(nsr.AlgebraError, match="^unknown profile or identity 'bogus'$"):
        nsr.enumerate_models(4, "involutive,bogus")


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


@pytest.mark.parametrize("bad", [True, np.bool_(False), 2.5, np.float64(2.0), "3"])
def test_search_sizes_and_worker_counts_must_be_integers(bad):
    constraint = nsr.parse_constraint("involutive-integral")
    for call in (lambda: nsr.enumerate_models(bad), lambda: nsr.find_model(bad, "", ""),
                 lambda: nsr.enumerate_models(2, constraint, workers=bad)):
        with pytest.raises(nsr.AlgebraError, match=r" must be an integer, got "):
            call()
    # numpy integers are integers
    documents = lambda result: [m.to_document() for m in result.models]
    assert documents(nsr.enumerate_models(np.int64(3), constraint, workers=np.uint8(1))) == \
        documents(nsr.enumerate_models(3, constraint))
    assert documents(nsr.find_model(np.int32(2), "", "")) == documents(nsr.find_model(2, "", ""))


def test_sizes_above_the_cap_need_allow_large():
    for call in (lambda: nsr.enumerate_models(7), lambda: nsr.find_model(7, "", "")):
        with pytest.raises(nsr.AlgebraError,
                           match=r"^size 7 exceeds the default cap 6; pass allow_large=True$"):
            call()


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


def test_are_isomorphic_refuses_a_different_involution_before_relabelling(monkeypatch):
    bool4 = fixtures.bool4()
    identity = nsr.FiniteNearSemiring(bool4.add, bool4.mul, bool4.zero, bool4.one, inv=range(4))
    compared = []
    same_tables = nsr.FiniteNearSemiring.same_tables
    monkeypatch.setattr(nsr.FiniteNearSemiring, "same_tables",
                        lambda a, b: compared.append(b.name) or same_tables(a, b))
    assert nsr.are_isomorphic(bool4, identity) is None and compared == []
    assert nsr.are_isomorphic(bool4, bool4) is not None and compared == ["BOOL4"]


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_are_isomorphic_gives_the_least_isomorphism(data):
    a = data.draw(random_algebras(6))
    b = a.relabel(data.draw(st.permutations(range(a.n))))
    add, mul = a.add.tolist(), a.mul.tolist()
    inv = None if a.inv is None else a.inv.tolist()
    want = [p for p in permutations(range(a.n))
            if (p[a.zero], p[a.one]) == (b.zero, b.one) and naive.relabel(add, mul, inv, p)
            == (b.add.tolist(), b.mul.tolist(), None if b.inv is None else b.inv.tolist())]
    assert nsr.are_isomorphic(a, b) == min(want)


@pytest.mark.parametrize("name, seed", [("BOOL2xBOOL2xBOOL2xBOOL2xBOOL2", 5),
                                        ("MO2xBOOL2xBOOL2", 24)])
def test_are_isomorphic_at_large_sizes(name, seed):
    # n = 32 and 24: the least witness, each way round, is at most the known relabelling
    a = fixtures.fixture(name)
    perm = tuple(np.random.default_rng(seed).permutation(a.n).tolist())
    b = a.relabel(perm)
    for source, target, known in ((a, b, perm), (b, a, tuple(np.argsort(perm).tolist()))):
        witness = nsr.are_isomorphic(source, target)
        assert source.relabel(witness).same_tables(target) and witness <= known


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


def test_identity_first_violation_of_stacked_tables_gives_one_witness_per_slice():
    mv3 = fixtures.mv3()
    stack = nsr.TableStack.of([mv3, mv3])
    ortho = nsr.IDENTITIES["orthomodular"]
    got = nsr.identity_first_violation(ortho, stack.add, stack.mul, stack.inv, stack.n)
    assert got == [(1, 0), (1, 0)]
    assert got == [nsr.identity_first_violation(ortho, a.add, a.mul, a.inv, a.n) for a in stack]


@pytest.mark.parametrize("mask", [False, True])
def test_an_identity_that_reads_the_involution_needs_one(mask):
    mv3 = fixtures.mv3()
    for name in ("lukasiewicz", "mv-semiring", "central-1", "central-2"):
        with pytest.raises(nsr.AlgebraError, match=f"^identity '{name}' needs an involution$"):
            nsr.identity_first_violation(nsr.IDENTITIES[name], mv3.add, mv3.mul, None, mv3.n,
                                         mask=mask)
    plain = nsr.FiniteNearSemiring(mv3.add, mv3.mul, mv3.zero, mv3.one)
    with pytest.raises(nsr.AlgebraError, match="^identity 'lukasiewicz' needs an involution$"):
        nsr.identity_holds(nsr.IDENTITIES["lukasiewicz"], plain)
    # an identity without α needs no involution
    ortho = nsr.IDENTITIES["orthomodular"]
    assert nsr.identity_first_violation(ortho, mv3.add, mv3.mul, None, mv3.n, mask=mask) == \
        nsr.identity_first_violation(ortho, mv3.add, mv3.mul, mv3.inv, mv3.n, mask=mask)


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


@pytest.mark.parametrize("forbid, violate", [
    ("lukasiewicz", ""),
    ("lukasiewicz", "orthomodular"),
    ("lukasiewicz", "orthomodular,lukasiewicz"),
    ("", "lukasiewicz"),
    ("", ""),
])
def test_find_model_keeps_a_constraints_own_forbid_set(forbid, violate):
    names = list(dict.fromkeys(s for s in f"{forbid},{violate}".split(",") if s))
    given_str = nsr.find_model(3, "involutive-integral", ",".join(names))
    given_obj = nsr.find_model(3, nsr.parse_constraint("involutive-integral", forbid), violate)
    assert given_obj.exhaustive == given_str.exhaustive
    assert given_obj.violations == given_str.violations
    assert [m.to_document() for m in given_obj.models] \
        == [m.to_document() for m in given_str.models]
    assert [name for name, _ in given_obj.violations] == (names if given_obj.models else [])
    for model in given_obj.models:
        for name in names:
            assert not nsr.identity_holds(nsr.IDENTITIES[name], model), name


def test_find_model_with_a_forbidding_constraint_skips_models_that_satisfy_it():
    constraint = nsr.SearchConstraint(("involutive-integral",), (), ("lukasiewicz",))
    result = nsr.find_model(3, constraint, "")
    model, = result.models
    assert model.n == 3
    assert [name for name, _ in result.violations] == ["lukasiewicz"]


def test_find_model_verifies_each_involutions_leaves_before_growing_the_next():
    result = nsr.find_model(5, "semiring,commutative-mul", "central-1")
    assert result.nodes == 23 and result.sizes == (1, 2)
    model, = result.models
    assert model.to_document() == {
        "name": "witness-n3", "size": 3, "zero": 0, "one": 1,
        "add": [[0, 1, 2], [1, 1, 1], [2, 1, 2]], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 0]],
        "inv": [0, 2, 1]}
    assert result.violations == (("central-1", (("e", 1), ("x", 0), ("y", 1))),)


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
def random_algebras(draw, largest=5):
    """Tables with no axioms, constants at random positions, with or without inv."""
    n = draw(st.integers(1, largest))
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


# with search._BLOCK at 2, sizes from 5 on stream the relabellings as several stacks of 2! rows,
# as sizes from 10 on do with stacks of 7! rows


def test_middle_perms_in_blocks_yield_each_permutation_once(monkeypatch):
    monkeypatch.setattr(search, "_BLOCK", 2)
    for n in (5, 6, 7):
        stacks = list(search._middle_perms(n))
        assert len(stacks) == math.factorial(n - 2) // 2 and all(len(p) == 2 for p, _q in stacks)
        p, q = (np.concatenate(part) for part in zip(*stacks))
        assert sorted(map(tuple, p.tolist())) == [(0, 1, *t) for t in permutations(range(2, n))]
        assert (np.take_along_axis(p, q, 1) == np.arange(n)).all()


@settings(max_examples=80, deadline=None)
@given(algebra=random_algebras(6))
def test_canonical_form_in_blocks_matches_plain_lists(algebra):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_BLOCK", 2)
        got = canonical_form(algebra)
    inv = None if algebra.inv is None else algebra.inv.tolist()
    assert got == naive.canonical_form(
        algebra.add.tolist(), algebra.mul.tolist(), inv, algebra.zero, algebra.one)


def test_enumeration_in_blocks_matches(monkeypatch):
    constraint = nsr.parse_constraint("involutive-integral")
    want = nsr.enumerate_models(5, constraint).models
    streamed, perms = [], search._middle_perms
    monkeypatch.setattr(search, "_BLOCK", 2)
    monkeypatch.setattr(search, "_middle_perms", lambda n: (    # the lattices stream n < 5 too
        (n == 5 and streamed.append(len(p))) or (p, q) for p, q in perms(n)))
    got = nsr.enumerate_models(5, constraint).models
    assert len(streamed) > 1 and set(streamed) == {2} and len(got) == len(want) == 980
    assert all(np.array_equal(getattr(got, t), getattr(want, t)) for t in ("add", "mul", "inv"))


@st.composite
def sum_tables(draw, largest=7):
    """Random (n, n) tables, or tables with many automorphisms: values 0 and 1 only, by the
    classes of the row and column elements."""
    n = draw(st.integers(1, largest))
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    classes = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    values = np.array(draw(st.lists(st.integers(0, min(n - 1, 1)), min_size=4, max_size=4)))
    return values.reshape(2, 2)[classes[:, None], classes[None, :]]


@settings(max_examples=120, deadline=None)
@given(add=sum_tables(), block=st.sampled_from([7, 2]))
def test_least_relabelling_matches_a_plain_scan(add, block):
    n = len(add)
    forms = {}
    for tail in permutations(range(2, n)):
        p = (*range(min(n, 2)), *tail)
        q = [p.index(x) for x in range(n)]
        form = tuple(p[add[q[x], q[y]]] for x in range(n) for y in range(n))
        forms.setdefault(form, []).append(p)
    algebra = nsr.FiniteNearSemiring(add, add, 0, min(n - 1, 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_BLOCK", block)
        key = canonical_form(algebra)
        least = search._least_forms([add[None]], search._middle_perms(n))
    assert least.dtype == np.uint8 and tuple(least[0].tolist()) == key[2:2 + n * n] == min(forms)
    p, q = search._relabellings(add, least.reshape(n, n))
    assert list(map(tuple, p.tolist())) == sorted(forms[min(forms)])
    assert (np.take_along_axis(p, q, 1) == np.arange(n)).all()


@settings(max_examples=120, deadline=None)
@given(add=sum_tables())
def test_isomorphisms_of_a_table_with_itself_are_its_automorphisms(add):
    n = len(add)
    fixed = list(range(min(n, 2)))
    want = [p for p in permutations(range(n)) if list(p[:len(fixed)]) == fixed
            and naive.relabel(add.tolist(), add.tolist(), None, p)[0] == add.tolist()]
    assert list(search._isomorphisms([(add, add)], dict(zip(fixed, fixed)))) == want


def _candidates(add, constraint):
    """The involution candidates of a sum table, under its own automorphisms."""
    return search._involution_candidates(search._period_two(add, constraint),
                                         search._relabellings(add, add))


@pytest.mark.parametrize("n, names", [(4, "involutive-integral"), (5, "involutive")])
def test_a_relabelled_root_has_as_many_involution_candidates(n, names):
    constraint = nsr.parse_constraint(names)
    swap = np.array([0, 1, *range(n - 1, 1, -1)])
    moved = 0
    for root in search._canonical_add_tables(n, constraint):
        table = core.relabel_table(root, swap, swap)
        moved += not np.array_equal(table, root)
        assert len(_candidates(table, constraint)) == len(_candidates(root, constraint))
    assert moved


@pytest.mark.parametrize("with_inv", [False, True])
def test_least_forms_of_no_slices_are_no_rows(with_inv):
    n = 4
    tables = [np.empty((0, n, n), dtype=np.int64)] + [np.empty((0, n), dtype=np.int64)] * with_inv
    rows = search._least_forms(tables, search._middle_perms(n))
    assert rows.dtype == np.uint8 and rows.shape == (0, n * n + n * with_inv)
    p, q = next(search._middle_perms(n))
    assert search._least_forms([np.empty((0, n), dtype=np.int64)], [(p, q)]).shape == (0, n)


@pytest.mark.parametrize("n, names", [(5, "involutive"), (5, "involutive-integral"),
                                      (4, "idempotent-add"), (4, "semiring")])
def test_a_search_scans_no_relabellings_after_its_roots(monkeypatch, n, names):
    # every scan of the relabellings happens while the roots are taken
    inside, scans, outside = [], [], []
    roots, perms = search._canonical_add_tables, search._middle_perms

    def taken(size, constraint):
        inside.append(size)
        try:
            return roots(size, constraint)
        finally:
            inside.pop()

    monkeypatch.setattr(search, "_canonical_add_tables", taken)
    monkeypatch.setattr(search, "_middle_perms",
                        lambda size: (scans if inside else outside).append(size) or perms(size))
    violate = "lukasiewicz" if nsr.parse_constraint(names).needs_inv else "orthomodular"
    assert len(nsr.enumerate_models(n, names).models) and nsr.find_model(n, names, violate).models
    assert scans and outside == []


def test_canonical_form_at_size_ten_ignores_the_labelling():
    """n = 10: the relabellings stream as 8 stacks of 7! rows."""
    rng = np.random.default_rng(10)
    add, mul = rng.integers(0, 10, (2, 10, 10))
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1)
    key = canonical_form(algebra)
    for _ in range(3):
        assert canonical_form(algebra.relabel(rng.permutation(10))) == key


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


def test_unknown_identity_names_are_refused():
    with pytest.raises(nsr.AlgebraError, match="^unknown identity 'x'$"):
        SearchConstraint(require=("x",))
    with pytest.raises(nsr.AlgebraError, match=r"^unknown identities in violate set: \['x'\]$"):
        nsr.parse_constraint("involutive", "x")


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
            got = _candidates(add, constraint)
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


# ---------------------------------------------------------------------------
# sum tables: the lattice growth and the breadth-first stacked generator against the
# depth-first oracle


def _least_sum_tables(raw, n):
    """The least relabelling of each raw table, over plain lists, distinct and ascending."""
    keys = {naive.canonical_form(a, a, None, 0, min(n - 1, 1))[2:2 + n * n]
            for a in (t.tolist() for t in raw)}
    return [list(key) for key in sorted(keys)]


@pytest.mark.parametrize("idempotent, integral", [
    (False, False), (False, True), (True, False), (True, True)])
def test_stacked_sum_tables_equal_the_depth_first_oracle(monkeypatch, idempotent, integral):
    profiles = ("idempotent-add",) * idempotent + ("integral",) * integral
    constraint = SearchConstraint(profiles)
    for n in range(1, 7 if idempotent else 6):
        raw = naive.dfs_add_tables(n, idempotent, integral)
        roots = _least_sum_tables(raw, n)
        # the default chunks, then chunks small enough to split every stack
        for cells in (search._STACK_CELLS, 1 << 12):
            monkeypatch.setattr(search, "_STACK_CELLS", cells)
            if not idempotent:          # idempotent sum tables are grown as lattices
                got = search._generic_add_tables(n, integral)
                assert got.shape == (len(raw), n, n), (n, cells)
                assert [t.tolist() for t in got] == [t.tolist() for t in raw], (n, cells)
            assert [t.ravel().tolist() for t in search._canonical_add_tables(n, constraint)] \
                == roots, (n, cells)


@pytest.mark.parametrize("n, integral, count", [
    (7, True, 53), (7, False, 262), (8, True, 222), (8, False, 1315)])
def test_lattice_sum_tables_reach_their_counts(n, integral, count):
    # 1, 1, 1, 2, 5, 15, 53, 222 lattices (OEIS A006966); without integrality, one root per
    # lattice and orbit of its nonzero elements under the automorphisms
    constraint = SearchConstraint(("idempotent-add",) + ("integral",) * integral)
    roots = search._canonical_add_tables(n, constraint)
    assert len(roots) == count
    keys = [r.tobytes() for r in roots]
    assert keys == sorted(set(keys))
    for add in roots:       # joins: 0 neutral, commutative, idempotent, associative
        assert (add[0] == range(n)).all() and (add == add.T).all()
        assert (add.diagonal() == range(n)).all() and (add[add] == add[:, add]).all()
        assert (add[1] == 1).all() or not integral


@pytest.mark.parametrize("n, names", [
    (6, "involutive-integral,lukasiewicz"), (5, "involutive,lukasiewicz")])
def test_one_enumeration_takes_its_sum_tables_once(monkeypatch, n, names):
    # the growth of the smaller lattices stays inside one call, and one span per size
    calls, real = [], search._canonical_add_tables
    monkeypatch.setattr(search, "_canonical_add_tables",
                        lambda size, constraint: calls.append(size) or real(size, constraint))
    grown = _record_sum_tables(monkeypatch, n)
    assert len(nsr.enumerate_models(n, names).models) > 0
    assert calls == grown == [n]


# ---------------------------------------------------------------------------
# models as one stack, keys as uint8 rows


def _eager_model(key, name):
    """The model of a canonical-form key, built directly from the tuple."""
    n, has_inv = key[:2]
    rows = np.array(key[2:])
    return nsr.FiniteNearSemiring(rows[:n * n].reshape(n, n), rows[n * n:2 * n * n].reshape(n, n),
                                  0, min(n - 1, 1), inv=rows[2 * n * n:] if has_inv else None,
                                  name=name)


@pytest.mark.parametrize("n, names", [(1, "near-semiring"), (3, "near-semiring"),
                                      (4, "involutive-integral")])
def test_models_are_a_lazy_read_only_sequence(monkeypatch, n, names):
    models = nsr.enumerate_models(n, nsr.parse_constraint(names)).models
    keys = [canonical_form(m) for m in models]
    eager = [_eager_model(key, f"n{n}#{i}") for i, key in enumerate(keys)]
    count = len(eager)
    assert len(models) == count and bool(models) and count == len(set(keys))
    for i in range(count):
        assert models[i].to_document() == eager[i].to_document()
        assert models[i - count].to_document() == eager[i].to_document()
    assert [m.name for m in models[1:3]] == [m.name for m in eager[1:3]]
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            models[i]
    model = models[-1]
    for table in (model.add, model.mul, model.inv):
        if table is not None:
            with pytest.raises(ValueError):
                table[0] = 0
    monkeypatch.setattr(core, "_LINES", 2)          # chunks of lines split the models
    lines = "".join(models.json_lines()).splitlines()
    assert lines == [json.dumps(m.to_document()) for m in eager]


def test_no_models_is_an_empty_sequence():
    result = nsr.enumerate_models(3, nsr.parse_constraint("involutive-integral,orthomodular,"
                                                          "lukasiewicz"))
    assert len(result.models) == 0 and not result.models and list(result.models) == []
    assert list(result.models.json_lines()) == []
    with pytest.raises(IndexError):
        result.models[0]


def test_stacked_keys_are_uint8_rows_of_the_slice_tuples():
    constraint = nsr.parse_constraint("involutive-integral")
    roots = search._canonical_add_tables(5, constraint)
    shared, _ = next(search._verified_stacks(5, constraint, roots[-1:], search._Counter()))
    models = list(nsr.enumerate_models(4, constraint).models)[:3]
    mixed = nsr.TableStack.of(models)
    for stack in (shared, mixed):          # one shared sum table, and one per slice
        keys = canonical_form(stack)
        assert keys.dtype == np.uint8 and keys.shape == (len(stack), 2 + 2 * stack.n ** 2
                                                         + stack.n)
        for i, row in enumerate(keys):
            key = canonical_form(stack.algebra(i))
            assert isinstance(key, tuple) and tuple(row.tolist()) == key


def test_search_stats_count_and_time_every_phase():
    constraint = nsr.parse_constraint("involutive")
    serial = nsr.enumerate_models(5, constraint)
    counts = {"roots": 16, "leaves": 11863, "rejected": 0, "models": 10317,
              "duplicate_keys": 1546}
    assert serial.stats["counts"] == counts
    assert set(serial.stats["seconds"]) == {"sum_tables", "involutions", "column_candidates",
                                            "dfs", "verify", "canonical_keys", "output"}
    assert all(s >= 0 for s in serial.stats["seconds"].values())
    assert nsr.enumerate_models(5, constraint, workers=2).stats["counts"] == counts
    # with a forbid set, the leaves that satisfy it are rejected
    forbidding = nsr.enumerate_models(4, nsr.parse_constraint("involutive-integral",
                                                              "lukasiewicz"))
    assert forbidding.stats["counts"] == {"roots": 2, "leaves": 36, "rejected": 3, "models": 27,
                                          "duplicate_keys": 6}
    found = nsr.find_model(3, "involutive-integral", "lukasiewicz").stats["counts"]
    assert found["models"] == 1 and found["roots"] == 3 and found["duplicate_keys"] == 0
    none = nsr.find_model(2, "involutive-integral", "lukasiewicz")
    assert none.stats["counts"]["models"] == 0 and none.leaves == 2


# ---------------------------------------------------------------------------
# product tables: the stacked DFS against the per-node oracle


def _dfs_against_the_oracle(n, constraint, add, invs=None):
    """The stacked DFS's leaves, nodes and prune counts on one sum table, asserted equal
    to the per-node oracle's; returns the oracle's prune counts."""
    if invs is None:
        invs = _candidates(add, constraint) if constraint.needs_inv else [None]
    columns = search._column_candidates(add)
    counter = search._Counter()
    got = [(mul.tolist(), None if stack.inv is None else stack.inv.tolist())
           for inv in invs
           for stack in search._leaf_stacks(n, constraint, add, inv, columns, counter)
           for mul in stack.mul]
    want, nodes, pruned = naive.dfs_product_tables(n, search._prunes(constraint), add, invs,
                                                   columns)
    assert got == want and counter.nodes == nodes and counter.pruned == pruned
    return pruned


@pytest.mark.parametrize("names, forbid, sizes", [
    ("near-semiring", "", range(1, 5)),
    ("semiring", "", range(1, 5)),
    ("involutive-integral,orthomodular", "", range(1, 6)),
    ("involutive-integral,lukasiewicz", "", range(1, 6)),
    ("involutive-integral,commutative-mul", "", range(1, 6)),
    ("involutive-integral,central-1", "central-2", range(1, 5)),
])
@pytest.mark.parametrize("cells", [None, 1 << 9])
def test_stacked_product_tables_equal_the_depth_first_oracle(monkeypatch, names, forbid, sizes,
                                                             cells):
    if cells:       # chunks of one table or a few split every frontier and every leaf stack
        monkeypatch.setattr(search, "_STACK_CELLS", cells)
        sizes = [n for n in sizes if n <= 4]
    constraint = nsr.parse_constraint(names, forbid)
    for n in sizes:
        for add in search._canonical_add_tables(n, constraint):
            _dfs_against_the_oracle(n, constraint, add)


@pytest.mark.parametrize("names", ["involutive-integral", "involutive,lukasiewicz"])
def test_each_leaf_stack_shares_one_involution(names):
    constraint = nsr.parse_constraint(names)
    stacks = [stack for stack, _ in search._verified_stacks(
        4, constraint, search._canonical_add_tables(4, constraint), search._Counter())]
    assert stacks and all(stack.inv.ndim == 1 for stack in stacks)


def test_a_sum_table_without_an_antitone_involution_has_no_leaves():
    constraint = nsr.parse_constraint("involutive,lukasiewicz")
    bare = [add for add in search._canonical_add_tables(5, constraint)
            if _candidates(add, constraint) == []]
    assert bare
    for add in bare:
        assert _dfs_against_the_oracle(5, constraint, add, invs=[]) == {"lukasiewicz": 0}


def test_prune_counts_in_the_stats_equal_the_oracles():
    constraint = nsr.parse_constraint("involutive-integral,orthomodular")
    want = Counter()
    for add in search._canonical_add_tables(5, constraint):
        want.update(_dfs_against_the_oracle(5, constraint, add))
    assert want["orthomodular"] > 0
    for workers in (None, 2):
        result = nsr.enumerate_models(5, constraint, workers=workers)
        assert result.stats["pruned"] == dict(want)
        assert "pruned" not in result.to_dict()


# ---------------------------------------------------------------------------
# sizes past the canonical form's limit are refused before any sum table is grown


def _record_sum_tables(monkeypatch, limit):
    """The sizes whose sum tables are grown, as lattices or breadth first, in order; growing
    one past limit fails."""
    grown = []

    def recorded(real):
        def generate(n, *flags):
            grown.append(n)
            assert n <= limit, f"sum tables grown at size {n}"
            return real(n, *flags)
        return generate
    for name in ("_lattices", "_generic_add_tables"):
        monkeypatch.setattr(search, name, recorded(getattr(search, name)))
    return grown


def test_a_size_past_ten_factorial_relabellings_is_refused_up_front(monkeypatch, capsys):
    grown = _record_sum_tables(monkeypatch, 12)
    with pytest.raises(nsr.AlgebraError, match="relabellings"):
        nsr.enumerate_models(13, allow_large=True)
    with pytest.raises(nsr.AlgebraError, match="relabellings"):
        nsr.enumerate_models(13, "involutive-integral", allow_large=True)
    assert grown == []
    assert main(["enumerate", "--size", "13", "--allow-large"]) == 2
    assert "relabellings" in capsys.readouterr().err and grown == []
    # a witness below the limit is still found
    found = nsr.find_model(13, "involutive-integral", "lukasiewicz", allow_large=True)
    assert len(found.models) == 1 and found.models[0].n == 3 and grown == [1, 2, 3]
    assert main(["find", "--max", "13", "--allow-large", "--satisfy", "involutive-integral",
                 "--violate", "lukasiewicz"]) == 0


def test_find_model_refuses_the_first_size_past_the_limit(monkeypatch):
    monkeypatch.setattr(search, "MAX_RELABELLINGS", 2)        # (n-2)! <= 2: sizes up to 4
    grown = _record_sum_tables(monkeypatch, 4)
    with pytest.raises(nsr.AlgebraError, match="relabellings"):
        nsr.find_model(6, "involutive-integral,central-1", "central-2")
    assert grown == [1, 2, 3, 4]
    found = nsr.find_model(6, "involutive-integral", "lukasiewicz")
    assert found.models[0].n == 3 and found.sizes == (1, 2)
