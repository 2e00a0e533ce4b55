"""Stacked tables: the clause engine, check_axioms and canonical_form on TableStacks.

Each stacked call is compared slice by slice with the single-algebra call,
and the stacked canonical form with the plain-list one in naive.py.  Stacks
of drawn tables are built as the search builds its own, on fields taken as
given; from outside, TableStack.of stacks validated algebras.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import core, search
from nearsemiring.core import IDENTITIES, PROFILES, ClauseSet, TableStack
from nearsemiring.search import canonical_form

import naive

CLAUSE_SETS = [(p, core._PROFILE_CLAUSES[p]) for p in sorted(PROFILES)] + [
    (name, ClauseSet([c])) for name, c in sorted(IDENTITIES.items())]


@st.composite
def stacks(draw, max_n=4, max_k=6):
    """k random add, mul and inv tables of one size, each table stacked or shared."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    cells = st.lists(st.integers(0, n - 1), min_size=k * n * n, max_size=k * n * n)
    add = np.array(draw(cells)).reshape(k, n, n)
    mul = np.array(draw(cells)).reshape(k, n, n)
    inv = np.array([draw(st.permutations(range(n))) for _ in range(k)])
    if draw(st.booleans()):
        add = add[0]
    if draw(st.booleans()):
        inv = inv[0]
    return n, add, mul, inv


def _stack(add, mul, zero, one, inv=None, name="R"):
    """The stack on tables with entries in range, taken as given."""
    return TableStack._built(dict(add=add, mul=mul, zero=zero, one=one, inv=inv), name, None)


def _slice(table, arity, i):
    return table if table.ndim == arity else table[i]


@settings(max_examples=80, deadline=None)
@given(stacks(), st.booleans(), st.sampled_from([1 << 18, 64]), st.sampled_from([1 << 14, 1]),
       st.booleans(), st.data())
def test_stacked_violations_equal_per_slice_calls(drawn, padded, cells, outer, constant, data):
    n, add, mul, inv = drawn
    k = len(mul)
    labels = data.draw(st.sampled_from([None, tuple(str(x) for x in range(n))]))
    if padded:
        # sentinel-padded partial tables, as the search's are: n marks an unfilled cell
        pad = lambda t: np.pad(t, [(0, 0)] * (t.ndim - 2) + [(0, 1), (0, 1)], constant_values=n)
        add, mul = pad(add), pad(mul)
        unfilled = np.array(data.draw(st.lists(st.booleans(), min_size=mul.size,
                                               max_size=mul.size))).reshape(mul.shape)
        mul = np.where(unfilled, n, mul)
        inv = np.pad(inv, [(0, 0)] * (inv.ndim - 1) + [(0, 1)], constant_values=n)
    saved = core._STACK_CELLS, core._OUTER_CELLS
    # small chunks split the stack; one outer cell makes every eligible shared read a block take
    core._STACK_CELLS, core._OUTER_CELLS = cells, outer
    try:
        for name, clauses in CLAUSE_SETS:
            constants = {"zero": 0, "one": min(n - 1, 1)}
            if constant:                # each clause's first variable read as a named constant
                constants.update((c.variables[0], data.draw(st.integers(0, n - 1)))
                                 for c in clauses.clauses)
                clauses = ClauseSet(map(naive.constant_first, clauses.clauses))
            ops = dict(constants, add=add, mul=mul, inv=inv)
            got = clauses.violations(ops, n, labels)
            if isinstance(got, dict):        # the clauses read only shared tables
                got = [got] * k
            # a mask-only request flags exactly the algebras with a violation
            failing = clauses.violations(ops, n, mask=True)
            assert np.broadcast_to(failing, k).tolist() == [bool(g) for g in got], name
            for i in range(k):
                single = dict(constants, add=_slice(add, 2, i), mul=mul[i], inv=_slice(inv, 1, i))
                assert got[i] == clauses.violations(single, n, labels), (name, i)
                assert clauses.violations(single, n, mask=True) is bool(got[i]), (name, i)
    finally:
        core._STACK_CELLS, core._OUTER_CELLS = saved


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_check_axioms_on_a_stack_equals_per_algebra_reports(drawn):
    n, add, mul, inv = drawn
    stack = _stack(add, mul, 0, min(n - 1, 1), inv=inv, name="S{}")
    for profile in sorted(PROFILES):
        reports = nsr.check_axioms(stack, profile)
        assert len(reports) == len(stack)
        for i, report in enumerate(reports):
            assert report == nsr.check_axioms(stack[i], profile), (profile, i)
        assert nsr.check_axioms(stack.take(np.arange(0)), profile) == []


def _mutants(models):
    """Each model, then the model with one product cell changed, alternating."""
    out = []
    for m in models:
        bad = m.mul.copy()
        bad[-1, -1] = (bad[-1, -1] + 1) % m.n
        out += [m.mul, bad]
    return np.stack(out)


@pytest.mark.parametrize("names, n", [("involutive-integral", 4), ("involutive", 3),
                                      ("semiring", 3)])
def test_check_axioms_on_stacks_whose_slices_partly_fail(names, n):
    models = list(nsr.enumerate_models(n, nsr.parse_constraint(names)).models)
    first, has_inv = models[0], models[0].inv is not None
    stacks = [
        # a sum table, product and involution per slice
        _stack(np.repeat([m.add for m in models], 2, axis=0), _mutants(models), 0, 1,
               inv=np.repeat([m.inv for m in models], 2, axis=0) if has_inv else None,
               name="S{}"),
        # a shared sum table and involution
        _stack(first.add, _mutants([first] * 3), 0, 1, inv=first.inv, name="T"),
    ]
    for stack in stacks + [stacks[0].take(np.arange(len(stacks[0]))[::-1]),
                           stacks[0].take(np.arange(0))]:
        for profile in sorted(PROFILES):
            if core._PROFILE_CLAUSES[profile].needs_inv and stack.inv is None:
                continue
            reports = nsr.check_axioms(stack, profile)
            assert reports == [nsr.check_axioms(item, profile) for item in stack], profile
        if len(stack):          # the mutants fail the models' profile
            passed = [r.passed for r in nsr.check_axioms(stack, names)]
            assert any(passed) and not all(passed)


@settings(max_examples=80, deadline=None)
@given(stacks(max_n=5), st.booleans(), st.sampled_from([1 << 18, 40]), st.data())
def test_stacked_canonical_form_matches_plain_lists(drawn, with_inv, cells, data):
    n, add, mul, inv = drawn
    zero, one = data.draw(st.permutations(range(n)))[:2] if n >= 2 else (0, 0)
    stack = _stack(add, mul, zero, one, inv=inv if with_inv else None)
    saved = search._STACK_CELLS
    search._STACK_CELLS = cells          # small chunks split the slices and the permutations
    try:
        keys = canonical_form(stack)
    finally:
        search._STACK_CELLS = saved
    assert keys.dtype == np.uint8 and keys.shape[0] == len(stack)
    for i, key in enumerate(keys):
        a = stack.algebra(i)
        assert tuple(key.tolist()) == naive.canonical_form(
            a.add.tolist(), a.mul.tolist(), None if a.inv is None else a.inv.tolist(), zero, one)


def test_table_stack_take_and_algebra():
    mv3 = nsr.fixtures.mv3()
    stack = _stack(mv3.add, np.stack([mv3.mul, mv3.mul.T]), mv3.zero, mv3.one, inv=mv3.inv)
    assert len(stack) == 2 and stack.n == 3
    assert stack.algebra(0).same_tables(mv3)
    picked = stack.take(np.array([False, True]))
    assert len(picked) == 1 and np.array_equal(picked.mul[0], mv3.mul.T)
    assert picked.add.ndim == 2              # a shared table stays shared
    named = TableStack.of([mv3] * 2, 'θ"\\{{{}}}')        # escaped as json.dumps escapes it
    assert named[1].name == 'θ"\\{1}'
    for s in (stack, picked, named):
        assert "".join(s.json_lines()).splitlines() == [json.dumps(a.to_document()) for a in s]
    for index in ([], np.array([], dtype=int), np.zeros(2, dtype=bool)):     # empty picks
        assert stack.take(index).mul.shape == (0, 3, 3) and list(stack.take(index)) == []


@pytest.mark.parametrize("name", ["BOOL4xBOOL4", "MV3xMV3xBOOL2", "BOOL2xBOOL4xBOOL4"])
def test_json_lines_of_stacks_past_fifteen_elements_equal_per_item_documents(name, monkeypatch):
    """n = 16, 18 and 32, where base-n row codes would overflow int64."""
    rng = np.random.default_rng(18)
    a = nsr.fixtures.fixture(name)
    middle = [x for x in range(a.n) if x not in (a.zero, a.one)]
    perms = [np.arange(a.n) for _ in range(5)]
    for perm in perms[1:]:
        perm[middle] = rng.permutation(middle)
    stack = TableStack.of([a.relabel(p) for p in perms])
    monkeypatch.setattr(core, "_LINES", 2)          # chunks of two items and a last of one
    assert "".join(stack.json_lines()).splitlines() == [
        json.dumps(item.to_document()) for item in stack]


GOOD = np.zeros((3, 3), dtype=int)


@pytest.mark.parametrize("kwargs, message", [
    (dict(add=GOOD[:2, :2], mul=GOOD[:2, :2]), "of one size"),
    (dict(inv=np.arange(3)), "and signature"),
    (dict(add=GOOD.astype(float)), "must be integers"),
    (dict(add=GOOD.astype(bool)), "must be integers"),
    (dict(add=[[0, True, 0]] * 3), "must be integers"),
    (dict(add=[[0, 1], [1]]), "ragged"),
    (dict(add=np.zeros((3, 2), dtype=int)), "square and nonempty"),
    (dict(add=np.zeros((0, 0), dtype=int)), "square and nonempty"),
    (dict(mul=np.zeros((3, 2), dtype=int)), "3x3"),
    (dict(mul=GOOD + 3), r"out of range \[0, 3\)"),
    (dict(add=GOOD - 1), r"out of range \[0, 3\)"),
    (dict(inv=np.array([0, 0, 2])), "not a permutation"),
    (dict(inv=np.array([0, 1, 3])), "out of range"),
    (dict(inv=np.array([0, 1])), "length 3"),
    (dict(zero=1, one=1), "must differ"),
    (dict(zero=3), "zero must lie in"),
    (dict(one=True), "one must be an integer"),
])
def test_table_stack_rejects_what_the_algebra_rejects(kwargs, message):
    """A stack takes tables from outside only as algebras, through TableStack.of: the
    algebra's constructor refuses a malformed table or constant, and of an algebra unlike
    the first."""
    first = nsr.FiniteNearSemiring(GOOD, GOOD, 0, 1)
    args = dict(add=GOOD, mul=GOOD, zero=0, one=1, inv=None) | kwargs
    with pytest.raises(nsr.AlgebraError, match=message) as caught:
        TableStack.of([first, nsr.FiniteNearSemiring(**args)])
    refused_by_of = str(caught.value).startswith("a table stack needs algebras of one size")
    assert caught.type is (nsr.AlgebraError if refused_by_of else nsr.DocumentError)


def test_table_stack_of_stacks_every_table_of_algebras_that_agree():
    mv3, bool2 = nsr.fixtures.mv3(), nsr.fixtures.bool2()
    algebras = [mv3, mv3, nsr.FiniteNearSemiring(mv3.mul, mv3.add, mv3.zero, mv3.one,
                                                 inv=mv3.inv, labels=("a", "b", "c"))]
    stack = TableStack.of(algebras, "s{}")
    assert len(stack) == 3 and stack.n == 3 and (stack.zero, stack.one) == (mv3.zero, mv3.one)
    assert stack.labels == stack[2].labels == ("0", "1", "2")
    for name in ("add", "mul", "inv"):
        table = getattr(stack, name)
        assert table.dtype == np.int64 and table.shape[0] == 3 and not table.flags.writeable
    assert [a.name for a in stack] == ["s0", "s1", "s2"]
    assert all(a.same_tables(b) for a, b in zip(stack, algebras))
    swapped = nsr.FiniteNearSemiring(mv3.add, mv3.mul, mv3.one, mv3.zero, inv=mv3.inv)
    plain = nsr.FiniteNearSemiring(mv3.add, mv3.mul, mv3.zero, mv3.one)
    for algebras in ([], [mv3, nsr.basic_from_lns(mv3)]):
        with pytest.raises(nsr.AlgebraError, match="^a table stack needs one or more"):
            TableStack.of(algebras)
    for algebras in ([mv3, bool2], [mv3, swapped], [plain, mv3]):
        with pytest.raises(nsr.AlgebraError, match="^a table stack needs algebras of one size, "
                                                   "constants and signature$"):
            TableStack.of(algebras)
    # item i is named name.format(i), so a name that cannot format an index is refused
    assert [a.name for a in TableStack.of([mv3] * 2, 7)] == ["7", "7"]
    for name in ("MV3{x}", "a}", "{", "{1}", "{0[0]}", "{0.x}", "{:s}"):
        with pytest.raises(nsr.AlgebraError, match="^a table stack's name must format an item"):
            TableStack.of([mv3] * 2, name)


@pytest.mark.parametrize("with_inv", [False, True])
def test_canonical_form_of_an_empty_stack_is_an_empty_block_of_rows(with_inv):
    mv3 = nsr.fixtures.mv3()
    inv = np.stack([mv3.inv] * 2) if with_inv else None
    for add in (mv3.add, np.stack([mv3.add] * 2)):       # a shared sum table, and one per slice
        for zero, one in ((mv3.zero, mv3.one), (0, 1)):   # with and without a relabelling
            empty = _stack(add, np.stack([mv3.mul] * 2), zero, one, inv=inv).take(np.arange(0))
            keys = canonical_form(empty)
            assert keys.dtype == np.uint8 and keys.shape == (0, 2 + 3 * (6 + with_inv))
            assert nsr.check_axioms(empty, "near-semiring") == []


def test_search_stacks_and_canonical_algebras_keep_int64_tables():
    constraint = nsr.parse_constraint("involutive-integral")
    roots = search._canonical_add_tables(4, constraint)
    leaves, _ = next(search._verified_stacks(4, constraint, roots, search._Counter()))
    models = nsr.enumerate_models(4, constraint).models
    witness = nsr.find_model(4, "involutive-integral", "lukasiewicz").models
    canonical = nsr.canonicalize(nsr.fixtures.fixture("MV3xBOOL2"))
    for tables in (leaves, models, models[-1], witness, witness[0], canonical):
        for name in ("add", "mul", "inv"):
            assert getattr(tables, name).dtype == np.int64, (tables, name)


# ---------------------------------------------------------------------------
# stacked reads are flat takes on narrowed C-order tables: their layout, their
# size and the chunking must not change a verdict


def _assert_stacked_calls_equal_per_slice_calls(ops, n, k, labels):
    """Every profile and identity, in witness and mask modes: the stacked call on ops
    equals the call on each slice's own tables."""
    def own(i):
        return {name: _slice(t, 1 if name == "inv" else 2, i) if isinstance(t, np.ndarray) else t
                for name, t in ops.items()}
    for name, clauses in CLAUSE_SETS:
        got, failing = clauses.violations(ops, n, labels), clauses.violations(ops, n, mask=True)
        if isinstance(got, dict):       # the clauses read only shared tables
            got, failing = [got] * k, [failing] * k
        assert len(got) == len(failing) == k, name
        for i in range(k):
            assert got[i] == clauses.violations(own(i), n, labels), (name, i)
            assert failing[i] == bool(got[i]) == clauses.violations(own(i), n, mask=True), (name, i)


def _partly_failing(models, rng):
    """Each model's add, mul and inv, stacked, with a random product cell changed in every
    other slice."""
    add, mul, inv = (np.stack([getattr(m, t) for m in models]) for t in ("add", "mul", "inv"))
    n = mul.shape[-1]
    for i in range(0, len(mul), 2):
        x, y = rng.integers(n, size=2)
        mul[i, x, y] = (mul[i, x, y] + 1 + rng.integers(n - 1)) % n
    return add, mul, inv


def _with_sentinels(add, mul, inv, rng):
    """The tables padded to n+1 with the sentinel n, and some product cells unfilled."""
    n = mul.shape[-1]
    pad = lambda t, d: np.pad(t, [(0, 0)] * (t.ndim - d) + [(0, 1)] * d, constant_values=n)
    mul = pad(mul, 2)
    mul[rng.random(mul.shape) < 0.2] = n
    return pad(add, 2), mul, pad(inv, 1)


def _layouts(table):
    """The table as a C-contiguous copy, a strided slice of a larger array and a transposed
    view (its axes reversed): one array, three memory layouts."""
    spaced = np.zeros(tuple(2 * side for side in table.shape), dtype=table.dtype)
    spaced[(slice(None, None, 2),) * table.ndim] = table
    sliced = spaced[(slice(None, None, 2),) * table.ndim]
    transposed = np.ascontiguousarray(table.T).T
    assert not sliced.flags.c_contiguous and (table.ndim == 1 or not transposed.flags.c_contiguous)
    assert np.array_equal(sliced, table) and np.array_equal(transposed, table)
    return {"contiguous": np.ascontiguousarray(table), "sliced": sliced, "transposed": transposed}


@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("layout", ["contiguous", "sliced", "transposed"])
def test_stacked_reads_of_non_contiguous_tables_equal_per_slice_calls(layout, padded):
    rng = np.random.default_rng(19)
    models = list(nsr.enumerate_models(4, nsr.parse_constraint("involutive-integral")).models)
    add, mul, inv = _partly_failing(models[:12], rng)
    if padded:
        add, mul, inv = _with_sentinels(add, mul, inv, rng)
    for shared in (False, True):        # a stacked or a shared sum table and involution
        tables = dict(add=add[0] if shared else add, mul=mul, inv=inv[0] if shared else inv)
        ops = {name: _layouts(t)[layout] for name, t in tables.items()}
        _assert_stacked_calls_equal_per_slice_calls(
            dict(ops, zero=0, one=1), 4, len(mul), ("0", "1", "a", "b"))


@pytest.mark.parametrize("padded", [False, True])
def test_stacked_reads_of_tables_with_more_than_255_cells_equal_per_slice_calls(padded):
    """n = 16: a flat index past 255 must not wrap in the narrowed tables' uint8."""
    rng = np.random.default_rng(16)
    b16 = nsr.fixtures.fixture("BOOL4xBOOL4")
    middle = [x for x in range(16) if x not in (b16.zero, b16.one)]
    perms = []
    for _ in range(4):
        perm = np.arange(16)
        perm[middle] = rng.permutation(middle)
        perms.append(perm)
    stack = TableStack.of([b16.relabel(p) for p in perms])
    add, mul, inv = _partly_failing(stack, rng)
    if padded:
        add, mul, inv = _with_sentinels(add, mul, inv, rng)
        assert add.shape[-1] ** 2 > 255
    ops = dict(zero=b16.zero, one=b16.one, add=add, mul=mul, inv=inv)
    _assert_stacked_calls_equal_per_slice_calls(ops, 16, 4, b16.labels)


@pytest.mark.parametrize("cells", [1, 40, 300])
def test_stacked_reads_split_into_chunks_equal_per_slice_calls(cells, monkeypatch):
    rng = np.random.default_rng(cells)
    models = list(nsr.enumerate_models(4, nsr.parse_constraint("involutive")).models)
    add, mul, inv = _with_sentinels(*_partly_failing(models[:9], rng), rng)
    monkeypatch.setattr(core, "_STACK_CELLS", cells)
    for tables in (dict(add=add, mul=mul, inv=inv), dict(add=add[3], mul=mul, inv=inv[3])):
        _assert_stacked_calls_equal_per_slice_calls(
            dict(tables, zero=0, one=1), 4, len(mul), ("z", "o", "a", "b"))


def test_canonical_form_groups_slices_by_sum_table():
    """A stack with a sum table per slice, as TableStack.of makes: slices sharing a sum
    table, interleaved with others, and constants away from 0 and 1."""
    rng = np.random.default_rng(5)
    models = nsr.enumerate_models(5, nsr.parse_constraint("involutive")).models
    picked = rng.choice(len(models), 30, replace=False).tolist()
    perms = [np.array([0, 1, *(2 + rng.permutation(3))]) for _ in range(2)]
    moved = np.array([3, 0, 4, 1, 2])        # sends zero to 3 and one to 0
    for perm in perms + [moved]:
        algebras = [models[i].relabel(perm) for i in picked for _ in range(2)]
        rng.shuffle(algebras)
        stack = TableStack.of(algebras)
        assert len({a.add.tobytes() for a in algebras}) < len(algebras)
        keys = canonical_form(stack)
        assert keys.dtype == np.uint8 and keys.shape == (len(stack), 2 + 5 * 11)
        for key, a in zip(keys.tolist(), algebras):
            assert tuple(key) == canonical_form(a) == naive.canonical_form(
                a.add.tolist(), a.mul.tolist(), a.inv.tolist(), a.zero, a.one)
