from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import center, congruences, core, fixtures
from nearsemiring.congruences import Congruence, compose_relations, regularity_terms
from nearsemiring.core import PreconditionError


def all_partitions(n):
    if n == 1:
        yield [0]
        return
    for rest in all_partitions(n - 1):
        k = max(rest) + 1
        for b in range(k + 1):
            yield rest + [b]


def brute_force_congruences(algebra):
    add, mul = algebra.add.tolist(), algebra.mul.tolist()
    inv = None if algebra.inv is None else algebra.inv.tolist()
    return sorted(Congruence.from_blocks(blocks) for blocks in all_partitions(algebra.n)
                  if naive.is_congruence(add, mul, inv, blocks))


def test_principal_bool2_collapses_everything():
    theta = nsr.principal_congruence(fixtures.bool2(), 0, 1)
    assert theta.is_full()


def test_principal_mv3_is_simple():
    mv3 = fixtures.mv3()
    assert nsr.principal_congruence(mv3, 0, 1).is_full()
    assert nsr.all_congruences(mv3) == brute_force_congruences(mv3)
    assert len(nsr.all_congruences(mv3)) == 2


def test_principal_bool4_projection_kernel():
    b4 = fixtures.bool4()
    theta = nsr.principal_congruence(b4, 2, 0)      # identify (1,0) with (0,0)
    assert theta.blocks == (0, 1, 0, 1)             # kernel of the second projection


def test_all_congruences_bool4():
    b4 = fixtures.bool4()
    cons = nsr.all_congruences(b4)
    assert len(cons) == 4
    assert cons == brute_force_congruences(b4)
    assert Congruence.identity(4) in cons and Congruence.full(4) in cons


def test_all_congruences_matches_brute_force_smallfixtures():
    for name in ("BOOL2", "EX24", "EX28", "APXB", "MV3", "BOOL4"):
        algebra = fixtures.fixture(name)
        assert nsr.all_congruences(algebra) == brute_force_congruences(algebra)


def test_lattice_closure_under_join_and_meet():
    for name in ("BOOL4", "MO2", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        cons = nsr.all_congruences(algebra)
        for p in cons:
            for q in cons:
                assert nsr.join_partitions(p, q) in cons
                assert nsr.meet_partitions(p, q) in cons


def test_factor_pair_projection_kernels():
    b4 = fixtures.bool4()
    theta = nsr.principal_congruence(b4, 2, 0)
    phi = nsr.principal_congruence(b4, 2, 3)
    assert nsr.is_factor_pair(b4, theta, phi)


def test_factor_pair_trivial_and_failing():
    mv3 = fixtures.mv3()
    assert nsr.is_factor_pair(mv3, Congruence.identity(3), Congruence.full(3))
    b4 = fixtures.bool4()
    kernel = nsr.principal_congruence(b4, 2, 0)
    assert not nsr.is_factor_pair(b4, Congruence.identity(4), kernel)


def test_factor_pair_rejects_non_congruence():
    with pytest.raises(nsr.AlgebraError):
        nsr.is_factor_pair(fixtures.mv3(), Congruence((0, 0, 1)), Congruence.full(3))


def test_witness_terms_mv3_bool2_mo2():
    for name in ("MV3", "BOOL2", "MO2"):
        report = nsr.witness_term_checks(fixtures.fixture(name))
        assert report.passed, name


def test_witness_terms_require_lukasiewicz():
    with pytest.raises(nsr.PreconditionError):
        nsr.witness_term_checks(fixtures.ex28())


def test_congruences_permute_on_lukasiewicz_fixtures():
    for name in ("BOOL2", "BOOL4", "MV3", "MO2", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        cons = nsr.all_congruences(algebra)
        for p in cons:
            for q in cons:
                assert (compose_relations(p, q) == compose_relations(q, p)).all()


def test_congruence_lattice_distributive_on_fixtures():
    for name in ("BOOL4", "MV3", "MO2", "MV3xBOOL2"):
        report = nsr.congruence_lattice_properties(fixtures.fixture(name))
        assert report.passed


def test_quotient_by_projection_kernel():
    b4 = fixtures.bool4()
    theta = nsr.principal_congruence(b4, 2, 0)
    q = nsr.quotient_algebra(b4, theta)
    assert q.n == 2
    assert nsr.are_isomorphic(q, fixtures.bool2()) is not None


def test_quotient_rejects_non_congruence():
    with pytest.raises(nsr.AlgebraError):
        nsr.quotient_algebra(fixtures.mv3(), Congruence((0, 0, 1)))


def test_quotient_rejects_a_congruence_merging_the_constants_but_not_everything():
    t = [[0, 0, 2], [0, 0, 2], [2, 2, 2]]
    algebra = nsr.FiniteNearSemiring(t, t, 0, 1)
    theta = Congruence((0, 0, 1))
    assert nsr.is_congruence(algebra, theta)
    with pytest.raises(nsr.AlgebraError,
                       match="^congruence merges the constants but not everything$"):
        nsr.quotient_algebra(algebra, theta)


def test_block_ids_out_of_first_occurrence_order_are_refused():
    # the same partition with its ids reversed would give a different, wrong quotient
    for name in ("MV3xBOOL2", "MO2xBOOL2"):
        algebra = fixtures.fixture(name)
        cons = [c for c in nsr.all_congruences(algebra) if c.block_count >= 2]
        assert cons
        for theta in cons:
            reversed_ids = tuple(theta.block_count - 1 - b for b in theta.blocks)
            assert Congruence.from_blocks(reversed_ids) == theta
            with pytest.raises(nsr.AlgebraError, match="first-occurrence order from 0"):
                Congruence(reversed_ids)


@pytest.mark.parametrize("blocks", [(0, 2), (), (0, 0, 1.0), (1, 0), (0, -1), (0, True),
                                    (0, np.int64(1)), [0, 1], None])
def test_only_canonical_block_tuples_make_a_congruence(blocks):
    with pytest.raises(nsr.AlgebraError, match="^congruence blocks must be a non-empty tuple"):
        Congruence(blocks)


def test_canonical_block_tuples_make_a_congruence():
    theta = Congruence((0, 1, 0, 2))
    assert theta.block_count == 3 and theta.classes() == ((0, 2), (1,), (3,))
    assert not theta.is_identity() and not theta.is_full()
    assert Congruence((0,)).is_identity() and Congruence((0,)).is_full()
    mv3 = fixtures.mv3()
    assert nsr.is_congruence(mv3, Congruence((0, 0, 0)))
    assert not nsr.is_congruence(mv3, Congruence((0, 0)))      # a partition of 2 elements


def test_principal_congruences_are_smallest():
    # every congruence relating the generating pair contains the principal one
    for name in ("BOOL4", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        cons = nsr.all_congruences(algebra)
        for a, b in product(range(algebra.n), repeat=2):
            theta = nsr.principal_congruence(algebra, a, b)
            for c in cons:
                if c.related(a, b):
                    assert nsr.meet_partitions(theta, c) == theta


@st.composite
def small_tables(draw, max_n=5):
    """Tables of size n <= max_n, with or without α, that need not be near semirings.

    Half of them respect a drawn partition (the block of x+y and of x·y
    depends only on the blocks of x and y, and α permutes each block), and
    some operations are projections, which respect every partition; so
    congruences other than the identity and the full one turn up, and
    lattices with members that are not principal.
    """
    n = draw(st.integers(1, max_n))
    element = st.integers(0, n - 1)
    plant = draw(st.lists(element, min_size=n, max_size=n)) if draw(st.booleans()) \
        else list(range(n))
    members = {b: [x for x in range(n) if plant[x] == b] for b in plant}

    def table():
        projection = draw(st.sampled_from([None, None, 0, 1]))
        if projection is not None:
            return [[(x, y)[projection] for y in range(n)] for x in range(n)]
        image = {}
        rows = [[0] * n for _ in range(n)]
        for x, y in product(range(n), repeat=2):
            block = image.setdefault((plant[x], plant[y]), plant[draw(element)])
            rows[x][y] = draw(st.sampled_from(members[block]))
        return rows

    add, mul = table(), table()
    inv = None
    if draw(st.booleans()):
        inv = list(range(n))
        groups = members.values() if draw(st.booleans()) else [list(range(n))]
        for group in groups:
            for x, y in zip(group, draw(st.permutations(group))):
                inv[x] = y
    partitions = st.lists(element, min_size=n, max_size=n)
    return (add, mul, inv, draw(partitions), draw(partitions))


@settings(max_examples=150, deadline=None)
@given(small_tables())
def test_congruence_code_matches_plain_list_oracle(tables):
    add, mul, inv, p, q = tables
    n = len(add)
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n > 1 else 0, inv=inv)
    brute = []
    for blocks in all_partitions(n):
        part = Congruence.from_blocks(blocks)
        expected = naive.is_congruence(add, mul, inv, blocks)
        assert nsr.is_congruence(algebra, part) == expected, blocks
        if expected:
            brute.append(part)
    assert nsr.all_congruences(algebra) == sorted(brute)
    for a, b in product(range(n), repeat=2):
        theta = nsr.principal_congruence(algebra, a, b)
        relating = [c for c in brute if c.related(a, b)]
        assert theta in relating
        assert all(nsr.meet_partitions(theta, c) == theta for c in relating)
    p, q = Congruence.from_blocks(p), Congruence.from_blocks(q)
    assert list(nsr.join_partitions(p, q).blocks) == naive.join_blocks(p.blocks, q.blocks)


def _lattice_clauses(report):
    return [(c.clause, c.passed, c.counterexample, c.detail) for c in report.clauses]


@settings(max_examples=100, deadline=None)
@given(small_tables())
def test_lattice_properties_match_the_loop_oracle(tables):
    add, mul, inv, _p, _q = tables
    n = len(add)
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n > 1 else 0, inv=inv)
    cons = nsr.all_congruences(algebra)
    expected = naive.lattice_properties([c.blocks for c in cons])
    assert _lattice_clauses(nsr.congruence_lattice_properties(algebra)) == expected
    assert _lattice_clauses(nsr.congruence_lattice_properties(algebra, cons)) == expected


def test_lattice_properties_fail_on_the_partition_lattice_of_three():
    # projections respect every partition, so the lattice is all five partitions of
    # {0, 1, 2}: the diamond M3, whose two-block members neither permute nor distribute
    first = [[x for _y in range(3)] for x in range(3)]
    algebra = nsr.FiniteNearSemiring(first, first, 0, 1)
    cons = nsr.all_congruences(algebra)
    assert len(cons) == 5
    report = nsr.congruence_lattice_properties(algebra)
    assert _lattice_clauses(report) == naive.lattice_properties([c.blocks for c in cons])
    assert _lattice_clauses(report) == [
        ("congruences-permute", False, (1, 2), "{0,1}|{2} and {0,2}|{1} do not permute"),
        ("congruence-lattice-distributive", False, (1, 2, 3), "distributivity fails")]


def test_lattice_properties_reject_a_lattice_missing_a_join():
    algebra = fixtures.bool4()
    cons = nsr.all_congruences(algebra)
    with pytest.raises(nsr.AlgebraError, match="not in the lattice"):
        nsr.congruence_lattice_properties(algebra, cons[1:])
    with pytest.raises(nsr.AlgebraError, match=r"^an empty congruence lattice of BOOL4: "):
        nsr.congruence_lattice_properties(algebra, [])


def test_regularity_terms_check_their_arguments():
    mv3 = fixtures.mv3()
    assert regularity_terms(mv3, 0, 0, 1) == (1, 1)
    for args, bad in (((-1, 0, 0), -1), ((0, 3, 0), 3), ((0, 0, 9), 9)):
        with pytest.raises(nsr.AlgebraError, match=rf"^element {bad} out of range \[0, 3\)$"):
            regularity_terms(mv3, *args)
    with pytest.raises(PreconditionError, match="EX24 has no involution table"):
        regularity_terms(fixtures.ex24(), 0, 0, 0)
    with pytest.raises(nsr.AlgebraError, match=r"^element True is not an integer$"):
        regularity_terms(mv3, True, 0, 0)


def test_principal_congruence_checks_its_arguments():
    mv3 = fixtures.mv3()
    for args, bad in (((-1, 0), -1), ((0, 3), 3)):
        with pytest.raises(nsr.AlgebraError, match=rf"^element {bad} out of range \[0, 3\)$"):
            nsr.principal_congruence(mv3, *args)
    for args in ((1.5, 0), (0, True), (np.float64(0), 1)):
        with pytest.raises(nsr.AlgebraError, match=r"^element .* is not an integer$"):
            nsr.principal_congruence(mv3, *args)
    assert nsr.principal_congruence(mv3, np.int64(0), 1).is_full()


def test_partitions_of_different_sizes_do_not_combine():
    small, large = Congruence((0,)), Congruence((0, 1))
    for op in (nsr.meet_partitions, nsr.join_partitions, compose_relations):
        for p, q in ((small, large), (large, small)):
            with pytest.raises(nsr.AlgebraError,
                               match=rf"^partitions of {p.n} and {q.n} elements cannot be combined$"):
                op(p, q)


# ---------------------------------------------------------------------------
# closures on disjoint copies: any chunking gives the per-pair answers


@pytest.mark.parametrize("cells", [1, 1 << 40])        # one copy per chunk, and one chunk
@settings(max_examples=100, deadline=None)
@given(tables=small_tables())
def test_batched_closures_match_the_oracles_in_any_chunks(cells, tables):
    add, mul, inv, _p, _q = tables
    n = len(add)
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n > 1 else 0, inv=inv)
    brute = brute_force_congruences(algebra)
    # the principal congruence of a pair is the least member relating it: the one with most blocks
    least = [max((c for c in brute if c.related(a, b)), key=lambda c: c.block_count)
             for a, b in product(range(n), repeat=2)]
    pairs = np.array(list(product(range(n), repeat=2))).reshape(-1, 2).T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(congruences, "_CLOSURE_CELLS", cells)
        assert nsr.all_congruences(algebra) == brute
        assert congruences._congruences(congruences._principal_rows(algebra, *pairs)) == least
        assert [nsr.principal_congruence(algebra, a, b)
                for a, b in product(range(n), repeat=2)] == least
        report = nsr.congruence_lattice_properties(algebra)
    assert _lattice_clauses(report) == naive.lattice_properties([c.blocks for c in brute])


def _fixtures_and_products():
    """Every fixture, every product of two fixtures of one signature, and the larger
    products that the structure benchmark reads: n from 2 to 36 (MO2xMO2)."""
    names = list(fixtures.names())
    pairs = [f"{a}x{b}" for a, b in combinations_with_replacement(names, 2)
             if fixtures.fixture(a).has_inv == fixtures.fixture(b).has_inv]
    return names + pairs + ["BOOL4xBOOL4", "MV3xMV3xBOOL2", "BOOL2xBOOL2xBOOL2xBOOL2xBOOL2"]


@pytest.mark.parametrize("cells", [None, 1 << 11])     # as shipped, and chunks of a few copies
def test_batched_principals_equal_a_per_pair_loop(monkeypatch, cells):
    if cells:
        monkeypatch.setattr(congruences, "_CLOSURE_CELLS", cells)
    for name in _fixtures_and_products():
        algebra = fixtures.fixture(name)
        a, b = np.triu_indices(algebra.n)
        got = congruences._congruences(congruences._principal_rows(algebra, a, b))
        assert got == [nsr.principal_congruence(algebra, x, y)
                       for x, y in zip(a.tolist(), b.tolist())], name


@pytest.mark.parametrize("cells", [None, 1, 1 << 6])   # chunks of one row and of a few
def test_lattice_tables_equal_pairwise_joins_and_meets(monkeypatch, cells):
    if cells:
        monkeypatch.setattr(congruences, "_CLOSURE_CELLS", cells)
    first = [[x for _y in range(4)] for x in range(4)]     # every partition of 4 elements
    names = ("MO2xBOOL2", "BOOL4xBOOL4", "MV3xMV3xBOOL2", "BOOL2xBOOL2xBOOL2xBOOL2xBOOL2")
    for algebra in [*map(fixtures.fixture, names), nsr.FiniteNearSemiring(first, first, 0, 1)]:
        cons = nsr.all_congruences(algebra)
        tables = congruences._lattice_tables(cons)
        for (i, p), (j, q) in product(enumerate(cons), repeat=2):
            assert cons[tables["join"][i, j]] == nsr.join_partitions(p, q)
            assert cons[tables["meet"][i, j]] == nsr.meet_partitions(p, q)


def _first_missing(cons):
    """The refusal of a plain loop over the pairs i <= j in row order, the join first."""
    for i, j in ((i, j) for i in range(len(cons)) for j in range(i, len(cons))):
        for name, op in (("join", nsr.join_partitions), ("meet", nsr.meet_partitions)):
            if op(cons[i], cons[j]) not in cons:
                return f"the {name} of {cons[i].render()} and {cons[j].render()} " \
                       "is not in the lattice"
    return None


def test_a_lattice_missing_members_is_refused_at_the_first_pair():
    first = [[x for _y in range(4)] for x in range(4)]
    for algebra in (fixtures.fixture("BOOL4xBOOL2"), nsr.FiniteNearSemiring(first, first, 0, 1)):
        cons = nsr.all_congruences(algebra)
        for drop in range(len(cons)):
            for kept in (cons[:drop] + cons[drop + 1:], cons[drop:], cons[:drop + 1][::-1],
                         cons[1 + drop:-1]):
                want = _first_missing(kept)
                if want is None:
                    congruences._lattice_tables(kept)
                    continue
                with pytest.raises(nsr.AlgebraError) as caught:
                    congruences._lattice_tables(kept)
                assert str(caught.value) == want


# ---------------------------------------------------------------------------
# principal congruences closed in kept runs of copies, and kept verdicts

_RUN_FIXTURES = ("MO2xBOOL2", "MO2xMV3", "BOOL2xBOOL2xBOOL2xBOOL2xBOOL2", "MO2xMO2")


def _lone_closures(algebra):
    """θ(a, b) for every ordered pair, each closed on a copy of its own."""
    pairs = list(product(range(algebra.n), repeat=2))
    return {(a, b): congruences._congruences(
        congruences._principal_rows(algebra, np.array([a]), np.array([b])))[0]
        for a, b in pairs}


def _run_length(algebra):
    return max(1, congruences._CLOSURE_CELLS // congruences._translations(algebra, 1).size)


def _assert_runs_equal_lone_closures(algebra, lone):
    for (a, b), theta in lone.items():
        assert nsr.principal_congruence(algebra, a, b) == theta, (algebra.name, a, b)
        assert nsr.principal_congruence(algebra, np.int64(a), np.int32(b)) == theta


@pytest.mark.parametrize("cells", [1, 1 << 6, None])   # runs of one copy, of a few, of all
@settings(max_examples=60, deadline=None)
@given(tables=small_tables(6))
def test_principal_congruences_in_runs_equal_lone_closures(cells, tables):
    add, mul, inv, _p, _q = tables
    n = len(add)
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n > 1 else 0, inv=inv)
    with pytest.MonkeyPatch.context() as patch:
        if cells:
            patch.setattr(congruences, "_CLOSURE_CELLS", cells)
        _assert_runs_equal_lone_closures(algebra, _lone_closures(algebra))


@pytest.mark.parametrize("cells", [None, 1 << 11, 1 << 13])   # as shipped, and split runs
def test_principal_congruences_of_products_in_runs_equal_lone_closures(monkeypatch, cells):
    if cells:
        monkeypatch.setattr(congruences, "_CLOSURE_CELLS", cells)
    split = 0
    for name in _RUN_FIXTURES:
        algebra = fixtures.fixture(name)
        split += _run_length(algebra) < algebra.n
        _assert_runs_equal_lone_closures(algebra, _lone_closures(algebra))
    assert split >= 2                       # BOOL2^5 and MO2xMO2 split even as shipped


def _spy_closures(monkeypatch):
    calls = []
    original = congruences._principal_rows

    def spy(algebra, a, b):
        calls.append((len(a), set(np.asarray(b).tolist())))
        return original(algebra, a, b)
    monkeypatch.setattr(congruences, "_principal_rows", spy)
    return calls


@pytest.mark.parametrize("cells", [None, 1 << 13])
def test_congruence_centrality_closes_one_closure_per_run_and_constant(monkeypatch, cells):
    if cells:
        monkeypatch.setattr(congruences, "_CLOSURE_CELLS", cells)
    calls = _spy_closures(monkeypatch)
    for name in _RUN_FIXTURES:
        algebra = fixtures.fixture(name)
        run = _run_length(algebra)
        calls.clear()
        nsr.central_elements(algebra, "congruence")
        for constant in (algebra.zero, algebra.one):
            closures = [size for size, b in calls if b == {constant}]
            assert len(closures) <= -(-algebra.n // run), name
            assert sum(closures) == algebra.n and max(closures) <= run
        assert len(calls) == 2 * -(-algebra.n // run)


def test_a_lone_principal_congruence_closes_at_most_one_chunk(monkeypatch):
    calls = _spy_closures(monkeypatch)
    for name in _RUN_FIXTURES + ("MV3xBOOL2xBOOL2xBOOL2xBOOL2",):
        n, run = fixtures.fixture(name).n, _run_length(fixtures.fixture(name))
        # the first run, and the last, which is shorter when run does not divide n
        for a, run_size in ((0, min(n, run)), (n - 1, n - (n - 1) // run * run)):
            algebra = fixtures.fixture(name)
            calls.clear()
            nsr.principal_congruence(algebra, a, 0)
            (copies, b), = calls
            assert b == {0} and copies == run_size
            assert copies * congruences._translations(algebra, 1).size <= congruences._CLOSURE_CELLS


def test_congruence_centrality_calls_each_traced_step_per_element(monkeypatch):
    # the benchmark's spans wrap these two bindings of the center module
    calls = []
    for name in ("principal_congruence", "is_factor_pair"):
        original = getattr(center, name)

        def spy(algebra, *args, name=name, original=original):
            calls.append((name, *(a if type(a) is int else None for a in args)))
            return original(algebra, *args)
        monkeypatch.setattr(center, name, spy)
    for fixture in ("MO2xBOOL2", "MV3xMV3xBOOL2"):
        algebra = fixtures.fixture(fixture)
        calls.clear()
        nsr.central_elements(algebra, "all")
        assert calls == [call for e in range(algebra.n) for call in (
            ("principal_congruence", e, algebra.zero), ("principal_congruence", e, algebra.one),
            ("is_factor_pair", None, None))]


@settings(max_examples=100, deadline=None)
@given(tables=small_tables(6), data=st.data())
def test_kept_congruence_verdicts_equal_the_unkept_check(tables, data):
    add, mul, inv, p, q = tables
    n = len(add)
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n > 1 else 0, inv=inv)
    sizes = st.integers(1, n + 1)
    drawn = [data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k))
             for k in data.draw(st.lists(sizes, max_size=4))]
    parts = [Congruence.from_blocks(blocks) for blocks in (p, q, *drawn)]
    parts += [nsr.principal_congruence(algebra, a, b) for a, b in product(range(n), repeat=2)]
    check = congruences._compatible.__wrapped__
    for part in data.draw(st.permutations(parts)) + parts:
        unkept = check(algebra, part)
        assert unkept == (part.n == n and naive.is_congruence(add, mul, inv, part.blocks))
        assert nsr.is_congruence(algebra, part) == unkept
    kept = {key[1] for key in algebra._kept if isinstance(key, tuple) and key[0] is check}
    assert kept == {(part,) for part in parts}


def test_each_partition_is_checked_once_per_structure(monkeypatch):
    checked, asked = [], []
    compatible, is_congruence = congruences._compatible.__wrapped__, congruences.is_congruence
    monkeypatch.setattr(congruences, "_compatible", core.kept(
        lambda algebra, part: checked.append(part) or compatible(algebra, part)))
    monkeypatch.setattr(congruences, "is_congruence",
                        lambda algebra, part: asked.append(part) or is_congruence(algebra, part))
    for name in ("MO2xBOOL2", "BOOL4xBOOL4", "MV3xMV3xBOOL2", "MO2xMV3"):
        checked.clear(), asked.clear()
        nsr.center_algebra(fixtures.fixture(name), "all")
        assert len(asked) > len(set(asked))   # is_factor_pair asks again about each θ
        assert sorted(checked) == sorted(set(asked)), name


_PARTITION_TAKERS = {
    "is_congruence": lambda algebra, p, q: nsr.is_congruence(algebra, p),
    "is_factor_pair": nsr.is_factor_pair,
    "join_partitions": lambda algebra, p, q: nsr.join_partitions(p, q),
    "meet_partitions": lambda algebra, p, q: nsr.meet_partitions(p, q),
    "compose_relations": lambda algebra, p, q: compose_relations(p, q),
    "quotient_algebra": lambda algebra, p, q: nsr.quotient_algebra(algebra, p),
}


@pytest.mark.parametrize("name", list(_PARTITION_TAKERS))
def test_a_partition_that_is_not_a_congruence_is_refused(name):
    take, mv3 = _PARTITION_TAKERS[name], fixtures.mv3()
    full = Congruence.full(3)
    for bad in ((0, 0, 0), [0, 0, 0], np.zeros(3, dtype=int), full.blocks[:2]):
        for args in ((bad, full), (full, bad)):
            if args[0] is full and name in ("is_congruence", "quotient_algebra"):
                continue
            with pytest.raises(nsr.AlgebraError,
                               match=rf"^a partition must be a Congruence, not {type(bad).__name__}$"):
                take(mv3, *args)
