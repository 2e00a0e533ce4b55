from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import fixtures
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
def small_tables(draw):
    """Tables of size n <= 5, with or without α, that need not be near semirings.

    Half of them respect a drawn partition (the block of x+y and of x·y
    depends only on the blocks of x and y, and α permutes each block), and
    some operations are projections, which respect every partition; so
    congruences other than the identity and the full one turn up, and
    lattices with members that are not principal.
    """
    n = draw(st.integers(1, 5))
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


def test_regularity_terms_check_their_arguments():
    mv3 = fixtures.mv3()
    assert regularity_terms(mv3, 0, 0, 1) == (1, 1)
    for args, bad in (((-1, 0, 0), -1), ((0, 3, 0), 3), ((0, 0, 9), 9)):
        with pytest.raises(nsr.AlgebraError, match=rf"^element {bad} out of range \[0, 3\)$"):
            regularity_terms(mv3, *args)
    with pytest.raises(PreconditionError, match="EX24 has no involution table"):
        regularity_terms(fixtures.ex24(), 0, 0, 0)
