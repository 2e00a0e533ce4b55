from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import center, fixtures
from nearsemiring.core import PreconditionError


def test_selector_identities_on_fixtures():
    for name in ("MV3", "MO2", "BOOL4", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        assert nsr.check_church(algebra).passed
        for a, b in product(range(algebra.n), repeat=2):
            assert nsr.church_q(algebra, algebra.one, a, b) == a
            assert nsr.church_q(algebra, algebra.zero, a, b) == b


def test_selector_diagonal_holds_for_every_element():
    for name in ("MV3", "MO2", "BOOL4"):
        algebra = fixtures.fixture(name)
        for e in range(algebra.n):
            assert nsr.church_q(algebra, e, algebra.one, algebra.zero) == e


def test_church_q_checks_its_arguments():
    mv3 = fixtures.mv3()
    for args, bad in (((-1, 0, 0), -1), ((3, 0, 0), 3), ((0, 0, 7), 7), ((0, -2, 5), -2)):
        with pytest.raises(nsr.AlgebraError, match=rf"^element {bad} out of range \[0, 3\)$"):
            nsr.church_q(mv3, *args)
    with pytest.raises(PreconditionError, match="EX24 has no involution table"):
        nsr.church_q(fixtures.ex24(), 0, 0, 0)
    for bad in (1.5, True, np.bool_(False), np.float64(1.0), "1", None):
        with pytest.raises(nsr.AlgebraError, match=r"^element .* is not an integer$"):
            nsr.church_q(mv3, bad, 0, 0)
        with pytest.raises(nsr.AlgebraError, match=r"^element .* is not an integer$"):
            nsr.central_identity_violation(mv3, bad, "1")
    assert nsr.church_q(mv3, np.int64(1), np.uint8(2), 0) == nsr.church_q(mv3, 1, 2, 0)


def test_check_church_requires_integral():
    with pytest.raises(PreconditionError):
        nsr.check_church(fixtures.ex28())


def test_central_elements_mv3():
    report = nsr.central_elements(fixtures.mv3(), "all")
    assert report.centrals == (0, 2)
    assert report.agreement
    assert report.atoms == (2,)


def test_central_elements_bool4_everything():
    report = nsr.central_elements(fixtures.bool4(), "all")
    assert report.centrals == (0, 1, 2, 3)
    assert report.agreement
    assert report.atoms == (1, 2)


def test_central_elements_mo2_trivial():
    report = nsr.central_elements(fixtures.mo2(), "all")
    assert report.centrals == (0, 5)
    assert report.agreement


def test_central_elements_product():
    report = nsr.central_elements(fixtures.fixture("MV3xBOOL2"), "all")
    assert report.centrals == (0, 1, 4, 5)
    assert report.atoms == (1, 4)
    assert report.agreement


def test_central_elements_bad_method():
    with pytest.raises(nsr.AlgebraError):
        nsr.central_elements(fixtures.mv3(), "guesswork")


def test_complement_join_for_detected_centrals():
    for name in ("MV3", "BOOL4", "MO2", "MV3xBOOL2"):
        algebra = fixtures.fixture(name)
        for e in nsr.central_elements(algebra).centrals:
            assert algebra.add[e, algebra.inv[e]] == algebra.one


def test_central_lemma_suite_bool4_atom():
    report = nsr.central_lemma_suite(fixtures.bool4(), 2)
    assert report.passed
    assert len(report.clauses) == 7


def test_central_lemma_suite_degenerate_constants():
    for name in ("MV3", "MO2"):
        algebra = fixtures.fixture(name)
        assert nsr.central_lemma_suite(algebra, algebra.one).passed
        assert nsr.central_lemma_suite(algebra, algebra.zero).passed


def test_central_lemma_suite_rejects_noncentral():
    with pytest.raises(PreconditionError):
        nsr.central_lemma_suite(fixtures.mv3(), 1)
    with pytest.raises(PreconditionError):
        nsr.central_lemma_suite(fixtures.mo2(), 1)


def test_center_algebra_bool4():
    report = nsr.center_algebra(fixtures.bool4())
    assert report.centrals == (0, 1, 2, 3)
    assert report.atoms == (1, 2)
    assert report.boolean_check.passed


def test_center_algebra_mv3():
    report = nsr.center_algebra(fixtures.mv3())
    assert report.centrals == (0, 2)
    assert report.atoms == (2,)
    assert report.boolean_check.passed


def test_center_algebra_product_two_atoms():
    report = nsr.center_algebra(fixtures.fixture("MV3xBOOL2"))
    assert len(report.centrals) == 4
    assert len(report.atoms) == 2
    assert report.boolean_check.passed


def test_interval_algebra_bool4_atom_is_bool2():
    interval = nsr.interval_algebra(fixtures.bool4(), 2)
    assert interval.carrier == (0, 2)
    assert nsr.are_isomorphic(interval.algebra, fixtures.bool2()) is not None


def test_interval_algebra_at_one_is_whole():
    for name in ("MV3", "BOOL4"):
        algebra = fixtures.fixture(name)
        interval = nsr.interval_algebra(algebra, algebra.one)
        assert interval.carrier == tuple(range(algebra.n))
        assert nsr.are_isomorphic(interval.algebra, algebra) is not None


def test_interval_algebra_at_zero_is_trivial():
    interval = nsr.interval_algebra(fixtures.mv3(), 0)
    assert interval.algebra.n == 1


def test_interval_algebra_rejects_noncentral():
    with pytest.raises(PreconditionError):
        nsr.interval_algebra(fixtures.mv3(), 1)


def test_decompose_bool4():
    result = nsr.decompose(fixtures.bool4())
    assert result.factor_sizes() == (2, 2)
    assert all(result.indecomposable)
    for factor in result.factors:
        assert nsr.are_isomorphic(factor.algebra, fixtures.bool2()) is not None
    # the verified map is b -> (e·b, α(e)·b)
    b4 = fixtures.bool4()
    e = result.atoms[0]
    for b in range(4):
        assert result.iso[b][0] == result.factors[0].to_local(int(b4.mul[e, b]))


def test_decompose_mv3_indecomposable():
    result = nsr.decompose(fixtures.mv3())
    assert result.factor_sizes() == (3,)
    assert result.indecomposable == (True,)


def test_decompose_product_recovers_factors():
    result = nsr.decompose(fixtures.fixture("MV3xBOOL2"))
    assert sorted(result.factor_sizes()) == [2, 3]
    assert all(result.indecomposable)
    recovered = sorted(result.factors, key=lambda f: f.algebra.n)
    assert nsr.are_isomorphic(recovered[0].algebra, fixtures.bool2()) is not None
    assert nsr.are_isomorphic(recovered[1].algebra, fixtures.mv3()) is not None


def test_decompose_triple_product():
    algebra = fixtures.fixture("MV3xBOOL2xBOOL2")
    result = nsr.decompose(algebra)
    assert sorted(result.factor_sizes()) == [2, 2, 3]
    assert all(result.indecomposable)


def test_decompose_is_idempotent_on_factors():
    result = nsr.decompose(fixtures.fixture("MV3xBOOL2"))
    for factor in result.factors:
        again = nsr.decompose(factor.algebra)
        assert len(again.factors) == 1
        assert again.indecomposable == (True,)


def test_decompose_trivial_algebra():
    one = nsr.FiniteNearSemiring([[0]], [[0]], 0, 0, inv=[0], name="1")
    result = nsr.decompose(one)
    assert result.factor_sizes() == (1,)


def test_interval_matches_quotient_by_unit_congruence():
    # [0,e] must be isomorphic to the quotient by the congruence joining e to 1
    for name in ("BOOL4", "MV3xBOOL2", "MV3xBOOL2xBOOL2"):
        algebra = fixtures.fixture(name)
        for e in nsr.central_elements(algebra).centrals:
            interval = nsr.interval_algebra(algebra, e)
            theta = nsr.principal_congruence(algebra, e, algebra.one)
            quotient = nsr.quotient_algebra(algebra, theta)
            assert nsr.are_isomorphic(interval.algebra, quotient) is not None


def test_decompose_reconstruction_roundtrip():
    # rebuild the product of the recovered factors and compare with the input
    for name in ("BOOL4", "MV3xBOOL2", "BOOL2xMV3xBOOL2"):
        algebra = fixtures.fixture(name)
        result = nsr.decompose(algebra)
        rebuilt = result.factors[0].algebra
        for factor in result.factors[1:]:
            rebuilt = nsr.product_algebra(rebuilt, factor.algebra)
        assert nsr.are_isomorphic(algebra, rebuilt) is not None


def test_centrality_methods_agree_on_fixtures():
    for name in ("BOOL2", "BOOL4", "MV3", "MO2", "MV3xBOOL2"):
        report = nsr.central_elements(fixtures.fixture(name), "all")
        assert report.agreement, name


def test_central_identity_violation_validates_arguments():
    mv3 = fixtures.mv3()
    with pytest.raises(nsr.AlgebraError):
        nsr.central_identity_violation(mv3, 1, "3")
    with pytest.raises(nsr.AlgebraError):
        nsr.central_identity_violation(mv3, 9, "1")
    with pytest.raises(PreconditionError):
        nsr.central_identity_violation(fixtures.ex24(), 0, "1")


# Size-6 algebras on which the two centrality identities come apart at a
# single element (at one element each identity can hold without the other,
# even though no size-<=6 algebra separates them as closed identities).
# Found by exhaustive scan; sizes up to 5 admit no such element.
SPLIT_1_NOT_2 = nsr.FiniteNearSemiring(
    [[0, 1, 2, 3, 4, 5], [1, 1, 1, 1, 1, 1], [2, 1, 2, 1, 1, 2],
     [3, 1, 1, 3, 3, 3], [4, 1, 1, 3, 4, 3], [5, 1, 2, 3, 3, 5]],
    [[0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5], [0, 2, 2, 5, 0, 5],
     [0, 3, 0, 3, 4, 0], [0, 4, 0, 4, 4, 0], [0, 5, 0, 5, 0, 0]],
    0, 1, inv=[1, 0, 4, 5, 2, 3], name="split-1-not-2")

SPLIT_2_NOT_1 = nsr.FiniteNearSemiring(
    [[0, 1, 2, 3, 4, 5], [1, 1, 1, 1, 1, 1], [2, 1, 2, 2, 2, 2],
     [3, 1, 2, 3, 2, 3], [4, 1, 2, 2, 4, 4], [5, 1, 2, 3, 4, 5]],
    [[0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5], [0, 2, 2, 3, 4, 0],
     [0, 3, 3, 3, 0, 0], [0, 4, 4, 0, 4, 0], [0, 5, 0, 0, 0, 0]],
    0, 1, inv=[1, 0, 5, 4, 3, 2], name="split-2-not-1")


def test_element_local_identity_split_first_direction():
    a = SPLIT_1_NOT_2
    assert nsr.check_axioms(a, "involutive-integral").passed
    assert nsr.central_identity_violation(a, 2, "1") is None
    w = nsr.central_identity_violation(a, 2, "2")
    assert w == (3, 1, 0, 0)
    # the element is therefore not central, and the closed schema fails too
    assert nsr.central_elements(a, "all").centrals == (0, 1)
    assert not nsr.identity_holds(nsr.IDENTITIES["central-1"], a)


def test_element_local_identity_split_second_direction():
    a = SPLIT_2_NOT_1
    assert nsr.check_axioms(a, "involutive-integral").passed
    assert nsr.central_identity_violation(a, 3, "2") is None
    w = nsr.central_identity_violation(a, 3, "1")
    assert w == (0, 0)          # e + α(e) != 1 already fails
    assert a.add[3, a.inv[3]] != a.one
    assert nsr.central_elements(a, "all").centrals == (0, 1)


FULL_CONDITION_BASES = [fixtures.fixture(name) for name in (
    "BOOL2", "BOOL4", "EX28", "APXA", "APXB", "MV3", "MO2", "MV3xBOOL2")] + [
    SPLIT_1_NOT_2, SPLIT_2_NOT_1]


@st.composite
def involutive_tables(draw):
    """Tables of size n <= 6 with an involution, that need not be near semirings.

    Either a fixture, relabelled, with a few cells of its sum and product
    changed, so that some elements are central and others fail only the n⁴
    conditions; or random tables, some with 0 neutral for the sum and 0, 1
    absorbing and neutral for the product, so that q(0,·,·) and q(1,·,·) are
    projections.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from(FULL_CONDITION_BASES))
        n = base.n
        a = base.relabel(draw(st.permutations(range(n))))
        add, mul = a.add.copy(), a.mul.copy()
        for _ in range(draw(st.integers(0, 2))):
            table = draw(st.sampled_from([add, mul]))
            table[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = \
                draw(st.integers(0, n - 1))
        return nsr.FiniteNearSemiring(add, mul, a.zero, a.one, inv=a.inv)
    n = draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    add = np.array(draw(cells)).reshape(n, n)
    mul = np.array(draw(cells)).reshape(n, n)
    one = min(n - 1, 1)
    if draw(st.booleans()):
        add[0], add[:, 0] = np.arange(n), np.arange(n)
        mul[0], mul[:, 0] = 0, 0
        mul[one], mul[:, one] = np.arange(n), np.arange(n)
    inv = list(range(n))
    order = draw(st.permutations(range(n)))
    for x, y in zip(order[0::2], order[1::2]):      # swap drawn pairs: an involution
        if draw(st.booleans()):
            inv[x], inv[y] = y, x
    return nsr.FiniteNearSemiring(add, mul, 0, one, inv=inv)


@settings(max_examples=200, deadline=None)
@given(involutive_tables(), st.sampled_from([center._FULL_CELLS, 1]))
def test_full_conditions_match_the_whole_grid_oracle(algebra, cells):
    saved = center._FULL_CELLS
    center._FULL_CELLS = cells          # one chunk per first argument
    try:
        got = [center.is_central_full_conditions(algebra, e) for e in range(algebra.n)]
    finally:
        center._FULL_CELLS = saved
    assert got == [naive.is_central_full_conditions(algebra, e) for e in range(algebra.n)]
