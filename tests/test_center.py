from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import center, core, fixtures
from nearsemiring.core import (
    ZERO, CheckReport, ClauseSet, PreconditionError, X, Y, Z, _add, _mul, clause,
)


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


def test_the_three_centrality_routes_check_e_alike():
    mv3 = fixtures.mv3()
    routes = [center._METHOD_FNS[m] for m in center.CENTRALITY_METHODS]
    for bad in (-1, mv3.n, 1.0, True):
        messages = set()
        for route in routes:
            with pytest.raises(nsr.AlgebraError) as caught:
                route(mv3, bad)
            assert type(caught.value) is nsr.AlgebraError
            messages.add(str(caught.value))
        assert len(messages) == 1, (bad, messages)
    for route in routes:
        with pytest.raises(PreconditionError, match="EX24 has no involution table"):
            route(fixtures.ex24(), 0)


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
    mv3 = fixtures.mv3()
    for method, problem in (("guesswork", "unknown centrality method 'guesswork'"),
                            ((), "no centrality method given"), ([], "no centrality method given")):
        for fn in (nsr.central_elements, nsr.center_algebra):
            with pytest.raises(nsr.AlgebraError,
                               match=rf"^{problem}; known: equational, full-conditions, "
                                     r"congruence or 'all'$"):
                fn(mv3, method)


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


def test_kept_centrality_does_not_pass_a_non_integer_e():
    # True and 1.0 equal 1, but a kept verdict's key holds each argument's type too
    algebra = fixtures.bool4()
    assert 1 in nsr.central_elements(algebra).centrals
    for bad in (True, 1.0, np.float64(1.0)):
        for call in (nsr.interval_algebra, nsr.central_lemma_suite, center.is_central_equational):
            with pytest.raises(nsr.AlgebraError, match=r"^element .* is not an integer$"):
                call(algebra, bad)


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


def test_decompose_projections_are_homomorphisms():
    # each factor's column of the map is b -> e·b, which interval_algebra verified
    for name in ("BOOL4", "MV3xBOOL2", "MV3xBOOL2xBOOL2", "MO2xBOOL2"):
        algebra = fixtures.fixture(name)
        result = nsr.decompose(algebra)
        tables = [t.tolist() for t in (algebra.add, algebra.mul, algebra.inv)]
        for i, factor in enumerate(result.factors):
            a = factor.algebra
            target = dict(add=a.add.tolist(), mul=a.mul.tolist(), inv=a.inv.tolist(),
                          zero=a.zero, one=a.one)
            h = [local[i] for local in result.iso]
            assert naive.homomorphism_failure(*tables, algebra.zero, algebra.one, h, target,
                                              algebra.labels) is None, (name, i)


def test_decompose_evaluates_central_2_once_per_element(monkeypatch):
    calls = []
    original = center.central_identity_violation
    monkeypatch.setattr(center, "central_identity_violation", lambda algebra, e, which: (
        calls.append((id(algebra), int(e), which)), original(algebra, e, which))[1])
    algebra = fixtures.fixture("BOOL2xBOOL2xBOOL2xBOOL2xBOOL2")
    assert nsr.decompose(algebra).factor_sizes() == (2,) * 5
    central_2 = [call for call in calls if call[2] == "2"]
    assert len(central_2) == len(set(central_2))
    assert (id(algebra), 0, "2") in central_2


_HOMOMORPHISM_CLAUSES = [c.name for c in center._HOMOMORPHISM.clauses]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None] + _HOMOMORPHISM_CLAUSES), st.booleans(), st.data())
def test_homomorphism_clauses_match_the_loop_oracle(first, outer, data):
    # h maps onto range(m), and the parent's values are preimages under h of the
    # target's, so h is a homomorphism until the clause drawn first, and sometimes
    # later ones, are broken at a drawn place
    small = 1 if first is None else 2
    n = data.draw(st.integers(small, 5))
    m = data.draw(st.integers(small, n))
    h = np.array(data.draw(st.permutations(range(n)))) % m
    cells = lambda size: st.lists(st.integers(0, m - 1), min_size=size, max_size=size)
    target = dict(add=np.array(data.draw(cells(m * m))).reshape(m, m),
                  mul=np.array(data.draw(cells(m * m))).reshape(m, m),
                  inv=np.array(data.draw(cells(m))),
                  zero=data.draw(st.integers(0, m - 1)), one=data.draw(st.integers(0, m - 1)))
    section = np.array([data.draw(st.sampled_from(np.flatnonzero(h == v).tolist()))
                        for v in range(m)])
    x, y = np.ix_(range(n), range(n))
    add, mul = (section[target[op][h[x], h[y]]] for op in ("add", "mul"))
    inv = section[target["inv"][h]]
    constants = dict(zero=int(section[target["zero"]]), one=int(section[target["one"]]))

    def off(v):
        """An element whose image under h is not v."""
        return data.draw(st.sampled_from(np.flatnonzero(h != v).tolist()))

    broken = _HOMOMORPHISM_CLAUSES[_HOMOMORPHISM_CLAUSES.index(first):] if first else []
    for name in broken:
        if name != first and not data.draw(st.booleans()):
            continue
        if name == "operations":
            op = data.draw(st.sampled_from(["add", "mul"]))
            table = add if op == "add" else mul
            a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            table[a, b] = off(target[op][h[a], h[b]])
        elif name == "complement":
            a = data.draw(st.integers(0, n - 1))
            inv[a] = off(target["inv"][h[a]])
        else:
            const = data.draw(st.sampled_from(["zero", "one"]))
            constants[const] = int(off(target[const]))
    labels = tuple(f"<{v}>" for v in range(n))
    ops = dict(add=add, mul=mul, inv=inv, h=h, **constants,
               **{f"target_{name}": value for name, value in target.items()})
    with pytest.MonkeyPatch.context() as monkeypatch:
        if outer:
            monkeypatch.setattr(core, "_OUTER_CELLS", 1)
        found = center._HOMOMORPHISM.violations(ops, n, labels)
    got = next(iter(found.values()), None)
    expected = naive.homomorphism_failure(add.tolist(), mul.tolist(), inv.tolist(),
                                          constants["zero"], constants["one"], h.tolist(),
                                          {k: np.asarray(v).tolist() for k, v in target.items()},
                                          labels)
    assert (got and (got.clause, got.witness, got.equation)) == expected
    assert (got and got.clause) == first


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


def _identities_match_the_loop_oracle(algebra):
    """The centrality identities at every e against naive.first_violation with e pinned."""
    n = algebra.n
    for e, which in product(range(n), "12"):
        v = naive.first_violation(nsr.IDENTITIES[f"central-{which}"], algebra.add, algebra.mul,
                                  algebra.inv, np.ones((n, n), dtype=bool), n, {"e": e},
                                  constants={"zero": algebra.zero, "one": algebra.one})
        assert nsr.central_identity_violation(algebra, e, which) == (v and v.witness), (e, which)


def _lemmas_and_center_match_the_loop_oracle(algebra):
    """The lemma suite at every central e, against naive.first_violation with e a constant,
    and center_algebra's Boolean check, against it with the center as carrier."""
    add, mul, inv, n, labels = algebra.add, algebra.mul, algebra.inv, algebra.n, algebra.labels
    filled = np.ones((n, n), dtype=bool)
    constants = {"zero": algebra.zero, "one": algebra.one}
    report = nsr.center_algebra(algebra)
    passed = report.boolean_check.passed
    for e in report.centrals:
        found = [naive.first_violation(c, add, mul, inv, filled, n, constants=dict(constants, e=e),
                                       labels=labels) for c in center._CENTRAL_LEMMAS.clauses]
        suite = nsr.central_lemma_suite(algebra, e)
        assert [(r.counterexample, r.detail) for r in suite.clauses] == \
            [(None, "") if v is None else (v.witness, v.equation) for v in found], e
        passed &= suite.passed
    found = [naive.first_violation(c, add, mul, inv, filled, n, carrier=report.centrals,
                                   constants=constants, labels=labels)
             for c in center._CENTER_BOOLEAN.clauses]
    assert report.boolean_check == CheckReport.of(
        f"Ce({algebra.name})", "center-boolean-algebra", [v for v in found if v is not None])
    return passed


# laws that fail on every center of two elements or more, and lemmas that fail at every e
# but zero: so that the witnesses and equations mapped back from the center's own elements,
# and those that depend on e, are compared with the oracle
_FAILING_LAWS = (
    clause("sum-is-left", "xy", (_add(X, Y), X), render="{x}+{y}={lhs}"),
    clause("product-is-first", "xyz", (_mul(X, _add(Y, Z)), X), render="{x}·({y}+{z})={lhs}"),
)
_FAILING_LEMMAS = (
    clause("e-is-zero", "", (center.E, ZERO), render="e={lhs}"),
    clause("e-absorbs", "x", (_mul(center.E, X), center.E), render="e·{x}={lhs}"),
)


def _add_failing_laws(monkeypatch):
    monkeypatch.setattr(center, "_CENTER_BOOLEAN",
                        ClauseSet(center._CENTER_BOOLEAN.clauses + _FAILING_LAWS))
    monkeypatch.setattr(center, "_CENTRAL_LEMMAS",
                        ClauseSet(center._CENTRAL_LEMMAS.clauses + _FAILING_LEMMAS))


@pytest.mark.parametrize("name", ["MV3", "BOOL4", "MO2xBOOL2", "MV3xBOOL2"])
def test_central_checks_match_the_loop_oracle_on_fixtures(name, monkeypatch):
    algebra = fixtures.fixture(name)
    _identities_match_the_loop_oracle(algebra)
    assert _lemmas_and_center_match_the_loop_oracle(algebra)
    _add_failing_laws(monkeypatch)
    assert not _lemmas_and_center_match_the_loop_oracle(algebra)


_SMALL = [m for n in range(1, 5)
          for m in nsr.enumerate_models(n, nsr.parse_constraint("involutive-integral")).models]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL + [fixtures.fixture(name) for name in ("MV3", "BOOL4", "MO2")]),
       st.booleans(), st.data())
def test_central_checks_match_the_loop_oracle_on_drawn_tables(base, failing, data):
    # relabelled, and sometimes one cell changed, as the audit's mutants are
    a = base.relabel(data.draw(st.permutations(range(base.n))))
    add, mul = a.add.copy(), a.mul.copy()
    if a.n > 1 and data.draw(st.booleans()):
        table = data.draw(st.sampled_from([add, mul]))
        x, y = data.draw(st.integers(0, a.n - 1)), data.draw(st.integers(0, a.n - 1))
        table[x, y] = (table[x, y] + data.draw(st.integers(1, a.n - 1))) % a.n
    algebra = nsr.FiniteNearSemiring(add, mul, a.zero, a.one, inv=a.inv, name="D")
    assume(nsr.check_axioms(algebra, "involutive-integral").passed)
    try:
        nsr.central_elements(algebra)
    except nsr.AlgebraError:        # a constant or a central element is off, so no center
        reject()
    _identities_match_the_loop_oracle(algebra)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if failing:
            _add_failing_laws(monkeypatch)
        _lemmas_and_center_match_the_loop_oracle(algebra)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FULL_CONDITION_BASES), st.data())
def test_subalgebras_match_a_loop(algebra, data):
    n, zero = algebra.n, algebra.zero
    carrier = sorted(data.draw(st.sets(st.integers(0, n - 1))) | {zero})
    one = data.draw(st.sampled_from([x for x in carrier if x != zero] or [zero]))
    # a complement that maps the carrier onto itself, or any permutation
    inv = np.array(data.draw(st.permutations(range(n))))
    if data.draw(st.booleans()):
        inv = np.arange(n)
        inv[carrier] = data.draw(st.permutations(carrier))
    open_at = next(((x, y) for x, y in product(carrier, repeat=2)
                    if algebra.add[x, y] not in carrier or algebra.mul[x, y] not in carrier), None)
    off = next((x for x in carrier if inv[x] not in carrier), None)
    if open_at is not None or off is not None:
        with pytest.raises(nsr.AlgebraError) as error:
            center._subalgebra(algebra, carrier, one, inv, "S", "T")
        assert str(error.value) == (
            "S is not closed at ({},{})".format(*map(algebra.label, open_at)) if open_at
            else f"S is not closed under α at {algebra.label(off)}")
        return
    sub = center._subalgebra(algebra, carrier, one, inv, "S", "T")
    local = {x: i for i, x in enumerate(carrier)}
    for got, table in ((sub.add, algebra.add), (sub.mul, algebra.mul)):
        assert got.tolist() == [[local[table[x, y]] for y in carrier] for x in carrier]
    assert sub.inv.tolist() == [local[inv[x]] for x in carrier]
    assert (sub.zero, sub.one, sub.name, sub.labels) == (
        local[zero], local[one], "T", tuple(algebra.label(x) for x in carrier))


def test_a_carrier_closed_under_sum_only_is_refused_at_its_first_open_product():
    algebra = fixtures.fixture("MV3xBOOL2")
    carrier = [0, 3]
    assert all(algebra.add[x, y] in carrier for x, y in product(carrier, repeat=2))
    x, y = next((x, y) for x, y in product(carrier, repeat=2) if algebra.mul[x, y] not in carrier)
    with pytest.raises(nsr.AlgebraError) as error:
        center._subalgebra(algebra, carrier, 3, algebra.inv, "S", "T")
    assert str(error.value) == f"S is not closed at ({algebra.label(x)},{algebra.label(y)})"
