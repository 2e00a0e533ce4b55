"""The clause evaluator against plain loops, on complete and partially filled tables."""
import numpy as np
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import core, fixtures
from nearsemiring.core import (
    IDENTITIES, ONE, PROFILES, ZERO, ClauseSet, Violation, X, Y, _add, _mul, clause,
)

import naive

ENGINE_SETS = [(p, core._PROFILE_CLAUSES[p]) for p in sorted(PROFILES)] + [
    (name, ClauseSet([c])) for name, c in sorted(IDENTITIES.items())]


@st.composite
def partial_tables(draw):
    n = draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    add = np.array(draw(cells)).reshape(n, n)
    mul = np.array(draw(cells)).reshape(n, n)
    inv = np.array(draw(st.permutations(range(n))))
    filled = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        filled[:] = True
    return n, add, mul, inv, filled


def _padded(add, mul, inv, filled, n):
    """The tables padded with the sentinel n, as the search's are;
    mul's cells are unfilled where filled is false."""
    padded_add = np.full((n + 1, n + 1), n)
    padded_add[:n, :n] = add
    padded_mul = np.full((n + 1, n + 1), n)
    padded_mul[:n, :n] = np.where(filled, mul, n)
    return padded_add, padded_mul, np.append(inv, n)


@settings(max_examples=80, deadline=None)
@given(partial_tables())
def test_identity_first_violation_matches_plain_loop_on_partial_tables(tables):
    n, add, mul, inv, filled = tables
    padded_add, padded_mul, padded_inv = _padded(add, mul, inv, filled, n)
    for identity in nsr.IDENTITIES.values():
        expected = naive.first_violation(identity, add, mul, inv, filled, n)
        expected = None if expected is None else expected.witness
        got = nsr.identity_first_violation(identity, padded_add, padded_mul, padded_inv, n)
        assert got == expected, identity.name
        if filled.all():
            assert nsr.identity_first_violation(identity, add, mul, inv, n) == expected


def test_pinned_variable_witnesses():
    mv3 = fixtures.mv3()
    assert nsr.central_identity_violation(mv3, 1, "1") == (0, 0)
    assert nsr.identity_first_violation(
        nsr.IDENTITIES["central-1"], mv3.add, mv3.mul, mv3.inv, mv3.n) == (1, 0, 0)


@settings(max_examples=60, deadline=None)
@given(partial_tables(), st.booleans(), st.data())
def test_outer_reads_match_gathers_and_the_loop_oracle(tables, constant, data):
    n, add, mul, inv, filled = tables
    ops = {"zero": 0, "one": min(n - 1, 1)}
    ops["add"], ops["mul"], ops["inv"] = _padded(add, mul, inv, filled, n) \
        if not filled.all() or data.draw(st.booleans()) else (add, mul, inv)
    labels = tuple(f"<{x}>" for x in range(n))
    for name, clauses in ENGINE_SETS:
        originals, pinned = clauses.clauses, {}
        if constant:                    # each clause's first variable read as a named constant
            pinned = {c.variables[0]: data.draw(st.integers(0, n - 1)) for c in originals}
            clauses = ClauseSet(map(naive.constant_first, originals))
        called = dict(ops, **pinned)
        gathered = clauses.violations(called, n, labels)
        saved = core._OUTER_CELLS
        core._OUTER_CELLS = 1            # every eligible read takes the two block takes
        try:
            outer = clauses.violations(called, n, labels)
        finally:
            core._OUTER_CELLS = saved
        assert outer == gathered, name
        for c in originals:
            held = {v: pinned[v] for v in c.variables[:1] if v in pinned}
            expected = naive.first_violation(c, add, mul, inv, filled, n, held, labels=labels)
            assert outer.get(c.name) == expected, (name, c.name)


def test_an_unfilled_side_renders_as_a_question_mark():
    # x+y reads the unfilled cell (1, 2) and differs from y+x there, so only the
    # product part fails at (1, 2); its text shows the unfilled side as "?"
    clauses = ClauseSet([clause(
        "both-commute", "xy", (_add(X, Y), _add(Y, X)), (_mul(X, Y), _mul(Y, X)),
        render=("{x}+{y}={lhs} but {y}+{x}={rhs}", "{x}·{y}={lhs} but {y}·{x}={rhs}, "
                "{x}+{y}={lhs0} and {y}+{x}={rhs0}"))])
    add = np.array([[0, 1, 2], [1, 1, 3], [2, 2, 2]])
    mul = np.array([[0, 0, 0], [0, 1, 0], [0, 1, 2]])
    add, mul, _inv = _padded(add, mul, np.arange(3), np.ones((3, 3), dtype=bool), 3)
    add[1, 2] = 3
    labels = ("a", "b", "c")
    found = clauses.violations({"add": add, "mul": mul}, 3, labels)
    assert found["both-commute"].witness == (1, 2)
    assert found["both-commute"].equation == "b·c=a but c·b=b, b+c=? and c+b=c"
    stacked = clauses.violations({"add": add, "mul": np.stack([mul, mul])}, 3, labels)
    assert stacked == [found, found]


def test_a_clause_whose_sides_read_only_constants():
    # both sides are the constants themselves, so the failure mask has no grid axis
    mv3 = fixtures.mv3()
    failing = ClauseSet([clause("zero-is-one", "x", (ZERO, ONE), render="{zero}={one}")])
    passing = ClauseSet([clause("one-is-one", "x", (ONE, ONE), render="{one}={one}")])
    ops, labels = mv3.ops(), mv3.labels
    single = {"zero-is-one": Violation(
        "zero-is-one", (0,), f"{mv3.label(mv3.zero)}={mv3.label(mv3.one)}")}
    assert failing.violations(ops, 3, labels) == single
    assert passing.violations(ops, 3, labels) == {}
    assert failing.violations(ops, 3, labels, mask=True) is True
    assert passing.violations(ops, 3, labels, mask=True) is False
    # stacked: beside a clause that reads the stacked sum table, whose slices commute
    comm = (core._AXIOMS["add-commutativity"],)
    stacked = dict(ops, add=np.stack([mv3.add] * 3))
    assert ClauseSet(failing.clauses + comm).violations(stacked, 3, labels) == [single] * 3
    assert ClauseSet(passing.clauses + comm).violations(stacked, 3, labels) == [{}] * 3
    assert ClauseSet(failing.clauses + comm).violations(
        stacked, 3, mask=True).tolist() == [True] * 3
    assert ClauseSet(passing.clauses + comm).violations(
        stacked, 3, mask=True).tolist() == [False] * 3
    # on sentinel-padded tables, the second of which does not commute
    add = np.array([mv3.add, [[0, 1, 2], [0, 1, 2], [0, 1, 2]]])
    padded = dict(ops, add=np.pad(add, [(0, 0), (0, 1), (0, 1)], constant_values=3))
    found = ClauseSet(passing.clauses + comm).violations(padded, 3)
    assert [sorted(f) for f in found] == [[], ["add-commutativity"]]
    assert ClauseSet(passing.clauses + comm).violations(
        padded, 3, mask=True).tolist() == [False, True]


def test_a_mask_call_on_an_empty_stack_is_an_empty_mask():
    # every table stacked, complete (side 3) or sentinel-padded (side 4)
    ops = fixtures.mv3().ops()
    for name, clauses in ENGINE_SETS:
        for side in (3, 4):
            ops.update(add=np.zeros((0, side, side), dtype=int),
                       mul=np.zeros((0, side, side), dtype=int), inv=np.zeros((0, side), dtype=int))
            assert clauses.violations(ops, 3) == [], name
            empty = clauses.violations(ops, 3, mask=True)
            assert empty.dtype == bool and empty.shape == (0,), name
