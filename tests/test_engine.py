"""The clause evaluator against plain loops, on complete and partially filled tables."""
from itertools import product as iproduct

import numpy as np
from hypothesis import given, settings, strategies as st

import nearsemiring as nsr
from nearsemiring import fixtures
from nearsemiring.core import ClauseSet, X, Y, _add, clause


def _naive_first_violation(identity, add, mul, inv, filled, n):
    """First instance in product order whose sides differ, skipping unfilled cells."""
    def value(term, point):
        head = term[0]
        if head == "var":
            return point[term[1]]
        args = [value(t, point) for t in term[1:]]
        if any(a is None for a in args):
            return None
        if head == "inv":
            return int(inv[args[0]])
        if head == "mul" and not filled[args[0], args[1]]:
            return None
        return int((add if head == "add" else mul)[args[0], args[1]])

    for point in iproduct(range(n), repeat=len(identity.variables)):
        for lhs, rhs, _guard in identity.parts:
            left, right = value(lhs, point), value(rhs, point)
            if left is not None and right is not None and left != right:
                return point
    return None


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


@settings(max_examples=80, deadline=None)
@given(partial_tables())
def test_identity_first_violation_matches_plain_loop_on_partial_tables(tables):
    n, add, mul, inv, filled = tables
    padded_add = np.full((n + 1, n + 1), n)
    padded_add[:n, :n] = add
    padded_mul = np.full((n + 1, n + 1), n)
    padded_mul[:n, :n] = np.where(filled, mul, n)
    padded_inv = np.append(inv, n)
    for identity in nsr.IDENTITIES.values():
        expected = _naive_first_violation(identity, add, mul, inv, filled, n)
        got = nsr.identity_first_violation(identity, padded_add, padded_mul, padded_inv, n)
        assert got == expected, identity.name
        if filled.all():
            assert nsr.identity_first_violation(identity, add, mul, inv, n) == expected


def test_pinned_variable_and_carrier_witnesses():
    mv3 = fixtures.mv3()
    assert nsr.central_identity_violation(mv3, 1, "1") == (0, 0)
    assert nsr.identity_first_violation(
        nsr.IDENTITIES["central-1"], mv3.add, mv3.mul, mv3.inv, mv3.n) == (1, 0, 0)
    # commutativity over a carrier subset reports elements, not positions
    clauses = ClauseSet([clause("comm", "xy", (_add(X, Y), _add(Y, X)), render="{x},{y}")])
    ex24 = fixtures.ex24()
    assert clauses.violations(ex24.ops(), ex24.n, ex24.labels, carrier=(1, 2)) == {}
    twisted = nsr.FiniteNearSemiring([[0, 1, 2], [2, 1, 1], [2, 1, 2]], ex24.mul, 0, 2)
    found = clauses.violations(twisted.ops(), 3, twisted.labels, carrier=(0, 1))
    assert found["comm"].witness == (0, 1) and found["comm"].equation == "0,1"
