"""The array checks of the audit path against the plain loops in naive.py.

Relations need not be partial orders and tables need not form near
semirings: the array checks must give the loops' verdicts and their first
witnesses, in product order, on any input.
"""
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive
import nearsemiring as nsr
from nearsemiring import congruences, core, transforms


def _pairs(n):
    return iproduct(range(n), repeat=2)


@st.composite
def relations(draw):
    """An arbitrary relation, or a partial order: the closure of a relabelled random DAG."""
    n = draw(st.integers(1, 6))
    cells = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        return cells
    leq = np.triu(cells) | np.eye(n, dtype=bool)
    for _ in range(n):
        leq = leq | (leq @ leq)
    perm = np.array(draw(st.permutations(range(n))))
    return leq[np.ix_(perm, perm)]


@st.composite
def tables(draw, n):
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    return np.array(draw(cells)).reshape(n, n)


@settings(max_examples=150, deadline=None)
@given(relations())
def test_semilattice_flags_match_bound_loop(leq):
    n, lists = len(leq), leq.tolist()
    assert core._bounded(leq) == all(
        naive.bound(lists, x, y, True) is not None for x, y in _pairs(n))
    assert core._bounded(leq.T) == all(
        naive.bound(lists, x, y, False) is not None for x, y in _pairs(n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_induced_order_matches_loops(data):
    # commutative idempotent sum and product tables with up to two cells changed: on the
    # diagonal that breaks idempotence, elsewhere commutativity
    n = data.draw(st.integers(1, 6))
    ops = []
    for _ in range(2):
        table = np.triu(data.draw(tables(n)))
        table = table + np.triu(table, 1).T
        table[np.diag_indices(n)] = np.arange(n)
        for _ in range(data.draw(st.integers(0, 2)) if n > 1 else 0):
            x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            table[x, y] = (table[x, y] + data.draw(st.integers(1, n - 1))) % n
        ops.append(table)
    labels = tuple(f"<{x}>" for x in range(n))
    algebra = nsr.FiniteNearSemiring(*ops, 0, 1 if n >= 2 else 0, name="D", labels=labels)
    for which, table, leq in (("sum", ops[0], ops[0] == np.arange(n)[None, :]),
                              ("mul", ops[1], ops[1] == np.arange(n)[:, None])):
        refused = naive.order_failure(table.tolist(), which, "D", labels)
        if refused is not None:
            with pytest.raises(core.PreconditionError) as error:
                nsr.induced_order(algebra, which)
            assert str(error.value) == refused
            continue
        report = nsr.induced_order(algebra, which)
        lists = leq.tolist()
        is_po = (all(not (leq[x, y] and leq[y, x]) or x == y for x, y in _pairs(n))
                 and all(not (leq[x, y] and leq[y, z]) or leq[x, z]
                         for x, y, z in iproduct(range(n), repeat=3)))
        assert report.is_partial_order == is_po
        assert report.is_join_semilattice == (is_po and all(
            naive.bound(lists, x, y, True) is not None for x, y in _pairs(n)))
        assert report.is_meet_semilattice == (is_po and all(
            naive.bound(lists, x, y, False) is not None for x, y in _pairs(n)))
        bottoms = [x for x in range(n) if all(lists[x])]
        tops = [x for x in range(n) if all(row[x] for row in lists)]
        assert report.bottom == (bottoms[0] if len(bottoms) == 1 else None)
        assert report.top == (tops[0] if len(tops) == 1 else None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_basic_algebra_order_witnesses_match_loops(data):
    rel = data.draw(relations())
    n = len(rel)
    oplus = data.draw(tables(n))
    neg = data.draw(st.permutations(range(n)))
    zero = data.draw(st.integers(0, n - 1))
    one = neg[zero]
    if n > 1 and data.draw(st.booleans()):
        # x'⊕y = 1 exactly on a drawn relation, made reflexive at times; then at times a pair
        # that transitivity forces is dropped
        if data.draw(st.booleans()):
            rel = rel | np.eye(n, dtype=bool)
        strict = rel & ~np.eye(n, dtype=bool)
        forced = np.argwhere(strict @ strict).tolist()
        if forced and data.draw(st.booleans()):
            rel[tuple(data.draw(st.sampled_from(forced)))] = False
        oplus[np.array(neg)] = np.where(rel, one, (one + 1 + oplus % (n - 1)) % n)
    oplus = oplus.tolist()
    labels = tuple(f"<{x}>" for x in range(n))
    basic = nsr.BasicAlgebra(oplus, neg, zero, labels=labels)
    report = nsr.check_basic_algebra(basic)
    loops = (naive.basic_axiom_failures(oplus, neg, zero, labels)
             | naive.basic_order_failures(oplus, neg, zero, labels))
    assert {v.clause: (v.witness, v.equation) for v in report.violations} == loops
    assert report.passed == (not loops)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_regularity_failure_matches_loop(data):
    n = data.draw(st.integers(1, 6))
    add, mul = data.draw(tables(n)), data.draw(tables(n))
    inv = data.draw(st.permutations(range(n)))
    if data.draw(st.booleans()):
        # α an involution, 0 neutral for +, α(0) a left unit for · and x·α(x) = 0: every
        # instance with x = y holds, so only x ≠ y that both terms fix can fail
        inv = list(range(n))
        for a, b in zip(*[iter(data.draw(st.permutations(range(n))))] * 2):
            inv[a], inv[b] = b, a
        add[0] = mul[inv[0]] = np.arange(n)
        mul[np.arange(n), inv] = 0
    labels = tuple(f"<{x}>" for x in range(n))
    algebra = nsr.FiniteNearSemiring(add, mul, 0, 1 if n >= 2 else 0, inv=inv, labels=labels)
    found = core.find_violations(algebra, congruences._WITNESS_TERMS)
    bad = naive.regularity_failure(add.tolist(), mul.tolist(), inv)
    assert ("regularity-biconditional" not in found) == (bad is None)
    if bad is not None:
        v = found["regularity-biconditional"]
        t1, t2 = congruences.regularity_terms(algebra, *bad)
        x, y, z = (labels[e] for e in bad)
        assert (v.witness, v.equation) == (
            bad, f"t1={labels[t1]}, t2={labels[t2]}, z={z} with x={x}, y={y}")


@settings(max_examples=100, deadline=None)
@given(st.data(), st.booleans())
def test_compare_matches_loop(data, verbose):
    n = data.draw(st.integers(1, 6))
    pairs = []
    for op in data.draw(st.permutations(["add", "inv", "mul", "one", "zero"])):
        if op in ("zero", "one"):
            orig = data.draw(st.integers(0, n - 1))
            back = data.draw(st.sampled_from([orig, data.draw(st.integers(0, n - 1))]))
        else:
            orig = data.draw(tables(n))
            if op == "inv":
                orig = orig[0]
            back = orig.copy()
            flips = data.draw(st.lists(st.integers(0, orig.size - 1), max_size=4))
            back.flat[flips] = data.draw(st.integers(0, n - 1))
        pairs.append((op, orig, back))
    report = transforms._compare("test", pairs, verbose)
    expected = naive.table_mismatches(
        [(op, np.asarray(a).tolist(), np.asarray(b).tolist()) for op, a, b in pairs], verbose)
    assert report.pointwise_equal == (not expected)
    assert report.mismatch == (expected[0] if expected else None)
    assert report.mismatches == (tuple(expected) if verbose else ())
