"""Congruences of finite near semirings and the associated term checks.

A congruence is a partition of the carrier compatible with both binary
operations (on either side) and with the involution when present.  It is
stored canonically as a block-id vector whose ids appear in first-occurrence
order, so partitions compare and sort deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .core import (
    AlgebraError, ClauseResult, ClauseSet, FiniteNearSemiring, PropertyReport, X, Y,
    WitnessTermReport, _add, _inv, _mul, clause, clause_results, find_violations,
)
from .varieties import require_lukasiewicz


@dataclass(frozen=True, order=True)
class Congruence:
    """A compatible partition, held as a canonical block-id tuple."""
    blocks: tuple

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def block_count(self) -> int:
        return max(self.blocks) + 1

    def is_identity(self) -> bool:
        return self.block_count == self.n

    def is_full(self) -> bool:
        return self.block_count == 1

    def related(self, x: int, y: int) -> bool:
        return self.blocks[x] == self.blocks[y]

    def classes(self) -> tuple:
        out = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.blocks):
            out[b].append(x)
        return tuple(tuple(c) for c in out)

    def matrix(self) -> np.ndarray:
        b = np.asarray(self.blocks)
        return b[:, None] == b[None, :]

    def render(self, algebra: FiniteNearSemiring = None) -> str:
        lab = algebra.label if algebra is not None else str
        return "|".join("{" + ",".join(lab(x) for x in cls) + "}" for cls in self.classes())

    @staticmethod
    def from_blocks(raw) -> "Congruence":
        remap = {}
        out = []
        for b in raw:
            if b not in remap:
                remap[b] = len(remap)
            out.append(remap[b])
        return Congruence(tuple(out))

    @staticmethod
    def identity(n: int) -> "Congruence":
        return Congruence(tuple(range(n)))

    @staticmethod
    def full(n: int) -> "Congruence":
        return Congruence((0,) * n)


def is_congruence(algebra: FiniteNearSemiring, part: Congruence) -> bool:
    """Compatibility of a partition with +, · (both sides) and α."""
    if part.n != algebra.n:
        return False
    b = np.asarray(part.blocks)
    if sorted(set(part.blocks)) != list(range(part.block_count)):
        return False
    for x, y in iproduct(range(algebra.n), repeat=2):
        if b[x] != b[y]:
            continue
        if algebra.inv is not None and b[algebra.inv[x]] != b[algebra.inv[y]]:
            return False
        for c in range(algebra.n):
            if (b[algebra.add[x, c]] != b[algebra.add[y, c]]
                    or b[algebra.add[c, x]] != b[algebra.add[c, y]]
                    or b[algebra.mul[x, c]] != b[algebra.mul[y, c]]
                    or b[algebra.mul[c, x]] != b[algebra.mul[c, y]]):
                return False
    return True


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def partition(self) -> Congruence:
        return Congruence.from_blocks(self.find(x) for x in range(len(self.parent)))


def principal_congruence(algebra: FiniteNearSemiring, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b.

    Fixpoint closure: seed a≡b, then keep merging images of merged pairs
    under every one-variable translation x -> x+c, c+x, x·c, c·x, α(x)
    until nothing new appears.  The result is re-validated independently.
    """
    n = algebra.n
    if not (0 <= a < n and 0 <= b < n):
        raise AlgebraError(f"elements ({a},{b}) out of range [0, {n})")
    uf = _UnionFind(n)
    work = []
    if uf.union(a, b):
        work.append((a, b))
    add, mul, inv = algebra.add, algebra.mul, algebra.inv
    while work:
        x, y = work.pop()
        images = []
        for c in range(n):
            images.append((add[x, c], add[y, c]))
            images.append((add[c, x], add[c, y]))
            images.append((mul[x, c], mul[y, c]))
            images.append((mul[c, x], mul[c, y]))
        if inv is not None:
            images.append((inv[x], inv[y]))
        for u, v in images:
            if uf.union(int(u), int(v)):
                work.append((int(u), int(v)))
    out = uf.partition()
    if not is_congruence(algebra, out):
        raise AlgebraError(f"closure produced an incompatible partition on {algebra.name}")
    return out


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Smallest partition refining neither: transitive closure of the union."""
    uf = _UnionFind(p.n)
    for part in (p, q):
        classes = part.classes()
        for cls in classes:
            for x in cls[1:]:
                uf.union(cls[0], x)
    return uf.partition()


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Common refinement: blocks are the nonempty pairwise intersections."""
    return Congruence.from_blocks(zip(p.blocks, q.blocks))


def compose_relations(p: Congruence, q: Congruence) -> np.ndarray:
    """Relation matrix of p∘q: (x,z) related iff x p y q z for some y."""
    return (p.matrix() @ q.matrix()) > 0


def all_congruences(algebra: FiniteNearSemiring) -> list:
    """The full congruence lattice, canonically sorted.

    Generated as the join-closure of all principal congruences plus the
    identity; every member is re-validated for compatibility.
    """
    n = algebra.n
    found = {Congruence.identity(n)}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(principal_congruence(algebra, a, b))
    frontier = True
    while frontier:
        frontier = False
        current = sorted(found)
        for i, p in enumerate(current):
            for q in current[i + 1:]:
                j = join_partitions(p, q)
                if j not in found:
                    found.add(j)
                    frontier = True
    out = sorted(found)
    for part in out:
        if not is_congruence(algebra, part):
            raise AlgebraError(f"join closure left an incompatible partition on {algebra.name}")
    return out


def is_factor_pair(algebra: FiniteNearSemiring, theta: Congruence, phi: Congruence) -> bool:
    """Factor-congruence test: meet is identity, join is full, and the two permute to full."""
    for part in (theta, phi):
        if not is_congruence(algebra, part):
            raise AlgebraError(f"input partition is not a congruence of {algebra.name}")
    if not meet_partitions(theta, phi).is_identity():
        return False
    if not join_partitions(theta, phi).is_full():
        return False
    tp = compose_relations(theta, phi)
    pt = compose_relations(phi, theta)
    return bool(tp.all() and pt.all())


def quotient_algebra(algebra: FiniteNearSemiring, theta: Congruence) -> FiniteNearSemiring:
    """Quotient by a congruence; elements are block ids in first-occurrence order."""
    if not is_congruence(algebra, theta):
        raise AlgebraError(f"partition is not a congruence of {algebra.name}")
    b = np.asarray(theta.blocks)
    reps = [next(x for x in range(algebra.n) if b[x] == blk)
            for blk in range(theta.block_count)]
    k = len(reps)
    add = np.array([[b[algebra.add[x, y]] for y in reps] for x in reps])
    mul = np.array([[b[algebra.mul[x, y]] for y in reps] for x in reps])
    inv = None if algebra.inv is None else np.array([b[algebra.inv[x]] for x in reps])
    if k >= 2 and b[algebra.zero] == b[algebra.one]:
        raise AlgebraError("congruence merges the constants but not everything")
    labels = tuple("{" + ",".join(algebra.label(x) for x in cls) + "}"
                   for cls in theta.classes())
    return FiniteNearSemiring(
        add, mul, int(b[algebra.zero]), int(b[algebra.one]), inv=inv,
        name=f"{algebra.name}/θ", labels=labels)


# ---------------------------------------------------------------------------
# witness terms


def regularity_terms(algebra: FiniteNearSemiring, x: int, y: int, z: int) -> tuple:
    """The two ternary terms whose joint fixing of z characterizes x = y."""
    add, mul, inv = algebra.add, algebra.mul, algebra.inv
    d = add[mul[x, inv[y]], mul[y, inv[x]]]
    return int(add[d, z]), int(mul[inv[d], z])


def _malcev(x, y, z):
    """The Mal'cev term α(α(x·α(y))·α(z) + α(z·α(y))·α(x))."""
    return _inv(_add(_mul(_inv(_mul(x, _inv(y))), _inv(z)),
                     _mul(_inv(_mul(z, _inv(y))), _inv(x))))


def _majority(x, y, z):
    """The majority term α(α(x)+α(y)) + α(α(y)+α(z)) + α(α(z)+α(x))."""
    return _add(_add(_inv(_add(_inv(x), _inv(y))), _inv(_add(_inv(y), _inv(z)))),
                _inv(_add(_inv(z), _inv(x))))


_WITNESS_TERMS = ClauseSet([
    clause("malcev-right", "xy", (_malcev(X, Y, Y), X), render="p({x},{y},{y})={lhs}"),
    clause("malcev-left", "xy", (_malcev(X, X, Y), Y), render="p({x},{x},{y})={lhs}"),
    clause("majority", "xy", (_majority(X, X, Y), X), (_majority(X, Y, X), X),
           (_majority(Y, X, X), X), render="M values {lhs0},{lhs1},{lhs2} instead of {x}"),
])


def witness_term_checks(algebra: FiniteNearSemiring) -> WitnessTermReport:
    """Exhaustive verification of the regularity, Mal'cev and majority terms."""
    require_lukasiewicz(algebra, "witness terms")
    n, l = algebra.n, algebra.label
    clauses = []

    res = None
    for x, y, z in iproduct(range(n), repeat=3):
        t1, t2 = regularity_terms(algebra, x, y, z)
        if ((t1 == z and t2 == z) != (x == y)) and res is None:
            res = ClauseResult(
                "regularity-biconditional", False, (x, y, z),
                f"t1={l(t1)}, t2={l(t2)}, z={l(z)} with x={l(x)}, y={l(y)}")
    clauses.append(res or ClauseResult("regularity-biconditional", True))

    clauses += clause_results(_WITNESS_TERMS, find_violations(algebra, _WITNESS_TERMS))
    return PropertyReport(algebra.name, "witness-terms", tuple(clauses))


def congruence_lattice_properties(algebra: FiniteNearSemiring) -> PropertyReport:
    """Permutability and distributivity of the whole congruence lattice."""
    cons = all_congruences(algebra)
    l = len(cons)
    clauses = []
    res = None
    for p in cons:
        for q in cons:
            if not np.array_equal(compose_relations(p, q), compose_relations(q, p)):
                res = ClauseResult("congruences-permute", False,
                                   (cons.index(p), cons.index(q)),
                                   f"{p.render()} and {q.render()} do not permute")
                break
        if res:
            break
    clauses.append(res or ClauseResult("congruences-permute", True,
                                       detail=f"{l} congruences"))
    res = None
    for p, q, r in iproduct(cons, repeat=3):
        lhs = meet_partitions(p, join_partitions(q, r))
        rhs = join_partitions(meet_partitions(p, q), meet_partitions(p, r))
        if lhs != rhs:
            res = ClauseResult("congruence-lattice-distributive", False,
                               (cons.index(p), cons.index(q), cons.index(r)),
                               "distributivity fails")
            break
    clauses.append(res or ClauseResult("congruence-lattice-distributive", True,
                                       detail=f"{l ** 3} triples"))
    return PropertyReport(algebra.name, "congruence-lattice", tuple(clauses))
