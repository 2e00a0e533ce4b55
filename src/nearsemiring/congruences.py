"""Congruences of finite near semirings and the associated term checks.

A congruence is a partition of the carrier compatible with both binary
operations (on either side) and with the involution when present.  It is
stored canonically as a block-id vector whose ids appear in first-occurrence
order, so partitions compare and sort deterministically.

The computations work on label vectors that map each element to the least
member of its block.  A partition is compatible exactly when it relates the
images of every pair (x, least member of x's block) under the one-variable
translations t -> t+c, c+t, t·c, c·t and α(t); ``_translation_images`` lists
them.  ``_coarsen`` merges the blocks of given pairs, so a principal
congruence alternates the two until nothing changes (R. Freese, "Computing
congruences efficiently", Algebra Universalis 59, 2008), and a join of two
partitions is one coarsening.
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


def _least_members(part: Congruence) -> np.ndarray:
    """Label vector: each element mapped to the least member of its block."""
    b = np.asarray(part.blocks)
    return np.unique(b, return_index=True)[1][b]


def _translation_images(algebra: FiniteNearSemiring, labels: np.ndarray) -> tuple:
    """Images (u, v) of each pair (x, labels[x]) with x ≠ labels[x] under the
    translations t -> t+c, c+t, t·c, c·t for every c, and α(t)."""
    x = np.flatnonzero(labels != np.arange(algebra.n))
    y = labels[x]
    tables = [algebra.add, algebra.add.T, algebra.mul, algebra.mul.T]
    u = [t[x] for t in tables]
    v = [t[y] for t in tables]
    if algebra.inv is not None:
        u.append(algebra.inv[x])
        v.append(algebra.inv[y])
    return np.concatenate([a.ravel() for a in u]), np.concatenate([a.ravel() for a in v])


def _coarsen(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the blocks of every pair (u[i], v[i]) in a least-member label vector.

    Each round points the least member of a block at the least member it is
    paired with, then follows pointers until every label is a fixed point.
    """
    labels = labels.copy()
    while True:
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return labels
        low = np.minimum(lu, lv)
        np.minimum.at(labels, lu, low)
        np.minimum.at(labels, lv, low)
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]


def is_congruence(algebra: FiniteNearSemiring, part: Congruence) -> bool:
    """Compatibility of a partition with +, · (both sides) and α."""
    if part.n != algebra.n:
        return False
    if sorted(set(part.blocks)) != list(range(part.block_count)):
        return False
    b = np.asarray(part.blocks)
    u, v = _translation_images(algebra, _least_members(part))
    return np.array_equal(b[u], b[v])


def principal_congruence(algebra: FiniteNearSemiring, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b.

    Seeds a≡b, then alternates listing the translation images of every
    related pair with merging their blocks, until a round merges nothing.
    The result is re-validated independently.
    """
    n = algebra.n
    if not (0 <= a < n and 0 <= b < n):
        raise AlgebraError(f"elements ({a},{b}) out of range [0, {n})")
    labels, merged = np.arange(n), _coarsen(np.arange(n), np.array([a]), np.array([b]))
    while not np.array_equal(merged, labels):
        labels = merged
        merged = _coarsen(labels, *_translation_images(algebra, labels))
    out = Congruence.from_blocks(labels.tolist())
    if not is_congruence(algebra, out):
        raise AlgebraError(f"closure produced an incompatible partition on {algebra.name}")
    return out


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Smallest partition refining neither: transitive closure of the union."""
    merged = _coarsen(_least_members(p), np.arange(q.n), _least_members(q))
    return Congruence.from_blocks(merged.tolist())


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Common refinement: blocks are the nonempty pairwise intersections."""
    return Congruence.from_blocks(zip(p.blocks, q.blocks))


def compose_relations(p: Congruence, q: Congruence) -> np.ndarray:
    """Relation matrix of p∘q: (x,z) related iff x p y q z for some y."""
    return (p.matrix() @ q.matrix()) > 0


def all_congruences(algebra: FiniteNearSemiring) -> list:
    """The full congruence lattice, canonically sorted.

    Every congruence is the join of the principal congruences it contains,
    so one pass over the distinct principal congruences, joining each into
    everything found so far, reaches the whole lattice from the identity.
    Every member is re-validated for compatibility.
    """
    n = algebra.n
    principals = {principal_congruence(algebra, a, b)
                  for a in range(n) for b in range(a + 1, n)}
    found = {Congruence.identity(n)}
    for p in sorted(principals):
        if p not in found:
            found |= {join_partitions(x, p) for x in found}
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
    reps = np.unique(_least_members(theta))
    add = b[algebra.add[np.ix_(reps, reps)]]
    mul = b[algebra.mul[np.ix_(reps, reps)]]
    inv = None if algebra.inv is None else b[algebra.inv[reps]]
    if len(reps) >= 2 and b[algebra.zero] == b[algebra.one]:
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
