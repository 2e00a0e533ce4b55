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

The lattice properties treat the congruence lattice as a finite lattice:
the join and meet of each pair of members, k(k+1)/2 of each, are found once
and stored as k x k tables of indices into the sorted lattice.
Distributivity is one clause over those tables, and permutability one
stacked boolean product of the members' relation matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraError, ClauseResult, ClauseSet, FiniteNearSemiring, PropertyReport, X, Y, Z,
    WitnessTermReport, _add, _first_true, _in_universe, _inv, _mul, _needs_inv, clause,
    clause_results, find_violations,
)
from .varieties import _join, _meet, require_lukasiewicz


@dataclass(frozen=True, order=True)
class Congruence:
    """A compatible partition, held as a canonical block-id tuple (from_blocks makes one)."""
    blocks: tuple

    def __post_init__(self):
        blocks = self.blocks
        if not (isinstance(blocks, tuple) and blocks and all(type(b) is int for b in blocks)
                and list(dict.fromkeys(blocks)) == list(range(max(blocks) + 1))):
            raise AlgebraError("congruence blocks must be a non-empty tuple of ints in "
                               f"first-occurrence order from 0, got {blocks!r}")

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
    """Images (u, v) of each pair (x, labels[x]) with x ≠ labels[x] under the one-variable
    translations: each declared binary table on either side (t+c, c+t, t·c, c·t), then α(t)."""
    x = np.flatnonzero(labels != np.arange(algebra.n))
    y = labels[x]
    tables = [t for name in algebra._kind.tables if (t := getattr(algebra, name)) is not None]
    reads = [r for t in tables if t.ndim == 2 for r in (t, t.T)]
    reads += [t for t in tables if t.ndim == 1]
    return (np.concatenate([t[x].ravel() for t in reads]),
            np.concatenate([t[y].ravel() for t in reads]))


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
    _in_universe(algebra, a, b)
    labels, merged = np.arange(n), _coarsen(np.arange(n), np.array([a]), np.array([b]))
    while not np.array_equal(merged, labels):
        labels = merged
        merged = _coarsen(labels, *_translation_images(algebra, labels))
    out = Congruence.from_blocks(labels.tolist())
    if not is_congruence(algebra, out):
        raise AlgebraError(f"closure produced an incompatible partition on {algebra.name}")
    return out


def _same_size(p: Congruence, q: Congruence) -> None:
    if p.n != q.n:
        raise AlgebraError(f"partitions of {p.n} and {q.n} elements cannot be combined")


def join_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Smallest partition refining neither: transitive closure of the union."""
    _same_size(p, q)
    merged = _coarsen(_least_members(p), np.arange(q.n), _least_members(q))
    return Congruence.from_blocks(merged.tolist())


def meet_partitions(p: Congruence, q: Congruence) -> Congruence:
    """Common refinement: blocks are the nonempty pairwise intersections."""
    _same_size(p, q)
    return Congruence.from_blocks(zip(p.blocks, q.blocks))


def compose_relations(p: Congruence, q: Congruence) -> np.ndarray:
    """Relation matrix of p∘q: (x,z) related iff x p y q z for some y."""
    _same_size(p, q)
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
    if theta.block_count >= 2 and b[algebra.zero] == b[algebra.one]:
        raise AlgebraError("congruence merges the constants but not everything")
    # block i stands for its least member, the i-th fixed point of the least-member vector
    reps = np.flatnonzero(_least_members(theta) == np.arange(algebra.n))
    labels = tuple("{" + ",".join(algebra.label(x) for x in cls) + "}"
                   for cls in theta.classes())
    return algebra._built(algebra._transport(b, reps), f"{algebra.name}/θ", labels)


# ---------------------------------------------------------------------------
# witness terms


def regularity_terms(algebra: FiniteNearSemiring, x: int, y: int, z: int) -> tuple:
    """The two ternary terms whose joint fixing of z characterizes x = y."""
    _needs_inv(algebra)
    _in_universe(algebra, x, y, z)
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


def _regularity(x, y, z):
    """The regularity terms t1 = d+z and t2 = α(d)·z, d being x·α(y) + y·α(x)."""
    d = _add(_mul(x, _inv(y)), _mul(y, _inv(x)))
    return _add(d, z), _mul(_inv(d), z)


_WITNESS_TERMS = ClauseSet([
    # both regularity terms fix z exactly when x = y
    clause("regularity-biconditional", "xyz", *((t, Z, (X, Y)) for t in _regularity(X, Y, Z)),
           (X, Y, *((t, Z) for t in _regularity(X, Y, Z))),
           render="t1={lhs0}, t2={lhs1}, z={z} with x={x}, y={y}"),
    clause("malcev-right", "xy", (_malcev(X, Y, Y), X), render="p({x},{y},{y})={lhs}"),
    clause("malcev-left", "xy", (_malcev(X, X, Y), Y), render="p({x},{x},{y})={lhs}"),
    clause("majority", "xy", (_majority(X, X, Y), X), (_majority(X, Y, X), X),
           (_majority(Y, X, X), X), render="M values {lhs0},{lhs1},{lhs2} instead of {x}"),
])


def witness_term_checks(algebra: FiniteNearSemiring) -> WitnessTermReport:
    """Exhaustive verification of the regularity, Mal'cev and majority terms."""
    require_lukasiewicz(algebra, "witness terms")
    return PropertyReport(algebra.name, "witness-terms", tuple(
        clause_results(_WITNESS_TERMS, find_violations(algebra, _WITNESS_TERMS))))


# distributivity of a congruence lattice, over its k x k join and meet index tables
_DISTRIBUTIVE = ClauseSet([clause(
    "congruence-lattice-distributive", "pqr",
    (_meet(X, _join(Y, Z)), _join(_meet(X, Y), _meet(X, Z))), render="distributivity fails")])

# stacked relation matrices x cells of one chunk of the permutability product
_PERMUTE_CELLS = 1 << 20


def _lattice_tables(cons: list) -> dict:
    """The join and meet of every pair of the lattice, as k x k index tables."""
    where = {}
    for i, c in enumerate(cons):
        where.setdefault(c, i)
    k = len(cons)
    tables = {"join": np.zeros((k, k), dtype=int), "meet": np.zeros((k, k), dtype=int)}
    for i in range(k):
        for j in range(i, k):
            for name, op in (("join", join_partitions), ("meet", meet_partitions)):
                found = where.get(op(cons[i], cons[j]))
                if found is None:
                    raise AlgebraError(
                        f"the {name} of {cons[i].render()} and {cons[j].render()} "
                        "is not in the lattice")
                tables[name][i, j] = tables[name][j, i] = found
    return tables


def _first_non_permuting(cons: list):
    """The first pair (i, j), in product order, with cons[i]∘cons[j] ≠ cons[j]∘cons[i].

    The relation products of every pair are one stacked matrix product,
    evaluated a block of rows i at a time; float32 counts up to n are exact.
    """
    k, n = len(cons), cons[0].n if cons else 0
    rel = np.array([c.matrix() for c in cons], dtype=np.float32).reshape(k, n, n)
    step = max(1, _PERMUTE_CELLS // (k * n * n))
    for lo in range(0, k, step):
        rows = rel[lo:lo + step, None]
        differ = ((rows @ rel[None]) > 0) != ((rel[None] @ rows) > 0)
        found = _first_true(differ.any(axis=(2, 3)))
        if found is not None:
            return lo + found[0], found[1]
    return None


def congruence_lattice_properties(algebra: FiniteNearSemiring, lattice=None) -> PropertyReport:
    """Permutability and distributivity of the whole congruence lattice.

    lattice is all_congruences(algebra), when the caller has it already.
    Distributivity is checked by the clause engine over the lattice's join
    and meet tables, so the witness is the least failing index triple.
    """
    cons = all_congruences(algebra) if lattice is None else lattice
    l = len(cons)
    bad = _first_non_permuting(cons)
    if bad is None:
        permute = ClauseResult("congruences-permute", True, detail=f"{l} congruences")
    else:
        p, q = cons[bad[0]], cons[bad[1]]
        permute = ClauseResult("congruences-permute", False, bad,
                               f"{p.render()} and {q.render()} do not permute")
    # the text names no member, so blank labels serve
    found = _DISTRIBUTIVE.violations(_lattice_tables(cons), l, ("",) * l)
    distributive = ClauseResult("congruence-lattice-distributive", True, detail=f"{l ** 3} triples")
    if found:
        v = found["congruence-lattice-distributive"]
        distributive = ClauseResult(v.clause, False, v.witness, v.equation)
    return PropertyReport(algebra.name, "congruence-lattice", (permute, distributive))
