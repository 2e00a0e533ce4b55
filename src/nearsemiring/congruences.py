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
congruence alternates the two until nothing changes, each round on the least
members the last one merged away (R. Freese, "Computing congruences
efficiently", Algebra Universalis 59, 2008), and a join is one coarsening.

Many closures run as one on disjoint copies of the algebra, element i·n + x
standing for x in copy i: ``all_congruences`` closes its n(n-1)/2 principal
congruences so, in chunks of at most _CLOSURE_CELLS table cells, and joins
batches of pairs so.  One copy's table is the algebra's own.  A single
``principal_congruence(a, b)`` closes θ(x, b) for a run of x holding a, every x
when n copies fit one chunk, and keeps the run on the structure, so the
centrality route's θ(e, 0) and θ(e, 1) for every e take a closure or a few per
constant.  ``is_congruence`` keeps its verdict per structure and partition.

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
    clause_results, find_violations, kept,
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


def _least_of(keys: np.ndarray) -> np.ndarray:
    """Least-member rows of (k, n) key rows: x goes to the least z with x's key in its row."""
    k, n = keys.shape
    flat = (keys + (int(keys.max(initial=0)) + 1) * np.arange(k)[:, None]).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return first[inverse].reshape(k, n) - n * np.arange(k)[:, None]


def _congruences(least: np.ndarray) -> list:
    """The congruences of (k, n) least-member rows: a block's id counts the least members
    below its own."""
    ids = np.cumsum(least == np.arange(least.shape[1]), axis=1) - 1
    return [Congruence(tuple(row)) for row in ids[np.arange(len(least))[:, None], least].tolist()]


@kept
def _translations(algebra: FiniteNearSemiring, copies: int) -> np.ndarray:
    """Row i·n + x: the images of x in copy i under every translation (t+c, c+t, t·c,
    c·t, then α(t)), as elements of copy i."""
    n = algebra.n
    tables = [t for name in algebra._kind.tables if (t := getattr(algebra, name)) is not None]
    one = np.hstack([r for t in tables for r in ((t, t.T) if t.ndim == 2 else (t[:, None],))])
    out = (one + n * np.arange(copies)[:, None, None]).reshape(copies * n, -1)
    out.setflags(write=False)
    return out


def _translation_images(table: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Images (u, v) of each pair (x[i], y[i]) under the translations of a _translations table."""
    return table[x].ravel(), table[y].ravel()


def _coarsen(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the blocks of every pair (u[i], v[i]) in a least-member label vector.

    Each round drops the pairs already in one block, points the greater least
    member of each other pair at the lesser, then follows pointers until every
    label is a fixed point.
    """
    labels = labels.copy()
    while True:
        lu, lv = labels[u], labels[v]
        apart = lu != lv
        if not apart.any():
            return labels
        u, v, lu, lv = u[apart], v[apart], lu[apart], lv[apart]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]


# translation-table cells (principal congruences) or elements (joins) of one chunk of copies
_CLOSURE_CELLS = 1 << 15


def _principal_rows(algebra: FiniteNearSemiring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-member rows of the principal congruences θ(a[i], b[i]).

    A chunk of pairs is closed on as many copies, copy i seeded with pair i.  A
    round merges the images of each least member the last round merged away with
    those of its new least member; these pairs generate the partition, so it is
    compatible once a round merges nothing.
    """
    n = algebra.n
    step = max(1, min(len(a), _CLOSURE_CELLS // _translations(algebra, 1).size))
    table = _translations(algebra, step)
    rows = np.empty((len(a), n), dtype=np.intp)
    for lo in range(0, len(a), step):
        shift = np.arange(0, len(a[lo:lo + step]) * n, n)
        index = np.arange(shift.size * n)
        union = table[:index.size]
        labels, merged = index, _coarsen(index, a[lo:lo + step] + shift, b[lo:lo + step] + shift)
        while len(moved := np.flatnonzero((labels == index) & (merged != index))):
            labels = merged
            merged = _coarsen(labels, *_translation_images(union, moved, labels[moved]))
        rows[lo:lo + step] = labels.reshape(-1, n) - shift[:, None]
    return rows


def _join_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least-member rows of the joins of p[i] and q[i]: one coarsening per chunk of copies."""
    k, n = p.shape
    step = max(1, _CLOSURE_CELLS // max(n, 1))
    rows = np.empty((k, n), dtype=np.intp)
    for lo in range(0, k, step):
        shift = np.arange(0, len(p[lo:lo + step]) * n, n)[:, None]
        labels = (p[lo:lo + step] + shift).ravel()
        merged = _coarsen(labels, np.arange(labels.size), (q[lo:lo + step] + shift).ravel())
        rows[lo:lo + step] = merged.reshape(-1, n) - shift
    return rows


def _require_partitions(*parts) -> None:
    for part in parts:
        if not isinstance(part, Congruence):
            raise AlgebraError(f"a partition must be a Congruence, not {type(part).__name__}")


def is_congruence(algebra: FiniteNearSemiring, part: Congruence) -> bool:
    """Compatibility of a partition with +, · (both sides) and α.

    The verdict is kept per structure and partition, so a partition that
    principal_congruence has checked is not checked again by is_factor_pair;
    part must be a Congruence, which is checked before the kept lookup.
    """
    _require_partitions(part)
    return _compatible(algebra, part)


@kept
def _compatible(algebra: FiniteNearSemiring, part: Congruence) -> bool:
    if part.n != algebra.n:
        return False
    b, least = np.asarray(part.blocks), _least_members(part)
    x = np.flatnonzero(least != np.arange(part.n))
    u, v = _translation_images(_translations(algebra, 1), x, least[x])
    return np.array_equal(b[u], b[v])


@kept
def _principal_run(algebra: FiniteNearSemiring, b: int, lo: int, hi: int) -> tuple:
    """θ(x, b) for lo <= x < hi, closed by one _principal_rows call on hi - lo copies."""
    x = np.arange(lo, hi)
    return tuple(_congruences(_principal_rows(algebra, x, np.full_like(x, b))))


def principal_congruence(algebra: FiniteNearSemiring, a: int, b: int) -> Congruence:
    """Smallest congruence identifying a and b.

    Row a of θ(x, b) for a run of x closed at once on disjoint copies and kept
    on the structure: every x when n copies fit one _CLOSURE_CELLS chunk, and
    otherwise the chunk-sized block of x holding a, so a lone call closes at
    most one chunk.  The result is re-validated independently.
    """
    _in_universe(algebra, a, b)
    a, b = int(a), int(b)
    run = max(1, _CLOSURE_CELLS // _translations(algebra, 1).size)
    lo = a - a % run
    out = _principal_run(algebra, b, lo, min(lo + run, algebra.n))[a - lo]
    if not is_congruence(algebra, out):
        raise AlgebraError(f"closure produced an incompatible partition on {algebra.name}")
    return out


def _same_size(p: Congruence, q: Congruence) -> None:
    _require_partitions(p, q)
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
    everything found so far as one batch, reaches the whole lattice from the
    identity.  Every principal congruence and member is re-validated.
    """
    n = algebra.n
    principals = {row.tobytes(): row for row in _principal_rows(algebra, *np.triu_indices(n, 1))}
    for part in _congruences(np.array(list(principals.values()), dtype=np.intp).reshape(-1, n)):
        if not is_congruence(algebra, part):
            raise AlgebraError(f"closure produced an incompatible partition on {algebra.name}")
    identity = np.arange(n)
    found = {identity.tobytes(): identity}
    for key, row in principals.items():
        if key not in found:
            members = np.array(list(found.values()))
            joins = _join_rows(members, np.broadcast_to(row, members.shape))
            found.update((join.tobytes(), join) for join in joins)
    out = sorted(_congruences(np.array(list(found.values()))))
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
    """The join and meet of every pair of the lattice, as k x k index tables.

    The pairs i <= j are joined as one batch and met as one pairing of block ids.
    The first in row order whose join or meet is no member is refused, join first.
    """
    k = len(cons)
    n = cons[0].n if cons else 0
    blocks = np.array([c.blocks for c in cons], dtype=np.intp).reshape(k, n)
    least = _least_of(blocks)
    where = {}
    for index, row in enumerate(least):
        where.setdefault(row.tobytes(), index)
    i, j = np.triu_indices(k)
    found = {name: np.array([where.get(row.tobytes(), -1) for row in rows], dtype=int)
             for name, rows in (("join", _join_rows(least[i], least[j])),
                                ("meet", _least_of(blocks[i] * n + blocks[j])))}
    missing = np.flatnonzero((found["join"] < 0) | (found["meet"] < 0))
    if len(missing):
        at = missing[0]
        name = "join" if found["join"][at] < 0 else "meet"
        raise AlgebraError(f"the {name} of {cons[i[at]].render()} and {cons[j[at]].render()} "
                           "is not in the lattice")
    tables = {}
    for name, index in found.items():
        tables[name] = np.zeros((k, k), dtype=int)
        tables[name][i, j] = tables[name][j, i] = index
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
    if not l:
        raise AlgebraError(f"an empty congruence lattice of {algebra.name}: "
                           "every algebra has its identity congruence")
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
