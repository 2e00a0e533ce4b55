"""Bounded exhaustive enumeration of finite near semirings up to isomorphism.

Models have the constants at zero=0, one=1, and each is emitted once, as its
canonical form: the least concatenation of the sum, product and involution
tables over the carrier permutations fixing the constants.  A sum table's
least relabelling comes from one scan of those, in stacks of at most 7! rows
(refused past 10!, n >= 13, before any table is grown), and only the
permutations reaching it are tried on the other tables: for a search root,
its automorphisms, found by one depth-first isomorphism search.

The search grows stacks of partial tables, padded with the sentinel n
(unfilled), breadth first; each step is one stacked mask-only engine call
that keeps the survivors.  Sum tables (commutative monoids) grow one cell at
a time; idempotent ones are lattice joins, grown instead from the lattices one
size smaller, one new atom at a time.  Product columns x -> x.z, the
endomorphisms of (A, +) fixing 0 and sending 1 to z (right-distributivity),
grow one value at a time.  For each involution, product tables grow one
column at a time, pruned by the required identities and the product clauses
of the profiles.  Involutions are period-two permutations, one per orbit of
the sum table's automorphisms, antitone when an involutive profile asks for
it.  Nothing is trusted at the leaves: every leaf is re-checked through the
ordinary checkers, and one that fails is counted as rejected; with no
forbidden identities, that is a table the search should have pruned.  The
leaves come one TableStack per chunk of one (sum table, involution) pair,
sharing both tables.  A TableStack's canonical forms are uint8 rows,
deduplicated and sorted as bytes.  The leaves and the models are TableStacks
built on the search's own rows, widened once to int64 and taken as given; the
models' stack builds an algebra only for an item that is read.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .core import (
    _AXIOMS, _PROFILE_CLAUSES, _STACK_CELLS, IDENTITIES, X, Y, AlgebraError, Clause, ClauseSet,
    FiniteNearSemiring, PROFILES, TableStack, _add, _clause_subset, _integer, check_axioms, clause,
    relabel_table,
)

DEFAULT_SIZE_CAP = 6


# ---------------------------------------------------------------------------
# identities: the catalog lives in core, next to the axioms


def identity_first_violation(identity: Clause, add, mul, inv, n: int, mask=False):
    """Lexicographically first instantiation where both sides differ.

    Tables padded to n+1, as the search's partial product tables are, mark
    an unfilled cell with the sentinel n; instances reaching one are skipped.
    Stacked tables, as ClauseSet.violations takes them, give a list with one
    witness or None per algebra.  With mask, only whether the identity fails:
    a bool, or a (k,) bool array for stacked tables.
    """
    clauses = _clause_subset((identity,))
    if clauses.needs_inv and inv is None:
        raise AlgebraError(f"identity {identity.name!r} needs an involution")
    ops = {"add": add, "mul": mul} if inv is None else {"add": add, "mul": mul, "inv": inv}
    found = clauses.violations(ops, n, mask=mask)
    if mask:
        return found
    if isinstance(found, list):
        return [f[identity.name].witness if f else None for f in found]
    return found[identity.name].witness if found else None


def identity_holds(identity: Clause, algebra: FiniteNearSemiring) -> bool:
    return identity_first_violation(
        identity, algebra.add, algebra.mul, algebra.inv, algebra.n) is None


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class SearchConstraint:
    """Profiles that must pass, identities that must hold, identities that must fail."""
    profiles: tuple = ()
    require: tuple = ()
    forbid: tuple = ()

    def __post_init__(self):
        for p in self.profiles:
            if p not in PROFILES:
                raise AlgebraError(f"unknown profile {p!r}")
        for i in self.require + self.forbid:
            if i not in IDENTITIES:
                raise AlgebraError(f"unknown identity {i!r}")

    @property
    def needs_inv(self) -> bool:
        return (any(_PROFILE_CLAUSES[p].needs_inv for p in self.profiles)
                or any(_clause_subset((IDENTITIES[i],)).needs_inv
                       for i in self.require + self.forbid))

    @property
    def idempotent_add(self) -> bool:
        return any("add-idempotence" in PROFILES[p] for p in self.profiles)

    @property
    def integral(self) -> bool:
        return any("integrality" in PROFILES[p] for p in self.profiles)

    @property
    def antitone_inv(self) -> bool:
        return any("involution-antitone" in PROFILES[p] for p in self.profiles)


def _names(names) -> tuple:
    """Names given as a comma-separated string or as a sequence."""
    return tuple(s for s in names.split(",") if s) if isinstance(names, str) else tuple(names)


def parse_constraint(names, forbid=()) -> SearchConstraint:
    """Split a mixed list of profile and identity names into a constraint."""
    names, forbid = _names(names), _names(forbid)
    profiles, require = [], []
    for name in names:
        if name in PROFILES:
            profiles.append(name)
        elif name in IDENTITIES:
            require.append(name)
        else:
            raise AlgebraError(f"unknown profile or identity {name!r}")
    bad = [name for name in forbid if name not in IDENTITIES]
    if bad:
        raise AlgebraError(f"unknown identities in violate set: {bad}")
    return SearchConstraint(tuple(profiles), tuple(require), forbid)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


# a (p, q) stack permutes at most the last _BLOCK middle elements: 7! = 5,040 rows
_BLOCK = 7
MAX_RELABELLINGS = math.factorial(10)


@functools.lru_cache(maxsize=None)
def _arrangements(n: int, m: int) -> tuple:
    """Stacks of permutations of range(n), with their inverses: the m! moving only the last
    m points, and per head (an arrangement of all but m middle elements) 0, 1, head, rest."""
    p = np.array([(*range(n - m), *tail) for tail in permutations(range(n - m, n))])
    middle = range(2, n)
    orders = np.array([(*range(min(n, 2)), *head, *(x for x in middle if x not in head))
                       for head in permutations(middle, len(middle) - m)])
    return p, np.argsort(p, axis=1), orders, np.argsort(orders, axis=1)


def _middle_perms(n: int):
    """Every permutation p of range(n) fixing 0 and 1, with its inverse q, as (p, q) stacks:
    one per arrangement of all but the last _BLOCK middle elements (one for n <= _BLOCK + 2),
    streamed.  A size past 10! relabellings is refused at the call."""
    count = math.factorial(max(n - 2, 0))
    if count > MAX_RELABELLINGS:
        raise AlgebraError(
            f"size {n} needs (n-2)! = {count:,} relabellings, "
            f"more than the limit of 10! = {MAX_RELABELLINGS:,}")
    p, q, orders, inverses = _arrangements(n, min(max(n - 2, 0), _BLOCK))
    return ((order[p], q[:, inverse]) for order, inverse in zip(orders, inverses))


def _void_rows(rows: np.ndarray) -> np.ndarray:
    """Each row (last axis) of a uint8 array as one np.void; byte order is row order."""
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[-1])))[..., 0]


def _least_rows(keys: np.ndarray) -> np.ndarray:
    """The lexicographically least row of each (c, L) block of a (k, c, L) uint8 array."""
    k, c, width = keys.shape
    if c == 1:
        return keys[:, 0]
    least = np.sort(_void_rows(keys), axis=1)[:, 0]
    return np.ascontiguousarray(least).view(np.uint8).reshape(k, width)


def _least_forms(tables, perms) -> np.ndarray:
    """The least concatenation of each slice's relabelled tables, as (k, width) uint8 rows.

    tables are (k, n, n) and (k, n) stacks; perms yields (p, q) stacks of permutations
    and their inverses, taken in chunks of about _STACK_CELLS cells.  No slices give no
    rows."""
    k, width = len(tables[0]), sum(math.prod(t.shape[1:]) for t in tables)
    if not k:
        return np.empty((0, width), dtype=np.uint8)
    block = max(1, _STACK_CELLS // width)
    least = None
    for p, q in perms:
        for at in range(0, len(p), block):
            pp, qq = p[at:at + block].astype(np.uint8), q[at:at + block]  # so rows are uint8
            step = max(1, _STACK_CELLS // (len(pp) * width))
            rows = np.concatenate([_least_rows(np.concatenate(
                [relabel_table(t[lo:lo + step], pp, qq, t.ndim - 1).reshape(
                    len(t[lo:lo + step]), len(pp), -1) for t in tables], axis=2))
                for lo in range(0, k, step)])
            least = rows if least is None else _least_rows(np.stack([least, rows], 1))
    return least


def _isomorphisms(pairs, fixed: dict):
    """Every permutation p, as a tuple, with relabel_table(s, p, q) == t for each (source s,
    target t) pair of (n, n) or (n,) tables, q its inverse, and p[x] = y for each x: y of fixed.

    Depth first, so in lexicographic order: each element in turn takes every free image in
    ascending order, and a partial map is cut at the first instance (s + t = w, inv(s) = w)
    all of whose elements it maps and that the target reads differently.  Each complete map
    is re-checked with relabel_table.
    """
    n = len(pairs[0][0])
    img, free = [fixed.get(x, -1) for x in range(n)], [y not in fixed.values() for y in range(n)]
    # an instance is checked at the largest element it holds that is not fixed, else up front
    last, checks = [-1 if x in fixed else x for x in range(n)], [[] for _ in range(n + 1)]
    for a, b in pairs:          # inv(s) = w is read as s . s = w, in a target constant on rows
        args = np.indices(a.shape) if a.ndim == 2 else [np.arange(n)] * 2
        b = b.tolist() if b.ndim == 2 else [[v] * n for v in b.tolist()]
        for s, t, w in zip(*(x.ravel().tolist() for x in (*args, a))):
            checks[max(last[s], last[t], last[w]) + 1].append((b, s, t, w))

    def mapped(x) -> bool:
        return all(b[img[s]][img[t]] == img[w] for b, s, t, w in checks[x + 1])

    def extend(x):
        if x == n:
            p, q = np.array(img), np.argsort(img)
            if all(np.array_equal(relabel_table(a, p, q), b) for a, b in pairs):
                yield tuple(img)
        elif x in fixed:
            yield from extend(x + 1)
        else:
            for y in range(n):
                if free[y]:
                    img[x], free[y] = y, False
                    if mapped(x):
                        yield from extend(x + 1)
                    free[y] = True

    if mapped(-1):
        yield from extend(0)


def _relabellings(add: np.ndarray, least: np.ndarray) -> tuple:
    """The permutations fixing 0 and 1 that relabel a sum table to least, as a (p, q) stack:
    its automorphisms when least is the table itself."""
    fixed = {x: x for x in range(min(len(add), 2))}
    p = np.array(list(_isomorphisms([(add, least)], fixed))).reshape(-1, len(add))
    return p, np.argsort(p, axis=1)


def _canonical_keys(add, mul, inv, automorphisms) -> np.ndarray:
    """canonical_form of the algebras with one sum table, (k, n, n) products and (k, n) or no
    involutions, constants at 0 and 1, as (k, width) uint8 rows: the least concatenation
    starts with the sum table's least relabelling, and only the relabellings reaching it
    count.  automorphisms, a (p, q) stack, are those of a sum table that is its own least
    relabelling; without them, the least comes from one scan of _middle_perms."""
    n, least, reaching = add.shape[0], add, automorphisms
    if automorphisms is None:
        least = _least_forms([add[None]], _middle_perms(n)).reshape(n, n)
        reaching = _relabellings(add, least)
    rows = _least_forms([mul] if inv is None else [mul, inv], [reaching])
    head = np.append(np.uint8([n, inv is not None]), np.uint8(least).ravel())
    return np.hstack([np.broadcast_to(head, (len(rows), len(head))), rows])


def canonical_form(algebra, automorphisms=None):
    """Minimal (add | mul | inv) concatenation over permutations sending zero to 0, one to 1.

    An algebra gets a tuple of ints, a TableStack its slices' forms as (k, width) uint8
    rows: every entry is below 256, so the byte order of two rows is the tuples' order.
    A stack with a sum table per slice is canonicalized one distinct sum table at a time.
    A stack on one search root (a sum table that is its own least relabelling), constants at
    0 and 1, may come with the root's automorphisms, a (p, q) stack: then no scan is made.
    """
    stacked, n = isinstance(algebra, TableStack), algebra.n
    k = len(algebra) if stacked else 1
    if not k:
        return np.empty((0, 2 + n * (2 * n + (algebra.inv is not None))), dtype=np.uint8)
    if (algebra.zero, algebra.one) != (0, min(n - 1, 1)):
        # composed with one relabelling sending zero to 0 and one to 1, the
        # permutations range over the same set
        q = np.array([*dict.fromkeys((algebra.zero, algebra.one, *range(n)))])
        algebra = algebra._built(algebra._transport(np.argsort(q), q), algebra.name, None)
    add, mul, inv = algebra.add, np.broadcast_to(algebra.mul, (k, n, n)), algebra.inv
    inv = None if inv is None else np.broadcast_to(inv, (k, n))
    if add.ndim == 2:
        keys = _canonical_keys(add, mul, inv, automorphisms)
        return keys if stacked else tuple(keys[0].tolist())
    # a sum table per slice: one shared-table call per distinct sum table, rows in slice order
    groups = {}
    for i, table in enumerate(add):
        groups.setdefault(table.tobytes(), []).append(i)
    keys = np.concatenate([_canonical_keys(add[s[0]], mul[s], None if inv is None else inv[s],
                                           None) for s in groups.values()])
    return keys[np.argsort(np.concatenate(list(groups.values())))]


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a uint8 array, in ascending order (byte order is row order)."""
    void = np.sort(_void_rows(rows))
    first = np.ones(len(void), dtype=bool)      # not a plain np.unique, which imports numpy.ma
    first[1:] = void[1:] != void[:-1]
    return void[first].view(np.uint8).reshape(-1, rows.shape[1])


def _model_stack(keys: np.ndarray, n: int, has_inv: bool, name: str) -> TableStack:
    """The canonical models of key rows of one size and signature, item i named name.format(i)."""
    add, mul, inv = np.split(keys[:, 2:].astype(np.int64), [n * n, 2 * n * n], axis=1)
    return TableStack._built(dict(add=add.reshape(-1, n, n), mul=mul.reshape(-1, n, n),
                                  inv=inv if has_inv else None, zero=0, one=min(n - 1, 1)),
                             name, None)


def canonicalize(algebra: FiniteNearSemiring, name=None) -> FiniteNearSemiring:
    """Relabel onto the canonical form (constants at 0 and 1)."""
    keys = np.array([canonical_form(algebra)], dtype=np.uint8)
    name = algebra.name if name is None else name
    return _model_stack(keys, algebra.n, algebra.has_inv, name).algebra(0, name)


def are_isomorphic(a: FiniteNearSemiring, b: FiniteNearSemiring):
    """A constant-preserving table isomorphism as a permutation, or None.

    Deterministic: the first map _isomorphisms gives, the lexicographically least one,
    re-verified by relabelling.
    """
    if a.has_inv != b.has_inv:
        raise AlgebraError("cannot compare algebras with different signatures")
    if a.n != b.n:
        return None
    # equal sizes: zero and one differ in both algebras, or both are the one element
    pairs = [(a.add, b.add), (a.mul, b.mul)] + [(a.inv, b.inv)] * a.has_inv
    img = next(_isomorphisms(pairs, {a.zero: b.zero, a.one: b.one}), None)
    return img if img is not None and a.relabel(img).same_tables(b) else None


# ---------------------------------------------------------------------------
# sum-table generation


def _generic_add_tables(n: int, integral: bool) -> np.ndarray:
    """Commutative-monoid tables (zero=0 neutral, optionally one=1 absorbing), as a (k, n, n)
    stack.

    Breadth first over partial tables padded with the sentinel n (unfilled): each free
    cell takes every value in every partial table, and a stacked add-associativity call
    on chunks of about _STACK_CELLS cells keeps the survivors, in depth-first order.
    """
    add = np.full((1, n + 1, n + 1), n, dtype=np.uint8)
    add[0, 0, :n] = add[0, :n, 0] = np.arange(n)
    if integral and n >= 2:
        add[0, :n, 1] = add[0, 1, :n] = 1
    assoc = _clause_subset((_AXIOMS["add-associativity"],))
    step = max(1, _STACK_CELLS // (n * (n + 1) ** 2))
    for x, y in zip(*np.nonzero(np.triu(add[0, :n, :n] == n))):
        kept = []
        for lo in range(0, len(add), step):
            grown = np.repeat(add[lo:lo + step], n, axis=0)
            grown[:, x, y] = grown[:, y, x] = np.tile(np.arange(n), len(grown) // n)
            kept.append(grown[~assoc.violations({"add": grown}, n, mask=True)])
        add = np.concatenate(kept)
    return add[:, :n, :n]


def _lattices(n: int) -> np.ndarray:
    """Lattices of size n as sum tables, 0 at the bottom and the top at 1, one per orbit of
    middle-permutations, each the least relabelling of its orbit: an ascending (k, n, n) stack.

    Each lattice of size m > 2 is one of size m - 1, K, plus an atom a = m - 1 (J. Heitzig
    and J. Reinhold, Algebra Universalis 48, 2002).  a lies under a nonempty up-set T of K
    minus 0 whose intersection with the up-set of each x != 0 has a least element, a + x.
    A lattice is kept only as grown by one of its atoms with the largest up-set, and the
    rest are deduplicated by least relabelling (B. McKay, J. Algorithms 26, 1998).
    """
    lattices = np.uint8([[[0, 1], [1, 1]]])[:, :n, :n]
    for m in range(3, n + 1):
        k = m - 1
        sets = np.arange(1 << k)[::2, None] >> np.arange(k) & 1 == 1    # subsets of K minus 0
        up = lattices[:, None] == np.arange(k, dtype=np.uint8)           # x <= y: x + y = y
        closed = ~(up & sets[:, :, None] & ~sets[:, None, :]).any((2, 3))
        above = up & sets[:, None, :]                  # above[K, T, x, y]: x <= y and y in T
        least = above & (up.sum(3)[:, :, None] == above.sum(3)[..., None])
        which, up_set = np.nonzero(closed & least[:, :, 1:].any(3).all(2))
        grown = np.full((len(which), m, m), k, dtype=np.uint8)
        grown[:, :k, :k] = lattices[which]
        grown[:, k, 1:k] = grown[:, 1:k, k] = least[which, up_set, 1:].argmax(2)
        leq = grown == np.arange(m, dtype=np.uint8)
        atoms = np.where(leq.sum(1) == 2, leq.sum(2), 0)         # the atoms' up-set sizes
        grown = grown[atoms[:, k] == atoms.max(1)]
        lattices = _unique_rows(_least_forms([grown], _middle_perms(m))).reshape(-1, m, m)
    return lattices


def _canonical_add_tables(n: int, constraint: SearchConstraint) -> list:
    """Sum tables for the constraint, one per orbit of middle-permutations, each the least
    relabelling of its orbit, in ascending order.

    An idempotent sum table is a lattice's join; without integrality its 1 is any nonzero
    element of the lattice."""
    perms = _middle_perms(n)            # refuses a size too large before any table is grown
    if not constraint.idempotent_add:
        raw = _generic_add_tables(n, constraint.integral)
    elif constraint.integral or n < 3:
        return list(_lattices(n).astype(int))
    else:
        swaps = np.tile(np.arange(n, dtype=np.uint8), (n - 1, 1))    # 1 and e swapped, e > 0
        swaps[range(n - 1), 1], swaps[range(n - 1), range(1, n)] = range(1, n), 1
        raw = relabel_table(_lattices(n), swaps, swaps, 2).reshape(-1, n, n)
    forms = _unique_rows(_least_forms([raw], perms))
    return list(forms.reshape(-1, n, n).astype(int))


# ---------------------------------------------------------------------------
# involution and product generation


@functools.lru_cache(maxsize=None)
def _involutions(n: int) -> np.ndarray:
    """Every permutation of range(n) of period at most two, as read-only rows."""
    rows = [[]]
    for x in range(n):          # x is fixed, or swapped with a fixed point below it
        rows = [r + [x] for r in rows] + [
            r[:y] + [x] + r[y + 1:] + [y] for r in rows for y in range(x) if r[y] == y]
    rows = np.array(rows).reshape(-1, n)
    rows.setflags(write=False)
    return rows


def _period_two(add: np.ndarray, constraint: SearchConstraint) -> np.ndarray:
    """Period-two permutations as rows, antitone when an involutive profile demands it."""
    n = add.shape[0]
    invs = _involutions(n)
    if constraint.antitone_inv:
        invs = invs[~_clause_subset((_AXIOMS["involution-antitone"],)).violations(
            {"add": add, "inv": invs}, n, mask=True)]
    return invs


def _involution_candidates(invs: np.ndarray, automorphisms) -> list:
    """The least row of invs in each orbit of automorphisms, a (p, q) stack, ascending."""
    return list(_unique_rows(_least_forms([invs], [automorphisms])))


# right-distributivity at a column c: x -> x.z, read as a unary table
_ENDOMORPHISM = ClauseSet([clause(
    "endomorphism", "xy", (("col", _add(X, Y)), _add(("col", X), ("col", Y))),
    render="c({x}+{y})={lhs} but c({x})+c({y})={rhs}")])


def _column_candidates(add: np.ndarray) -> dict:
    """Right-distributive product columns x -> x.z for each z in 2..n-1.

    They are the endomorphisms col of (A, +) with col[0] = 0 and col[1] = z.
    Maps padded with the sentinel n (unfilled) grow breadth first from one per
    z, col[2], col[3], ... in turn taking every value, and a stacked mask-only
    endomorphism call keeps the survivors: grouped by z, each group in
    itertools.product order over col[2:].
    """
    n = add.shape[0]
    if n < 3:
        return {}
    padded = np.pad(add, (0, 1), constant_values=n)
    cols = np.full((n - 2, n + 1), n, dtype=np.uint8)
    cols[:, 0], cols[:, 1] = 0, range(2, n)
    for x in range(2, n):
        cols = np.repeat(cols, n, axis=0)
        cols[:, x] = np.tile(np.arange(n, dtype=np.uint8), len(cols) // n)
        cols = cols[~_ENDOMORPHISM.violations({"add": padded, "col": cols}, n, mask=True)]
    return {z: cols[cols[:, 1] == z, :n] for z in range(2, n)}


def _column_order(n: int, inv) -> list:
    """Middle columns, dual pairs adjacent when an involution is present."""
    order = []
    for z in range(2, n):
        pair = dict.fromkeys((z, z if inv is None else int(inv[z])))
        order += [w for w in pair if w >= 2 and w not in order]
    return order


# ---------------------------------------------------------------------------
# the search proper


@dataclass
class SearchResult:
    models: TableStack            # or () for none
    exhaustive: bool
    nodes: int
    sizes: tuple = ()
    violations: tuple = ()        # for find: ((identity, witness-dict), ...)
    stats: dict = field(default_factory=dict)      # _Counter.stats()
    leaves = property(lambda self: self.stats["counts"]["leaves"])     # reached verification
    rejected = property(lambda self: self.stats["counts"]["rejected"])  # leaves that failed it

    def to_dict(self) -> dict:
        return {
            "models": [m.to_document() for m in self.models],
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
            "sizes": list(self.sizes),
            "violations": [[name, dict(w)] for name, w in self.violations],
        }


class _Counter:
    """DFS nodes and prunes, counts and seconds per search phase, summed over sum tables and
    workers."""

    def __init__(self):
        self.nodes = 0
        self.pruned = Counter()         # DFS rows pruned, by the first clause they fail
        self.counts = Counter(dict.fromkeys(
            ("roots", "leaves", "rejected", "models", "duplicate_keys"), 0))
        self.seconds = Counter(dict.fromkeys(("sum_tables", "involutions", "column_candidates",
                                              "dfs", "verify", "canonical_keys", "output"), 0.0))

    @contextlib.contextmanager
    def timed(self, phase: str):
        start = time.perf_counter()
        yield
        self.seconds[phase] += time.perf_counter() - start

    def stats(self) -> dict:
        return {"counts": dict(self.counts), "seconds": dict(self.seconds),
                "pruned": dict(self.pruned)}


# product clauses of the profiles that the DFS checks on partial tables
_PRUNED_AXIOMS = ("mul-commutativity", "mul-associativity", "left-distributivity")


def _prunes(constraint: SearchConstraint) -> list:
    """Clauses every partial product table must pass: the required identities, then the
    product clauses of the requested profiles."""
    wanted = {c for p in constraint.profiles for c in PROFILES[p]}
    return [IDENTITIES[name] for name in constraint.require] + [
        _AXIOMS[c] for c in _PRUNED_AXIOMS if c in wanted]


def _leaf_stacks(n: int, constraint: SearchConstraint, add: np.ndarray, inv, columns: dict,
                 counter: _Counter):
    """One (sum table, involution) pair's completed product tables, unverified, in DFS order.

    inv is an involution candidate (None without one), columns the product
    column candidates.  Partial product tables padded with the absorbing
    sentinel n grow in _column_order: each takes every candidate of the
    column, and the prunes, one stacked mask-only call each, narrow the
    survivors; a chunk of survivors is grown to its leaves before the next.
    Each chunk's leaves, about _STACK_CELLS product cells, come as one
    TableStack sharing the sum table and the involution.
    """
    prunes = _prunes(constraint)
    padded_add = np.pad(add, (0, 1), constant_values=n)
    padded_inv = None if inv is None else np.append(inv, n)
    root = np.full((1, n + 1, n + 1), n, dtype=np.uint8)
    root[0, :n, 0] = root[0, 0, :n] = 0
    if n >= 2:
        root[0, :n, 1] = root[0, 1, :n] = range(n)

    def kept(tables):
        # the prunes cannot reject what a completed table would accept:
        # instances that read an unfilled cell are skipped
        for c in prunes:
            bad = identity_first_violation(c, padded_add, tables, padded_inv, n, mask=True)
            counter.pruned[c.name] += int(np.count_nonzero(bad))
            tables = tables[~bad]
        return tables

    def grown(tables, order):
        if not order:
            yield tables
            return
        cols = columns[order[0]]
        step = max(1, _STACK_CELLS // max(1, len(cols) * (n + 1) ** 2))
        for lo in range(0, len(tables), step):
            parents = tables[lo:lo + step]
            rows = np.repeat(parents, len(cols), axis=0)
            rows[:, :n, order[0]] = np.tile(cols, (len(parents), 1))
            counter.nodes += len(rows)
            yield from grown(kept(rows), order[1:])

    counter.nodes += 1
    order = _column_order(n, inv)
    inv = None if inv is None else np.asarray(inv, dtype=np.int64)
    # with no column to fill (n <= 2) the product table is complete already
    for leaves in grown(root if order else kept(root), order):
        if len(leaves):
            yield TableStack._built(dict(add=add, mul=leaves[:, :n, :n].astype(np.int64), inv=inv,
                                         zero=0, one=min(n - 1, 1)), "candidate", None)


def _effective_profiles(constraint: SearchConstraint) -> tuple:
    """Requested profiles plus the near-semiring base, minus subsumed ones."""
    wanted = tuple(dict.fromkeys(("near-semiring",) + constraint.profiles))
    return tuple(p for p in wanted
                 if not any(set(PROFILES[p]) < set(PROFILES[q]) for q in wanted))


def _verify(stack: TableStack, constraint: SearchConstraint) -> np.ndarray:
    """Mask of the leaves that pass the constraint, re-checked through the ordinary checkers.

    Every leaf is checked against every clause of every effective profile,
    every required identity and every forbidden identity.
    """
    ok = np.ones(len(stack), dtype=bool)
    for profile in _effective_profiles(constraint):
        ok &= [report.passed for report in check_axioms(stack, profile)]
    for names, wanted in ((constraint.require, True), (constraint.forbid, False)):
        for name in names:      # a required identity must not fail, a forbidden one must
            ok &= wanted != identity_first_violation(
                IDENTITIES[name], stack.add, stack.mul, stack.inv, stack.n, mask=True)
    return ok


def _verified_stacks(n: int, constraint: SearchConstraint, roots, counter: _Counter):
    """The leaves of each sum table that pass _verify, as TableStacks in generation order:
    one per chunk of one (sum table, involution) pair, as _leaf_stacks gives them.

    Each comes with its sum table's automorphisms, as a (p, q) stack.  A sum table with no
    involution candidate is skipped before its automorphisms and its column candidates.
    """
    prunes = dict.fromkeys((c.name for c in _prunes(constraint)), 0)
    for add in roots:
        counter.pruned.update(prunes)           # a key per prune, with leaves or without
        with counter.timed("involutions"):
            invs = _period_two(add, constraint) if constraint.needs_inv else [None]
            if not len(invs):
                continue
            automorphisms = _relabellings(add, add)
            if constraint.needs_inv:
                invs = _involution_candidates(invs, automorphisms)
        with counter.timed("column_candidates"):
            columns = _column_candidates(add)
        leaves = (stack for inv in invs
                  for stack in _leaf_stacks(n, constraint, add, inv, columns, counter))
        while True:
            with counter.timed("dfs"):
                stack = next(leaves, None)
            if stack is None:
                break
            with counter.timed("verify"):
                ok = _verify(stack, constraint)
            passed = int(np.count_nonzero(ok))
            counter.counts["leaves"] += len(stack)
            counter.counts["rejected"] += len(stack) - passed
            if passed:
                yield (stack if passed == len(stack) else stack.take(ok)), automorphisms


def _root_keys(args):
    """The distinct canonical keys of one sum table's models, ascending, with the counter."""
    n, constraint, add = args
    counter = _Counter()
    keys = [np.empty((0, 2 + n * (2 * n + constraint.needs_inv)), dtype=np.uint8)]
    for stack, automorphisms in _verified_stacks(n, constraint, [add], counter):
        with counter.timed("canonical_keys"):
            keys.append(canonical_form(stack, automorphisms))
    with counter.timed("canonical_keys"):
        return _unique_rows(np.concatenate(keys)), counter


def _count(value, what: str) -> int:
    """A size or worker count: an integer of at least 1."""
    if not _integer(value):
        raise AlgebraError(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise AlgebraError(f"{what} must be at least 1, got {value}")
    return int(value)


def _size(value, what: str, allow_large: bool) -> int:
    """A largest model size: a count, above DEFAULT_SIZE_CAP only with allow_large."""
    n = _count(value, what)
    if n > DEFAULT_SIZE_CAP and not allow_large:
        raise AlgebraError(
            f"size {n} exceeds the default cap {DEFAULT_SIZE_CAP}; pass allow_large=True")
    return n


def enumerate_models(n: int, constraint: SearchConstraint = SearchConstraint(),
                     allow_large: bool = False, workers: int = None) -> SearchResult:
    """All models of size n satisfying a constraint (or its names), one per isomorphism class.

    Output is canonically sorted, so serial and parallel runs emit the same
    list in the same order.  Sizes above the default cap require
    allow_large=True.  A pool of at most one process per sum table takes the
    tables one at a time.  A key starts with its table, and the tables ascend:
    so the keys of each table, deduplicated and sorted, are concatenated.
    """
    n = _size(n, "size", allow_large)
    if not isinstance(constraint, SearchConstraint):
        constraint = parse_constraint(constraint)
    if workers is not None:
        workers = _count(workers, "the number of workers")
    counter = _Counter()
    with counter.timed("sum_tables"):
        roots = _canonical_add_tables(n, constraint)
    counter.counts["roots"] = len(roots)
    units = [(n, constraint, add) for add in roots]
    if workers and workers > 1 and len(roots) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(min(workers, len(roots))) as pool:
            parts = list(pool.imap(_root_keys, units, chunksize=1))
    else:
        parts = [_root_keys(unit) for unit in units]
    for _keys, part in parts:
        counter.nodes += part.nodes
        counter.counts.update(part.counts)
        counter.seconds.update(part.seconds)
        counter.pruned.update(part.pruned)
    with counter.timed("output"):
        keys = np.concatenate([keys for keys, _part in parts])
        models = _model_stack(keys, n, constraint.needs_inv, f"n{n}#{{}}")
    counter.counts["models"] = len(models)
    counter.counts["duplicate_keys"] = counter.counts["leaves"] - counter.counts["rejected"] \
        - len(models)
    return SearchResult(models, True, counter.nodes, sizes=(n,), stats=counter.stats())


def find_model(n_max: int, satisfy, violate, allow_large: bool = False) -> SearchResult:
    """First model (sizes 1..n_max, generation order) satisfying and violating as asked.

    Returns the witness model together with an explicit violating
    instantiation for every identity in the violate set, or an
    exhaustive-none result if the whole bounded space is traversed.  A
    SearchConstraint's own forbidden identities join the violate set.
    """
    if isinstance(satisfy, SearchConstraint):
        forbid = tuple(dict.fromkeys(satisfy.forbid + _names(violate)))
        constraint = SearchConstraint(satisfy.profiles, satisfy.require, forbid)
    else:
        constraint = parse_constraint(satisfy, violate)
    n_max = _size(n_max, "the largest size", allow_large)
    counter = _Counter()
    searched = []
    for n in range(1, n_max + 1):
        with counter.timed("sum_tables"):
            roots = _canonical_add_tables(n, constraint)
        counter.counts["roots"] += len(roots)
        for stack, automorphisms in _verified_stacks(n, constraint, roots, counter):
            with counter.timed("canonical_keys"):
                keys = canonical_form(stack.take([0]), automorphisms)
            with counter.timed("output"):
                models = _model_stack(keys, n, constraint.needs_inv, f"witness-n{n}")
                # witnesses are recomputed on the canonical labelling
                model, witnesses = models[0], []
                for name in constraint.forbid:
                    w = identity_first_violation(
                        IDENTITIES[name], model.add, model.mul, model.inv, model.n)
                    witnesses.append((name, tuple(zip(IDENTITIES[name].variables, w))))
            counter.counts["models"] = 1
            return SearchResult(models, False, counter.nodes, sizes=tuple(searched),
                                violations=tuple(witnesses), stats=counter.stats())
        searched.append(n)
    return SearchResult((), True, counter.nodes, sizes=tuple(searched), stats=counter.stats())
