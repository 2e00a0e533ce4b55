"""Bounded exhaustive enumeration of finite near semirings up to isomorphism.

Models are generated with the constants pinned at indices zero=0, one=1 and
emitted in canonical form: the lexicographically minimal concatenation of
the sum, product and involution tables over all carrier permutations fixing
the constants.  That minimum starts with the least relabelling of the sum
table alone, so it is taken over the permutations reaching that relabelling
only: one of them composed with the sum table's automorphisms.  The
(n-2)! permutations come in stacks of at most 7! rows, one cached stack for
n <= 9, and ``core.relabel_table`` relabels a stack of tables by a stack of
permutations at once.  Past 10! permutations (n >= 13) the canonical form is
refused.

The sum table is filled first (commutative-monoid and semilattice
constraints prune hard), then the involution, then the product column by
column; required identities and the product clauses of the requested
profiles (commutativity, associativity, left-distributivity) are re-checked
incrementally on the partially filled product table.  By
right-distributivity, (x + y).z = x.z + y.z, each product column x -> x.z is
an endomorphism of (A, +) fixing 0 and sending 1 to z: the candidates are
found in one vectorised sweep per sum table, in chunks of at most
_SWEEP_CELLS cells, and grouped by the image of 1.

Nothing is trusted at the leaves.  Each sum table's completed tables are
collected into TableStacks, and every leaf is re-checked against every
clause of its constraint through the ordinary checkers, one stacked engine
call per clause set.  The canonical forms of the survivors are taken per
stack, and algebra objects are built only for the models emitted.  A leaf
that fails re-verification is counted as rejected: with no forbidden
identities, that is a table the DFS should have pruned.

The involution slot ranges over period-two permutations, one per orbit of
the sum table's automorphisms; order-antitonicity is additionally enforced
exactly when an involutive profile is part of the constraint.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (
    _AXIOMS, _PROFILE_CLAUSES, _STACK_CELLS, IDENTITIES, AlgebraError, Clause, ClauseSet,
    FiniteNearSemiring, PROFILES, TableStack, check_axioms, relabel_table,
)

DEFAULT_SIZE_CAP = 6


# ---------------------------------------------------------------------------
# identities: the catalog lives in core, next to the axioms


@functools.lru_cache(maxsize=None)
def _compiled(identity: Clause) -> ClauseSet:
    return ClauseSet([identity])


def identity_first_violation(identity: Clause, add, mul, inv, n: int):
    """Lexicographically first instantiation where both sides differ.

    Tables padded to n+1, as the search's partial product tables are, mark
    an unfilled cell with the sentinel n; instances reaching one are skipped.
    Stacked tables, as ClauseSet.violations takes them, give a list with one
    witness or None per algebra.
    """
    ops = {"add": add, "mul": mul} if inv is None else {"add": add, "mul": mul, "inv": inv}
    found = _compiled(identity).violations(ops, n)
    if isinstance(found, list):
        return [f[identity.name].witness if f else None for f in found]
    return found[identity.name].witness if found else None


def identity_holds(identity: Clause, algebra: FiniteNearSemiring) -> bool:
    if _compiled(identity).needs_inv and algebra.inv is None:
        raise AlgebraError(f"identity {identity.name!r} needs an involution")
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
                or any(_compiled(IDENTITIES[i]).needs_inv for i in self.require + self.forbid))

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
def _single_block(n: int) -> tuple:
    p = np.array([(*range(min(n, 2)), *tail) for tail in permutations(range(2, n))])
    q = np.argsort(p, axis=1)
    p.setflags(write=False)
    q.setflags(write=False)
    return ((p, q),)


def _middle_perms(n: int):
    """Every permutation p of range(n) fixing 0 and 1, with its inverse q, as (p, q) stacks.

    n <= 9 gives one cached stack; a larger n gives stacks of 7! rows, one at a time,
    each fixing the images of the first middle elements.
    """
    count = math.factorial(max(n - 2, 0))
    if count > MAX_RELABELLINGS:
        raise AlgebraError(
            f"size {n} needs (n-2)! = {count:,} relabellings, "
            f"more than the limit of 10! = {MAX_RELABELLINGS:,}")
    if n - 2 <= _BLOCK:
        return _single_block(n)
    return _blocks(n)


def _blocks(n: int):
    tails = _single_block(2 + _BLOCK)[0][0][:, 2:] - 2    # the 7! permutations of range(7)
    for head in permutations(range(2, n), n - 2 - _BLOCK):
        rest = np.array([x for x in range(2, n) if x not in head])
        p = np.hstack([np.tile((0, 1, *head), (len(tails), 1)), rest[tails]])
        yield p, np.argsort(p, axis=1)


def _least_sum_form(add: np.ndarray) -> tuple:
    """The least relabelling of a sum table, as ints, and one permutation reaching it."""
    best = None
    for p, q in _middle_perms(add.shape[0]):
        rows = relabel_table(add, p, q).reshape(len(p), -1)
        i = np.lexsort(rows.T[::-1])[0]
        row = tuple(rows[i].tolist())
        if best is None or row < best[0]:
            best = (row, p[i])
    return best


def _automorphisms(add: np.ndarray) -> tuple:
    """The permutations fixing 0, 1 and a sum table, as one (p, q) stack in ascending order."""
    kept = [(p[m], q[m]) for p, q in _middle_perms(add.shape[0])
            for m in [(relabel_table(add, p, q) == add).all(axis=(1, 2))] if m.any()]
    return np.concatenate([p for p, _q in kept]), np.concatenate([q for _p, q in kept])


def _least_rows(keys: np.ndarray) -> np.ndarray:
    """The lexicographically least row of each (c, L) block of a (k, c, L) array."""
    k, c, width = keys.shape
    if c == 1:
        return keys[:, 0]
    rows = keys.reshape(k * c, width)
    order = np.lexsort(rows.T[::-1])
    # each block's first row in the overall order is its least
    first = np.unique(order // c, return_index=True)[1]
    return rows[order[first]]


def _canonical_keys(add, mul, inv) -> list:
    """canonical_form of the algebras with one sum table, (k, n, n) products and (k, n) or no
    involutions, constants at 0 and 1.

    The least concatenation starts with the least relabelling of the sum table,
    so it is the least over the permutations reaching that: one of them composed
    with the table's automorphisms.
    """
    n = add.shape[0]
    least, sigma = _least_sum_form(add)
    autos, _ = _automorphisms(add)
    p = sigma[autos]
    q = np.argsort(p, axis=1)
    head = (n, inv is not None) + least
    # chunks of about _STACK_CELLS key cells: slices by blocks of permutations
    block = max(1, _STACK_CELLS // (n * n + n))
    step = max(1, _STACK_CELLS // (min(len(p), block) * (n * n + n)))
    keys = []
    for lo in range(0, len(mul), step):
        least_rows = []
        for at in range(0, len(p), block):
            pp, qq = p[at:at + block], q[at:at + block]
            parts = [relabel_table(mul[lo:lo + step], pp, qq, 2)]
            if inv is not None:
                parts.append(relabel_table(inv[lo:lo + step], pp, qq, 1))
            least_rows.append(_least_rows(np.concatenate(
                [t.reshape(*t.shape[:2], -1) for t in parts], axis=2)))
        rows = least_rows[0] if len(least_rows) == 1 else _least_rows(np.stack(least_rows, 1))
        keys.extend(head + tuple(row) for row in rows.tolist())
    return keys


def canonical_form(algebra):
    """Minimal (add | mul | inv) concatenation over permutations sending zero to 0, one to 1.

    A TableStack gets the list of its slices' forms.
    """
    stacked = isinstance(algebra, TableStack)
    if stacked and algebra.add.ndim == 3:          # a sum table per slice
        return [canonical_form(algebra.algebra(i)) for i in range(len(algebra))]
    n = algebra.n
    add, mul, inv = algebra.add, algebra.mul, algebra.inv
    if (algebra.zero, algebra.one) != (0, min(n - 1, 1)):
        # composed with one relabelling sending zero to 0 and one to 1, the
        # permutations range over the same set
        q = np.array([*dict.fromkeys((algebra.zero, algebra.one, *range(n)))])
        p = np.argsort(q)
        add, mul = relabel_table(add, p, q, 2), relabel_table(mul, p, q, 2)
        inv = None if inv is None else relabel_table(inv, p, q, 1)
    if not stacked:
        return _canonical_keys(add, mul[None], None if inv is None else inv[None])[0]
    k = len(algebra)
    return _canonical_keys(add, np.broadcast_to(mul, (k, n, n)),
                           None if inv is None else np.broadcast_to(inv, (k, n)))


def canonicalize(algebra: FiniteNearSemiring, name=None) -> FiniteNearSemiring:
    """Relabel onto the canonical form (constants at 0 and 1)."""
    return _models_from_keys([canonical_form(algebra)],
                             [algebra.name if name is None else name])[0]


def _models_from_keys(keys: list, names: list) -> list:
    """The canonical models of canonical-form keys of one signature and size, one per name.

    Their tables are validated once, as one TableStack.
    """
    n, has_inv = keys[0][:2]
    rows = np.array([key[2:] for key in keys], dtype=np.int8)      # n <= 12
    add, mul, inv = rows[:, :n * n], rows[:, n * n:2 * n * n], rows[:, 2 * n * n:]
    stack = TableStack(add.reshape(-1, n, n), mul.reshape(-1, n, n), 0, 1 if n >= 2 else 0,
                       inv=inv if has_inv else None)
    return [stack.algebra(i, name) for i, name in enumerate(names)]


def are_isomorphic(a: FiniteNearSemiring, b: FiniteNearSemiring):
    """A constant-preserving table isomorphism as a permutation, or None.

    Deterministic: images are tried in ascending order element by element,
    so the first witness found is the lexicographically least one.
    """
    if a.has_inv != b.has_inv:
        raise AlgebraError("cannot compare algebras with different signatures")
    if a.n != b.n:
        return None
    n = a.n
    # equal sizes: zero and one differ in both algebras, or both are the one element
    img = [-1] * n
    img[a.zero], img[a.one] = b.zero, b.one
    used = [y in (b.zero, b.one) for y in range(n)]

    def consistent(x) -> bool:
        # check every instance all of whose lookups are already mapped
        for u in range(n):
            if img[u] == -1:
                continue
            for (s, t) in ((x, u), (u, x)):
                for tab_a, tab_b in ((a.add, b.add), (a.mul, b.mul)):
                    w = int(tab_a[s, t])
                    if img[w] != -1 and tab_b[img[s], img[t]] != img[w]:
                        return False
        if a.inv is not None:
            w = int(a.inv[x])
            if img[w] != -1 and b.inv[img[x]] != img[w]:
                return False
        return True

    def dfs(x) -> bool:
        if x == n:
            return a.relabel(img).same_tables(b)
        if img[x] != -1:
            return consistent(x) and dfs(x + 1)
        for y in range(n):
            if used[y]:
                continue
            img[x], used[y] = y, True
            if consistent(x) and dfs(x + 1):
                return True
            img[x], used[y] = -1, False
        return False

    return tuple(img) if dfs(0) else None


# ---------------------------------------------------------------------------
# sum-table generation


def _generic_add_tables(n: int, idempotent: bool, integral: bool):
    """DFS over commutative-monoid tables (zero=0 neutral, optional extras)."""
    add = np.full((n + 1, n + 1), n)        # n marks an unfilled cell
    add[0, :n] = np.arange(n)
    add[:n, 0] = np.arange(n)
    if idempotent:
        for x in range(n):
            add[x, x] = x
    if integral and n >= 2:
        add[:n, 1] = 1
        add[1, :n] = 1
    cells = [(i, j) for i in range(1, n) for j in range(i, n) if add[i, j] == n]
    assoc = _compiled(_AXIOMS["add-associativity"])
    out = []

    def dfs(i):
        if i == len(cells):
            out.append(add[:n, :n].copy())
            return
        x, y = cells[i]
        for v in range(n):
            add[x, y] = v
            add[y, x] = v
            if not assoc.violations({"add": add}, n):
                dfs(i + 1)
        add[x, y] = n
        add[y, x] = n

    dfs(0)
    return out


def _canonical_add_tables(n: int, constraint: SearchConstraint):
    """Sum tables for the constraint, one per orbit of middle-permutations."""
    raw = _generic_add_tables(n, constraint.idempotent_add, constraint.integral)
    keys = {_least_sum_form(add)[0] for add in raw}
    return [np.array(key, dtype=int).reshape(n, n) for key in sorted(keys)]


# ---------------------------------------------------------------------------
# involution and product generation


@functools.lru_cache(maxsize=None)
def _involutions(n: int) -> np.ndarray:
    """Every permutation of range(n) of period at most two, as read-only rows."""
    def pairings(free):
        if not free:
            yield {}
            return
        x, rest = free[0], free[1:]
        for m in pairings(rest):
            yield {x: x, **m}
        for y in rest:
            for m in pairings([z for z in rest if z != y]):
                yield {x: y, y: x, **m}

    rows = np.array([[m[x] for x in range(n)] for m in pairings(list(range(n)))])
    rows.setflags(write=False)
    return rows


def _involution_candidates(add: np.ndarray, constraint: SearchConstraint):
    """Period-two permutations, antitone when an involutive profile demands it.

    One per orbit of the sum table's automorphisms, each the least of its
    orbit, in ascending order.
    """
    n = add.shape[0]
    invs = _involutions(n)
    if constraint.antitone_inv:
        found = _compiled(_AXIOMS["involution-antitone"]).violations({"add": add, "inv": invs}, n)
        invs = invs[[not f for f in found]]
    if not len(invs):
        return []
    p, q = _automorphisms(add)
    return list(np.unique(_least_rows(relabel_table(invs, p, q, 1)), axis=0))


# rows x n^2 cells of one sweep chunk: its int64 temporaries stay near 8 MB each at any n
_SWEEP_CELLS = 1 << 20


def _column_candidates(add: np.ndarray) -> dict:
    """Right-distributive product columns x -> x.z for each z in 2..n-1.

    They are the endomorphisms col of (A, +) with col[0] = 0 and col[1] = z,
    found by one sweep over every such map, grouped by z, each group in
    itertools.product order over col[2:].
    """
    n = add.shape[0]
    if n < 3:
        return {}
    # row r is the map whose values col[1], ..., col[n-1] are the base-n digits of r
    weights = n ** np.arange(n - 2, -1, -1)
    step = max(1, _SWEEP_CELLS // (n * n))
    kept = []
    for start in range(2 * n ** (n - 2), n ** (n - 1), step):
        rows = np.arange(start, min(start + step, n ** (n - 1)))
        cols = np.zeros((len(rows), n), dtype=int)
        cols[:, 1:] = rows[:, None] // weights % n
        ok = (cols[:, add] == add[cols[:, :, None], cols[:, None, :]]).all(axis=(1, 2))
        kept.append(cols[ok])
    found = np.concatenate(kept)
    return {z: found[found[:, 1] == z] for z in range(2, n)}


def _column_order(n: int, inv) -> list:
    """Middle columns, dual pairs adjacent when an involution is present."""
    middle = list(range(2, n))
    if inv is None:
        return middle
    order, seen = [], set()
    for z in middle:
        if z in seen:
            continue
        order.append(z)
        seen.add(z)
        mate = int(inv[z])
        if mate in middle and mate not in seen:
            order.append(mate)
            seen.add(mate)
    return order


# ---------------------------------------------------------------------------
# the search proper


@dataclass
class SearchResult:
    models: list
    exhaustive: bool
    nodes: int
    elapsed: float
    sizes: tuple = ()
    violations: tuple = ()        # for find: ((identity, witness-dict), ...)
    leaves: int = 0               # completed tables that reached verification
    rejected: int = 0             # leaves that failed it; with no forbid set, missed prunes

    def to_dict(self) -> dict:
        return {
            "models": [m.to_document() for m in self.models],
            "exhaustive": self.exhaustive,
            "nodes": self.nodes,
            "sizes": list(self.sizes),
            "violations": [[name, dict(w)] for name, w in self.violations],
        }


class _Counter:
    __slots__ = ("nodes", "leaves", "rejected")

    def __init__(self):
        self.nodes = self.leaves = self.rejected = 0


# product clauses of the profiles that the DFS checks on partial tables
_PRUNED_AXIOMS = ("mul-commutativity", "mul-associativity", "left-distributivity")


def _prunes(constraint: SearchConstraint) -> list:
    """Clauses every partial product table must pass: the required identities, then the
    product clauses of the requested profiles."""
    wanted = {c for p in constraint.profiles for c in PROFILES[p]}
    return [IDENTITIES[name] for name in constraint.require] + [
        _AXIOMS[c] for c in _PRUNED_AXIOMS if c in wanted]


def _leaf_stacks(n: int, constraint: SearchConstraint, add: np.ndarray, counter: _Counter):
    """One sum table's completed (inv, mul) tables, unverified, in DFS order.

    They come as TableStacks sharing the sum table, each of at most about
    _STACK_CELLS product cells.
    """
    prunes = _prunes(constraint)
    invs = _involution_candidates(add, constraint) if constraint.needs_inv else [None]
    columns = _column_candidates(add)
    # tables padded with the absorbing sentinel n, which marks an unfilled product cell
    padded_add = np.full((n + 1, n + 1), n)
    padded_add[:n, :n] = add
    size = max(1, _STACK_CELLS // (n * n))
    muls, which, count = np.empty((size, n, n), dtype=int), np.empty(size, dtype=int), 0

    def stack():
        inv = None if invs[0] is None else np.array(invs)[which[:count]]
        return TableStack(add, muls[:count], 0, 1 if n >= 2 else 0, inv=inv, name="candidate")

    for j, inv in enumerate(invs):
        counter.nodes += 1
        order = _column_order(n, inv)
        padded_inv = None if inv is None else np.append(inv, n)
        mul = np.full((n + 1, n + 1), n)
        mul[:n, 0] = 0
        mul[0, :n] = 0
        if n >= 2:
            mul[:n, 1] = np.arange(n)
            mul[1, :n] = np.arange(n)

        def passes():
            # the prunes cannot reject what a completed table would accept:
            # instances that read an unfilled cell are skipped
            return all(identity_first_violation(c, padded_add, mul, padded_inv, n) is None
                       for c in prunes)

        def dfs(i):
            if i == len(order):
                yield
                return
            z = order[i]
            saved = mul[:n, z].copy()
            for col in columns[z]:
                counter.nodes += 1
                mul[:n, z] = col
                if passes():
                    yield from dfs(i + 1)
            mul[:n, z] = saved

        # with no column to fill (n <= 2) the product table is complete already
        for _leaf in dfs(0) if order or passes() else ():
            muls[count], which[count] = mul[:n, :n], j
            count += 1
            if count == size:
                yield stack()
                count = 0
    if count:
        yield stack()


def _effective_profiles(constraint: SearchConstraint) -> tuple:
    """Requested profiles plus the near-semiring base, minus subsumed ones."""
    wanted = ("near-semiring",) + constraint.profiles
    keep = []
    for p in wanted:
        mine = set(PROFILES[p])
        if any(q != p and mine < set(PROFILES[q]) for q in wanted):
            continue
        if p not in keep:
            keep.append(p)
    return tuple(keep)


def _verify(stack: TableStack, constraint: SearchConstraint) -> np.ndarray:
    """Mask of the leaves that pass the constraint, re-checked through the ordinary checkers.

    Every leaf is checked against every clause of every effective profile,
    every required identity and every forbidden identity.
    """
    ok = np.ones(len(stack), dtype=bool)
    for profile in _effective_profiles(constraint):
        ok &= [report.passed for report in check_axioms(stack, profile)]
    for names, wanted in ((constraint.require, True), (constraint.forbid, False)):
        for name in names:
            found = identity_first_violation(
                IDENTITIES[name], stack.add, stack.mul, stack.inv, stack.n)
            holds = [w is None for w in found] if isinstance(found, list) else found is None
            ok &= np.equal(holds, wanted)
    return ok


def _verified_stacks(n: int, constraint: SearchConstraint, roots, counter: _Counter):
    """The leaves of each sum table that pass _verify, as TableStacks in generation order."""
    for add in roots:
        for stack in _leaf_stacks(n, constraint, add, counter):
            ok = _verify(stack, constraint)
            passed = int(np.count_nonzero(ok))
            counter.leaves += len(stack)
            counter.rejected += len(stack) - passed
            if passed:
                yield stack if passed == len(stack) else stack.take(ok)


def _search_worker(args):
    n, constraint, add = args
    counter = _Counter()
    keys = set()
    for stack in _verified_stacks(n, constraint, [add], counter):
        keys.update(canonical_form(stack))
    return keys, counter


def enumerate_models(n: int, constraint: SearchConstraint = SearchConstraint(),
                     allow_large: bool = False, workers: int = None) -> SearchResult:
    """All models of size n satisfying the constraint, one per isomorphism class.

    Output is canonically sorted, so serial and parallel runs emit the same
    list in the same order.  Sizes above the default cap require
    allow_large=True.  A pool of at most one process per sum table takes the
    tables one at a time; keys from different tables never collide, since a
    key starts with its table.
    """
    if n < 1:
        raise AlgebraError("size must be at least 1")
    if workers is not None and workers < 1:
        raise AlgebraError(f"the number of workers must be at least 1, got {workers}")
    if n > DEFAULT_SIZE_CAP and not allow_large:
        raise AlgebraError(
            f"size {n} exceeds the default cap {DEFAULT_SIZE_CAP}; pass allow_large=True")
    start = time.perf_counter()
    roots = _canonical_add_tables(n, constraint)
    keys = set()
    counter = _Counter()
    if workers and workers > 1 and len(roots) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(min(workers, len(roots))) as pool:
            for part, part_counter in pool.imap(
                    _search_worker, [(n, constraint, add) for add in roots], chunksize=1):
                keys |= part
                for name in _Counter.__slots__:
                    setattr(counter, name, getattr(counter, name) + getattr(part_counter, name))
    else:
        for stack in _verified_stacks(n, constraint, roots, counter):
            keys.update(canonical_form(stack))
    keys = sorted(keys)
    models = _models_from_keys(keys, [f"n{n}#{i}" for i in range(len(keys))]) if keys else []
    return SearchResult(models, True, counter.nodes, time.perf_counter() - start, sizes=(n,),
                        leaves=counter.leaves, rejected=counter.rejected)


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
    if n_max < 1:
        raise AlgebraError(f"the largest size must be at least 1, got {n_max}")
    if n_max > DEFAULT_SIZE_CAP and not allow_large:
        raise AlgebraError(
            f"size {n_max} exceeds the default cap {DEFAULT_SIZE_CAP}; pass allow_large=True")
    start = time.perf_counter()
    counter = _Counter()
    searched = []
    for n in range(1, n_max + 1):
        roots = _canonical_add_tables(n, constraint)
        for stack in _verified_stacks(n, constraint, roots, counter):
            model, = _models_from_keys(canonical_form(stack.take([0])), [f"witness-n{n}"])
            # witnesses are recomputed on the canonical labelling
            witnesses = []
            for name in constraint.forbid:
                w = identity_first_violation(
                    IDENTITIES[name], model.add, model.mul, model.inv, model.n)
                witnesses.append((name, tuple(zip(IDENTITIES[name].variables, w))))
            return SearchResult([model], False, counter.nodes,
                                time.perf_counter() - start,
                                sizes=tuple(searched), violations=tuple(witnesses),
                                leaves=counter.leaves, rejected=counter.rejected)
        searched.append(n)
    return SearchResult([], True, counter.nodes, time.perf_counter() - start,
                        sizes=tuple(searched), leaves=counter.leaves, rejected=counter.rejected)
