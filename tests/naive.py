"""Generate-and-filter oracle for small model enumeration.

Deliberately independent of the search module: every raw table is
generated, filtered by direct clause loops, and only then quotiented by
isomorphism with a canonical form written over plain lists, without numpy
or the package's relabelling.  Feasible for n <= 3 only.
"""
from itertools import permutations, product

from nearsemiring.core import PROFILES


def relabel(add, mul, inv, perm):
    """The tables after the relabelling x -> perm[x], as lists."""
    n = len(add)
    back = [0] * n
    for x, y in enumerate(perm):
        back[y] = x
    add = [[perm[add[back[i]][back[j]]] for j in range(n)] for i in range(n)]
    mul = [[perm[mul[back[i]][back[j]]] for j in range(n)] for i in range(n)]
    return add, mul, None if inv is None else [perm[inv[back[i]]] for i in range(n)]


def canonical_form(add, mul, inv, zero, one):
    """(n, has inv) and the least add | mul | inv over relabellings sending zero to 0, one to 1."""
    n = len(add)
    fixed = [zero, one] if n >= 2 else [zero]
    best = None
    for tail in permutations([x for x in range(n) if x not in fixed]):
        perm = [0] * n
        for y, x in enumerate(fixed + list(tail)):
            perm[x] = y
        a, m, i = relabel(add, mul, inv, perm)
        key = [v for row in a + m for v in row] + (i or [])
        if best is None or key < best:
            best = key
    return (n, inv is not None) + tuple(best)


def _tables(n):
    for flat in product(range(n), repeat=n * n):
        yield [list(flat[i * n:(i + 1) * n]) for i in range(n)]


def _comm_monoid(add, n, idempotent, integral):
    for x in range(n):
        if add[0][x] != x or add[x][0] != x:
            return False
        if idempotent and add[x][x] != x:
            return False
        if integral and n >= 2 and add[x][1] != 1:
            return False
        for y in range(n):
            if add[x][y] != add[y][x]:
                return False
            for z in range(n):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    return False
    return True


def _near_semiring_mul(add, mul, n):
    for x in range(n):
        if mul[x][0] != 0 or mul[0][x] != 0:
            return False
        if n >= 2 and (mul[x][1] != x or mul[1][x] != x):
            return False
        for y in range(n):
            for z in range(n):
                if mul[add[x][y]][z] != add[mul[x][z]][mul[y][z]]:
                    return False
    return True


def right_distributive_columns(add, z):
    """Every column x -> x.z with 0.z = 0, 1.z = z and (x + y).z = x.z + y.z, in product order."""
    n = len(add)
    cols = []
    for tail in product(range(n), repeat=n - 2):
        col = [0, z] + list(tail)
        if all(col[add[x][y]] == add[col[x]][col[y]] for x in range(n) for y in range(n)):
            cols.append(col)
    return cols


def is_congruence(add, mul, inv, blocks):
    """Whether x ~ x' and y ~ y' give x+y ~ x'+y', x·y ~ x'·y' and α(x) ~ α(x')."""
    n = len(blocks)
    for x, x2, y, y2 in product(range(n), repeat=4):
        if blocks[x] != blocks[x2] or blocks[y] != blocks[y2]:
            continue
        if blocks[add[x][y]] != blocks[add[x2][y2]] or blocks[mul[x][y]] != blocks[mul[x2][y2]]:
            return False
        if inv is not None and blocks[inv[x]] != blocks[inv[x2]]:
            return False
    return True


def join_blocks(p, q):
    """Blocks of the transitive closure of the union of two partitions, numbered by first element."""
    n = len(p)
    rel = [[p[x] == p[y] or q[x] == q[y] for y in range(n)] for x in range(n)]
    for z, x, y in product(range(n), repeat=3):
        if rel[x][z] and rel[z][y]:
            rel[x][y] = True
    first = [min(y for y in range(n) if rel[x][y]) for x in range(n)]
    ids = sorted(set(first))
    return [ids.index(f) for f in first]


def _involutions(n):
    for p in permutations(range(n)):
        if all(p[p[x]] == x for x in range(n)):
            yield list(p)


def _antitone(add, inv, n):
    return all(not (add[x][y] == y and add[inv[y]][inv[x]] != inv[x])
               for x in range(n) for y in range(n))


def _holds_lukasiewicz(add, mul, inv, n):
    return all(mul[inv[mul[x][inv[y]]]][inv[y]] == mul[inv[mul[y][inv[x]]]][inv[x]]
               for x in range(n) for y in range(n))


def _holds_orthomodular(add, mul, inv, n):
    return all(mul[x][add[x][y]] == x for x in range(n) for y in range(n))


def _holds_mv_semiring(add, mul, inv, n):
    return all(add[x][y] == inv[mul[inv[x]][inv[mul[inv[x]][y]]]]
               for x in range(n) for y in range(n))


def _holds_central_1(add, mul, inv, n):
    return all(add[mul[e][inv[x]]][mul[inv[e]][inv[y]]]
               == inv[add[mul[e][x]][mul[inv[e]][y]]]
               for e in range(n) for x in range(n) for y in range(n))


def _holds_central_2(add, mul, inv, n):
    return all(add[mul[e][mul[x][z]]][mul[inv[e]][mul[y][u]]]
               == mul[add[mul[e][x]][mul[inv[e]][y]]][add[mul[e][z]][mul[inv[e]][u]]]
               for e in range(n) for x in range(n) for z in range(n)
               for y in range(n) for u in range(n))


_IDENTITY_FNS = {
    "lukasiewicz": _holds_lukasiewicz,
    "orthomodular": _holds_orthomodular,
    "mv-semiring": _holds_mv_semiring,
    "central-1": _holds_central_1,
    "central-2": _holds_central_2,
}


def naive_models(n, constraint):
    """Canonical forms of all models of size n meeting the constraint."""
    idempotent = constraint.idempotent_add
    integral = constraint.integral
    semiring = "semiring" in constraint.profiles
    mul_assoc = semiring or "associative-mul" in constraint.profiles
    mul_comm = "commutative-mul" in constraint.profiles
    needs_inv = constraint.needs_inv
    for p in constraint.profiles:
        assert p in PROFILES
    found = set()
    for add in _tables(n):
        if not _comm_monoid(add, n, idempotent, integral):
            continue
        for mul in _tables(n):
            if not _near_semiring_mul(add, mul, n):
                continue
            if mul_assoc and any(mul[mul[x][y]][z] != mul[x][mul[y][z]]
                                 for x in range(n) for y in range(n) for z in range(n)):
                continue
            if semiring and any(mul[x][add[y][z]] != add[mul[x][y]][mul[x][z]]
                                for x in range(n) for y in range(n) for z in range(n)):
                continue
            if mul_comm and any(mul[x][y] != mul[y][x]
                                for x in range(n) for y in range(n)):
                continue
            invs = list(_involutions(n)) if needs_inv else [None]
            for inv in invs:
                if inv is not None and constraint.antitone_inv \
                        and not _antitone(add, inv, n):
                    continue
                ok = True
                for name in constraint.require:
                    if not _IDENTITY_FNS[name](add, mul, inv, n):
                        ok = False
                        break
                if ok:
                    for name in constraint.forbid:
                        if _IDENTITY_FNS[name](add, mul, inv, n):
                            ok = False
                            break
                if not ok:
                    continue
                found.add(canonical_form(add, mul, inv, 0, 1 if n >= 2 else 0))
    return found
