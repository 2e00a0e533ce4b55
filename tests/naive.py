"""Generate-and-filter oracle for small model enumeration, and loop forms of checks.

Deliberately independent of the search module: every raw table is
generated, filtered by direct clause loops, and only then quotiented by
isomorphism with a canonical form written over plain lists, without numpy
or the package's relabelling.  Feasible for n <= 3 only.  The congruence,
lattice and term checks are loops over plain lists; the full-conditions
centrality check reads numpy tables with index arrays over whole grids.
The depth-first sum-table and product-table generators are the search's
former ones, kept as the oracles of its breadth-first stacked generators.
first_violation is the clause engine's loop form; it can pin variables and
range them over a carrier, which the package expresses as named constants
and subalgebras.  order_failure and homomorphism_failure are the former loops
of the induced orders' preconditions and of the interval projections.
"""
from collections import Counter
from itertools import permutations, product

import numpy as np

from nearsemiring.core import _AXIOMS, PROFILES, Clause, ClauseSet, Violation


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


def dfs_add_tables(n, idempotent, integral):
    """Commutative-monoid tables (zero=0 neutral, optional extras), depth first, each
    partial table checked by one single-table add-associativity call."""
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
    assoc = ClauseSet([_AXIOMS["add-associativity"]])
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


def dfs_product_tables(n, prunes, add, invs, columns):
    """One sum table's completed (mul, inv) tables in DFS order, one partial table at a time.

    For each involution (None without one), the product columns are filled in
    the search's column order, each taking its candidates in turn, and every
    partial table is checked by one single-table call per prune clause, in
    order.  Returns the leaves, the nodes (one per involution and per column
    tried) and the rows pruned by each clause, the first one they fail.
    """
    compiled = [ClauseSet([c]) for c in prunes]
    padded_add = np.pad(add, (0, 1), constant_values=n)
    leaves, nodes, pruned = [], 0, Counter(dict.fromkeys((c.name for c in prunes), 0))
    for inv in invs:
        nodes += 1
        order = []          # middle columns, dual pairs adjacent when inv is given
        for z in range(2, n):
            order += [w for w in dict.fromkeys((z, z if inv is None else int(inv[z])))
                      if w not in order]
        ops = {"add": padded_add, "mul": np.full((n + 1, n + 1), n)}
        if inv is not None:
            ops["inv"] = np.append(inv, n)
        mul = ops["mul"]
        mul[:n, 0] = mul[0, :n] = 0
        if n >= 2:
            mul[:n, 1] = mul[1, :n] = np.arange(n)

        def passes():
            for c in compiled:
                if c.violations(ops, n):
                    pruned[c.clauses[0].name] += 1
                    return False
            return True

        def dfs(i):
            nonlocal nodes
            if i == len(order):
                leaves.append((mul[:n, :n].tolist(), None if inv is None else list(inv)))
                return
            z = order[i]
            saved = mul[:n, z].copy()
            for col in columns[z]:
                nodes += 1
                mul[:n, z] = col
                if passes():
                    dfs(i + 1)
            mul[:n, z] = saved

        if order or passes():
            dfs(0)
    return leaves, nodes, pruned


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


def _canonical_blocks(raw):
    """Block ids renumbered in first-occurrence order."""
    remap = {}
    return [remap.setdefault(b, len(remap)) for b in raw]


def _compose(p, q):
    """Relation of p∘q as a boolean matrix: x p y q z for some y."""
    n = len(p)
    return [[any(p[x] == p[y] and q[y] == q[z] for y in range(n)) for z in range(n)]
            for x in range(n)]


def _render_blocks(p):
    classes = [[x for x in range(len(p)) if p[x] == b] for b in range(max(p) + 1)]
    return "|".join("{" + ",".join(str(x) for x in cls) + "}" for cls in classes)


def lattice_properties(cons):
    """(clause, passed, counterexample, detail) for the permutability and the
    distributivity of a congruence lattice, given as block lists, by loops over
    all pairs and all triples."""
    cons = [list(c) for c in cons]
    l = len(cons)
    meet = lambda p, q: _canonical_blocks(zip(p, q))
    out = [("congruences-permute", True, None, f"{l} congruences")]
    for p, q in product(cons, repeat=2):
        if _compose(p, q) != _compose(q, p):
            out[0] = ("congruences-permute", False, (cons.index(p), cons.index(q)),
                      f"{_render_blocks(p)} and {_render_blocks(q)} do not permute")
            break
    out.append(("congruence-lattice-distributive", True, None, f"{l ** 3} triples"))
    for p, q, r in product(cons, repeat=3):
        if meet(p, join_blocks(q, r)) != join_blocks(meet(p, q), meet(p, r)):
            out[1] = ("congruence-lattice-distributive", False,
                      (cons.index(p), cons.index(q), cons.index(r)), "distributivity fails")
            break
    return out


def is_central_full_conditions(algebra, e):
    """The selector conditions of centrality, read with np.indices arrays over
    the whole n³ and n⁴ grids."""
    add, mul, inv, n = algebra.add, algebra.mul, algebra.inv, algebra.n
    zero, one = algebra.zero, algebra.one
    ie = int(inv[e])

    def q(x, y, z):
        return add[mul[x, y], mul[inv[x], z]]

    a = np.arange(n)
    if not np.array_equal(q(e, a, a), a):
        return False
    qe = add[np.ix_(mul[e], mul[ie])]
    a3, b3, c3 = np.indices((n, n, n)).reshape(3, -1)
    if not np.array_equal(qe[qe[a3, b3], c3], qe[a3, c3]):
        return False
    if not np.array_equal(qe[a3, c3], qe[a3, qe[b3, c3]]):
        return False
    if add[mul[e, zero], mul[ie, zero]] != zero:
        return False
    if add[mul[e, one], mul[ie, one]] != one:
        return False
    a2, b2 = np.indices((n, n)).reshape(2, -1)
    if not np.array_equal(qe[inv[a2], inv[b2]], inv[qe[a2, b2]]):
        return False
    a4, b4, c4, d4 = np.indices((n, n, n, n)).reshape(4, -1)
    if not np.array_equal(qe[add[a4, c4], add[b4, d4]], add[qe[a4, b4], qe[c4, d4]]):
        return False
    if not np.array_equal(qe[mul[a4, c4], mul[b4, d4]], mul[qe[a4, b4], qe[c4, d4]]):
        return False
    return int(q(e, one, zero)) == e


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


def bound(leq, x, y, upper):
    """The one least upper (greatest lower) bound of {x, y} under leq, or None."""
    n = len(leq)
    if upper:
        cands = [z for z in range(n) if leq[x][z] and leq[y][z]]
        best = [z for z in cands if all(leq[z][w] for w in cands)]
    else:
        cands = [z for z in range(n) if leq[z][x] and leq[z][y]]
        best = [z for z in cands if all(leq[w][z] for w in cands)]
    return best[0] if len(best) == 1 else None


def first_non_lub(rel, jt):
    """First (x, y) where jt[x][y] is not an upper bound of x, y below all their upper bounds."""
    n = len(rel)
    for x, y in product(range(n), repeat=2):
        j = jt[x][y]
        ub = [z for z in range(n) if rel[x][z] and rel[y][z]]
        if not (rel[x][j] and rel[y][j] and all(rel[j][z] for z in ub)):
            return (x, y)
    return None


def first_non_glb(rel, jt, neg):
    """First (x, y) where the de Morgan meet (x'∨y')' is not their greatest lower bound."""
    n = len(rel)
    for x, y in product(range(n), repeat=2):
        m = neg[jt[neg[x]][neg[y]]]
        lb = [z for z in range(n) if rel[z][x] and rel[z][y]]
        if not (rel[m][x] and rel[m][y] and all(rel[z][m] for z in lb)):
            return (x, y)
    return None


def basic_axiom_failures(oplus, neg, zero, labels):
    """(witness, text) by clause for the failing basic-algebra axioms BA1-BA4, each at its
    first instance in product order."""
    n, one, l = len(oplus), neg[zero], labels

    def join(x, y):
        return oplus[neg[oplus[neg[x]][y]]][y]

    def ba4(x, y, z):
        return oplus[neg[oplus[neg[oplus[neg[oplus[x][y]]][y]]][z]]][oplus[x][z]]

    checks = (
        ("BA1", 1, lambda x: oplus[x][zero] != x,
         lambda x: f"{l[x]}⊕{l[zero]}={l[oplus[x][zero]]}"),
        ("BA2", 1, lambda x: neg[neg[x]] != x, lambda x: f"{l[x]}''={l[neg[neg[x]]]}"),
        ("BA3", 2, lambda x, y: join(x, y) != join(y, x),
         lambda x, y: f"({l[x]}'⊕{l[y]})'⊕{l[y]}≠({l[y]}'⊕{l[x]})'⊕{l[x]}"),
        ("BA4", 3, lambda x, y, z: ba4(x, y, z) != one,
         lambda x, y, z: f"((({l[x]}⊕{l[y]})'⊕{l[y]})'⊕{l[z]})'⊕({l[x]}⊕{l[z]})≠{l[one]}"))
    found = {}
    for name, arity, fails, text in checks:
        w = next((w for w in product(range(n), repeat=arity) if fails(*w)), None)
        if w is not None:
            found[name] = (w, text(*w))
    return found


def basic_order_failures(oplus, neg, zero, labels):
    """(witness, text) by clause for the order checks of a basic algebra, x ≤ y iff x'⊕y = 1:
    order-partial-order, order-bounds, order-join-consistent, order-join-lub and
    order-meet-glb, each found by a loop."""
    n, one = len(oplus), neg[zero]
    rel = [[oplus[neg[x]][y] == one for y in range(n)] for x in range(n)]
    jt = [[oplus[neg[oplus[neg[x]][y]]][y] for y in range(n)] for x in range(n)]
    pairs = list(product(range(n), repeat=2))
    irreflexive = [(x, x) for x in range(n) if not rel[x][x]]
    antisymmetric = [(x, y) for x, y in pairs if x != y and rel[x][y] and rel[y][x]]
    transitive = [(x, z) for x, z in pairs
                  if not rel[x][z] and any(rel[x][y] and rel[y][z] for y in range(n))]
    found = {}
    if irreflexive:
        x = irreflexive[0][0]
        found["order-partial-order"] = (irreflexive[0],
                                        f"relation x'⊕y=1 is not reflexive at {labels[x]}")
    elif antisymmetric:
        found["order-partial-order"] = (antisymmetric[0], "relation x'⊕y=1 is not antisymmetric")
    elif transitive:
        found["order-partial-order"] = (transitive[0], "relation x'⊕y=1 is not transitive")
    for x in range(n):
        if not rel[zero][x] or not rel[x][one]:
            found["order-bounds"] = (
                (x,), f"{labels[zero]},{labels[one]} are not bottom/top at {labels[x]}")
            break
    for x, y in pairs:
        if (oplus[neg[oplus[neg[x]][y]]][y] == y) != rel[x][y]:
            found["order-join-consistent"] = (
                (x, y), f"join term and relation disagree at ({labels[x]},{labels[y]})")
            break
    if (w := first_non_lub(rel, jt)) is not None:
        found["order-join-lub"] = (
            w, f"({labels[w[0]]}'⊕{labels[w[1]]})'⊕{labels[w[1]]} is not the lub")
    if (w := first_non_glb(rel, jt, neg)) is not None:
        found["order-meet-glb"] = (w, "de Morgan meet is not the glb")
    return found


def regularity_failure(add, mul, inv):
    """First (x, y, z) where "t1 = t2 = z iff x = y" fails.

    t1 = d+z and t2 = α(d)·z, with d = x·α(y) + y·α(x).
    """
    n = len(add)
    for x, y, z in product(range(n), repeat=3):
        d = add[mul[x][inv[y]]][mul[y][inv[x]]]
        if (add[d][z] == z and mul[inv[d]][z] == z) != (x == y):
            return (x, y, z)
    return None


def oml_commutation(jn, mt, oc, labels):
    """The commutation suite's clauses by loops over lists: (clause, passed, witness, detail).

    aCb iff a = (a∧b)∨(a∧b').  Each clause reports its first failing tuple in
    product order; restricted distributivity, when it passes, the number of
    commuting triples it checked.
    """
    n = len(jn)

    def commutes(a, b):
        return jn[mt[a][b]][mt[a][oc[b]]] == a

    out = []
    for name, fails, text in (
            ("commutation-symmetric", lambda a, b: commutes(a, b) and not commutes(b, a),
             "{a}C{b} but not {b}C{a}"),
            ("comparable-commute", lambda a, b: jn[a][b] == b and not commutes(a, b),
             "{a}≤{b} but not {a}C{b}"),
            ("commute-with-complement", lambda a, b: commutes(a, b) and not commutes(a, oc[b]),
             "{a}C{b} but not {a}C{b}'")):
        w = next(((a, b) for a, b in product(range(n), repeat=2) if fails(a, b)), None)
        out.append((name, True, None, "") if w is None else
                   (name, False, w, text.format(a=labels[w[0]], b=labels[w[1]])))
    first, hits = None, 0
    for a, b, c in product(range(n), repeat=3):
        if commutes(a, c) and commutes(b, c):
            hits += 1
            ok = (mt[jn[a][b]][c] == jn[mt[a][c]][mt[b][c]]
                  and jn[mt[a][b]][c] == mt[jn[a][c]][jn[b][c]])
            if not ok and first is None:
                first = (a, b, c)
    out.append(("restricted-distributivity", True, None, f"checked {hits} commuting triples")
               if first is None else ("restricted-distributivity", False, first,
                                      "distributivity fails at ({},{},{})".format(
                                          *(labels[x] for x in first))))
    return out


def _entry(table, args):
    for i in args:
        table = table[i]
    return table


def table_mismatches(pairs, verbose):
    """(op, args, expected, actual) per differing cell, the first per table unless verbose."""
    out = []
    for op, orig, back in pairs:
        if not isinstance(orig, list):
            if orig != back:
                out.append((op, (), orig, back))
            continue
        shape = (len(orig),) * (2 if isinstance(orig[0], list) else 1)
        for args in product(*map(range, shape)):
            if _entry(orig, args) != _entry(back, args):
                out.append((op, args, _entry(orig, args), _entry(back, args)))
                if not verbose:
                    break
    return sorted(out, key=lambda m: (m[0], m[1]))


def first_violation(identity, add, mul, inv, filled, n, pinned=None, carrier=None,
                    constants=None, labels=None):
    """The first instance in product order where a part's sides differ while its guards
    hold, skipping instances that read an unfilled cell, as a Violation; None if none.

    Variables range over the carrier (range(n) by default); pinned ones are
    held and left out of the witness.  constants maps names to elements, by
    default zero to 0 and one to min(n-1, 1).  The equation is rendered, an
    unfilled side as "?", only when labels are given.
    """
    pinned = pinned or {}
    constants = constants or {"zero": 0, "one": min(n - 1, 1)}

    def value(term, point):
        head = term[0]
        if head == "var":
            return point[term[1]]
        if head in constants:
            return constants[head]
        args = [value(t, point) for t in term[1:]]
        if any(a is None for a in args):
            return None
        if head == "inv":
            return int(inv[args[0]])
        if head == "mul" and not filled[args[0], args[1]]:
            return None
        return int((add if head == "add" else mul)[args[0], args[1]])

    free = [v for v in identity.variables if v not in pinned]
    for witness in product(range(n) if carrier is None else carrier, repeat=len(free)):
        at = dict(zip(free, witness)) | pinned
        point = [at[v] for v in identity.variables]
        for j, (lhs, rhs, guards) in enumerate(identity.parts):
            sides = [value(t, point) for t in (lhs, rhs) + sum(guards, ())]
            if None not in sides and sides[0] != sides[1] and sides[2::2] == sides[3::2]:
                if labels is None:
                    return Violation(identity.name, witness, None)
                fields = {v: labels[x] for v, x in (at | constants).items()}
                for i, (left, right, _guards) in enumerate(identity.parts):
                    fields[f"lhs{i}"], fields[f"rhs{i}"] = (
                        "?" if x is None else labels[x] for x in (value(left, point),
                                                                  value(right, point)))
                return Violation(identity.name, witness, identity.render[j].format(
                    lhs=fields[f"lhs{j}"], rhs=fields[f"rhs{j}"], **fields))
    return None


def constant_first(c):
    """The clause with its first variable read as a named constant of the same name,
    the other variables numbered down by one: pinning that variable, as a constant."""
    def term(t):
        if t[0] == "var":
            return (c.variables[0],) if t[1] == 0 else ("var", t[1] - 1)
        return (t[0], *map(term, t[1:]))
    parts = tuple((term(lhs), term(rhs), tuple((term(a), term(b)) for a, b in guards))
                  for lhs, rhs, guards in c.parts)
    return Clause(c.name, c.variables[1:], parts, c.render)


def order_failure(table, which, name, labels):
    """Why the sum (which="sum") or product order of a table is undefined, or None.

    Idempotence is checked first, at the least x, then commutativity at the
    least (x, y) in product order.
    """
    rel, sym = ("sum", "+") if which == "sum" else ("product", "·")
    n = len(table)
    for x in range(n):
        if table[x][x] != x:
            return (f"{rel} order undefined for {name}: {rel} is not idempotent "
                    f"({labels[x]}{sym}{labels[x]}={labels[table[x][x]]})")
    for x, y in product(range(n), repeat=2):
        if table[x][y] != table[y][x]:
            return (f"{rel} order undefined for {name}: {rel} is not commutative "
                    f"({labels[x]}{sym}{labels[y]}={labels[table[x][y]]} but "
                    f"{labels[y]}{sym}{labels[x]}={labels[table[y][x]]})")
    return None


def homomorphism_failure(add, mul, inv, zero, one, h, target, labels):
    """The first failure of b -> h[b] as a homomorphism onto target, or None.

    target maps add, mul, inv, zero and one to the target's tables and
    constants.  The operations fail first, at the least (x, y) in product
    order, then the complement at the least x, then the constants; the
    result is (clause, witness, text) with the clause names of
    center._HOMOMORPHISM.
    """
    n = len(add)
    for x, y in product(range(n), repeat=2):
        if h[add[x][y]] != target["add"][h[x]][h[y]] or \
                h[mul[x][y]] != target["mul"][h[x]][h[y]]:
            return "operations", (x, y), f"is not a homomorphism at ({labels[x]},{labels[y]})"
    for x in range(n):
        if h[inv[x]] != target["inv"][h[x]]:
            return "complement", (x,), f"does not respect the complement at {labels[x]}"
    if h[zero] != target["zero"] or h[one] != target["one"]:
        return "constants", (), "moves the constants"
    return None
