"""Finite near semirings: tables, axiom profiles, induced orders, duality.

A near semiring is a finite algebra ``<R, +, ., 0, 1>`` held as explicit
operation tables over ``range(n)``, optionally carrying a unary involution
table.  Construction enforces structural validity only (shapes, entry
ranges, the involution being a permutation).  Axiom conformance is never a
construction invariant: broken candidate tables must be loadable so they
can be audited, with every failure reported as an explicit witness.

All check results are deterministic: each failing clause is reported once,
with its lexicographically smallest witness tuple, and violation lists are
sorted by clause id and witness.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np


class AlgebraError(Exception):
    """Base error for this package."""


class DocumentError(AlgebraError):
    """Malformed algebra document or structurally invalid tables."""


class PreconditionError(AlgebraError):
    """An operation was invoked on an algebra outside its domain of validity."""


# ---------------------------------------------------------------------------
# data model


def _has_bool(obj) -> bool:
    """Whether a (nested) list holds a boolean, which numpy would read as 0 or 1."""
    return isinstance(obj, (bool, np.bool_)) or (
        isinstance(obj, (list, tuple)) and any(_has_bool(v) for v in obj))


def _as_array(obj, what: str) -> np.ndarray:
    if _has_bool(obj):
        raise DocumentError(f"{what} table entries must be integers")
    try:
        return np.asarray(obj)
    except ValueError as exc:          # ragged nesting
        raise DocumentError(f"{what} table is ragged") from exc


def _as_int_array(obj, what: str) -> np.ndarray:
    arr = _as_array(obj, what)
    if arr.dtype.kind not in "iu":
        raise DocumentError(f"{what} table entries must be integers")
    return arr.astype(int)


def _binary_table(obj, n: int, what: str) -> np.ndarray:
    arr = _as_int_array(obj, what)
    if arr.shape != (n, n):
        raise DocumentError(f"{what} table must be {n}x{n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise DocumentError(
            f"{what} entry at {tuple(int(v) for v in bad)} out of range [0, {n})"
        )
    arr.setflags(write=False)
    return arr


def _square_table(obj, what: str) -> np.ndarray:
    """A nonempty square table; its side is the size of the universe."""
    arr = _as_array(obj, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DocumentError(f"{what} table must be square and nonempty, got shape {arr.shape}")
    return _binary_table(arr, arr.shape[0], what)


def _constant(value, n: int, what: str) -> int:
    """An element given as an integer (numpy integers too, bools not) in range(n)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < n:
        raise DocumentError(f"{what} must lie in [0, {n}), got {value}")
    return int(value)


def _labels(labels, n: int) -> tuple:
    if labels is None:
        return tuple(str(i) for i in range(n))
    if (not isinstance(labels, (list, tuple)) or len(labels) != n
            or not all(isinstance(s, str) for s in labels) or len(set(labels)) != n):
        raise DocumentError(f"labels must be {n} distinct strings")
    return tuple(labels)


def _document_size(doc, kind: str, keys) -> int:
    """The declared size of a document holding every key, a string name and an integer size."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise DocumentError(f"{kind} document lacks required field {key!r}")
    if not isinstance(doc["name"], str):
        raise DocumentError(f"name must be a string, got {doc['name']!r}")
    n = doc["size"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"size must be a positive integer, got {n!r}")
    return n


def _sized(structure, n: int):
    """The structure, if its tables have the size its document declares."""
    if structure.n != n:
        raise DocumentError(f"size {n} does not match the {structure.n}x{structure.n} tables")
    return structure


def _unary_table(obj, n: int, what: str, permutation: bool = False) -> np.ndarray:
    arr = _as_int_array(obj, what)
    if arr.shape != (n,):
        raise DocumentError(f"{what} table must have length {n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise DocumentError(f"{what} entry out of range [0, {n})")
    if permutation and sorted(arr.tolist()) != list(range(n)):
        raise DocumentError(f"{what} table is not a permutation of 0..{n - 1}")
    arr.setflags(write=False)
    return arr


def relabel_table(table, p, q) -> np.ndarray:
    """A unary or binary table after the relabelling x -> p[x], q being p's inverse.

    p and q are single permutations or (k, n) stacks of them; a stack gives
    the k relabelled tables, stacked likewise.
    """
    inner = table[q] if np.ndim(table) == 1 else table[q[..., :, None], q[..., None, :]]
    return np.take_along_axis(p, inner.reshape(*p.shape[:-1], -1), -1).reshape(inner.shape)


class FiniteNearSemiring:
    """A finite algebra <R, +, ., 0, 1> with optional involution table.

    Immutable after construction; tables are read-only numpy arrays indexed
    as ``add[x, y] == x + y`` (row = left argument).
    """

    __slots__ = ("add", "mul", "inv", "zero", "one", "name", "labels")

    def __init__(self, add, mul, zero, one, inv=None, name="R", labels=None):
        self.add = _square_table(add, "sum")
        n = self.add.shape[0]
        self.mul = _binary_table(mul, n, "product")
        self.inv = None if inv is None else _unary_table(inv, n, "involution", permutation=True)
        self.zero = _constant(zero, n, "zero")
        self.one = _constant(one, n, "one")
        if n >= 2 and self.zero == self.one:
            raise DocumentError("zero and one must differ when the universe has >= 2 elements")
        self.name = str(name)
        self.labels = _labels(labels, n)

    @property
    def n(self) -> int:
        return self.add.shape[0]

    @property
    def has_inv(self) -> bool:
        return self.inv is not None

    def label(self, x: int) -> str:
        return self.labels[x]

    def ops(self) -> dict:
        """Tables and constants by name, as the clause evaluator looks them up."""
        ops = {"add": self.add, "mul": self.mul, "zero": self.zero, "one": self.one}
        if self.inv is not None:
            ops["inv"] = self.inv
        return ops

    def __repr__(self):
        return f"FiniteNearSemiring({self.name!r}, n={self.n}, inv={self.has_inv})"

    def same_tables(self, other: "FiniteNearSemiring") -> bool:
        """Pointwise equality of every table and both constants."""
        if self.n != other.n or self.zero != other.zero or self.one != other.one:
            return False
        if self.has_inv != other.has_inv:
            return False
        if not np.array_equal(self.add, other.add) or not np.array_equal(self.mul, other.mul):
            return False
        return self.inv is None or np.array_equal(self.inv, other.inv)

    def relabel(self, perm, name=None) -> "FiniteNearSemiring":
        """Apply a carrier permutation: element x becomes perm[x]."""
        p = _unary_table(perm, self.n, "permutation", permutation=True)
        q = np.argsort(p)
        inv = None if self.inv is None else relabel_table(self.inv, p, q)
        labels = tuple(self.labels[x] for x in q)
        return FiniteNearSemiring(
            relabel_table(self.add, p, q), relabel_table(self.mul, p, q),
            int(p[self.zero]), int(p[self.one]), inv=inv,
            name=self.name if name is None else name, labels=labels,
        )

    def to_document(self) -> dict:
        doc = {
            "name": self.name,
            "size": self.n,
            "zero": self.zero,
            "one": self.one,
            "add": self.add.tolist(),
            "mul": self.mul.tolist(),
        }
        if self.inv is not None:
            doc["inv"] = self.inv.tolist()
        if self.labels != tuple(str(i) for i in range(self.n)):
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "FiniteNearSemiring":
        n = _document_size(doc, "algebra", ("name", "size", "zero", "one", "add", "mul"))
        return _sized(cls(
            doc["add"], doc["mul"], doc["zero"], doc["one"],
            inv=doc.get("inv"), name=doc["name"], labels=doc.get("labels"),
        ), n)


def load_algebra(source) -> FiniteNearSemiring:
    """Load an algebra from a JSON document (text or already-parsed dict)."""
    if isinstance(source, (str, bytes)):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"not valid JSON: {exc}") from exc
    return FiniteNearSemiring.from_document(source)


def dump_algebra(algebra: FiniteNearSemiring) -> str:
    """Serialize an algebra to its JSON document form (deterministic)."""
    return json.dumps(algebra.to_document(), indent=1)


def product_algebra(a: FiniteNearSemiring, b: FiniteNearSemiring, name=None) -> FiniteNearSemiring:
    """Direct product with componentwise tables; pair (x, y) -> x * b.n + y."""
    if a.has_inv != b.has_inv:
        raise AlgebraError("product factors must both have, or both lack, an involution")
    na, nb = a.n, b.n
    ia, ib = np.divmod(np.arange(na * nb), nb)
    add = a.add[np.ix_(ia, ia)] * nb + b.add[np.ix_(ib, ib)]
    mul = a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]
    inv = None if a.inv is None else a.inv[ia] * nb + b.inv[ib]
    labels = tuple(f"({a.label(x)},{b.label(y)})" for x, y in zip(ia, ib))
    return FiniteNearSemiring(
        add, mul, a.zero * nb + b.zero, a.one * nb + b.one, inv=inv,
        name=name if name is not None else f"{a.name}x{b.name}", labels=labels,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Violation:
    clause: str
    witness: tuple
    equation: str

    def to_dict(self) -> dict:
        return {"clause": self.clause, "witness": list(self.witness), "equation": self.equation}


@dataclass(frozen=True)
class CheckReport:
    subject: str
    profile: str
    passed: bool
    violations: tuple
    tags: tuple = ()
    notes: tuple = ()

    @classmethod
    def of(cls, subject: str, profile: str, violations, **kwargs) -> "CheckReport":
        """A report over violations in any order; they are sorted by clause and witness."""
        violations = tuple(sorted(violations, key=lambda v: (v.clause, v.witness)))
        return cls(subject, profile, not violations, violations, **kwargs)

    def tag(self, key: str):
        for k, v in self.tags:
            if k == key:
                return v
        return None

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "profile": self.profile,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "tags": {k: v for k, v in self.tags},
            "notes": list(self.notes),
        }

    def render(self) -> str:
        head = f"check {self.subject}: profile={self.profile} " + ("PASS" if self.passed else "FAIL")
        lines = [head]
        for v in self.violations:
            lines.append(f"  {v.clause}: {v.equation}  witness={v.witness}")
        for k, val in self.tags:
            lines.append(f"  tag {k}: {val}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    counterexample: tuple = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "passed": self.passed,
            "counterexample": None if self.counterexample is None else list(self.counterexample),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PropertyReport:
    subject: str
    suite: str
    clauses: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "suite": self.suite,
            "passed": self.passed,
            "clauses": [c.to_dict() for c in self.clauses],
        }

    def render(self) -> str:
        lines = [f"suite {self.suite} on {self.subject}: " + ("PASS" if self.passed else "FAIL")]
        for c in self.clauses:
            status = "ok" if c.passed else "FAIL"
            extra = f"  {c.detail}" if c.detail else ""
            lines.append(f"  {c.clause}: {status}{extra}")
        return "\n".join(lines)


# identical shape; kept as a named alias for congruence-term reports
WitnessTermReport = PropertyReport


# ---------------------------------------------------------------------------
# clauses as data
#
# A term is a tuple: ("var", i) is the clause's i-th variable, (name,) a named
# constant and (name, a) or (name, a, b) an operation table applied to
# subterms.  Constants and tables are looked up by name in an ops dict, so
# the same evaluator serves near semirings (add, mul, inv, zero, one), basic
# algebras (oplus, neg) and lattices (join, meet, ortho).


def _op(name):
    return lambda *args: (name, *args)


X, Y, Z, U, W = (("var", i) for i in range(5))
ZERO, ONE = ("zero",), ("one",)
_add, _mul, _inv = _op("add"), _op("mul"), _op("inv")


@dataclass(frozen=True, eq=False)
class Clause:
    """An equational clause: each part lhs = rhs must hold wherever its guard holds.

    parts holds (lhs, rhs, guard) triples, guard being None or an equation
    (lhs, rhs), as in "x≤y ⇒ …".  render holds one str.format template per
    part, filled with the labels of the variables ({x}), of the constants
    ({zero}), of the failing part's sides ({lhs}, {rhs}) and of every
    part's sides ({lhs0}, {rhs1}, …).
    """
    name: str
    variables: tuple
    parts: tuple
    render: tuple


def clause(name: str, variables, *parts, render) -> Clause:
    """A Clause from (lhs, rhs) or (lhs, rhs, guard) parts; one str render serves all parts."""
    parts = tuple(p if len(p) == 3 else (*p, None) for p in parts)
    if isinstance(render, str):
        render = (render,) * len(parts)
    return Clause(name, tuple(variables), parts, tuple(render))


@functools.lru_cache(maxsize=None)
def _open_grid(n: int, k: int) -> tuple:
    return tuple(np.arange(n).reshape((1,) * i + (n,) + (1,) * (k - i - 1)) for i in range(k))


def _spread(k: int, *axes) -> tuple:
    """Basic index placing a table's axes on the given grid axes (ascending)."""
    return tuple(slice(None) if d in axes else None for d in range(k))


def _view(args, k: int):
    """A table applied straight to variables or constants, as a view of the table.

    Returns a function of (table, ops), or None when an argument is compound.
    """
    if len(args) != 2 or any(a[0] != "var" and len(a) > 1 for a in args):
        return None
    (a, b) = args
    if a[0] == b[0] == "var":
        i, j = a[1], b[1]
        if i == j:
            spread = _spread(k, i)
            return lambda t, ops: t.diagonal()[spread]
        spread = _spread(k, i, j)
        if i < j:
            return lambda t, ops: t[spread]
        return lambda t, ops: t.T[spread]
    if a[0] == "var":
        spread = _spread(k, a[1])
        return lambda t, ops: t[:, ops[b[0]]][spread]
    if b[0] == "var":
        spread = _spread(k, b[1])
        return lambda t, ops: t[ops[a[0]]][spread]
    return None


def _at(value, point):
    """Entry of an open-grid value at a grid point."""
    shape = getattr(value, "shape", ())
    return value[tuple(p if s > 1 else 0 for p, s in zip(point, shape))] if shape else value


class ClauseSet:
    """Clauses compiled together: a subterm they share is evaluated once.

    Each variable position gets one axis of an open (broadcasting) grid, so
    a subterm's array is only as large as the variables it reads; a table
    applied straight to variables is read as a view of the table.
    """

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        self._arity = k = max((len(c.variables) for c in self.clauses), default=0)
        self._nodes, self._parts, slots = [], [], {}

        def slot(term):
            if term not in slots:
                head, args = term[0], term[1:]
                if head == "var":
                    node = (head, args[0], None)
                else:
                    node = (head, tuple(slot(t) for t in args), _view(args, k))
                slots[term] = len(self._nodes)
                self._nodes.append(node)
            return slots[term]

        for c in self.clauses:
            self._parts.append(tuple(
                (slot(lhs), slot(rhs), guard and (slot(guard[0]), slot(guard[1])))
                for lhs, rhs, guard in c.parts))
        self.needs_inv = any(head == "inv" for head, _args, _view in self._nodes)
        # a binary table whose length tells padded partial tables from complete ones
        self._probe = next((head for head, args, _view in self._nodes
                            if head != "var" and len(args) == 2), None)

    def violations(self, ops: dict, n: int, labels=None, pinned=None, carrier=None) -> dict:
        """Failing clauses by name, each as a Violation with its least witness.

        Variables range over range(n), or over the ascending carrier.
        pinned maps variable names to fixed elements; they are left out of
        the witness.  Tables padded to n+1 entries mark an unfilled cell
        with the sentinel value n: it is absorbing, and instances that
        reach it are skipped.  The equation is rendered only when
        labels are given.
        """
        k = self._arity
        if carrier is None:
            elems, grids = range(n), list(_open_grid(n, k))
        else:
            elems = np.asarray(carrier, dtype=int)
            grids = [elems.reshape((1,) * i + (-1,) + (1,) * (k - i - 1)) for i in range(k)]
        held = set()
        for name, value in (pinned or {}).items():
            where = {c.variables.index(name) if name in c.variables else None for c in self.clauses}
            if len(where) != 1 or None in where:
                raise AlgebraError(f"cannot pin {name!r}: not at one position in every clause")
            pos = where.pop()
            held.add(pos)
            grids[pos] = value
        sentinel = self._probe is not None and len(ops[self._probe]) > n
        # views read the tables over the grid itself, without padding
        views = None if held or carrier is not None else ops if not sentinel else {
            name: t[:n, :n] if np.ndim(t) == 2 else t for name, t in ops.items()}
        vals = []
        for head, args, view in self._nodes:
            if head == "var":
                vals.append(grids[args])
            elif view is not None and views is not None:
                vals.append(view(views[head], ops))
            elif not args:
                vals.append(ops[head])
            elif len(args) == 1:
                vals.append(ops[head][vals[args[0]]])
            else:
                vals.append(ops[head][vals[args[0]], vals[args[1]]])
        found = {}
        for c, parts in zip(self.clauses, self._parts):
            bad = None
            for lhs, rhs, guard in parts:
                fails = vals[lhs] != vals[rhs]
                if guard:
                    fails = fails & (vals[guard[0]] == vals[guard[1]])
                if sentinel:
                    for side in (lhs, rhs) + (guard or ()):
                        fails = fails & (vals[side] != n)
                bad = fails if bad is None else bad | fails
            if not np.count_nonzero(bad):
                continue
            # an axis the mask does not span stays at its least element
            point = np.unravel_index(int(bad.argmax()), bad.shape) if bad.ndim else (0,) * k
            values = [int(grids[i]) if i in held else int(elems[point[i]])
                      for i in range(len(c.variables))]
            witness = tuple(v for i, v in enumerate(values) if i not in held)
            text = None
            if labels is not None:
                at = {s: int(_at(vals[s], point))
                      for lhs, rhs, guard in parts for s in (lhs, rhs) + (guard or ())}
                j = next(j for j, (lhs, rhs, guard) in enumerate(parts) if at[lhs] != at[rhs]
                         and (not guard or at[guard[0]] == at[guard[1]]))
                fields = {v: labels[x] for v, x in zip(c.variables, values)}
                fields.update((name, labels[value]) for name, value in ops.items()
                              if isinstance(value, (int, np.integer)))
                for i, (lhs, rhs, _guard) in enumerate(parts):
                    fields[f"lhs{i}"], fields[f"rhs{i}"] = labels[at[lhs]], labels[at[rhs]]
                text = c.render[j].format(lhs=fields[f"lhs{j}"], rhs=fields[f"rhs{j}"], **fields)
            found[c.name] = Violation(c.name, witness, text)
        return found


def find_violations(structure, clauses: ClauseSet, **kwargs) -> dict:
    """ClauseSet.violations over a structure's own tables, rendered with its labels."""
    return clauses.violations(structure.ops(), structure.n, structure.labels, **kwargs)


def clause_results(clauses: ClauseSet, found: dict) -> list:
    """One ClauseResult per clause of a property suite, from its violations."""
    out = []
    for c in clauses.clauses:
        v = found.get(c.name)
        out.append(ClauseResult(c.name, True) if v is None
                   else ClauseResult(c.name, False, v.witness, v.equation))
    return out


# ---------------------------------------------------------------------------
# axiom profiles

_AXIOMS = {c.name: c for c in (
    clause("add-associativity", "xyz", (_add(_add(X, Y), Z), _add(X, _add(Y, Z))),
           render="({x}+{y})+{z}={lhs} but {x}+({y}+{z})={rhs}"),
    clause("add-commutativity", "xy", (_add(X, Y), _add(Y, X)),
           render="{x}+{y}={lhs} but {y}+{x}={rhs}"),
    clause("add-neutral", "x", (_add(ZERO, X), X), (_add(X, ZERO), X),
           render=("{zero}+{x}={lhs}", "{x}+{zero}={lhs}")),
    clause("add-idempotence", "x", (_add(X, X), X), render="{x}+{x}={lhs}"),
    clause("mul-unit", "x", (_mul(X, ONE), X), (_mul(ONE, X), X),
           render=("{x}·{one}={lhs}", "{one}·{x}={lhs}")),
    clause("annihilation", "x", (_mul(X, ZERO), ZERO), (_mul(ZERO, X), ZERO),
           render=("{x}·{zero}={lhs}", "{zero}·{x}={lhs}")),
    clause("right-distributivity", "xyz", (_mul(_add(X, Y), Z), _add(_mul(X, Z), _mul(Y, Z))),
           render="({x}+{y})·{z}={lhs} but ({x}·{z})+({y}·{z})={rhs}"),
    clause("left-distributivity", "xyz", (_mul(X, _add(Y, Z)), _add(_mul(X, Y), _mul(X, Z))),
           render="{x}·({y}+{z})={lhs} but ({x}·{y})+({x}·{z})={rhs}"),
    clause("mul-associativity", "xyz", (_mul(_mul(X, Y), Z), _mul(X, _mul(Y, Z))),
           render="({x}·{y})·{z}={lhs} but {x}·({y}·{z})={rhs}"),
    clause("mul-commutativity", "xy", (_mul(X, Y), _mul(Y, X)),
           render="{x}·{y}={lhs} but {y}·{x}={rhs}"),
    clause("integrality", "x", (_add(X, ONE), ONE), render="{x}+{one}={lhs}"),
    clause("involution-period-two", "x", (_inv(_inv(X)), X), render="α(α({x}))={lhs}"),
    # x <= y (sum relation) must force α(y) <= α(x)
    clause("involution-antitone", "xy", (_add(_inv(Y), _inv(X)), _inv(X), (_add(X, Y), Y)),
           render="{x}≤{y} but α({y})≰α({x})"),
)}

# closed identities over {+, ·, α, 0, 1}: the search catalog, also used by the checkers
IDENTITIES = {c.name: c for c in (
    clause("lukasiewicz", "xy",
           (_mul(_inv(_mul(X, _inv(Y))), _inv(Y)), _mul(_inv(_mul(Y, _inv(X))), _inv(X))),
           render="α({x}·α({y}))·α({y})={lhs} but α({y}·α({x}))·α({x})={rhs}"),
    clause("orthomodular", "xy", (X, _mul(X, _add(X, Y))), render="{x}·({x}+{y})={rhs}"),
    clause("mv-semiring", "xy", (_add(X, Y), _inv(_mul(_inv(X), _inv(_mul(_inv(X), Y))))),
           render="{x}+{y}≠α(α({x})·α(α({x})·{y}))"),
    # e = X, then x, y = Y, Z: (e·α(x))+(α(e)·α(y)) = α((e·x)+(α(e)·y))
    clause("central-1", "exy",
           (_add(_mul(X, _inv(Y)), _mul(_inv(X), _inv(Z))),
            _inv(_add(_mul(X, Y), _mul(_inv(X), Z)))),
           render="({e}·α({x}))+(α({e})·α({y}))={lhs} but α(({e}·{x})+(α({e})·{y}))={rhs}"),
    # e = X, then x, z, y, u = Y, Z, U, W:
    # (e·(x·z))+(α(e)·(y·u)) = ((e·x)+(α(e)·y))·((e·z)+(α(e)·u))
    clause("central-2", "exzyu",
           (_add(_mul(X, _mul(Y, Z)), _mul(_inv(X), _mul(U, W))),
            _mul(_add(_mul(X, Y), _mul(_inv(X), U)), _add(_mul(X, Z), _mul(_inv(X), W)))),
           render="({e}·({x}·{z}))+(α({e})·({y}·{u}))={lhs} but "
                  "(({e}·{x})+(α({e})·{y}))·(({e}·{z})+(α({e})·{u}))={rhs}"),
)}

_NEAR_SEMIRING = (
    "add-associativity", "add-commutativity", "add-neutral",
    "mul-unit", "right-distributivity", "annihilation",
)

PROFILES = {
    "near-semiring": _NEAR_SEMIRING,
    "idempotent-add": ("add-idempotence",),
    "commutative-mul": ("mul-commutativity",),
    "associative-mul": ("mul-associativity",),
    "integral": ("integrality",),
    "semiring": _NEAR_SEMIRING + ("mul-associativity", "left-distributivity"),
    "involutive": _NEAR_SEMIRING + (
        "add-idempotence", "involution-period-two", "involution-antitone"),
    "involutive-integral": _NEAR_SEMIRING + (
        "add-idempotence", "involution-period-two", "involution-antitone", "integrality"),
}
_PROFILE_CLAUSES = {p: ClauseSet(_AXIOMS[c] for c in cs) for p, cs in PROFILES.items()}
_INVOLUTION = ClauseSet(_AXIOMS[c] for c in ("involution-period-two", "involution-antitone"))


def check_axioms(algebra: FiniteNearSemiring, profile: str) -> CheckReport:
    """Exhaustively check every clause of an axiom profile.

    Each failing clause contributes one violation, carrying the
    lexicographically smallest witness; the list is sorted by clause id
    and witness, so reports are reproducible.
    """
    if profile not in PROFILES:
        raise AlgebraError(f"unknown profile {profile!r}; known: {', '.join(sorted(PROFILES))}")
    clauses = _PROFILE_CLAUSES[profile]
    if clauses.needs_inv and algebra.inv is None:
        raise PreconditionError(
            f"profile {profile!r} requires an involution table, but {algebra.name} has none")
    return CheckReport.of(algebra.name, profile, find_violations(algebra, clauses).values())


def require(algebra: FiniteNearSemiring, profile: str, context: str = "") -> None:
    """Raise PreconditionError unless the algebra passes the given profile."""
    report = check_axioms(algebra, profile)
    if not report.passed:
        v = report.violations[0]
        where = f" ({context})" if context else ""
        raise PreconditionError(
            f"{algebra.name} fails profile {profile!r}{where}: {v.clause}: {v.equation}")


# ---------------------------------------------------------------------------
# induced orders


def hasse_edges(leq) -> tuple:
    """Covering pairs (x, y) of a partial order given as a boolean matrix, row-major."""
    leq = np.asarray(leq, dtype=bool)
    lt = leq & ~np.eye(len(leq), dtype=bool)
    return tuple((int(x), int(y)) for x, y in np.argwhere(lt & ~(lt @ lt)))


@dataclass(frozen=True, eq=False)
class PartialOrderReport:
    subject: str
    which: str
    leq: np.ndarray = field(repr=False)
    is_partial_order: bool
    is_join_semilattice: bool
    is_meet_semilattice: bool
    bottom: int
    top: int

    def covers(self) -> tuple:
        """Hasse edges (x, y): y covers x."""
        return hasse_edges(self.leq)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "which": self.which,
            "leq": self.leq.astype(int).tolist(),
            "is_partial_order": self.is_partial_order,
            "is_join_semilattice": self.is_join_semilattice,
            "is_meet_semilattice": self.is_meet_semilattice,
            "bottom": self.bottom,
            "top": self.top,
        }


def induced_order(algebra: FiniteNearSemiring, which: str = "sum") -> PartialOrderReport:
    """Order induced by sum (x<=y iff x+y=y) or by product (x<=y iff x·y=x).

    Only defined when the chosen operation is idempotent and commutative;
    otherwise raises, naming the failing witness.
    """
    if which == "sum":
        table, rel = algebra.add, "sum"
        sym = "+"
    elif which == "mul":
        table, rel = algebra.mul, "product"
        sym = "·"
    else:
        raise AlgebraError(f"which must be 'sum' or 'mul', got {which!r}")
    l = algebra.label
    for x in range(algebra.n):
        if table[x, x] != x:
            raise PreconditionError(
                f"{rel} order undefined for {algebra.name}: {rel} is not idempotent "
                f"({l(x)}{sym}{l(x)}={l(int(table[x, x]))})")
    asym = np.argwhere(table != table.T)
    if asym.size:
        x, y = (int(v) for v in asym[0])
        raise PreconditionError(
            f"{rel} order undefined for {algebra.name}: {rel} is not commutative "
            f"({l(x)}{sym}{l(y)}={l(int(table[x, y]))} but {l(y)}{sym}{l(x)}={l(int(table[y, x]))})")
    n = algebra.n
    if which == "sum":
        leq = table == np.arange(n)[None, :]
    else:
        leq = table == np.arange(n)[:, None]
    antisym = not np.any(leq & leq.T & ~np.eye(n, dtype=bool))
    transitive = not np.any((leq @ leq) & ~leq)
    is_po = bool(antisym and transitive)
    join_sl = meet_sl = False
    if is_po:
        join_sl = all(_bound(leq, x, y, upper=True) is not None
                      for x in range(n) for y in range(n))
        meet_sl = all(_bound(leq, x, y, upper=False) is not None
                      for x in range(n) for y in range(n))
    bottoms = [x for x in range(n) if leq[x].all()]
    tops = [x for x in range(n) if leq[:, x].all()]
    leq = leq.copy()
    leq.setflags(write=False)
    return PartialOrderReport(
        subject=algebra.name, which=which, leq=leq,
        is_partial_order=is_po, is_join_semilattice=join_sl, is_meet_semilattice=meet_sl,
        bottom=bottoms[0] if len(bottoms) == 1 else None,
        top=tops[0] if len(tops) == 1 else None,
    )


def _bound(leq: np.ndarray, x: int, y: int, upper: bool):
    """Least upper / greatest lower bound of {x, y} in a partial order, or None."""
    n = leq.shape[0]
    if upper:
        cands = [z for z in range(n) if leq[x, z] and leq[y, z]]
        best = [z for z in cands if all(leq[z, w] for w in cands)]
    else:
        cands = [z for z in range(n) if leq[z, x] and leq[z, y]]
        best = [z for z in cands if all(leq[w, z] for w in cands)]
    return best[0] if len(best) == 1 else None


# ---------------------------------------------------------------------------
# involution and duality


def check_involution(algebra: FiniteNearSemiring) -> CheckReport:
    """Check period two and antitonicity against the sum order."""
    if algebra.inv is None:
        raise PreconditionError(f"{algebra.name} has no involution table")
    order = induced_order(algebra, "sum")
    if not order.is_partial_order:
        raise PreconditionError(
            f"sum relation of {algebra.name} is not a partial order; involution undefined")
    violations = find_violations(algebra, _INVOLUTION).values()
    return CheckReport.of(algebra.name, "involution", violations)


def dual_algebra(algebra: FiniteNearSemiring) -> FiniteNearSemiring:
    """The dual algebra: x+'y = α(α(x)+α(y)), x·'y = α(α(x)·α(y)), constants α(0), α(1)."""
    rep = check_involution(algebra)
    if not rep.passed:
        v = rep.violations[0]
        raise PreconditionError(
            f"{algebra.name} has no valid involution: {v.clause}: {v.equation}")
    inv = algebra.inv
    add = inv[algebra.add[np.ix_(inv, inv)]]
    mul = inv[algebra.mul[np.ix_(inv, inv)]]
    dual = FiniteNearSemiring(
        add, mul, int(inv[algebra.zero]), int(inv[algebra.one]), inv=inv,
        name=f"dual({algebra.name})", labels=algebra.labels,
    )
    # both required by construction; re-verified rather than assumed
    if not check_axioms(dual, "involutive").passed:
        raise AlgebraError(f"dual of {algebra.name} fails the involutive profile")
    back_add = inv[dual.add[np.ix_(inv, inv)]]
    back_mul = inv[dual.mul[np.ix_(inv, inv)]]
    if not (np.array_equal(back_add, algebra.add) and np.array_equal(back_mul, algebra.mul)):
        raise AlgebraError(f"duality identities fail for {algebra.name}")
    return dual


_MONOTONE = ClauseSet([clause(
    "mul-right-monotone", "xyz", (_add(_mul(X, Z), _mul(Y, Z)), _mul(Y, Z), (_add(X, Y), Y)),
    render="{x}≤{y} but {x}·{z}≰{y}·{z}")])
_CORE_SUITE = ClauseSet(_MONOTONE.clauses + (clause(
    "inv-sum-absorption", "xy", (_add(_inv(_add(X, Y)), _inv(X)), _inv(X)),
    render="α({x}+{y})+α({x})≠α({x})"),))


def core_property_suite(algebra: FiniteNearSemiring) -> PropertyReport:
    """Arithmetical facts every near semiring (with involution) must satisfy.

    Clauses: right-multiplication is monotone for the sum relation; the
    involution absorbs sums, α(x+y)+α(x)=α(x); and integrality holds exactly
    when α(0)=1 (a biconditional of the two verdicts).
    """
    require(algebra, "near-semiring")
    add, n, l = algebra.add, algebra.n, algebra.label
    if algebra.inv is None:
        clauses = clause_results(_MONOTONE, find_violations(algebra, _MONOTONE))
        clauses.append(ClauseResult("inv-sum-absorption", True, detail="skipped: no involution"))
        clauses.append(ClauseResult("integral-iff-inv-zero-is-one", True,
                                    detail="skipped: no involution"))
    else:
        clauses = clause_results(_CORE_SUITE, find_violations(algebra, _CORE_SUITE))
        inv = algebra.inv
        integral = check_axioms(algebra, "integral").passed
        inv_zero_is_one = bool(inv[algebra.zero] == algebra.one)
        if integral == inv_zero_is_one:
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", True,
                detail=f"both sides {'hold' if integral else 'fail'}: "
                       f"α({l(algebra.zero)})={l(int(inv[algebra.zero]))}"))
        elif integral:
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", False, (algebra.zero,),
                f"integral but α({l(algebra.zero)})={l(int(inv[algebra.zero]))}≠{l(algebra.one)}"))
        else:
            x = next(x for x in range(n) if add[x, algebra.one] != algebra.one)
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", False, (x,),
                f"α({l(algebra.zero)})={l(algebra.one)} but {l(x)}+{l(algebra.one)}≠{l(algebra.one)}"))
    return PropertyReport(algebra.name, "core", tuple(clauses))
