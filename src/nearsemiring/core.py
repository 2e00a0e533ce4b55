"""Finite near semirings: tables, axiom profiles, induced orders, duality.

A near semiring is a finite algebra ``<R, +, ., 0, 1>`` held as explicit
operation tables over ``range(n)``, optionally carrying a unary involution
table.  Construction enforces structural validity only (shapes, entry
ranges, the involution being a permutation).  Axiom conformance is never a
construction invariant: broken candidate tables must be loadable so they
can be audited, with every failure reported as an explicit witness.

The three structure kinds (near semirings here, basic algebras and
ortholattices in varieties) each declare once, as a _Kind, their document
kind and their constants and tables in document order.  Their size, labels,
ops dict, table equality, documents, repr and pickling are derived from it
in _Structure; each class keeps only its constructor and what is its own.

All check results are deterministic: each failing clause is reported once,
with its lexicographically smallest witness tuple, and violation lists are
sorted by clause id and witness.
"""
from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """Whether a (nested) list holds a boolean, which numpy would read as 0 or 1.

    The scan goes one nesting level at a time, so no depth exhausts Python's
    stack.
    """
    level = [obj]
    while level:
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds:
            return True
        level = list(itertools.chain.from_iterable(
            v for v in level if isinstance(v, (list, tuple))))
    return False


def _as_array(obj, what: str) -> np.ndarray:
    if _has_bool(obj):
        raise DocumentError(f"{what} table entries must be integers")
    try:
        return np.asarray(obj)
    except ValueError as exc:          # ragged, or deeper than numpy's dimension limit
        raise DocumentError(f"{what} table is ragged or nested too deeply") from exc


def _as_int_array(obj, what: str) -> np.ndarray:
    arr = _as_array(obj, what)
    if arr.dtype.kind not in "iu":
        raise DocumentError(f"{what} table entries must be integers")
    return arr.astype(int)


def _binary_table(obj, n: int, what: str, stack: bool = False) -> np.ndarray:
    """An n x n table; with stack, also a (k, n, n) stack of them."""
    arr = _as_int_array(obj, what)
    if arr.shape != (n, n) and not (stack and arr.ndim == 3 and arr.shape[1:] == (n, n)):
        raise DocumentError(f"{what} table must be {n}x{n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise DocumentError(
            f"{what} entry at {tuple(int(v) for v in bad)} out of range [0, {n})"
        )
    arr.setflags(write=False)
    return arr


def _square_table(obj, what: str, stack: bool = False) -> np.ndarray:
    """A nonempty square table, or with stack a stack of them; the side is the universe's size."""
    arr = _as_array(obj, what)
    if not (arr.ndim == 2 or stack and arr.ndim == 3) or arr.shape[-1] != arr.shape[-2] \
            or arr.shape[-1] == 0:
        raise DocumentError(f"{what} table must be square and nonempty, got shape {arr.shape}")
    return _binary_table(arr, arr.shape[-1], what, stack)


def _constant(value, n: int, what: str) -> int:
    """An element given as an integer (numpy integers too, bools not) in range(n)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    if not 0 <= value < n:
        raise DocumentError(f"{what} must lie in [0, {n}), got {value}")
    return int(value)


def _constants(zero, one, n: int) -> tuple:
    """A near semiring's zero and one, distinct unless the universe has one element."""
    zero, one = _constant(zero, n, "zero"), _constant(one, n, "one")
    if n >= 2 and zero == one:
        raise DocumentError("zero and one must differ when the universe has >= 2 elements")
    return zero, one


def _needs_inv(algebra) -> None:
    if algebra.inv is None:
        raise PreconditionError(f"{algebra.name} has no involution table")


def _in_universe(structure, *elements) -> None:
    for x in elements:
        if not 0 <= x < structure.n:
            raise AlgebraError(f"element {x} out of range [0, {structure.n})")


@functools.lru_cache(maxsize=None)
def _plain_labels(n: int) -> tuple:
    return tuple(str(i) for i in range(n))


def _labels(labels, n: int) -> tuple:
    if labels is None:
        return _plain_labels(n)
    if (not isinstance(labels, (list, tuple)) or len(labels) != n
            or not all(isinstance(s, str) for s in labels) or len(set(labels)) != n):
        raise DocumentError(f"labels must be {n} distinct strings")
    return tuple(labels)


def _unary_table(obj, n: int, what: str, permutation: bool = False,
                 stack: bool = False) -> np.ndarray:
    """A table of length n; with stack, also a (k, n) stack of them."""
    arr = _as_int_array(obj, what)
    if arr.shape != (n,) and not (stack and arr.ndim == 2 and arr.shape[1] == n):
        raise DocumentError(f"{what} table must have length {n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise DocumentError(f"{what} entry out of range [0, {n})")
    if permutation and (sorted(arr.tolist()) != list(range(n)) if arr.ndim == 1
                        else (np.sort(arr, axis=-1) != np.arange(n)).any()):
        raise DocumentError(f"{what} table is not a permutation of 0..{n - 1}")
    arr.setflags(write=False)
    return arr


def relabel_table(table, p, q, arity=None) -> np.ndarray:
    """A unary or binary table after the relabelling x -> p[x], q being p's inverse.

    p and q are single permutations or (c, n) stacks of them; a stack gives
    the c relabelled tables, stacked likewise.  arity (1 or 2) defaults to
    the table's ndim; axes before the last arity ones hold a stack of tables,
    so (k, n, n) tables and (c, n) permutations give (k, c, n, n).
    """
    arity = table.ndim if arity is None else arity
    inner = table[..., q] if arity == 1 else table[..., q[..., :, None], q[..., None, :]]
    if p.ndim == 1:
        return p[inner]
    p = p.reshape((1,) * (inner.ndim - p.ndim - arity + 1) + p.shape)
    flat = inner.reshape(*inner.shape[:inner.ndim - arity], -1)
    return np.take_along_axis(p, flat, -1).reshape(inner.shape)


class _Kind(NamedTuple):
    """A structure kind, declared once.

    document names the kind in document errors.  constants and tables are
    its fields in document order, constants first; a table named in
    optional may be None, and its document may leave it out.  A document
    is of the kind whose first table it holds.  derived names the values
    ops() adds to the fields, which the structure computes from them.
    """
    document: str
    constants: tuple
    tables: tuple
    optional: tuple = ()
    derived: tuple = ()

    @property
    def fields(self) -> tuple:
        return self.constants + self.tables

    def ops(self, structure) -> dict:
        """The structure's fields and derived values by name, a missing table left out."""
        return {name: value for name in self.fields + self.derived
                if (value := getattr(structure, name)) is not None}


class _Structure:
    """What the three structure kinds share, derived from each kind's _kind declaration.

    A subclass declares its fields as slots and keeps its constructor, whose
    parameters are named after the fields.  A pickle holds the document, so
    a copy is validated again and keeps none of the kept results (see
    find_violations and kept): their keys are clauses and functions compared
    by identity, which a copy would not share.
    """

    __slots__ = ("name", "labels", "_kept", "_ops")
    _kind: _Kind

    def __new__(cls, *args, **kwargs):
        """A structure with nothing kept yet, however it is then filled in."""
        self = super().__new__(cls)
        self._kept, self._ops = {}, None
        return self

    @property
    def n(self) -> int:
        return len(self.labels)

    def label(self, x: int) -> str:
        return self.labels[x]

    def ops(self) -> dict:
        """Tables and constants by name, as the clause evaluator looks them up.

        The dict is built on the first call; every call returns a copy.
        """
        if self._ops is None:
            self._ops = self._kind.ops(self)
        return dict(self._ops)

    def __repr__(self):
        extra = "".join(f", {name}={getattr(self, name) is not None}"
                        for name in self._kind.optional)
        return f"{type(self).__name__}({self.name!r}, n={self.n}{extra})"

    def same_tables(self, other) -> bool:
        """Pointwise equality of every table and constant; a missing table equals only another."""
        pairs = ((getattr(self, name), getattr(other, name)) for name in self._kind.fields)
        return all(a is b if a is None or b is None else np.array_equal(a, b) for a, b in pairs)

    def to_document(self) -> dict:
        kind = self._kind
        doc = {"name": self.name, "size": self.n}
        doc.update((name, getattr(self, name)) for name in kind.constants)
        doc.update((name, table.tolist()) for name in kind.tables
                   if (table := getattr(self, name)) is not None)
        if self.labels != _plain_labels(self.n):
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_document(cls, doc: dict):
        """The structure a document holds, whose declared size must match its tables."""
        kind = cls._kind
        if not isinstance(doc, dict):
            raise DocumentError(f"{kind.document} document must be a JSON object")
        for key in ("name", "size") + kind.fields:
            if key not in doc and key not in kind.optional:
                raise DocumentError(f"{kind.document} document lacks required field {key!r}")
        if not isinstance(doc["name"], str):
            raise DocumentError(f"name must be a string, got {doc['name']!r}")
        n = doc["size"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DocumentError(f"size must be a positive integer, got {n!r}")
        structure = cls(**{name: doc.get(name) for name in kind.fields},
                        name=doc["name"], labels=doc.get("labels"))
        if structure.n != n:
            raise DocumentError(f"size {n} does not match the {structure.n}x{structure.n} tables")
        return structure

    def __reduce__(self):
        return type(self).from_document, (self.to_document(),)


class FiniteNearSemiring(_Structure):
    """A finite algebra <R, +, ., 0, 1> with optional involution table.

    Immutable after construction; tables are read-only numpy arrays indexed
    as ``add[x, y] == x + y`` (row = left argument).
    """

    _kind = _Kind("algebra", ("zero", "one"), ("add", "mul", "inv"), optional=("inv",))
    __slots__ = _kind.fields

    def __init__(self, add, mul, zero, one, inv=None, name="R", labels=None):
        self.add = _square_table(add, "sum")
        n = self.add.shape[0]
        self.mul = _binary_table(mul, n, "product")
        self.inv = None if inv is None else _unary_table(inv, n, "involution", permutation=True)
        self.zero, self.one = _constants(zero, one, n)
        self.name = str(name)
        self.labels = _labels(labels, n)

    @classmethod
    def _validated(cls, add, mul, zero: int, one: int, inv, name: str) -> "FiniteNearSemiring":
        """An algebra on read-only tables that a TableStack has validated, taken as they are."""
        self = cls.__new__(cls)
        self.add, self.mul, self.inv, self.zero, self.one = add, mul, inv, zero, one
        self.name, self.labels = name, _plain_labels(len(add))
        return self

    @property
    def has_inv(self) -> bool:
        return self.inv is not None

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


class TableStack:
    """k algebras of one size with the same constants, as stacked tables.

    add and mul are (k, n, n) stacks or (n, n) tables shared by all k; inv
    is None, a (k, n) stack or a shared (n,) table.  At least one table is
    a stack.  Construction validates every slice as FiniteNearSemiring
    validates one algebra, with array operations over the whole stack.
    """

    __slots__ = ("add", "mul", "inv", "zero", "one", "name", "_length")

    def __init__(self, add, mul, zero, one, inv=None, name="R"):
        self.add = _square_table(add, "sum", stack=True)
        n = self.add.shape[-1]
        self.mul = _binary_table(mul, n, "product", stack=True)
        self.inv = None if inv is None else _unary_table(
            inv, n, "involution", permutation=True, stack=True)
        lengths = {len(t) for t, arity in ((self.add, 2), (self.mul, 2), (self.inv, 1))
                   if t is not None and t.ndim > arity}
        if len(lengths) != 1:
            raise DocumentError("a table stack needs stacked tables of one length")
        self._length = lengths.pop()
        self.zero, self.one = _constants(zero, one, n)
        self.name = str(name)

    @property
    def n(self) -> int:
        return self.add.shape[-1]

    @property
    def labels(self) -> tuple:
        return _plain_labels(self.n)

    def __len__(self) -> int:
        return self._length

    def ops(self) -> dict:
        """Tables and constants by name, stacked tables keeping their stack axis."""
        return FiniteNearSemiring._kind.ops(self)

    def _tables(self, index):
        """add, mul and inv of the slices a basic or array index picks."""
        pick = lambda t, arity: t if t is None or t.ndim == arity else t[index]
        return pick(self.add, 2), pick(self.mul, 2), pick(self.inv, 1)

    def take(self, index) -> "TableStack":
        """The stack of the slices an index array or boolean mask picks, in its order."""
        add, mul, inv = self._tables(np.asarray(index))
        return TableStack(add, mul, self.zero, self.one, inv=inv, name=self.name)

    def algebra(self, i: int, name=None) -> FiniteNearSemiring:
        """Slice i as an algebra, its tables read-only views of the stack's."""
        add, mul, inv = self._tables(i)
        return FiniteNearSemiring._validated(add, mul, self.zero, self.one, inv,
                                             self.name if name is None else str(name))


def _parse_json(source, what: str = "document"):
    """The JSON value of a document's text, given as str or as bytes.

    Bytes are decoded as json.loads decodes them (UTF-8, -16 or -32).  Text
    that is not JSON, bytes in none of those encodings and nesting too deep
    for the parser raise DocumentError, what naming the document.
    """
    try:
        return json.loads(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{what} is nested too deeply to parse") from exc


def load_algebra(source) -> FiniteNearSemiring:
    """Load an algebra from a JSON document (text, bytes or an already-parsed dict)."""
    if isinstance(source, (str, bytes)):
        source = _parse_json(source)
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


# stacked algebras x grid cells of one chunk of a stacked ClauseSet.violations call
_STACK_CELLS = 1 << 18
# grid cells from which a single-table read of two independent subterms is two block
# takes on narrowed tables (_outer_read) rather than one broadcast gather
_OUTER_CELLS = 1 << 14


class ClauseSet:
    """Clauses compiled together: a subterm they share is evaluated once.

    Each variable position gets one axis of an open (broadcasting) grid, so
    a subterm's array is only as large as the variables it reads; a table
    applied straight to variables is read as a view of the table, and over
    large grids a table applied to two subterms on disjoint axes is read as
    two block takes.
    """

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        self._arity = k = max((len(c.variables) for c in self.clauses), default=0)
        self._nodes, self._parts, slots = [], [], {}
        self._axes = []                 # per node, the grid axes of the variables it reads

        def slot(term):
            if term not in slots:
                head, args = term[0], term[1:]
                if head == "var":
                    node, axes = (head, args[0], None), frozenset(args)
                else:
                    node = (head, tuple(slot(t) for t in args), _view(args, k))
                    axes = frozenset().union(*(self._axes[s] for s in node[1]))
                slots[term] = len(self._nodes)
                self._nodes.append(node)
                self._axes.append(axes)
            return slots[term]

        for c in self.clauses:
            self._parts.append(tuple(
                (slot(lhs), slot(rhs), guard and (slot(guard[0]), slot(guard[1])))
                for lhs, rhs, guard in c.parts))
        self.needs_inv = any(head == "inv" for head, _args, _view in self._nodes)
        # each table read, with its arity: a table with one axis more is a stack
        self._tables = tuple({head: len(args) for head, args, _view in self._nodes
                              if head != "var" and args}.items())
        # a binary table whose length tells padded partial tables from complete ones
        self._probe = next((head for head, arity in self._tables if arity == 2), None)

    def violations(self, ops: dict, n: int, labels=None, pinned=None, carrier=None):
        """Failing clauses by name, each as a Violation with its least witness.

        Variables range over range(n), or over the ascending carrier.
        pinned maps variable names to fixed elements; they are left out of
        the witness.  Tables padded to n+1 entries mark an unfilled cell
        with the sentinel value n: it is absorbing, and instances that
        reach it are skipped.  The equation is rendered only when
        labels are given.

        A table with one leading axis more than its arity is a stack of k
        tables, one per algebra; a table without it is shared by all k.
        When the clauses read a stacked table, the call returns a list of k
        dicts, each equal to the dict a call on that algebra's own tables
        returns, and is evaluated in chunks of at most about _STACK_CELLS
        grid cells.
        """
        for head, arity in self._tables:
            if ops[head].ndim > arity:
                if pinned is not None or carrier is not None:
                    raise AlgebraError("stacked tables take neither pinned variables nor a carrier")
                return self._stacked_violations(ops, n, labels)
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
        nodes, narrow = self._nodes, None
        if len(elems) ** (k - len(held)) >= _OUTER_CELLS:
            nodes = self._outer_nodes(held, len(elems))
            narrow = {head: _narrow(ops[head]) for head, arity in self._tables if arity == 2}
        vals = []
        for head, args, view in nodes:
            if head == "var":
                vals.append(grids[args])
            elif view is not None and views is not None:
                vals.append(view(views[head], ops))
            elif not args:
                vals.append(ops[head])
            elif len(args) == 1:
                vals.append(ops[head][vals[args[0]]])
            elif len(args) == 2:
                vals.append(ops[head][vals[args[0]], vals[args[1]]])
            else:
                vals.append(_outer_read(narrow[head], vals[args[0]], vals[args[1]], *args[2:], k))
        found = {}
        for c, parts, bad in zip(self.clauses, self._parts,
                                 _failures(self._parts, vals, sentinel, n)):
            if not np.count_nonzero(bad):
                continue
            # an axis the mask does not span stays at its least element
            point = np.unravel_index(int(bad.argmax()), bad.shape) if bad.ndim else (0,) * k
            values = [int(grids[i]) if i in held else int(elems[point[i]])
                      for i in range(len(c.variables))]
            witness = tuple(v for i, v in enumerate(values) if i not in held)
            text = None if labels is None else _render(
                c, parts, vals, point, values, ops, labels, n if sentinel else None)
            found[c.name] = Violation(c.name, witness, text)
        return found

    def _outer_nodes(self, held: set, size: int) -> list:
        """The nodes, each binary read that _outer_read serves carrying two more args.

        That is a table applied to two subterms whose free grid axes are
        disjoint, over a grid of at least _OUTER_CELLS cells; the extra args
        are the two subterms' free axes.
        """
        nodes = []
        for head, args, view in self._nodes:
            if head != "var" and len(args) == 2:
                a, b = (tuple(sorted(self._axes[s] - held)) for s in args)
                if not set(a) & set(b) and size ** (len(a) + len(b)) >= _OUTER_CELLS:
                    args = args + (a, b)
            nodes.append((head, args, view))
        return nodes

    def _stacked_violations(self, ops, n, labels) -> list:
        """violations over stacked tables: one dict per algebra of the stack.

        Every table is read by indexing, the stack axis leading the grid axes.
        """
        k = self._arity
        stacked = [head for head, arity in self._tables if ops[head].ndim > arity]
        length = len(ops[stacked[0]])
        if any(len(ops[head]) != length for head in stacked):
            raise AlgebraError("stacked tables of different lengths")
        sentinel = self._probe is not None and ops[self._probe].shape[-1] > n
        grids = [g[None] for g in _open_grid(n, k)]
        found = [{} for _ in range(length)]
        step = max(1, _STACK_CELLS // n ** k)
        for lo in range(0, length, step):
            part = {name: t[lo:lo + step] if name in stacked else t for name, t in ops.items()}
            m = len(part[stacked[0]])
            which = np.arange(m).reshape((m,) + (1,) * k)      # each value's algebra
            vals = []
            for head, args, _view in self._nodes:
                if head == "var":
                    vals.append(grids[args])
                elif not args:
                    vals.append(part[head])
                elif head in stacked:
                    vals.append(part[head][(which,) + tuple(vals[a] for a in args)])
                else:
                    vals.append(part[head][tuple(vals[a] for a in args)])
            for c, parts, bad in zip(self.clauses, self._parts,
                                     _failures(self._parts, vals, sentinel, n)):
                bad = np.broadcast_to(bad, (m,) + (bad.shape[1:] if bad.ndim else (1,) * k))
                rows = bad.reshape(m, -1)
                hits = np.flatnonzero(rows.any(axis=1))
                if not len(hits):
                    continue
                points = np.unravel_index(rows[hits].argmax(axis=1), bad.shape[1:])
                for j, s in enumerate(hits.tolist()):
                    point = tuple(int(p[j]) for p in points)
                    witness = point[:len(c.variables)]
                    text = None if labels is None else _render(
                        c, parts, vals, (s,) + point, witness, part, labels,
                        n if sentinel else None)
                    found[lo + s][c.name] = Violation(c.name, witness, text)
        return found


def _narrow(table: np.ndarray) -> np.ndarray:
    """The table in the smallest unsigned dtype that holds its entries, sentinel included."""
    if table.min() < 0:
        return table
    return table.astype(np.min_scalar_type(int(table.max())), copy=False)


def _outer_read(table, a, b, axes_a: tuple, axes_b: tuple, k: int) -> np.ndarray:
    """table[a, b] for subterm values on disjoint grid axes, as two block takes.

    The columns b are taken first and then the rows a, giving a's axes then
    b's; views put them back in grid order.
    """
    block = table[:, np.ravel(b)][np.ravel(a)]
    shape = [np.shape(a)[d] for d in axes_a] + [np.shape(b)[d] for d in axes_b]
    axes = axes_a + axes_b
    return block.reshape(shape).transpose(np.argsort(axes))[_spread(k, *axes)]


def _failures(clause_parts, vals, sentinel: bool, n: int) -> list:
    """Per clause, the grid mask of its failing instances, given every node's value."""
    masks = []
    for parts in clause_parts:
        bad = None
        for lhs, rhs, guard in parts:
            fails = vals[lhs] != vals[rhs]
            if guard:
                fails = fails & (vals[guard[0]] == vals[guard[1]])
            if sentinel:
                for side in (lhs, rhs) + (guard or ()):
                    fails = fails & (vals[side] != n)
            bad = fails if bad is None else bad | fails
        masks.append(bad)
    return masks


def _render(c: Clause, parts, vals, point, values, ops, labels, unfilled) -> str:
    """The equation of a clause failing at a grid point, its variables being values.

    unfilled is the sentinel value of padded tables, or None.  The part
    rendered is the first that fails as _failures counts it: its sides are
    filled and differ, and its guard holds.  An unfilled side renders as "?".
    """
    at = {s: int(_at(vals[s], point))
          for lhs, rhs, guard in parts for s in (lhs, rhs) + (guard or ())}
    j = next(j for j, (lhs, rhs, guard) in enumerate(parts)
             if at[lhs] != at[rhs] and (not guard or at[guard[0]] == at[guard[1]])
             and all(at[s] != unfilled for s in (lhs, rhs) + (guard or ())))
    fields = {v: labels[x] for v, x in zip(c.variables, values)}
    fields.update((name, labels[value]) for name, value in ops.items()
                  if isinstance(value, (int, np.integer)))
    for i, (lhs, rhs, _guard) in enumerate(parts):
        fields[f"lhs{i}"], fields[f"rhs{i}"] = (
            "?" if at[s] == unfilled else labels[at[s]] for s in (lhs, rhs))
    return c.render[j].format(lhs=fields[f"lhs{j}"], rhs=fields[f"rhs{j}"], **fields)


def _first_true(mask: np.ndarray):
    """Index of the first true entry in C (product) order, as a tuple of ints, or None."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


def find_violations(structure, clauses: ClauseSet, pinned=None, carrier=None) -> dict:
    """ClauseSet.violations over a structure's own tables, rendered with its labels.

    Over the whole universe, each clause's verdict (its Violation, or None
    when it passes) is kept on the structure, so a clause that checkers
    reach again (a require before a check, the near-semiring axioms of four
    profiles, a suite after its variety check) is evaluated once per
    structure.  A call evaluates only the clauses not kept yet, as one
    clause set compiled for them, and returns a fresh dict in clause order.
    This is exact because a structure's tables, constants and labels are
    read-only after construction, and a clause's least witness and rendered
    equation do not depend on the other clauses of its set.  Calls with
    pinned or carrier are evaluated every time.
    """
    if pinned is not None or carrier is not None:
        return clauses.violations(structure.ops(), structure.n, structure.labels,
                                  pinned=pinned, carrier=carrier)
    memo = structure._kept
    missing = tuple(c for c in clauses.clauses if c not in memo)
    if missing:
        subset = clauses if len(missing) == len(clauses.clauses) else _clause_subset(missing)
        found = subset.violations(structure.ops(), structure.n, structure.labels)
        for c in missing:
            memo[c] = found.get(c.name)
    return {c.name: memo[c] for c in clauses.clauses if memo[c] is not None}


@functools.lru_cache(maxsize=256)
def _clause_subset(clauses: tuple) -> ClauseSet:
    """The clause set of clauses some structure has not kept yet, compiled once."""
    return ClauseSet(clauses)


def kept(checker):
    """checker(structure, *args), computed at most once per structure and arguments.

    The result is kept in the structure's _kept slot under (checker, args),
    beside find_violations' clause verdicts, and every later call returns
    the same object; so checker must be a pure function of the structure's
    read-only tables, constants, name and labels, and its result immutable.
    An exception is not kept: a failing precondition raises again.  An
    object without the slot, such as a TableStack, is checked every time.
    """
    @functools.wraps(checker)
    def keeper(structure, *args, **kwargs):
        memo = getattr(structure, "_kept", None)
        if memo is None:
            return checker(structure, *args, **kwargs)
        key = (checker, args, tuple(kwargs.items()))
        if key not in memo:
            memo[key] = checker(structure, *args, **kwargs)
        return memo[key]
    return keeper


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


def check_axioms(algebra, profile: str):
    """Exhaustively check every clause of an axiom profile.

    Each failing clause contributes one violation, carrying the
    lexicographically smallest witness; the list is sorted by clause id
    and witness, so reports are reproducible.  A TableStack gets one report
    per slice, each equal to the report on that slice as an algebra.
    """
    if profile not in PROFILES:
        raise AlgebraError(f"unknown profile {profile!r}; known: {', '.join(sorted(PROFILES))}")
    clauses = _PROFILE_CLAUSES[profile]
    if clauses.needs_inv and algebra.inv is None:
        raise PreconditionError(
            f"profile {profile!r} requires an involution table, but {algebra.name} has none")
    if isinstance(algebra, TableStack):
        found = clauses.violations(algebra.ops(), algebra.n, algebra.labels)
        if isinstance(found, dict):          # the profile reads only shared tables
            found = [found] * len(algebra)
        return [CheckReport.of(algebra.name, profile, f.values()) for f in found]
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


@kept
def induced_order(algebra: FiniteNearSemiring, which: str = "sum") -> PartialOrderReport:
    """Order induced by sum (x<=y iff x+y=y) or by product (x<=y iff x·y=x).

    Only defined when the chosen operation is idempotent and commutative;
    otherwise raises, naming the failing witness.  A partial order is a
    join (meet) semilattice when every pair has exactly one least upper
    (greatest lower) bound; both flags are array checks over all pairs.
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
        join_sl = _bounded(leq)
        meet_sl = _bounded(leq.T)
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    leq = leq.copy()
    leq.setflags(write=False)
    return PartialOrderReport(
        subject=algebra.name, which=which, leq=leq,
        is_partial_order=is_po, is_join_semilattice=join_sl, is_meet_semilattice=meet_sl,
        bottom=int(bottoms[0]) if len(bottoms) == 1 else None,
        top=int(tops[0]) if len(tops) == 1 else None,
    )


def _bounded(leq: np.ndarray) -> bool:
    """Whether every pair {x, y} has exactly one least upper bound under leq."""
    n = len(leq)
    upper = (leq[:, None, :] & leq[None, :, :]).reshape(n * n, n)     # upper[(x, y), z]
    # an upper bound z is least when no upper bound w has z ≰ w
    least = upper & ~(upper @ ~leq.T)
    return bool(np.all(np.count_nonzero(least, axis=1) == 1))


# ---------------------------------------------------------------------------
# involution and duality


def check_involution(algebra: FiniteNearSemiring) -> CheckReport:
    """Check period two and antitonicity against the sum order."""
    _needs_inv(algebra)
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
