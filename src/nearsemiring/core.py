"""Finite near semirings: tables, axiom profiles, induced orders, duality.

A near semiring is a finite algebra ``<R, +, ., 0, 1>`` held as explicit
operation tables over ``range(n)``, optionally carrying a unary involution
table.  A kind's constructor, which reads what comes from outside (documents,
hand-entered tables, user calls), enforces structural validity only (shapes,
entry ranges, the involution being a permutation).  Axiom conformance is
never a construction invariant: broken candidate tables must be loadable so
they can be audited, with every failure reported as an explicit witness.

The three structure kinds (near semirings here, basic algebras and
ortholattices in varieties) each declare once, as a _Kind, their document
kind, their constants and tables in document order and which tables are
unary.  Their size, labels, ops dict, table equality, documents, repr,
pickling, relabelling primitive (_transport) and the trusted build of every
derived structure (_built, which checks only labels) come from it in
_Structure; each class keeps only its validating constructor and its own.
A TableStack of near semirings has no validating constructor: it reads
the same declaration and shares _transport and _built.

All check results are deterministic: each failing clause is reported once,
with its lexicographically smallest witness tuple, and violation lists are
sorted by clause id and witness.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
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


def _binary_table(obj, n: int, what: str) -> np.ndarray:
    """An n x n table."""
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
    """A nonempty square table; its side is the universe's size."""
    arr = _as_array(obj, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DocumentError(f"{what} table must be square and nonempty, got shape {arr.shape}")
    return _binary_table(arr, arr.shape[0], what)


def _integer(value) -> bool:
    """Whether value is an integer: a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _constant(value, n: int, what: str) -> int:
    """An element given as an integer in range(n)."""
    if not _integer(value):
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
    """Each element an integer in range(n)."""
    for x in elements:
        if not _integer(x):
            raise AlgebraError(f"element {x!r} is not an integer")
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


def _unary_table(obj, n: int, what: str, permutation: bool = False) -> np.ndarray:
    """A table of length n."""
    arr = _as_int_array(obj, what)
    if arr.shape != (n,):
        raise DocumentError(f"{what} table must have length {n}, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise DocumentError(f"{what} entry out of range [0, {n})")
    if permutation and sorted(arr.tolist()) != list(range(n)):
        raise DocumentError(f"{what} table is not a permutation of 0..{n - 1}")
    arr.setflags(write=False)
    return arr


def relabel_table(table, p, q, arity=None) -> np.ndarray:
    """A unary or binary table read at q and mapped through p: p[t[q[i]]] or p[t[q[i], q[j]]].

    With p a permutation and q its inverse, that is the relabelling x -> p[x].  p and q
    are single vectors or (c, n) stacks of them, a stack giving c tables stacked likewise.
    arity (1 or 2) defaults to the table's ndim; axes before the last arity ones hold a
    stack of tables, so (k, n, n) tables and (c, n) permutations give (k, c, n, n).
    """
    arity = table.ndim if arity is None else arity
    inner = table[..., q] if arity == 1 else table[..., q[..., :, None], q[..., None, :]]
    if p.ndim == 1:
        return p[inner]
    return p[np.arange(len(p)).reshape(-1, *(1,) * arity), inner]


class _Kind(NamedTuple):
    """A structure kind, declared once.

    document names the kind in document errors.  constants and tables are
    its fields in document order, constants first; unary names the tables
    of one argument, the others taking two.  A table named in optional may
    be None, and its document may leave it out.  A document is of the kind
    whose first table it holds.  derived names the values ops() adds to the
    fields, which the structure computes from them.
    """
    document: str
    constants: tuple
    tables: tuple
    unary: tuple = ()
    optional: tuple = ()
    derived: tuple = ()

    @property
    def fields(self) -> tuple:
        return self.constants + self.tables

    def arity(self, table: str) -> int:
        return 1 if table in self.unary else 2

    def ops(self, structure) -> dict:
        """The structure's fields and derived values by name, a missing table left out."""
        return {name: value for name in self.fields + self.derived
                if (value := getattr(structure, name)) is not None}


class _Declared:
    """What a structure and a TableStack share, read through the _kind declaration."""

    __slots__ = ("name", "labels")
    _kind: _Kind

    @property
    def n(self) -> int:
        return len(self.labels)

    def _transport(self, f, s) -> dict:
        """The fields, by name, of the structure whose element i stands for s[i] (an int array):
        each table read at s and mapped through f by relabel_table, each constant mapped
        through f, a missing table left None.  Relabelling by p is f = p at s = p's inverse."""
        kind = self._kind
        fields = {name: int(f[getattr(self, name)]) for name in kind.constants}
        for name in kind.tables:
            t = getattr(self, name)
            fields[name] = t if t is None else relabel_table(t, f, s, kind.arity(name))
        return fields

    @classmethod
    def _built(cls, fields: dict, name, labels):
        """The structure on every declared field, valid by construction (as _transport gives
        them), taken as given: tables made read-only, only the labels (which can collide) checked."""
        self = cls.__new__(cls)
        for key in cls._kind.fields:
            setattr(self, key, fields[key])
            if isinstance(fields[key], np.ndarray):
                fields[key].setflags(write=False)
        self.name = str(name)
        self.labels = _labels(labels, fields[cls._kind.tables[0]].shape[-1])
        return self


class _Structure(_Declared):
    """What the three structure kinds share, derived from each kind's _kind declaration.

    A subclass declares its fields as slots and keeps its constructor, whose
    parameters are named after the fields.  A pickle holds the document, so
    a copy is validated again and keeps none of the kept results (see
    find_violations and kept): their keys are clauses and functions compared
    by identity, which a copy would not share.
    """

    __slots__ = ("_kept", "_ops")

    def __new__(cls, *args, **kwargs):
        """A structure with nothing kept yet, however it is then filled in."""
        self = super().__new__(cls)
        self._kept, self._ops = {}, None
        return self

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

    def relabel(self, perm, name=None):
        """Apply a carrier permutation: element x becomes perm[x]."""
        p = _unary_table(perm, self.n, "permutation", permutation=True)
        q = np.argsort(p)
        return self._built(self._transport(p, q), self.name if name is None else name,
                           tuple(self.labels[x] for x in q))

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
        """The structure a document holds, whose declared size must match its tables.

        Besides the kind's fields, a document may hold only a name, a size, labels and a
        comment (as `nsr fixtures emit` writes); any other key is refused.
        """
        kind = cls._kind
        if not isinstance(doc, dict):
            raise DocumentError(f"{kind.document} document must be a JSON object")
        for key in ("name", "size") + kind.fields:
            if key not in doc and key not in kind.optional:
                raise DocumentError(f"{kind.document} document lacks required field {key!r}")
        for key in doc:
            if key not in ("name", "size", "labels", "comment") + kind.fields:
                raise DocumentError(f"{kind.document} document has unknown field {key!r}")
        if not isinstance(doc["name"], str):
            raise DocumentError(f"name must be a string, got {doc['name']!r}")
        n = doc["size"]
        if not _integer(n) or n < 1:
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

    _kind = _Kind("algebra", ("zero", "one"), ("add", "mul", "inv"), unary=("inv",),
                  optional=("inv",))
    __slots__ = _kind.fields

    def __init__(self, add, mul, zero, one, inv=None, name="R", labels=None):
        self.add = _square_table(add, "sum")
        n = self.add.shape[0]
        self.mul = _binary_table(mul, n, "product")
        self.inv = None if inv is None else _unary_table(inv, n, "involution", permutation=True)
        self.zero, self.one = _constants(zero, one, n)
        self.name = str(name)
        self.labels = _labels(labels, n)

    @property
    def has_inv(self) -> bool:
        return self.inv is not None


_LINES = 4096                   # items per chunk of TableStack.json_lines


class TableStack(_Declared, Sequence):
    """k near semirings of one size and constants, as stacked tables: a read-only sequence.

    A table is a stack of k, with axes before its declared arity's, or one
    table shared by all k; at least one is a stack.  Item i is slice i as an
    algebra named name.format(i) with plain labels, built when read.  From
    outside, of stacks algebras; the search builds by _built.
    """

    _kind = FiniteNearSemiring._kind
    __slots__ = _kind.fields

    @classmethod
    def of(cls, algebras, name="R") -> "TableStack":
        """Validated algebras of one size, constants and signature, each table stacked."""
        algebras, kind = tuple(algebras), cls._kind
        if not algebras or not all(isinstance(a, FiniteNearSemiring) for a in algebras):
            raise AlgebraError("a table stack needs one or more FiniteNearSemiring algebras")

        def signature(a):
            return (a.n, *(getattr(a, c) for c in kind.constants),
                    *(getattr(a, t) is None for t in kind.optional))

        if len(set(map(signature, algebras))) > 1:
            raise AlgebraError("a table stack needs algebras of one size, constants and signature")
        try:
            str(name).format(0)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise AlgebraError(
                f"a table stack's name must format an item index, got {name!r}") from exc
        fields = {c: getattr(algebras[0], c) for c in kind.constants}
        fields.update((t, None if getattr(algebras[0], t) is None
                       else np.stack([getattr(a, t) for a in algebras])) for t in kind.tables)
        return cls._built(fields, name, None)

    def _stacked(self) -> list:
        """The names of the tables with a stack axis."""
        kind = self._kind
        return [name for name in kind.tables
                if (t := getattr(self, name)) is not None and t.ndim > kind.arity(name)]

    def __len__(self) -> int:
        return len(getattr(self, self._stacked()[0]))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self.algebra(range(len(self))[i])        # IndexError when out of range

    def ops(self) -> dict:
        """Tables and constants by name, stacked tables keeping their stack axis."""
        return self._kind.ops(self)

    def _fields(self, index) -> dict:
        """The fields, by name, of the slices a basic or array index picks."""
        fields = {name: getattr(self, name) for name in self._kind.fields}
        return fields | {name: fields[name][index] for name in self._stacked()}

    def take(self, index) -> "TableStack":
        """The stack of the slices an index array or boolean mask picks, in its order."""
        index = np.asarray(index)
        if not index.size and index.dtype == float:     # np.asarray([]) is float64
            index = index.astype(np.intp)
        return self._built(self._fields(index), self.name, None)

    def algebra(self, i: int, name=None) -> FiniteNearSemiring:
        """Slice i as an algebra named name, by default name.format(i); its tables are
        read-only views of the stack's."""
        return FiniteNearSemiring._built(
            self._fields(i), self.name.format(i) if name is None else name, None)

    def json_lines(self):
        """Each item's json.dumps(item.to_document()) and a newline, joined in chunks of
        _LINES items; below n = 16 no document is built, and each distinct table row is
        written once by its base-n code, which from n = 16 would overflow int64."""
        n, k, kind = self.n, len(self), self._kind
        if n ** n > np.iinfo(np.int64).max:
            for lo in range(0, k, _LINES):
                yield "".join(json.dumps(a.to_document()) + "\n" for a in self[lo:lo + _LINES])
            return
        tables = {name: np.broadcast_to(t, (k,) + (n,) * kind.arity(name))
                  for name in kind.tables if (t := getattr(self, name)) is not None}
        fields = ['"name": %s', f'"size": {n}'] + [
            f'"{name}": {getattr(self, name)}' for name in kind.constants] + [
            f'"{name}": ' + ("%s" if kind.arity(name) == 1 else f"[{', '.join(['%s'] * n)}]")
            for name in tables]
        line = "{" + ", ".join(fields) + "}\n"
        # a row's code is the number its entries are the base-n digits of
        weights = n ** np.arange(n)
        codes = np.concatenate([(t[:, None] if kind.arity(name) == 1 else t) @ weights
                                for name, t in tables.items()], axis=1)
        distinct, which = np.unique(codes, return_inverse=True)
        tokens = np.array([f"[{', '.join(map(str, row))}]"
                           for row in (distinct[:, None] // weights % n).tolist()], dtype=object)
        name = json.dumps(self.name)        # json escapes no brace: it formats as the name does
        for lo in range(0, k, _LINES):
            cells = tokens[which.reshape(codes.shape)[lo:lo + _LINES]].tolist()
            yield "".join(line % (name.format(i), *row)
                          for i, row in enumerate(cells, lo))


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


def product_algebra(a, b, name=None):
    """Direct product of two structures of one kind, componentwise; pair (x, y) -> x * b.n + y."""
    kind = a._kind
    if type(b) is not type(a):
        raise AlgebraError(f"cannot multiply a {type(a).__name__} by a {type(b).__name__}")
    if any((getattr(a, t) is None) != (getattr(b, t) is None) for t in kind.optional):
        raise AlgebraError("product factors must both have, or both lack, an involution")
    nb = b.n
    ia, ib = np.divmod(np.arange(a.n * nb), nb)
    fields = {c: getattr(a, c) * nb + getattr(b, c) for c in kind.constants}
    fields.update((t, ta if ta is None else ta[np.ix_(*[ia] * ta.ndim)] * nb
                   + getattr(b, t)[np.ix_(*[ib] * ta.ndim)])
                  for t in kind.tables for ta in [getattr(a, t)])
    labels = tuple(f"({a.label(x)},{b.label(y)})" for x, y in zip(ia, ib))
    return a._built(fields, name if name is not None else f"{a.name}x{b.name}", labels)


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
    """An equational clause: each part lhs = rhs must hold wherever all its guards hold.

    parts holds (lhs, rhs, guards) triples, guards being a tuple of equations
    (lhs, rhs) that must all hold, as in "x≤z ∧ y≤z ⇒ …".  render holds one
    str.format template per part, filled with the labels of the variables
    ({x}), of the constants ({zero}), of the failing part's sides ({lhs},
    {rhs}) and of every part's sides ({lhs0}, {rhs1}, …).
    """
    name: str
    variables: tuple
    parts: tuple
    render: tuple


def clause(name: str, variables, *parts, render) -> Clause:
    """A Clause from (lhs, rhs, *guards) parts; one str render serves all parts."""
    parts = tuple((lhs, rhs, tuple(guards)) for lhs, rhs, *guards in parts)
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
    """Entry of an open-grid value at a grid point, aligned on the point's last axes."""
    shape = getattr(value, "shape", ())
    if not shape:
        return value
    return value[tuple(p if s > 1 else 0 for p, s in zip(point[-len(shape):], shape))]


# grid cells of one chunk of a ClauseSet.violations call: stacked algebras x grid cells, or
# one slab of a single algebra's grid
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
    two block takes.  A stacked table is read with the stack index (slot 0 of
    a call's values) as its first index; only values that read one get a stack axis.

    A call runs in chunks of at most _STACK_CELLS cells: slices of its stack,
    or for one algebra slabs of its grid's leading variables, visited in C
    order until every clause has its least witness.

    A call that reads a stacked table reads every table applied to subterms
    as one 1-D take on the table narrowed (_narrow) and raveled in C order,
    once per chunk, at Σ value·stride in np.intp, the strides being those of
    the table's C-order shape.  It relies on every entry being below its
    table's side, as in validated tables, the search's own and padded ones
    (whose sentinel n sits on a side of n+1): for an entry out of range on
    one axis a take reads another cell rather than raise.
    """

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        self._arity = k = max((len(c.variables) for c in self.clauses), default=0)
        self._nodes, slots = [], {}
        self._axes = [frozenset()]      # per slot, the grid axes of the variables it reads

        def slot(term):
            if term not in slots:
                head, args = term[0], term[1:]
                if head == "var":
                    node, axes = (head, args[0], None), frozenset(args)
                else:
                    node = (head, tuple(slot(t) for t in args), _view(args, k))
                    axes = frozenset().union(*(self._axes[s] for s in node[1]))
                self._nodes.append(node)
                self._axes.append(axes)
                slots[term] = len(self._nodes)
            return slots[term]

        # (index, clause, parts) per clause, each part's sides and guards as slots
        self._checks = tuple((i, c, tuple(
            (slot(lhs), slot(rhs), tuple((slot(a), slot(b)) for a, b in guards))
            for lhs, rhs, guards in c.parts)) for i, c in enumerate(self.clauses))
        # per slot, the least grid axis it reads (k when none): a call on slabs that cut the
        # first c axes evaluates a slot in every slab when that axis is below c
        self._first = [min(axes, default=k) for axes in self._axes]
        self.needs_inv = any(head == "inv" for head, _args, _view in self._nodes)
        # each table read, with its arity: a table with one axis more is a stack
        self._tables = tuple({head: len(args) for head, args, _view in self._nodes
                              if head != "var" and args}.items())
        self._viewed = tuple({head for head, _args, view in self._nodes if view is not None})
        # a binary table whose length tells padded partial tables from complete ones
        self._probe = next((head for head, arity in self._tables if arity == 2), None)

    def violations(self, ops: dict, n: int, labels=None, mask=False):
        """Failing clauses by name, each as a Violation with its least witness.

        Variables range over range(n).  A fixed element, such as the e of
        the centrality identities, is a named constant of ops, looked up as
        zero and one are.  Tables padded to n+1 entries mark an unfilled
        cell with the sentinel value n: it is absorbing, and instances that
        reach it are skipped.  The equation is rendered only when labels
        are given.

        A table with one leading axis more than its arity is a stack of k
        tables, one per algebra; a table without it is shared by all k.
        When the clauses read a stacked table, the call returns a list of k
        dicts, each equal to the dict the same call on that algebra's own
        tables returns.  Its reads are flat takes (see ClauseSet), so every
        entry must be below its table's side.

        Either call is evaluated in chunks of at most about _STACK_CELLS
        grid cells: a stacked call in slices of its stack, a call on one
        algebra in slabs of its grid's leading variables (_slabs).  A
        subterm that reads no cut variable is evaluated once per call.  The
        slabs are visited in C order, so a clause's least witness lies in
        the first slab it fails in, and the call stops once every clause
        has one.

        With mask, the call returns only whether some clause fails: a bool,
        or for stacked tables a (k,) bool array, and finds no witness.  On
        one algebra it stops at the first failing slab.
        """
        k = self._arity
        grids = _open_grid(n, k)
        stacked = [head for head, arity in self._tables if ops[head].ndim > arity]
        sentinel = self._probe is not None and ops[self._probe].shape[-1] > n
        unfilled = n if sentinel else None
        # views read the shared tables over the grid itself, without padding
        views = ops if not sentinel else {
            head: ops[head][:n, :n] for head in self._viewed if head not in stacked}
        cells = n ** k
        nodes = self._nodes
        if stacked or cells >= _OUTER_CELLS:
            nodes = self._call_nodes(n, stacked)
        narrow = cells >= _OUTER_CELLS and {head: _narrow(ops[head]) for head, arity in self._tables
                                            if arity == 2 and head not in stacked}
        strides = {}                    # C-order, of all axes but the last (1), per table read

        def fill(vals, part, which, flat, cut=0):
            """vals, which holds slot 0, with each node's value appended in slot order.  A
            node that reads one of the first cut grid axes, other than a variable or a view,
            is left None: a call on slabs reads it per slab."""
            first = self._first
            for slot, (head, args, view) in enumerate(nodes, 1):
                if head == "var":
                    vals.append(grids[args])
                elif view is not None:
                    vals.append(view(views[head], ops))
                elif first[slot] < cut:
                    vals.append(None)
                elif not args:
                    vals.append(ops[head])
                elif which is not None and len(args) <= 3:   # one take, at Σ value·stride
                    index = vals[args[-1]]
                    for a, w in zip(args, strides[head]):
                        index = np.multiply(vals[a], w, dtype=np.intp) + index
                    vals.append(flat[head][index])
                elif len(args) == 1:
                    vals.append(part[head][vals[args[0]]])
                elif len(args) == 2:
                    vals.append(part[head][vals[args[0]], vals[args[1]]])
                else:
                    vals.append(_outer_read(narrow[head], vals[args[0]], vals[args[1]],
                                            *args[2:], k))
            return vals

        if not stacked:
            cut, slabs = _slabs(n, k) if cells > _STACK_CELLS else (0, ((None, (0,) * k),))
            # read once per call: every value that reads no cut variable, and each variable's
            # and view's over the whole grid
            whole = fill([None], ops, None, None, cut)
            slabbed = [(slot, node) for slot, node in enumerate(nodes, 1)
                       if self._first[slot] < cut] if cut else ()
            halves = {}                 # per outer read, the take of a side that no slab cuts
            found, checks = {}, self._checks
            for index, start in slabs:
                vals = list(whole) if slabbed else whole
                for slot, (head, args, view) in slabbed:
                    if head == "var" or view is not None:   # sliced to the slab
                        axes = self._axes[slot]
                        vals[slot] = whole[slot][tuple(s if d in axes else slice(None)
                                                       for d, s in enumerate(index))]
                    elif len(args) == 4:
                        a, b = args[:2]
                        if slot not in halves:
                            halves[slot] = {}
                            if self._first[b] >= cut:
                                halves[slot]["columns"] = np.take(narrow[head], np.ravel(vals[b]),
                                                                  axis=1)
                            elif self._first[a] >= cut:
                                halves[slot]["rows"] = narrow[head][np.ravel(vals[a])]
                        vals[slot] = _outer_read(narrow[head], vals[a], vals[b], *args[2:], k,
                                                 **halves[slot])
                    else:
                        vals[slot] = ops[head][tuple(vals[a] for a in args)]
                for i, c, parts, bad in _failures(checks, vals, unfilled):
                    if mask:
                        return True
                    # the least failing point of the slab; unspanned axes at their least element
                    point = (tuple(map(int, np.unravel_index(int(bad.argmax()), bad.shape)))
                             if bad.ndim else (0,) * k)
                    where = tuple(p + s for p, s in zip(point, start)) if cut else point
                    witness = where[:len(c.variables)]
                    text = None if labels is None else _render(
                        c, parts, vals, point, witness, ops, labels, unfilled)
                    found[i] = Violation(c.name, witness, text)
                if cut and found:       # the clauses still without a witness
                    checks = [check for check in checks if check[0] not in found]
                    if not checks:
                        break
            if mask:
                return False
            # in clause order: a later clause may have failed in an earlier slab
            return {v.clause: v for _i, v in sorted(found.items())} if found else {}

        length = len(ops[stacked[0]])
        if any(len(ops[head]) != length for head in stacked):
            raise AlgebraError("stacked tables of different lengths")
        step = max(1, _STACK_CELLS // cells)
        strides.update({head: [math.prod(shape[d + 1:]) for d in range(len(shape) - 1)]
                        for head, args, view in nodes if head != "var" and view is None
                        and 1 <= len(args) <= 3 for shape in [ops[head].shape]})
        found = []
        for lo in range(0, length, step):
            part = {name: t[lo:lo + step] if name in stacked else t for name, t in ops.items()}
            which = np.arange(min(step, length - lo)).reshape((-1,) + (1,) * k)
            flat = {head: _narrow(part[head]).ravel() for head in strides}
            vals = fill([which], part, which, flat)
            out = np.zeros(len(which), dtype=bool) if mask else [{} for _ in range(len(which))]
            for _i, c, parts, bad in _failures(self._checks, vals, unfilled):
                grid = bad.shape[bad.ndim - k:] if bad.ndim else (1,) * k
                # a mask without the stack axis holds in every algebra
                rows = np.broadcast_to(bad, (len(out),) + grid).reshape(len(out), -1)
                hit = rows.any(axis=1)
                if mask:
                    out |= hit
                    continue
                # each failing algebra's least failing point; unspanned axes at their least element
                hits = np.flatnonzero(hit).tolist()
                firsts = zip(hits, zip(*(p.tolist() for p in np.unravel_index(
                    rows[hits].argmax(axis=1), grid))) if k else itertools.repeat(()))
                for s, point in firsts:
                    witness = point[:len(c.variables)]
                    text = None if labels is None else _render(
                        c, parts, vals, (s, *point), witness, part, labels, unfilled)
                    out[s][c.name] = Violation(c.name, witness, text)
            found += [out] if mask else out
        if mask:                        # an empty stack has no chunk
            return np.concatenate(found or [np.zeros(0, bool)])
        return found

    def _call_nodes(self, size: int, stacked) -> list:
        """The nodes as one call reads them, size being the elements per grid axis.

        A stacked table's read takes slot 0 as its first arg, and no view.  A
        shared table applied to two subterms that read no stacked table, with
        disjoint grid axes spanning at least _OUTER_CELLS cells, takes those
        axes as two more args, for _outer_read.
        """
        nodes, varying = [], {0}
        for slot, (head, args, view) in enumerate(self._nodes, 1):
            if head != "var":
                if head in stacked:
                    args, view = (0,) + args, None
                if stacked and varying.intersection(args):
                    varying.add(slot)
                elif len(args) == 2:
                    a, b = (tuple(sorted(self._axes[s])) for s in args)
                    if not set(a) & set(b) and size ** (len(a) + len(b)) >= _OUTER_CELLS:
                        args = args + (a, b)
            nodes.append((head, args, view))
        return nodes


def _slabs(n: int, k: int) -> tuple:
    """The grid range(n)**k, of more than _STACK_CELLS cells, as slabs of at most that many,
    as (cut, slabs).

    The slabs cut the first cut axes: each of those before the last at one
    value, the last in runs of values, and the axes after it whole, so a
    slab is a run of the grid in C order.  slabs yields them in C order,
    each as (index, start): a basic index of k slices and the slab's least
    point.
    """
    cut = 1
    while cut < k and n ** (k - cut) > _STACK_CELLS:
        cut += 1
    step = max(1, _STACK_CELLS // n ** (k - cut))
    rest = (slice(None),) * (k - cut)
    return cut, ((tuple(slice(x, x + 1) for x in head) + (slice(lo, lo + step),) + rest,
                  head + (lo,) + (0,) * (k - cut))
                 for head in itertools.product(range(n), repeat=cut - 1)
                 for lo in range(0, n, step))


def _failures(checks, vals, unfilled):
    """(index, clause, parts, mask) for each of the checks, (index, clause, parts) triples,
    whose clause fails somewhere in vals.  The mask holds where a part's sides differ and
    its guards hold, and no side reads the sentinel unfilled (None when the tables have none);
    it is a bool where every side is a constant."""
    for i, c, parts in checks:
        bad = None
        for lhs, rhs, guards in parts:
            fails = vals[lhs] != vals[rhs]
            for a, b in guards:
                fails = fails & (vals[a] == vals[b])
            if unfilled is not None:
                for side in (lhs, rhs) + sum(guards, ()):
                    fails = fails & (vals[side] != unfilled)
            bad = fails if bad is None else bad | fails
        if np.count_nonzero(bad):
            yield i, c, parts, np.asarray(bad)


def _narrow(table: np.ndarray) -> np.ndarray:
    """The table, whose entries are not negative, in the smallest unsigned dtype that holds
    them, sentinel included."""
    return table.astype(np.min_scalar_type(int(table.max())), copy=False)


def _outer_read(table, a, b, axes_a: tuple, axes_b: tuple, k: int,
                rows=None, columns=None) -> np.ndarray:
    """table[a, b] for subterm values on disjoint grid axes, as two block takes.

    The columns b are taken first and then the rows a, giving a's axes then
    b's; views put them back in grid order.  The columns are a np.take along
    axis 1, which returns a C-order block: table[:, idx] returns an F-order
    one, whose row take then copies an element at a time, several times
    slower on a million-cell read.

    A call on slabs takes a side that reads no cut variable once: given the
    rows table[np.ravel(a)], the columns b are taken from them; given the
    columns, only the rows a are taken.
    """
    if rows is not None:
        block = np.take(rows, np.ravel(b), axis=1)
    else:
        if columns is None:
            columns = np.take(table, np.ravel(b), axis=1)
        block = columns[np.ravel(a)]
    shape = [np.shape(a)[d] for d in axes_a] + [np.shape(b)[d] for d in axes_b]
    axes = axes_a + axes_b
    return block.reshape(shape).transpose(np.argsort(axes))[_spread(k, *axes)]


def _render(c: Clause, parts, vals, point, values, ops, labels, unfilled) -> str:
    """The equation of a clause failing at a grid point, its variables being values.

    unfilled is the sentinel value of padded tables, or None.  The part
    rendered is the first that fails as violations counts it: its sides are
    filled and differ, and its guards hold.  An unfilled side renders as "?".
    """
    at = {s: int(_at(vals[s], point))
          for lhs, rhs, guards in parts for s in (lhs, rhs) + sum(guards, ())}
    j = next(j for j, (lhs, rhs, guards) in enumerate(parts)
             if at[lhs] != at[rhs] and all(at[a] == at[b] for a, b in guards)
             and all(at[s] != unfilled for s in (lhs, rhs) + sum(guards, ())))
    fields = {v: labels[x] for v, x in zip(c.variables, values)}
    fields.update((name, labels[value]) for name, value in ops.items()
                  if isinstance(value, (int, np.integer)))
    for i, (lhs, rhs, _guards) in enumerate(parts):
        fields[f"lhs{i}"], fields[f"rhs{i}"] = (
            "?" if at[s] == unfilled else labels[at[s]] for s in (lhs, rhs))
    return c.render[j].format(lhs=fields[f"lhs{j}"], rhs=fields[f"rhs{j}"], **fields)


def _first_true(mask: np.ndarray):
    """Index of the first true entry in C (product) order, as a tuple of ints, or None."""
    if not mask.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(mask.argmax()), mask.shape))


def find_violations(structure, clauses: ClauseSet) -> dict:
    """ClauseSet.violations over a structure's own tables, rendered with its labels.

    Over the whole universe, each clause's verdict (its Violation, or None
    when it passes) is kept on the structure, so a clause that checkers
    reach again (a require before a check, the near-semiring axioms of four
    profiles, a suite after its variety check) is evaluated once per
    structure.  A call evaluates only the clauses not kept yet, as one
    clause set compiled for them, and returns a fresh dict in clause order.
    This is exact because a structure's tables, constants and labels are
    read-only after construction, and a clause's least witness and rendered
    equation do not depend on the other clauses of its set.
    """
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
    """The clauses compiled once: those a structure has not kept yet, or one search identity."""
    return ClauseSet(clauses)


def kept(checker):
    """checker(structure, *args), computed at most once per structure and arguments.

    The result is kept in the structure's _kept slot, beside find_violations'
    clause verdicts, under the checker, its arguments and their types (True,
    1.0 and 1 are three keys), and every later call returns the same object;
    so checker must be a pure function of the structure's read-only tables,
    constants, name and labels, and its result immutable.
    An exception is not kept: a failing precondition raises again.  An
    object without the slot, such as a TableStack, is checked every time.
    """
    @functools.wraps(checker)
    def keeper(structure, *args, **kwargs):
        memo = getattr(structure, "_kept", None)
        if memo is None:
            return checker(structure, *args, **kwargs)
        key = (checker, args, tuple(kwargs.items()), tuple(map(type, (*args, *kwargs.values()))))
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
    clause("mul-idempotence", "x", (_mul(X, X), X), render="{x}·{x}={lhs}"),
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

def _q(x, y, z):
    """The selector q(x,y,z) = (x·y)+(α(x)·z) as a term."""
    return _add(_mul(x, y), _mul(_inv(x), z))


def _central_1(e, x, y):
    """The sides of central-1 at e: q(e,α(x),α(y)) = α(q(e,x,y))."""
    return _q(e, _inv(x), _inv(y)), _inv(_q(e, x, y))


def _central_2(e, x, z, y, u):
    """The sides of central-2 at e: q(e,x·z,y·u) = q(e,x,y)·q(e,z,u)."""
    return _q(e, _mul(x, z), _mul(y, u)), _mul(_q(e, x, y), _q(e, z, u))


# closed identities over {+, ·, α, 0, 1}: the search catalog, also used by the checkers
IDENTITIES = {c.name: c for c in (
    clause("lukasiewicz", "xy",
           (_mul(_inv(_mul(X, _inv(Y))), _inv(Y)), _mul(_inv(_mul(Y, _inv(X))), _inv(X))),
           render="α({x}·α({y}))·α({y})={lhs} but α({y}·α({x}))·α({x})={rhs}"),
    clause("orthomodular", "xy", (X, _mul(X, _add(X, Y))), render="{x}·({x}+{y})={rhs}"),
    clause("mv-semiring", "xy", (_add(X, Y), _inv(_mul(_inv(X), _inv(_mul(_inv(X), Y))))),
           render="{x}+{y}≠α(α({x})·α(α({x})·{y}))"),
    clause("central-1", "exy", _central_1(X, Y, Z),
           render="({e}·α({x}))+(α({e})·α({y}))={lhs} but α(({e}·{x})+(α({e})·{y}))={rhs}"),
    clause("central-2", "exzyu", _central_2(X, Y, Z, U, W),
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
    per item, each equal to the report on that item: one mask-only call
    picks the failing slices, and only they are searched for witnesses.
    """
    if profile not in PROFILES:
        raise AlgebraError(f"unknown profile {profile!r}; known: {', '.join(sorted(PROFILES))}")
    clauses = _PROFILE_CLAUSES[profile]
    if clauses.needs_inv and algebra.inv is None:
        raise PreconditionError(
            f"profile {profile!r} requires an involution table, but {algebra.name} has none")
    if isinstance(algebra, TableStack):
        subjects = [algebra.name.format(i) for i in range(len(algebra))]
        passing = {s: CheckReport(s, profile, True, ()) for s in set(subjects)}
        reports = [passing[s] for s in subjects]     # items of one name share a passing report
        # a bool when the profile reads only shared tables
        failing = np.broadcast_to(clauses.violations(algebra.ops(), algebra.n, mask=True),
                                  len(algebra))
        if failing.any():
            which = np.flatnonzero(failing)
            stack = algebra.take(which)
            found = clauses.violations(stack.ops(), stack.n, stack.labels)
            for i, f in zip(which.tolist(), [found] * len(stack) if isinstance(found, dict)
                            else found):
                reports[i] = CheckReport.of(subjects[i], profile, f.values())
        return reports
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


# the laws an induced order needs of its operation, in the order they are checked
_ORDER_LAWS = {which: ClauseSet(_AXIOMS[f"{op}-{law}"] for law in ("idempotence", "commutativity"))
               for which, op in (("sum", "add"), ("mul", "mul"))}


@kept
def induced_order(algebra: FiniteNearSemiring, which: str = "sum") -> PartialOrderReport:
    """Order induced by sum (x<=y iff x+y=y) or by product (x<=y iff x·y=x).

    Only defined when the chosen operation is idempotent and commutative;
    otherwise raises, naming the failing witness.  A partial order is a
    join (meet) semilattice when every pair has exactly one least upper
    (greatest lower) bound; both flags are array checks over all pairs.
    """
    if which not in _ORDER_LAWS:
        raise AlgebraError(f"which must be 'sum' or 'mul', got {which!r}")
    rel = "sum" if which == "sum" else "product"
    found = find_violations(algebra, _ORDER_LAWS[which])
    if found:
        law, v = next(iter(found.items()))
        what = "idempotent" if law.endswith("idempotence") else "commutative"
        raise PreconditionError(
            f"{rel} order undefined for {algebra.name}: {rel} is not {what} ({v.equation})")
    n = algebra.n
    if which == "sum":
        leq = algebra.add == np.arange(n)[None, :]
    else:
        leq = algebra.mul == np.arange(n)[:, None]
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
    # carried along α, of period two: α carries over to itself, and the dual carried back
    # is the algebra again; the profile refuses tables that fail the near-semiring axioms
    inv = algebra.inv
    dual = algebra._built(algebra._transport(inv, inv), f"dual({algebra.name})", algebra.labels)
    if not check_axioms(dual, "involutive").passed:
        raise AlgebraError(f"dual of {algebra.name} fails the involutive profile")
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
    l = algebra.label
    if algebra.inv is None:
        clauses = clause_results(_MONOTONE, find_violations(algebra, _MONOTONE))
        clauses.append(ClauseResult("inv-sum-absorption", True, detail="skipped: no involution"))
        clauses.append(ClauseResult("integral-iff-inv-zero-is-one", True,
                                    detail="skipped: no involution"))
    else:
        clauses = clause_results(_CORE_SUITE, find_violations(algebra, _CORE_SUITE))
        inv = algebra.inv
        integral = check_axioms(algebra, "integral")
        inv_zero_is_one = bool(inv[algebra.zero] == algebra.one)
        if integral.passed == inv_zero_is_one:
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", True,
                detail=f"both sides {'hold' if integral.passed else 'fail'}: "
                       f"α({l(algebra.zero)})={l(int(inv[algebra.zero]))}"))
        elif integral.passed:
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", False, (algebra.zero,),
                f"integral but α({l(algebra.zero)})={l(int(inv[algebra.zero]))}≠{l(algebra.one)}"))
        else:
            x, = integral.violations[0].witness
            clauses.append(ClauseResult(
                "integral-iff-inv-zero-is-one", False, (x,),
                f"α({l(algebra.zero)})={l(algebra.one)} but {l(x)}+{l(algebra.one)}≠{l(algebra.one)}"))
    return PropertyReport(algebra.name, "core", tuple(clauses))
