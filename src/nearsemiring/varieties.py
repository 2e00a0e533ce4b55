"""Checkers for the varieties this package handles.

Covers Łukasiewicz near semirings (involutive near semirings whose product
satisfies the two-sided exchange identity), orthomodular near semirings,
basic algebras, and orthomodular lattices, together with exhaustive
property suites for their standard arithmetical consequences.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as iproduct

import numpy as np

from .core import (
    _AXIOMS, IDENTITIES, ONE, ZERO, AlgebraError, CheckReport, ClauseResult, ClauseSet,
    FiniteNearSemiring, PreconditionError, PropertyReport, Violation, X, Y, Z, _Kind,
    _Structure, _add, _constant, _constants, _first_true, _in_universe, _inv, _labels, _mul,
    _needs_inv, _op, _square_table, _unary_table, check_axioms, clause, clause_results,
    find_violations, kept, require,
)


# ---------------------------------------------------------------------------
# companion structures


class BasicAlgebra(_Structure):
    """Finite algebra <A, ⊕, ', 0> with 1 = 0'; tables structural only."""

    _kind = _Kind("basic-algebra", ("zero",), ("oplus", "neg"), derived=("one",))
    __slots__ = _kind.fields

    def __init__(self, oplus, neg, zero, name="B", labels=None):
        self.oplus = _square_table(oplus, "oplus")
        n = self.oplus.shape[0]
        self.neg = _unary_table(neg, n, "negation", permutation=True)
        self.zero = _constant(zero, n, "zero")
        self.name = str(name)
        self.labels = _labels(labels, n)

    @property
    def one(self) -> int:
        return int(self.neg[self.zero])


class OrthoLattice(_Structure):
    """Finite bounded lattice candidate <L, ∨, ∧, ', 0, 1>.

    Stores the join table and the orthocomplement; the meet is derived from
    them de-Morgan-style, keeping a single source of truth.  Whether the
    tables actually form an orthomodular lattice is the job of check_oml.
    """

    _kind = _Kind("lattice", ("zero", "one"), ("join", "ortho"), derived=("meet",))
    __slots__ = _kind.fields + ("meet",)

    def __init__(self, join, ortho, zero, one, name="L", labels=None):
        self.join = _square_table(join, "join")
        n = self.join.shape[0]
        self.ortho = _unary_table(ortho, n, "orthocomplement", permutation=True)
        self.zero, self.one = _constants(zero, one, n)
        meet = self.ortho[self.join[np.ix_(self.ortho, self.ortho)]]
        meet.setflags(write=False)
        self.meet = meet
        self.name = str(name)
        self.labels = _labels(labels, n)


def _required(report: CheckReport, what: str, context: str) -> CheckReport:
    """The report, unless it failed: then a PreconditionError naming its first violation."""
    if not report.passed:
        where = f" ({context})" if context else ""
        raise PreconditionError(
            f"{report.subject} is not {what}{where}: {report.violations[0].equation}")
    return report


# ---------------------------------------------------------------------------
# Łukasiewicz near semirings


_EXCHANGE = ClauseSet([IDENTITIES["lukasiewicz"]])


@kept
def check_lukasiewicz(algebra: FiniteNearSemiring) -> CheckReport:
    """Check the exchange identity α(x·α(y))·α(y) = α(y·α(x))·α(x).

    Requires a valid involutive near semiring.  The report carries a
    'semiring' tag recording whether the product is also associative and
    left-distributive, i.e. whether the algebra is a full semiring.
    """
    _needs_inv(algebra)
    require(algebra, "involutive", "Łukasiewicz check")
    semiring = check_axioms(algebra, "semiring").passed
    return CheckReport.of(algebra.name, "lukasiewicz", find_violations(algebra, _EXCHANGE).values(),
                          tags=(("semiring", semiring),))


def require_lukasiewicz(algebra: FiniteNearSemiring, context: str = "") -> CheckReport:
    return _required(check_lukasiewicz(algebra), "a Łukasiewicz near semiring", context)


_LUKASIEWICZ_SUITE = ClauseSet([
    clause("self-annihilation", "x", (_mul(X, _inv(X)), ZERO), (_mul(_inv(X), X), ZERO),
           render="{x}·α({x})={lhs0}, α({x})·{x}={lhs1}"),
    _AXIOMS["integrality"],
    clause("annihilates-sum-complement", "xy", (_mul(X, _inv(_add(X, Y))), ZERO),
           render="{x}·α({x}+{y})={lhs}"),
    clause("sum-cancellation", "xy", (_mul(_add(X, Y), _inv(X)), _mul(Y, _inv(X))),
           render="({x}+{y})·α({x})≠{y}·α({x})"),
    clause("sum-recovery", "xy", (_add(X, Y), _inv(_mul(_inv(_mul(X, _inv(Y))), _inv(Y)))),
           render="{x}+{y}≠α(α({x}·α({y}))·α({y}))"),
    # x≤y exactly when x·α(y)=0, one direction per part
    clause("order-via-product", "xy",
           (_mul(X, _inv(Y)), ZERO, (_add(X, Y), Y)), (_add(X, Y), Y, (_mul(X, _inv(Y)), ZERO)),
           render=("({x}≤{y}) is True but {x}·α({y})={lhs}",
                   "({x}≤{y}) is False but {x}·α({y})={zero}")),
    clause("assoc-implies-comm", "xy", (_mul(X, Y), _mul(Y, X)), render="{x}·{y}≠{y}·{x}"),
    clause("assoc-implies-left-distributivity", "xyz",
           (_mul(X, _add(Y, Z)), _add(_mul(X, Y), _mul(X, Z))),
           render="{x}·({y}+{z})≠({x}·{y})+({x}·{z})"),
    replace(IDENTITIES["mv-semiring"], name="mv-sum-recovery"),
])


def lukasiewicz_suite(algebra: FiniteNearSemiring) -> PropertyReport:
    """Arithmetical consequences of the exchange identity, checked exhaustively."""
    luk = require_lukasiewicz(algebra, "property suite")
    skipped = {}
    if not check_axioms(algebra, "associative-mul").passed:
        skipped["assoc-implies-comm"] = "vacuous: product not associative"
        skipped["assoc-implies-left-distributivity"] = "vacuous: product not associative"
    if not luk.tag("semiring"):
        skipped["mv-sum-recovery"] = "skipped: not a semiring"
    clauses = [ClauseResult(c.clause, True, detail=skipped[c.clause]) if c.clause in skipped
               else c for c in clause_results(_LUKASIEWICZ_SUITE,
                                              find_violations(algebra, _LUKASIEWICZ_SUITE))]
    return PropertyReport(algebra.name, "lukasiewicz", tuple(clauses))


@dataclass(frozen=True)
class SectionalInvolution:
    """Antitone involution x -> α(x·α(a)) on the upper interval [a, 1]."""
    subject: str
    base: int
    carrier: tuple
    images: tuple

    def as_mapping(self) -> dict:
        return dict(zip(self.carrier, self.images))

    def to_dict(self) -> dict:
        return {"subject": self.subject, "base": self.base,
                "carrier": list(self.carrier), "images": list(self.images)}


def sectional_involution(algebra: FiniteNearSemiring, a: int) -> SectionalInvolution:
    """Build and verify the involution x -> α(x·α(a)) on [a, 1]."""
    _in_universe(algebra, a)
    require_lukasiewicz(algebra, "sectional involution")
    add, mul, inv, l = algebra.add, algebra.mul, algebra.inv, algebra.label
    carrier = tuple(x for x in range(algebra.n) if add[a, x] == x)
    images = tuple(int(inv[mul[x, inv[a]]]) for x in carrier)
    h = dict(zip(carrier, images))
    for x in carrier:
        if h[x] not in h:
            raise AlgebraError(
                f"sectional map leaves the interval: {l(x)}^{l(a)}={l(h[x])} ∉ [{l(a)},{l(algebra.one)}]")
        if h[h[x]] != x:
            raise AlgebraError(f"sectional map is not an involution at {l(x)}")
    for x in carrier:
        for y in carrier:
            if add[x, y] == y and add[h[y], h[x]] != h[x]:
                raise AlgebraError(f"sectional map is not antitone at ({l(x)},{l(y)})")
    return SectionalInvolution(algebra.name, a, carrier, images)


_ORTHOMODULAR = ClauseSet([
    replace(IDENTITIES["orthomodular"], name="mul-absorbs-sum"),
    clause("mul-idempotence", "x", (_mul(X, X), X), render="{x}·{x}={lhs}"),
    clause("sandwich-recovery", "xy", (_mul(X, _inv(_mul(_inv(_mul(Y, _inv(X))), _inv(X)))), X),
           render="{x}·α(α({y}·α({x}))·α({x}))≠{x}"),
    clause("complement-join", "x", (_add(X, _inv(X)), ONE), render="{x}+α({x})={lhs}"),
    clause("interval-multiplication", "xy", (_mul(X, Y), X, (_add(X, Y), Y)),
           render="{x}≤{y} but {x}·{y}={lhs}≠{x}"),
    clause("interval-multiplication-prose-variant", "xy", (_mul(X, Y), Y, (_add(X, Y), Y)),
           render="{x}≤{y} but {x}·{y}={lhs}≠{y}"),
])


@kept
def check_orthomodular_ns(algebra: FiniteNearSemiring) -> CheckReport:
    """Check x = x·(x+y) plus its standard consequences on a Łukasiewicz near semiring.

    The interval-multiplication clause checks x·y = x for x ≤ y, the form the
    consequence calculus actually yields; the alternative reading x·y = y is
    evaluated separately and reported as a tag, never as a violation.
    """
    require_lukasiewicz(algebra, "orthomodular check")
    found = find_violations(algebra, _ORTHOMODULAR)
    prose_variant = found.pop("interval-multiplication-prose-variant", None) is None
    return CheckReport.of(
        algebra.name, "orthomodular", found.values(),
        tags=(("interval-multiplication-prose-variant", prose_variant),),
        notes=("interval-multiplication is normative as x·y=x for x≤y; "
               "the x·y=y reading is reported via the prose-variant tag only",),
    )


def require_orthomodular(algebra: FiniteNearSemiring, context: str = "") -> CheckReport:
    return _required(check_orthomodular_ns(algebra), "an orthomodular near semiring", context)


# ---------------------------------------------------------------------------
# basic algebras


_oplus, _neg = _op("oplus"), _op("neg")
_BASIC = ClauseSet([
    clause("BA1", "x", (_oplus(X, ZERO), X), render="{x}⊕{zero}={lhs}"),
    clause("BA2", "x", (_neg(_neg(X)), X), render="{x}''={lhs}"),
    clause("BA3", "xy", (_oplus(_neg(_oplus(_neg(X), Y)), Y), _oplus(_neg(_oplus(_neg(Y), X)), X)),
           render="({x}'⊕{y})'⊕{y}≠({y}'⊕{x})'⊕{x}"),
    clause("BA4", "xyz",
           (_oplus(_neg(_oplus(_neg(_oplus(_neg(_oplus(X, Y)), Y)), Z)), _oplus(X, Z)), ONE),
           render="((({x}⊕{y})'⊕{y})'⊕{z})'⊕({x}⊕{z})≠{one}"),
])


@kept
def check_basic_algebra(basic: BasicAlgebra) -> CheckReport:
    """Check the four basic-algebra axioms and the induced bounded-lattice order.

    Sets an 'mv' tag when ⊕ is associative.  The induced order x ≤ y iff
    x'⊕y = 1 is rebuilt from the join term (x'⊕y)'⊕y and the two relations
    are compared, rather than trusting either construction.
    """
    op, neg, n = basic.oplus, basic.neg, basic.n
    zero, one, l = basic.zero, basic.one, basic.label
    violations = list(find_violations(basic, _BASIC).values())

    # induced order: x <= y iff x'⊕y = 1; join term (x'⊕y)'⊕y
    rel = op[neg, :] == one                      # rel[x, y] = (x'⊕y == 1)
    jt = op[neg[op[neg, :]], np.broadcast_to(np.arange(n), (n, n))]
    refl = all(rel[x, x] for x in range(n))
    antisym = not np.any(rel & rel.T & ~np.eye(n, dtype=bool))
    trans = not np.any((rel @ rel) & ~rel)
    if not refl:
        x = next(x for x in range(n) if not rel[x, x])
        violations.append(Violation("order-partial-order", (x, x),
                                    f"relation x'⊕y=1 is not reflexive at {l(x)}"))
    elif not antisym:
        w = np.argwhere(rel & rel.T & ~np.eye(n, dtype=bool))[0]
        violations.append(Violation("order-partial-order", tuple(int(v) for v in w),
                                    "relation x'⊕y=1 is not antisymmetric"))
    elif not trans:
        w = np.argwhere((rel @ rel) & ~rel)[0]
        violations.append(Violation("order-partial-order", tuple(int(v) for v in w),
                                    "relation x'⊕y=1 is not transitive"))
    if not (rel[zero].all() and rel[:, one].all()):
        x = next(x for x in range(n) if not rel[zero, x] or not rel[x, one])
        violations.append(Violation("order-bounds", (x,),
                                    f"{l(zero)},{l(one)} are not bottom/top at {l(x)}"))
    w = np.argwhere((jt == np.arange(n)[None, :]) != rel)
    if w.size:
        x, y = (int(v) for v in w[0])
        violations.append(Violation(
            "order-join-consistent", (x, y),
            f"join term and relation disagree at ({l(x)},{l(y)})"))
    bad = _first_non_lub(rel, jt)
    if bad is not None:
        violations.append(Violation("order-join-lub", bad,
                                    f"({l(bad[0])}'⊕{l(bad[1])})'⊕{l(bad[1])} is not the lub"))
    # de Morgan meet (x'∨y')' checked as the lub of the reversed relation
    bad = _first_non_lub(rel.T, neg[jt[np.ix_(neg, neg)]])
    if bad is not None:
        violations.append(Violation("order-meet-glb", bad,
                                    "de Morgan meet is not the glb"))

    mv = bool(np.array_equal(op[op, :], op[:, op]))
    return CheckReport.of(basic.name, "basic-algebra", violations, tags=(("mv", mv),))


def _first_non_lub(rel: np.ndarray, b: np.ndarray):
    """The first (x, y), in product order, where b[x, y] is not an upper bound of x
    and y lying below every upper bound of them under rel; None if there is none.

    rel need not be antisymmetric, so b is tested against the bounds rather
    than compared with a computed lub.
    """
    n = len(rel)
    x, y = np.ogrid[:n, :n]
    upper = rel[:, None, :] & rel[None, :, :]                        # upper[x, y, z]
    return _first_true(~(rel[x, b] & rel[y, b]) | np.any(upper & ~rel[b], axis=-1))


def require_basic(basic: BasicAlgebra, context: str = "") -> CheckReport:
    return _required(check_basic_algebra(basic), "a basic algebra", context)


# ---------------------------------------------------------------------------
# orthomodular lattices


_join, _meet, _ortho = _op("join"), _op("meet"), _op("ortho")
_OML = ClauseSet([
    clause("join-idempotence", "x", (_join(X, X), X), render="{x}∨{x}={lhs}"),
    clause("join-commutativity", "xy", (_join(X, Y), _join(Y, X)), render="{x}∨{y}≠{y}∨{x}"),
    clause("join-associativity", "xyz", (_join(_join(X, Y), Z), _join(X, _join(Y, Z))),
           render="({x}∨{y})∨{z}≠{x}∨({y}∨{z})"),
    clause("meet-idempotence", "x", (_meet(X, X), X), render="{x}∧{x}={lhs}"),
    clause("meet-commutativity", "xy", (_meet(X, Y), _meet(Y, X)), render="{x}∧{y}≠{y}∧{x}"),
    clause("meet-associativity", "xyz", (_meet(_meet(X, Y), Z), _meet(X, _meet(Y, Z))),
           render="({x}∧{y})∧{z}≠{x}∧({y}∧{z})"),
    clause("absorption", "xy", (_join(X, _meet(X, Y)), X), (_meet(X, _join(X, Y)), X),
           render="absorption fails at ({x},{y})"),
    clause("bounds", "x", (_join(X, ZERO), X), (_join(X, ONE), ONE),
           (_meet(X, ONE), X), (_meet(X, ZERO), ZERO),
           render="{zero}/{one} are not bottom/top at {x}"),
    clause("ortho-period-two", "x", (_ortho(_ortho(X)), X), render="{x}''={lhs}"),
    clause("ortho-antitone", "xy", (_join(_ortho(Y), _ortho(X)), _ortho(X), (_join(X, Y), Y)),
           render="{x}≤{y} but {y}'≰{x}'"),
    clause("complement-laws", "x", (_meet(X, _ortho(X)), ZERO), (_join(X, _ortho(X)), ONE),
           render="{x}∧{x}'={lhs0}, {x}∨{x}'={lhs1}"),
    clause("orthomodular-identity", "xy",
           (_meet(_join(X, Y), _join(X, _ortho(_join(X, Y)))), X),
           render="({x}∨{y})∧({x}∨({x}∨{y})')={lhs}"),
    clause("orthomodular-dual", "xy", (_join(_meet(X, Y), _meet(Y, _ortho(_meet(X, Y)))), Y),
           render="({x}∧{y})∨({y}∧({x}∧{y})')≠{y}"),
])


@kept
def check_oml(lattice: OrthoLattice) -> CheckReport:
    """Check bounded-lattice axioms, orthocomplementation, and the orthomodular law."""
    violations = find_violations(lattice, _OML).values()
    return CheckReport.of(lattice.name, "orthomodular-lattice", violations)


def require_oml(lattice: OrthoLattice, context: str = "") -> CheckReport:
    return _required(check_oml(lattice), "an orthomodular lattice", context)


def oml_commutes_suite(lattice: OrthoLattice) -> PropertyReport:
    """Commutation facts: aCb iff a = (a∧b)∨(a∧b').

    Checks symmetry of C, that comparability forces commutation, stability
    of C under complementation, and distributivity restricted to triples
    where two of the elements commute with the third.
    """
    require_oml(lattice, "commutation suite")
    jn, mt, oc, n, l = lattice.join, lattice.meet, lattice.ortho, lattice.n, lattice.label

    def commutes(a, b):
        return jn[mt[a, b], mt[a, oc[b]]] == a

    clauses = []
    res = None
    for a, b in iproduct(range(n), repeat=2):
        if commutes(a, b) and not commutes(b, a):
            res = ClauseResult("commutation-symmetric", False, (a, b),
                               f"{l(a)}C{l(b)} but not {l(b)}C{l(a)}")
            break
    clauses.append(res or ClauseResult("commutation-symmetric", True))

    res = None
    for a, b in iproduct(range(n), repeat=2):
        if jn[a, b] == b and not commutes(a, b):
            res = ClauseResult("comparable-commute", False, (a, b),
                               f"{l(a)}≤{l(b)} but not {l(a)}C{l(b)}")
            break
    clauses.append(res or ClauseResult("comparable-commute", True))

    res = None
    for a, b in iproduct(range(n), repeat=2):
        if commutes(a, b) and not commutes(a, oc[b]):
            res = ClauseResult("commute-with-complement", False, (a, b),
                               f"{l(a)}C{l(b)} but not {l(a)}C{l(b)}'")
            break
    clauses.append(res or ClauseResult("commute-with-complement", True))

    res = None
    hits = 0
    for a, b, c in iproduct(range(n), repeat=3):
        if commutes(a, c) and commutes(b, c):
            hits += 1
            ok = (mt[jn[a, b], c] == jn[mt[a, c], mt[b, c]]
                  and jn[mt[a, b], c] == mt[jn[a, c], jn[b, c]])
            if not ok and res is None:
                res = ClauseResult("restricted-distributivity", False, (a, b, c),
                                   f"distributivity fails at ({l(a)},{l(b)},{l(c)})")
    clauses.append(res or ClauseResult("restricted-distributivity", True,
                                       detail=f"checked {hits} commuting triples"))
    return PropertyReport(lattice.name, "oml-commutation", tuple(clauses))
