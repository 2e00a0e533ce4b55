"""Checkers for the varieties this package handles.

Covers Łukasiewicz near semirings (involutive near semirings whose product
satisfies the two-sided exchange identity), orthomodular near semirings,
basic algebras, and orthomodular lattices, together with exhaustive
property suites for their standard arithmetical consequences.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _AXIOMS, IDENTITIES, ONE, ZERO, AlgebraError, CheckReport, ClauseResult, ClauseSet,
    FiniteNearSemiring, PreconditionError, PropertyReport, X, Y, Z, _Kind,
    _Structure, _add, _constant, _constants, _in_universe, _inv, _labels, _mul,
    _needs_inv, _op, _square_table, _unary_table, check_axioms, clause, clause_results,
    find_violations, kept, relabel_table, require,
)


# ---------------------------------------------------------------------------
# companion structures


class BasicAlgebra(_Structure):
    """Finite algebra <A, ⊕, ', 0> with 1 = 0'; tables structural only."""

    _kind = _Kind("basic-algebra", ("zero",), ("oplus", "neg"), unary=("neg",), derived=("one",))
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

    Stores the join and the orthocomplement; the meet is derived from them
    de-Morgan-style, once per lattice, keeping a single source of truth.
    Whether the tables form an orthomodular lattice is check_oml's job.
    """

    _kind = _Kind("lattice", ("zero", "one"), ("join", "ortho"), unary=("ortho",),
                  derived=("meet",))
    __slots__ = _kind.fields

    def __init__(self, join, ortho, zero, one, name="L", labels=None):
        self.join = _square_table(join, "join")
        n = self.join.shape[0]
        self.ortho = _unary_table(ortho, n, "orthocomplement", permutation=True)
        self.zero, self.one = _constants(zero, one, n)
        self.name = str(name)
        self.labels = _labels(labels, n)

    @property
    @kept
    def meet(self) -> np.ndarray:
        meet = relabel_table(self.join, self.ortho, self.ortho)
        meet.setflags(write=False)
        return meet


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
    _AXIOMS["mul-idempotence"],
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


def _leq(x, y):
    """The induced order x ≤ y, as the equation x'⊕y = 1."""
    return _oplus(_neg(x), y), ONE


def _join_term(x, y):
    """The join term (x'⊕y)'⊕y."""
    return _oplus(_neg(_oplus(_neg(x), y)), y)


def _least_bound(b, leq):
    """The parts of "b bounds x and y under leq, and lies below every bound z of them"."""
    return leq(X, b), leq(Y, b), (*leq(b, Z), leq(X, Z), leq(Y, Z))


_BASIC = ClauseSet([
    clause("BA1", "x", (_oplus(X, ZERO), X), render="{x}⊕{zero}={lhs}"),
    clause("BA2", "x", (_neg(_neg(X)), X), render="{x}''={lhs}"),
    clause("BA3", "xy", (_join_term(X, Y), _join_term(Y, X)),
           render="({x}'⊕{y})'⊕{y}≠({y}'⊕{x})'⊕{x}"),
    clause("BA4", "xyz",
           (_oplus(_neg(_oplus(_neg(_oplus(_neg(_oplus(X, Y)), Y)), Z)), _oplus(X, Z)), ONE),
           render="((({x}⊕{y})'⊕{y})'⊕{z})'⊕({x}⊕{z})≠{one}"),
    # the induced order x ≤ y iff x'⊕y = 1 and its join term (x'⊕y)'⊕y
    clause("order-bounds", "x", _leq(ZERO, X), _leq(X, ONE),
           render="{zero},{one} are not bottom/top at {x}"),
    clause("order-join-consistent", "xy", (_join_term(X, Y), Y, _leq(X, Y)),
           (*_leq(X, Y), (_join_term(X, Y), Y)),
           render="join term and relation disagree at ({x},{y})"),
    clause("order-reflexive", "xy", (*_leq(X, Y), (X, Y)),
           render="relation x'⊕y=1 is not reflexive at {x}"),
    clause("order-antisymmetric", "xy", (X, Y, _leq(X, Y), _leq(Y, X)),
           render="relation x'⊕y=1 is not antisymmetric"),
    # named x, z, y, so that the least witness has the least pair (x, z)
    clause("order-transitive", "xzy", (*_leq(X, Y), _leq(X, Z), _leq(Z, Y)),
           render="relation x'⊕y=1 is not transitive"),
    clause("order-join-lub", "xyz", *_least_bound(_join_term(X, Y), _leq),
           render="({x}'⊕{y})'⊕{y} is not the lub"),
    # the de Morgan meet (x'∨y')', as the least bound under the reversed order
    clause("order-meet-glb", "xyz",
           *_least_bound(_neg(_join_term(_neg(X), _neg(Y))), lambda x, y: _leq(y, x)),
           render="de Morgan meet is not the glb"),
])


@kept
def check_basic_algebra(basic: BasicAlgebra) -> CheckReport:
    """Check the four basic-algebra axioms and the induced bounded-lattice order, as clauses.

    Sets an 'mv' tag when ⊕ is associative.  The order x ≤ y iff x'⊕y = 1 is
    compared with the join term (x'⊕y)'⊕y, rather than trusting either; its
    order-partial-order is the first failing of reflexivity, antisymmetry and
    transitivity.  An order clause's third variable is bound: it reports a pair.
    """
    found = {name: replace(v, witness=v.witness[:2]) if name.startswith("order-") else v
             for name, v in find_violations(basic, _BASIC).items()}
    order = [found.pop(name) for name in ("order-reflexive", "order-antisymmetric",
                                          "order-transitive") if name in found]
    if order:
        found["order-partial-order"] = replace(order[0], clause="order-partial-order")
    mv = bool(np.array_equal(basic.oplus[basic.oplus, :], basic.oplus[:, basic.oplus]))
    return CheckReport.of(basic.name, "basic-algebra", found.values(), tags=(("mv", mv),))


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


def _commutator(a, b):
    """The term (a∧b)∨(a∧b'), which equals a exactly when a commutes with b (aCb)."""
    return _join(_meet(a, b), _meet(a, _ortho(b)))


_COMMUTES = ClauseSet([
    clause("commutation-symmetric", "ab", (_commutator(Y, X), Y, (_commutator(X, Y), X)),
           render="{a}C{b} but not {b}C{a}"),
    clause("comparable-commute", "ab", (_commutator(X, Y), X, (_join(X, Y), Y)),
           render="{a}≤{b} but not {a}C{b}"),
    clause("commute-with-complement", "ab", (_commutator(X, _ortho(Y)), X, (_commutator(X, Y), X)),
           render="{a}C{b} but not {a}C{b}'"),
    clause("restricted-distributivity", "abc",
           *((lhs, rhs, (_commutator(X, Z), X), (_commutator(Y, Z), Y)) for lhs, rhs in (
               (_meet(_join(X, Y), Z), _join(_meet(X, Z), _meet(Y, Z))),
               (_join(_meet(X, Y), Z), _meet(_join(X, Z), _join(Y, Z))))),
           render="distributivity fails at ({a},{b},{c})"),
])


def oml_commutes_suite(lattice: OrthoLattice) -> PropertyReport:
    """Commutation facts: aCb iff a = (a∧b)∨(a∧b').

    Checks symmetry of C, that comparability forces commutation, stability
    of C under complementation, and distributivity restricted to triples
    where two of the elements commute with the third, each a clause of
    _COMMUTES.  Restricted distributivity, when it holds, reports how many
    commuting triples it checked.
    """
    require_oml(lattice, "commutation suite")
    clauses = clause_results(_COMMUTES, find_violations(lattice, _COMMUTES))
    if clauses[-1].passed:
        jn, mt = lattice.join, lattice.meet
        commutes = jn[mt, mt[:, lattice.ortho]] == np.arange(lattice.n)[:, None]  # [a, c]: aCc
        clauses[-1] = replace(clauses[-1], detail="checked {} commuting triples".format(
            int(np.sum(np.count_nonzero(commutes, axis=0) ** 2))))
    return PropertyReport(lattice.name, "oml-commutation", tuple(clauses))
