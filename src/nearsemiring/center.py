"""Central elements and direct decomposition of integral involutive near semirings.

The ternary selector q(x,y,z) = (x·y)+(α(x)·z) behaves like if-then-else on
the constants.  An element e is central when the pair of principal
congruences it generates with the constants is a factor pair; the package
detects centrality three independent ways (two equational characterizations
and the congruence route) and can cross-compare them element by element.
The centrals form a Boolean algebra whose atoms index the finest direct
decomposition into interval algebras [0, e].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IDENTITIES, ONE, ZERO, AlgebraError, CheckReport, ClauseSet, FiniteNearSemiring,
    PreconditionError, PropertyReport, U, Violation, X, Y, Z, _add, _central_1, _central_2,
    _first_true, _inv, _mul, _op, _q, check_axioms, clause, _in_universe, _needs_inv,
    clause_results, find_violations, kept, require,
)
from .congruences import is_factor_pair, principal_congruence


def church_q(algebra: FiniteNearSemiring, x: int, y: int, z: int) -> int:
    """Selector term q(x,y,z) = (x·y) + (α(x)·z)."""
    _needs_inv(algebra)
    _in_universe(algebra, x, y, z)
    add, mul, inv = algebra.add, algebra.mul, algebra.inv
    return int(add[mul[x, y], mul[inv[x], z]])


_SELECTOR = ClauseSet([
    clause("selector-at-one", "ab", (_q(ONE, X, Y), X), render="q({one},{a},{b})={lhs}"),
    clause("selector-at-zero", "ab", (_q(ZERO, X, Y), Y), render="q({zero},{a},{b})={lhs}"),
])


def check_church(algebra: FiniteNearSemiring) -> CheckReport:
    """q(1,a,b) = a and q(0,a,b) = b, exhaustively."""
    require(algebra, "involutive-integral", "selector term")
    violations = find_violations(algebra, _SELECTOR).values()
    return CheckReport.of(algebra.name, "church-selector", violations)


# ---------------------------------------------------------------------------
# the three centrality methods

CENTRALITY_METHODS = ("equational", "full-conditions", "congruence")
E = ("e",)      # the element under study: a named constant of the ops dict, as zero and one are
_CENTRAL = {which: ClauseSet([clause(f"central-{which}", variables, sides,
                                     render=IDENTITIES[f"central-{which}"].render)])
            for which, variables, sides in (("1", "xy", _central_1(E, X, Y)),
                                            ("2", "xzyu", _central_2(E, X, Y, Z, U)))}


def central_identity_violation(algebra: FiniteNearSemiring, e: int, which: str):
    """First instantiation violating one centrality identity at the element e.

    which='1' checks (e·α(x)) + (α(e)·α(y)) = α((e·x) + (α(e)·y)) over all
    (x, y); which='2' checks the product-compatibility identity over all
    (x, z, y, u).  Returns the lexicographically first violating tuple, or
    None when the identity holds everywhere at e.
    """
    _needs_inv(algebra)
    _in_universe(algebra, e)
    if which not in _CENTRAL:
        raise AlgebraError(f"which must be '1' or '2', got {which!r}")
    found = _CENTRAL[which].violations(dict(algebra.ops(), e=e), algebra.n)
    return found[f"central-{which}"].witness if found else None


@kept
def _central_equational_witness(algebra: FiniteNearSemiring, e: int):
    """First witness violating one of the two centrality identities at e, or None.

    Kept per structure and e, so a precondition on a central e found by
    central_elements is a lookup.
    """
    for which in ("1", "2"):
        w = central_identity_violation(algebra, e, which)
        if w is not None:
            return (f"central-{which}", w)
    return None


def is_central_equational(algebra: FiniteNearSemiring, e: int) -> bool:
    return _central_equational_witness(algebra, e) is None


def _require_central(algebra: FiniteNearSemiring, e: int) -> None:
    # e is checked inside, as kept keys carry types: True and 1.0 do not fetch 1's verdict
    w = _central_equational_witness(algebra, e)
    if w is not None:
        raise PreconditionError(
            f"{algebra.label(e)} is not central in {algebra.name} (fails {w[0]} at {w[1]})")


# grid cells of one chunk of the n⁴ full-conditions checks
_FULL_CELLS = 1 << 20


def is_central_full_conditions(algebra: FiniteNearSemiring, e: int) -> bool:
    """Selector-based conditions: q(e,·,·) is a decomposition operation.

    Checks, through their table expansions, that q(e,a,a)=a, that q(e,-,-)
    is associative in the appropriate sense, that it commutes with every
    basic operation of the signature (both constants, the involution, sum
    and product), and that q(e,1,0)=e.  The conditions are read as block
    takes of the tables on open grids; the n⁴ ones a chunk of first
    arguments at a time, stopping at the first chunk that fails.
    """
    _needs_inv(algebra)
    _in_universe(algebra, e)
    n, zero, one = algebra.n, algebra.zero, algebra.one
    small = np.min_scalar_type(n - 1)
    add, mul, inv = (t.astype(small) for t in (algebra.add, algebra.mul, algebra.inv))
    qe = add[np.ix_(mul[e], mul[inv[e]])]      # qe[y, z] = q(e, y, z)
    if not np.array_equal(qe.diagonal(), np.arange(n)):
        return False
    # q(e, q(e, a, b), c) = q(e, a, c) = q(e, a, q(e, b, c)), on the grid (a, b, c)
    ac = qe[:, None, :]
    if not ((qe[qe] == ac).all() and (np.take(qe, qe, axis=1) == ac).all()):
        return False
    if qe[zero, zero] != zero or qe[one, one] != one:
        return False
    if not np.array_equal(qe[inv][:, inv], inv[qe]):
        return False
    # q(e, a∘c, b∘d) = q(e, a, b)∘q(e, c, d) for ∘ = +, ·: the left side is read on the
    # grid (a, c, b, d) and transposed.  left[r, b, d] = q(e, r, b∘d) and right[r, c, d] =
    # r∘q(e, c, d) are taken along axis 1, as C-order blocks whose row takes copy whole rows
    reads = [(t, np.take(qe, t, axis=1), np.take(t, qe, axis=1)) for t in (add, mul)]
    step = max(1, _FULL_CELLS // n ** 3)
    for lo in range(0, n, step):
        for t, left, right in reads:
            lhs = left[t[lo:lo + step]].transpose(0, 2, 1, 3)
            if not (lhs == right[qe[lo:lo + step]]).all():
                return False
    return int(qe[one, zero]) == e


def is_central_congruence(algebra: FiniteNearSemiring, e: int) -> bool:
    """Factor-congruence test: (θ(e,0), θ(e,1)) must be a factor pair.

    Across the elements e, principal_congruence closes each constant's
    θ(x, c) in one kept run (a few when n is large), and is_factor_pair reads
    the verdicts that is_congruence kept for them.
    """
    _needs_inv(algebra)
    _in_universe(algebra, e)
    theta = principal_congruence(algebra, e, algebra.zero)
    phi = principal_congruence(algebra, e, algebra.one)
    return is_factor_pair(algebra, theta, phi)


_METHOD_FNS = {
    "equational": is_central_equational,
    "full-conditions": is_central_full_conditions,
    "congruence": is_central_congruence,
}


@dataclass(frozen=True)
class CenterReport:
    subject: str
    methods: tuple
    centrals: tuple
    agreement: bool
    per_method: tuple                 # ((method, centrals tuple), ...)
    atoms: tuple
    boolean_check: CheckReport = None

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "methods": list(self.methods),
            "centrals": list(self.centrals),
            "agreement": self.agreement,
            "per_method": {m: list(c) for m, c in self.per_method},
            "atoms": list(self.atoms),
            "boolean_check": None if self.boolean_check is None else self.boolean_check.to_dict(),
        }

    def render(self, algebra: FiniteNearSemiring = None) -> str:
        lab = algebra.label if algebra is not None else str
        lines = [f"center of {self.subject}: "
                 f"{{{','.join(lab(e) for e in self.centrals)}}} "
                 f"atoms={{{','.join(lab(e) for e in self.atoms)}}} "
                 f"methods={','.join(self.methods)} "
                 + ("agree" if self.agreement else "DISAGREE")]
        if not self.agreement:
            for m, c in self.per_method:
                lines.append(f"  {m}: {{{','.join(lab(e) for e in c)}}}")
        if self.boolean_check is not None:
            lines.append(self.boolean_check.render())
        return "\n".join(lines)


def _normalize_methods(method) -> tuple:
    if method == "all":
        return CENTRALITY_METHODS
    if isinstance(method, str):
        method = (method,)
    method = tuple(method)
    known = f"known: {', '.join(CENTRALITY_METHODS)} or 'all'"
    if not method:
        raise AlgebraError(f"no centrality method given; {known}")
    for m in method:
        if m not in _METHOD_FNS:
            raise AlgebraError(f"unknown centrality method {m!r}; {known}")
    return method


def central_elements(algebra: FiniteNearSemiring, method="equational") -> CenterReport:
    """Detect central elements by one or more methods and compare the verdicts."""
    require(algebra, "involutive-integral", "centrality")
    methods = _normalize_methods(method)
    per_method = []
    for m in methods:
        fn = _METHOD_FNS[m]
        per_method.append((m, tuple(e for e in range(algebra.n) if fn(algebra, e))))
    centrals = per_method[0][1]
    agreement = all(c == centrals for _, c in per_method)
    for method, found in per_method:
        if algebra.zero not in found or algebra.one not in found:
            raise AlgebraError(
                f"method {method} misses a constant in the center of {algebra.name}")
    for e in centrals:
        if algebra.add[e, algebra.inv[e]] != algebra.one:
            raise AlgebraError(
                f"central element {algebra.label(e)} of {algebra.name} "
                f"has {algebra.label(e)}+α({algebra.label(e)})≠{algebra.label(algebra.one)}")
    return CenterReport(algebra.name, methods, centrals, agreement,
                        tuple(per_method), _atoms_of(algebra, centrals))


def _atoms_of(algebra: FiniteNearSemiring, centrals) -> tuple:
    """Minimal nonzero centrals for the sum order, restricted to the center."""
    add, zero = algebra.add, algebra.zero
    nonzero = [e for e in centrals if e != zero]
    return tuple(e for e in nonzero
                 if not any(c != e and add[c, e] == e for c in nonzero))


_CENTRAL_LEMMAS = ClauseSet([
    clause("shift-absorption", "x", (_add(_mul(E, X), _inv(E)), _add(X, _inv(E))),
           render="(e·{x})+α(e)≠{x}+α(e)"),
    clause("projection-idempotence", "x",
           (_mul(E, _mul(E, X)), _mul(E, X)), (_mul(_mul(E, X), E), _mul(E, X)),
           render="e·(e·{x})≠e·{x} or (e·{x})·e≠e·{x}"),
    clause("complement-annihilation", "", (_mul(E, _inv(E)), ZERO), render="e·α(e)={lhs}"),
    clause("central-commutation", "x", (_mul(E, X), _mul(X, E)), render="e·{x}≠{x}·e"),
    clause("left-distributivity-at-e", "xy",
           (_mul(E, _add(X, Y)), _add(_mul(E, X), _mul(E, Y))),
           render="e·({x}+{y})≠(e·{x})+(e·{y})"),
    clause("left-monotonicity-at-e", "xy",
           (_add(_mul(E, X), _mul(E, Y)), _mul(E, Y), (_add(X, Y), Y)),
           render="{x}≤{y} but e·{x}≰e·{y}"),
    clause("complement-chain-annihilation", "x", (_mul(E, _mul(_inv(E), X)), ZERO),
           render="e·(α(e)·{x})={lhs}"),
])


def central_lemma_suite(algebra: FiniteNearSemiring, e: int) -> PropertyReport:
    """Derived facts about a single equationally central element."""
    require(algebra, "involutive-integral", "central-element facts")
    _require_central(algebra, e)
    found = _CENTRAL_LEMMAS.violations(dict(algebra.ops(), e=e), algebra.n, algebra.labels)
    return PropertyReport(algebra.name, f"central-element {algebra.label(e)}",
                          tuple(clause_results(_CENTRAL_LEMMAS, found)))


# checked on the center as a subalgebra
_CENTER_BOOLEAN = ClauseSet([
    clause("add-commutativity", "xy", (_add(X, Y), _add(Y, X)), render="{x}+{y}≠{y}+{x}"),
    clause("add-associativity", "xyz", (_add(_add(X, Y), Z), _add(X, _add(Y, Z))),
           render="sum not associative at ({x},{y},{z})"),
    clause("mul-commutativity", "xy", (_mul(X, Y), _mul(Y, X)), render="{x}·{y}≠{y}·{x}"),
    clause("mul-associativity", "xyz", (_mul(_mul(X, Y), Z), _mul(X, _mul(Y, Z))),
           render="product not associative at ({x},{y},{z})"),
    clause("absorption", "xy", (_add(X, _mul(X, Y)), X), (_mul(X, _add(X, Y)), X),
           render="absorption fails at ({x},{y})"),
    clause("bounds", "x", (_add(ZERO, X), X), (_add(X, ONE), ONE),
           (_mul(ONE, X), X), (_mul(ZERO, X), ZERO), render="bounds fail at {x}"),
    clause("distributivity", "xyz", (_mul(X, _add(Y, Z)), _add(_mul(X, Y), _mul(X, Z))),
           (_add(X, _mul(Y, Z)), _mul(_add(X, Y), _add(X, Z))),
           render="distributivity fails at ({x},{y},{z})"),
    clause("complementation", "x", (_add(X, _inv(X)), ONE), (_mul(X, _inv(X)), ZERO),
           render="complement laws fail at {x}"),
    clause("selector-join-match", "xy", (_add(X, Y), _q(X, ONE, Y)),
           render="{x}+{y}≠q({x},{one},{y})"),
    clause("selector-meet-match", "xy", (_mul(X, Y), _q(X, Y, ZERO)),
           render="{x}·{y}≠q({x},{y},{zero})"),
])


def center_algebra(algebra: FiniteNearSemiring, method="equational") -> CenterReport:
    """The center as a structure: closure, Boolean axioms, selector agreement, atoms.

    ``method`` is passed to ``central_elements``; the checks run on the
    subalgebra of the centrals it reports, those of the first method when
    several are named, and their witnesses name the parent's elements.
    """
    require(algebra, "involutive-integral", "center algebra")
    base = central_elements(algebra, method)
    cen = base.centrals
    center = _subalgebra(algebra, cen, algebra.one, algebra.inv, f"center of {algebra.name}",
                         f"Ce({algebra.name})")
    # local i is cen[i], and cen ascends: the least witnesses and their order carry over
    violations = [Violation(v.clause, tuple(cen[i] for i in v.witness), v.equation)
                  for v in find_violations(center, _CENTER_BOOLEAN).values()]
    boolean_check = CheckReport.of(center.name, "center-boolean-algebra", violations)
    return CenterReport(algebra.name, base.methods, cen, base.agreement,
                        base.per_method, base.atoms, boolean_check)


def _subalgebra(algebra: FiniteNearSemiring, carrier, one: int, inv, what: str,
                name: str) -> FiniteNearSemiring:
    """The subalgebra on an ascending carrier with the given one and complement (a parent
    table), re-indexed densely and labelled as in the parent.  Raises, naming what, at the
    first pair in product order whose sum or product leaves the carrier, then where α does."""
    carrier = np.asarray(carrier, dtype=int)
    index = np.full(algebra.n, -1)          # parent -> local, -1 off the carrier
    index[carrier] = np.arange(len(carrier))
    fields = algebra._transport(index, carrier)
    bad = _first_true(np.any([t < 0 for t in fields.values() if np.ndim(t) == 2], axis=0))
    if bad is not None:
        x, y = (algebra.label(carrier[i]) for i in bad)
        raise AlgebraError(f"{what} is not closed at ({x},{y})")
    complement = index[inv[carrier]]
    if (complement < 0).any():
        x = algebra.label(carrier[int((complement < 0).argmax())])
        raise AlgebraError(f"{what} is not closed under α at {x}")
    fields.update(one=int(index[one]), inv=complement)
    return algebra._built(fields, name, tuple(map(algebra.label, carrier)))


# ---------------------------------------------------------------------------
# interval algebras and decomposition


@dataclass(frozen=True, eq=False)
class IntervalAlgebra:
    """The factor [0, e] of a central element, re-indexed densely.

    carrier lists the parent elements in ascending order; algebra is the
    interval as a standalone near semiring whose involution is x -> e·α(x).
    """
    parent: str
    top: int
    carrier: tuple
    algebra: FiniteNearSemiring

    def to_local(self, x: int) -> int:
        return self.carrier.index(x)

    def to_parent(self, i: int) -> int:
        return self.carrier[i]

    def to_dict(self) -> dict:
        return {"parent": self.parent, "top": self.top,
                "carrier": list(self.carrier), "algebra": self.algebra.to_document()}


# the unary table h is a homomorphism onto the tables and constants named target_*
_h, _target_add, _target_mul, _target_inv = (
    _op(name) for name in ("h", "target_add", "target_mul", "target_inv"))
_HOMOMORPHISM = ClauseSet([
    clause("operations", "xy", (_h(_add(X, Y)), _target_add(_h(X), _h(Y))),
           (_h(_mul(X, Y)), _target_mul(_h(X), _h(Y))),
           render="is not a homomorphism at ({x},{y})"),
    clause("complement", "x", (_h(_inv(X)), _target_inv(_h(X))),
           render="does not respect the complement at {x}"),
    clause("constants", "", (_h(ZERO), ("target_zero",)), (_h(ONE), ("target_one",)),
           render="moves the constants"),
])


def interval_algebra(algebra: FiniteNearSemiring, e: int) -> IntervalAlgebra:
    """Build and verify the interval algebra on [0, e] for central e.

    The carrier is computed both as {x : x ≤ e} and as {e·b : b in R} and the
    two must agree, so b -> e·b maps onto it; sum and product restrict, the
    complement is x -> e·α(x), and b -> e·b must be a homomorphism onto the
    result.
    """
    require(algebra, "involutive-integral", "interval algebra")
    _require_central(algebra, e)
    mul, l = algebra.mul, algebra.label
    below = np.flatnonzero(algebra.add[:, e] == e)
    image = np.flatnonzero(np.bincount(mul[e]))
    if not np.array_equal(below, image):
        raise AlgebraError(
            f"interval carriers differ for e={l(e)}: "
            f"{{x≤e}}={tuple(below.tolist())} but {{e·b}}={tuple(image.tolist())}")
    sub = _subalgebra(algebra, below, e, mul[e, algebra.inv], f"interval [0,{l(e)}]",
                      f"{algebra.name}[0,{l(e)}]")
    if sub.n >= 2:
        rep = check_axioms(sub, "involutive-integral")
        if not rep.passed:
            raise AlgebraError(
                f"interval [0,{l(e)}] of {algebra.name} fails involutive-integral: "
                f"{rep.violations[0].equation}")
    ops = dict(algebra.ops(), h=np.searchsorted(below, mul[e]),     # b -> e·b, local
               **{f"target_{name}": value for name, value in sub.ops().items()})
    found = _HOMOMORPHISM.violations(ops, algebra.n, algebra.labels)
    if found:
        raise AlgebraError(f"projection onto [0,{l(e)}] {next(iter(found.values())).equation}")
    return IntervalAlgebra(algebra.name, e, tuple(below.tolist()), sub)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    subject: str
    atoms: tuple
    factors: tuple                    # IntervalAlgebra per atom, ascending
    iso: tuple                        # element -> tuple of local factor indices
    indecomposable: tuple

    def factor_sizes(self) -> tuple:
        return tuple(f.algebra.n for f in self.factors)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "atoms": list(self.atoms),
            "factors": [f.to_dict() for f in self.factors],
            "iso": [list(t) for t in self.iso],
            "indecomposable": list(self.indecomposable),
        }

    def render(self, algebra: FiniteNearSemiring = None) -> str:
        lab = algebra.label if algebra is not None else str
        lines = [f"decomposition of {self.subject}: "
                 + " x ".join(f"{f.algebra.name}(n={f.algebra.n})" for f in self.factors)]
        lines.append(f"  atoms: {{{','.join(lab(e) for e in self.atoms)}}}")
        lines.append(f"  all factors directly indecomposable: {all(self.indecomposable)}")
        return "\n".join(lines)


def decompose(algebra: FiniteNearSemiring) -> DecompositionResult:
    """Decompose into directly indecomposable interval algebras.

    One factor per atom of the center.  Each projection b -> e·b is a
    homomorphism onto its factor, which interval_algebra verifies; the map
    b -> (e1·b, ..., ek·b) is verified injective, every factor is verified to
    have a two-element center (so it is directly indecomposable), and the
    atom bookkeeping of the binary splits is re-checked recursively.
    """
    require(algebra, "involutive-integral", "decomposition")
    report = central_elements(algebra, "equational")
    if algebra.n == 1:
        factor = interval_algebra(algebra, algebra.one)
        return DecompositionResult(algebra.name, report.atoms, (factor,), ((0,),), (True,))
    atoms = report.atoms
    if not atoms:
        raise AlgebraError(
            f"center of {algebra.name} has no atoms despite n={algebra.n} >= 2")
    factors = tuple(interval_algebra(algebra, e) for e in atoms)
    sizes = [f.algebra.n for f in factors]
    if math.prod(sizes) != algebra.n:
        raise AlgebraError(
            f"factor sizes {sizes} do not multiply to n={algebra.n} for {algebra.name}")
    iso = tuple(zip(*(np.searchsorted(f.carrier, algebra.mul[e]).tolist()
                      for e, f in zip(atoms, factors))))
    if len(set(iso)) != algebra.n:
        raise AlgebraError(f"decomposition map of {algebra.name} is not injective")
    flags = []
    for f in factors:
        cen = central_elements(f.algebra, "equational").centrals
        flags.append(len(cen) <= 2)
    _audit_binary_splits(algebra, atoms)
    return DecompositionResult(algebra.name, atoms, factors, iso, tuple(flags))


def _audit_binary_splits(algebra: FiniteNearSemiring, atoms) -> None:
    """Splitting at the first atom must shift the remaining atoms into [0, α(e)]."""
    if len(atoms) <= 1:
        return
    e = atoms[0]
    comp = interval_algebra(algebra, int(algebra.inv[e]))
    comp_atoms_local = central_elements(comp.algebra, "equational").atoms
    comp_atoms = tuple(sorted(comp.to_parent(i) for i in comp_atoms_local))
    if comp_atoms != tuple(atoms[1:]):
        raise AlgebraError(
            f"atoms of [0,α({algebra.label(e)})] are {comp_atoms}, "
            f"expected {tuple(atoms[1:])}")
    _audit_binary_splits(comp.algebra, comp_atoms_local)
