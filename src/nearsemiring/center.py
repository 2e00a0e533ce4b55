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

from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .core import (
    IDENTITIES, ONE, ZERO, AlgebraError, CheckReport, ClauseSet, FiniteNearSemiring,
    PreconditionError, PropertyReport, X, Y, Z, _add, _inv, _mul, check_axioms, clause,
    _in_universe, _needs_inv, clause_results, find_violations, require,
)
from .congruences import is_factor_pair, principal_congruence


def church_q(algebra: FiniteNearSemiring, x: int, y: int, z: int) -> int:
    """Selector term q(x,y,z) = (x·y) + (α(x)·z)."""
    _needs_inv(algebra)
    _in_universe(algebra, x, y, z)
    add, mul, inv = algebra.add, algebra.mul, algebra.inv
    return int(add[mul[x, y], mul[inv[x], z]])


def _q(x, y, z):
    """The selector as a term."""
    return _add(_mul(x, y), _mul(_inv(x), z))


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
_CENTRAL = {which: ClauseSet([IDENTITIES[f"central-{which}"]]) for which in "12"}


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
    found = _CENTRAL[which].violations(algebra.ops(), algebra.n, pinned={"e": e})
    return found[f"central-{which}"].witness if found else None


def _central_equational_witness(algebra: FiniteNearSemiring, e: int):
    """First witness violating one of the two centrality identities at e, or None."""
    for which in ("1", "2"):
        w = central_identity_violation(algebra, e, which)
        if w is not None:
            return (f"central-{which}", w)
    return None


def is_central_equational(algebra: FiniteNearSemiring, e: int) -> bool:
    return _central_equational_witness(algebra, e) is None


def _require_central(algebra: FiniteNearSemiring, e: int) -> None:
    _in_universe(algebra, e)
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
    n, zero, one = algebra.n, algebra.zero, algebra.one
    small = np.min_scalar_type(n - 1)
    add, mul, inv = (t.astype(small) for t in (algebra.add, algebra.mul, algebra.inv))
    qe = add[np.ix_(mul[e], mul[inv[e]])]      # qe[y, z] = q(e, y, z)
    if not np.array_equal(qe.diagonal(), np.arange(n)):
        return False
    # q(e, q(e, a, b), c) = q(e, a, c) = q(e, a, q(e, b, c)), on the grid (a, b, c)
    ac = qe[:, None, :]
    if not ((qe[qe] == ac).all() and (qe[:, qe] == ac).all()):
        return False
    if qe[zero, zero] != zero or qe[one, one] != one:
        return False
    if not np.array_equal(qe[inv][:, inv], inv[qe]):
        return False
    # q(e, a∘c, b∘d) = q(e, a, b)∘q(e, c, d) for ∘ = +, ·: the left side is read on the
    # grid (a, c, b, d) and transposed
    # qe[:, t][r, b, d] = q(e, r, b∘d) and t[:, qe][r, c, d] = r∘q(e, c, d)
    reads = [(t, qe[:, t], t[:, qe]) for t in (add, mul)]
    step = max(1, _FULL_CELLS // n ** 3)
    for lo in range(0, n, step):
        for t, left, right in reads:
            lhs = left[t[lo:lo + step]].transpose(0, 2, 1, 3)
            if not (lhs == right[qe[lo:lo + step]]).all():
                return False
    return int(qe[one, zero]) == e


def is_central_congruence(algebra: FiniteNearSemiring, e: int) -> bool:
    """Factor-congruence test: (θ(e,0), θ(e,1)) must be a factor pair."""
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
    for m in method:
        if m not in _METHOD_FNS:
            raise AlgebraError(
                f"unknown centrality method {m!r}; known: {', '.join(CENTRALITY_METHODS)} or 'all'")
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


# e = X is pinned to the element under study; x, y = Y, Z
_CENTRAL_LEMMAS = ClauseSet([
    clause("shift-absorption", "ex", (_add(_mul(X, Y), _inv(X)), _add(Y, _inv(X))),
           render="(e·{x})+α(e)≠{x}+α(e)"),
    clause("projection-idempotence", "ex",
           (_mul(X, _mul(X, Y)), _mul(X, Y)), (_mul(_mul(X, Y), X), _mul(X, Y)),
           render="e·(e·{x})≠e·{x} or (e·{x})·e≠e·{x}"),
    clause("complement-annihilation", "e", (_mul(X, _inv(X)), ZERO), render="e·α(e)={lhs}"),
    clause("central-commutation", "ex", (_mul(X, Y), _mul(Y, X)), render="e·{x}≠{x}·e"),
    clause("left-distributivity-at-e", "exy",
           (_mul(X, _add(Y, Z)), _add(_mul(X, Y), _mul(X, Z))),
           render="e·({x}+{y})≠(e·{x})+(e·{y})"),
    clause("left-monotonicity-at-e", "exy",
           (_add(_mul(X, Y), _mul(X, Z)), _mul(X, Z), (_add(Y, Z), Z)),
           render="{x}≤{y} but e·{x}≰e·{y}"),
    clause("complement-chain-annihilation", "ex", (_mul(X, _mul(_inv(X), Y)), ZERO),
           render="e·(α(e)·{x})={lhs}"),
])


def central_lemma_suite(algebra: FiniteNearSemiring, e: int) -> PropertyReport:
    """Derived facts about a single equationally central element."""
    require(algebra, "involutive-integral", "central-element facts")
    _require_central(algebra, e)
    found = find_violations(algebra, _CENTRAL_LEMMAS, pinned={"e": e})
    return PropertyReport(algebra.name, f"central-element {algebra.label(e)}",
                          tuple(clause_results(_CENTRAL_LEMMAS, found)))


# checked with every variable ranging over the center
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

    ``method`` is passed to ``central_elements``; the checks run over the
    centrals it reports, those of the first method when several are named.
    """
    require(algebra, "involutive-integral", "center algebra")
    base = central_elements(algebra, method)
    cen = base.centrals
    add, mul, inv, l = algebra.add, algebra.mul, algebra.inv, algebra.label
    cset = set(cen)
    for x, y in iproduct(cen, repeat=2):
        if int(add[x, y]) not in cset or int(mul[x, y]) not in cset:
            raise AlgebraError(
                f"center of {algebra.name} is not closed at ({l(x)},{l(y)})")
    for x in cen:
        if int(inv[x]) not in cset:
            raise AlgebraError(f"center of {algebra.name} is not closed under α at {l(x)}")

    boolean_check = CheckReport.of(f"Ce({algebra.name})", "center-boolean-algebra",
                                   find_violations(algebra, _CENTER_BOOLEAN, carrier=cen).values())
    return CenterReport(algebra.name, base.methods, cen, base.agreement,
                        base.per_method, base.atoms, boolean_check)


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


def interval_algebra(algebra: FiniteNearSemiring, e: int) -> IntervalAlgebra:
    """Build and verify the interval algebra on [0, e] for central e.

    The carrier is computed both as {x : x ≤ e} and as {e·b : b in R} and the
    two must agree; sum and product restrict, the complement is x -> e·α(x),
    and b -> e·b must be a surjective homomorphism onto the result.
    """
    require(algebra, "involutive-integral", "interval algebra")
    _require_central(algebra, e)
    add, mul, inv, n, l = algebra.add, algebra.mul, algebra.inv, algebra.n, algebra.label
    below = tuple(x for x in range(n) if add[x, e] == e)
    image = tuple(sorted({int(mul[e, b]) for b in range(n)}))
    if below != image:
        raise AlgebraError(
            f"interval carriers differ for e={l(e)}: "
            f"{{x≤e}}={below} but {{e·b}}={image}")
    index = {x: i for i, x in enumerate(below)}
    k = len(below)
    for x, y in iproduct(below, repeat=2):
        if int(add[x, y]) not in index or int(mul[x, y]) not in index:
            raise AlgebraError(f"interval [0,{l(e)}] is not closed at ({l(x)},{l(y)})")
    sub_add = np.array([[index[int(add[x, y])] for y in below] for x in below])
    sub_mul = np.array([[index[int(mul[x, y])] for y in below] for x in below])
    sub_inv = np.array([index[int(mul[e, inv[x]])] for x in below])
    sub = FiniteNearSemiring(
        sub_add, sub_mul, index[algebra.zero], index[e], inv=sub_inv,
        name=f"{algebra.name}[0,{l(e)}]", labels=tuple(l(x) for x in below))
    if k >= 2:
        rep = check_axioms(sub, "involutive-integral")
        if not rep.passed:
            raise AlgebraError(
                f"interval [0,{l(e)}] of {algebra.name} fails involutive-integral: "
                f"{rep.violations[0].equation}")
    # b -> e·b is a surjective homomorphism onto the interval
    h = [index[int(mul[e, b])] for b in range(n)]
    if set(h) != set(range(k)):
        raise AlgebraError(f"projection onto [0,{l(e)}] is not surjective")
    for x, y in iproduct(range(n), repeat=2):
        if h[add[x, y]] != sub_add[h[x], h[y]] or h[mul[x, y]] != sub_mul[h[x], h[y]]:
            raise AlgebraError(
                f"projection onto [0,{l(e)}] is not a homomorphism at ({l(x)},{l(y)})")
    for x in range(n):
        if h[inv[x]] != sub_inv[h[x]]:
            raise AlgebraError(
                f"projection onto [0,{l(e)}] does not respect the complement at {l(x)}")
    if h[algebra.zero] != sub.zero or h[algebra.one] != sub.one:
        raise AlgebraError(f"projection onto [0,{l(e)}] moves the constants")
    return IntervalAlgebra(algebra.name, e, below, sub)


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

    One factor per atom of the center; the map b -> (e1·b, ..., ek·b) is
    verified to be a bijective homomorphism, every factor is verified to
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
    prod = 1
    for s in sizes:
        prod *= s
    if prod != algebra.n:
        raise AlgebraError(
            f"factor sizes {sizes} do not multiply to n={algebra.n} for {algebra.name}")
    mul = algebra.mul
    iso = tuple(tuple(f.to_local(int(mul[e, b])) for e, f in zip(atoms, factors))
                for b in range(algebra.n))
    if len(set(iso)) != algebra.n:
        raise AlgebraError(f"decomposition map of {algebra.name} is not injective")
    for x, y in iproduct(range(algebra.n), repeat=2):
        for i, f in enumerate(factors):
            fa = f.algebra
            if iso[algebra.add[x, y]][i] != fa.add[iso[x][i], iso[y][i]] or \
               iso[algebra.mul[x, y]][i] != fa.mul[iso[x][i], iso[y][i]]:
                raise AlgebraError(
                    f"decomposition map of {algebra.name} is not a homomorphism")
    for x in range(algebra.n):
        for i, f in enumerate(factors):
            if iso[algebra.inv[x]][i] != f.algebra.inv[iso[x][i]]:
                raise AlgebraError(
                    f"decomposition map of {algebra.name} ignores the complement")
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
