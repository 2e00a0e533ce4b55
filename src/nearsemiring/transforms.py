"""Translations between near semirings and their companion structures.

Each direction is a table-level construction on the same carrier; the
output is re-checked through the independent variety checkers before it is
returned, so a translation can never silently emit a malformed structure.
Round trips are verified pointwise, operation by operation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AlgebraError, FiniteNearSemiring
from .varieties import (
    BasicAlgebra, OrthoLattice, check_basic_algebra, check_lukasiewicz,
    check_oml, check_orthomodular_ns, require_basic, require_lukasiewicz,
    require_oml, require_orthomodular,
)


def _translated(out, report, source, what: str):
    """The translation of source, unless the report of its re-check failed."""
    if not report.passed:
        raise AlgebraError(f"translation of {source.name} {what}: {report.violations[0].equation}")
    return out


def basic_from_lns(algebra: FiniteNearSemiring) -> BasicAlgebra:
    """Basic algebra on the same carrier: x⊕y = α((α(x)+y)·α(y)), ' = α."""
    require_lukasiewicz(algebra, "translation to basic algebra")
    add, mul, inv, n = algebra.add, algebra.mul, algebra.inv, algebra.n
    t = add[inv, :]                                   # t[x, y] = α(x)+y
    oplus = inv[mul[t, np.broadcast_to(inv, (n, n))]]
    basic = BasicAlgebra(oplus, inv.copy(), algebra.zero,
                         name=f"B({algebra.name})", labels=algebra.labels)
    return _translated(basic, check_basic_algebra(basic), algebra,
                       "violates the basic-algebra axioms")


def lns_from_basic(basic: BasicAlgebra) -> FiniteNearSemiring:
    """Near semiring on the same carrier: x+y = (x'⊕y)'⊕y, x·y = (x'⊕y')', α = '."""
    rep = require_basic(basic, "translation to near semiring")
    op, neg, n = basic.oplus, basic.neg, basic.n
    add = op[neg[op[neg, :]], np.broadcast_to(np.arange(n), (n, n))]
    mul = neg[op[np.ix_(neg, neg)]]
    algebra = FiniteNearSemiring(
        add, mul, basic.zero, basic.one, inv=neg.copy(),
        name=f"R({basic.name})", labels=basic.labels)
    out = check_lukasiewicz(algebra)
    _translated(algebra, out, basic, "is not a Łukasiewicz near semiring")
    if rep.tag("mv") and not out.tag("semiring"):
        raise AlgebraError(
            f"{basic.name} has associative ⊕ but its translation is not a semiring")
    return algebra


def ons_from_oml(lattice: OrthoLattice) -> FiniteNearSemiring:
    """Near semiring from an orthomodular lattice: + = ∨, x·y = (x∨y')∧y, α = '."""
    require_oml(lattice, "translation to near semiring")
    jn, mt, oc, n = lattice.join, lattice.meet, lattice.ortho, lattice.n
    mul = mt[jn[:, oc], np.broadcast_to(np.arange(n), (n, n))]
    algebra = FiniteNearSemiring(
        jn.copy(), mul, lattice.zero, lattice.one, inv=oc.copy(),
        name=f"R({lattice.name})", labels=lattice.labels)
    return _translated(algebra, check_orthomodular_ns(algebra), lattice,
                       "is not an orthomodular near semiring")


def oml_from_ons(algebra: FiniteNearSemiring) -> OrthoLattice:
    """Orthomodular lattice from an orthomodular near semiring: ∨ = +, ' = α."""
    require_orthomodular(algebra, "translation to lattice")
    lattice = OrthoLattice(
        algebra.add.copy(), algebra.inv.copy(), algebra.zero, algebra.one,
        name=f"L({algebra.name})", labels=algebra.labels)
    return _translated(lattice, check_oml(lattice), algebra, "is not an orthomodular lattice")


# ---------------------------------------------------------------------------
# round trips


@dataclass(frozen=True)
class RoundTripReport:
    direction: str
    pointwise_equal: bool
    mismatch: tuple = None          # (operation, args, expected, actual)
    mismatches: tuple = ()          # all of them, only under verbose

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "pointwise_equal": self.pointwise_equal,
            "mismatch": list(self.mismatch) if self.mismatch else None,
            "mismatches": [list(m) for m in self.mismatches],
        }

    def render(self) -> str:
        head = f"roundtrip {self.direction}: " + (
            "pointwise-equal" if self.pointwise_equal else "MISMATCH")
        if self.pointwise_equal:
            return head
        op, args, exp, act = self.mismatch
        lines = [head, f"  first mismatch: {op}{args} expected {exp}, got {act}"]
        for m in self.mismatches[1:]:
            lines.append(f"  also: {m[0]}{m[1]} expected {m[2]}, got {m[3]}")
        return "\n".join(lines)


def _compare(direction, pairs, verbose):
    """pairs: (op name, original table/constant, recovered table/constant)."""
    mismatches = []
    for op, orig, back in pairs:
        orig = np.asarray(orig)
        back = np.asarray(back)
        if orig.ndim == 0:
            if int(orig) != int(back):
                mismatches.append((op, (), int(orig), int(back)))
            continue
        where = [tuple(args) for args in np.argwhere(orig != back).tolist()]
        mismatches += [(op, args, int(orig[args]), int(back[args]))
                       for args in (where if verbose else where[:1])]
    mismatches.sort(key=lambda m: (m[0], m[1]))
    return RoundTripReport(
        direction, not mismatches,
        mismatch=mismatches[0] if mismatches else None,
        mismatches=tuple(mismatches) if verbose else (),
    )


def roundtrip_check(structure, via: str, verbose: bool = False) -> RoundTripReport:
    """Compose the two translations of a kind and compare all tables pointwise.

    For a near semiring, via='basic' checks lns -> basic -> lns and
    via='oml' checks ons -> oml -> ons; for a BasicAlgebra or OrthoLattice
    input the composition runs in the opposite order.  Every field the
    structure's kind declares is compared.
    """
    if isinstance(structure, FiniteNearSemiring):
        if via == "basic":
            back = lns_from_basic(basic_from_lns(structure))
        elif via == "oml":
            back = ons_from_oml(oml_from_ons(structure))
        else:
            raise AlgebraError(f"via must be 'basic' or 'oml', got {via!r}")
        direction = f"lns-via-{via}"
    elif isinstance(structure, BasicAlgebra):
        if via != "basic":
            raise AlgebraError("a basic algebra only round-trips via 'basic'")
        back, direction = basic_from_lns(lns_from_basic(structure)), "basic-via-lns"
    elif isinstance(structure, OrthoLattice):
        if via != "oml":
            raise AlgebraError("an ortholattice only round-trips via 'oml'")
        back, direction = oml_from_ons(ons_from_oml(structure)), "oml-via-lns"
    else:
        raise AlgebraError(f"cannot round-trip object of type {type(structure).__name__}")
    return _compare(direction, [(op, getattr(structure, op), getattr(back, op))
                                for op in structure._kind.fields], verbose)
