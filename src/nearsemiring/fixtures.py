"""Built-in algebras: hand-entered audit tables and derived constructions.

The audit tables (EX24, EX28, APXA, APXB) are stored exactly as printed in
their sources, including the defects the package exists to report; they are
never "repaired".  The derived fixtures (MV3, BOOL4, MO2) are rebuilt from
their defining constructions on first use and self-checked.  Product
fixtures are available through names like ``MV3xBOOL2`` (lowercase x).
"""
from __future__ import annotations

import numpy as np

from .core import AlgebraError, FiniteNearSemiring, product_algebra
from .varieties import BasicAlgebra, OrthoLattice
from . import transforms


def bool2() -> FiniteNearSemiring:
    """Two-element Boolean algebra as a near semiring: + = or, · = and, α = not."""
    return FiniteNearSemiring(
        [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1, inv=[1, 0], name="BOOL2")


def mv3_basic() -> BasicAlgebra:
    """Three-element chain 0 < h < 1 with truncated sum and x' = 1-x."""
    return BasicAlgebra(
        [[0, 1, 2], [1, 2, 2], [2, 2, 2]], [2, 1, 0], 0,
        name="MV3basic", labels=("0", "h", "1"))


def mv3() -> FiniteNearSemiring:
    """Three-element chain as a near semiring, derived from mv3_basic()."""
    algebra = transforms.lns_from_basic(mv3_basic())
    return FiniteNearSemiring(algebra.add, algebra.mul, algebra.zero, algebra.one,
                              inv=algebra.inv, name="MV3", labels=("0", "h", "1"))


def bool4() -> FiniteNearSemiring:
    """Four-element Boolean algebra, built as BOOL2 x BOOL2."""
    return product_algebra(bool2(), bool2(), name="BOOL4")


def mo2_ortholattice() -> OrthoLattice:
    """Height-two ortholattice with two complementary atom pairs a,a' and b,b'."""
    n = 6
    labels = ("0", "a", "a'", "b", "b'", "1")
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, 5] = True
    join = np.empty((n, n), dtype=int)
    for x in range(n):
        for y in range(n):
            if leq[x, y]:
                join[x, y] = y
            elif leq[y, x]:
                join[x, y] = x
            else:
                join[x, y] = 5
    return OrthoLattice(join, [5, 2, 1, 4, 3, 0], 0, 5, name="MO2", labels=labels)


def chain2_ortholattice() -> OrthoLattice:
    """The two-element chain as an (orthomodular, Boolean) lattice."""
    return OrthoLattice([[0, 1], [1, 1]], [1, 0], 0, 1, name="chain2")


def bool4_ortholattice() -> OrthoLattice:
    """Four-element Boolean lattice with complement as orthocomplement."""
    return product_algebra(chain2_ortholattice(), chain2_ortholattice(), name="BOOL4lat")


def mo2() -> FiniteNearSemiring:
    """MO2 as a near semiring: + = join, product by projection, α = ortho."""
    algebra = transforms.ons_from_oml(mo2_ortholattice())
    return FiniteNearSemiring(algebra.add, algebra.mul, algebra.zero, algebra.one,
                              inv=algebra.inv, name="MO2", labels=algebra.labels)


def ex24() -> FiniteNearSemiring:
    """Three-element table whose sum order and product order are different chains."""
    return FiniteNearSemiring(
        [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        0, 2, name="EX24", labels=("0", "a", "1"))


def ex28() -> FiniteNearSemiring:
    """Involutive but not integral: a three-chain whose top is not the unit."""
    return FiniteNearSemiring(
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 2], [0, 2, 2]],
        0, 1, inv=[2, 1, 0], name="EX28")


def apxa() -> FiniteNearSemiring:
    """Six-element audit table, as printed: the sum fails idempotence (b+b=a)."""
    return FiniteNearSemiring(
        [[0, 1, 2, 3, 3, 5],
         [1, 1, 1, 1, 1, 1],
         [2, 1, 2, 1, 1, 2],
         [3, 1, 1, 3, 3, 3],
         [3, 1, 1, 3, 3, 3],
         [5, 1, 2, 3, 3, 5]],
        [[0, 0, 0, 0, 0, 0],
         [0, 1, 2, 3, 4, 5],
         [0, 2, 2, 0, 5, 5],
         [0, 3, 0, 3, 3, 0],
         [0, 4, 0, 3, 3, 0],
         [0, 5, 0, 0, 0, 0]],
        0, 1, inv=[1, 0, 3, 2, 5, 4],
        name="APXA", labels=("0", "1", "e", "a", "b", "c"))


def apxb() -> FiniteNearSemiring:
    """Three-element audit table, as printed: annihilation fails (0·a=a)."""
    return FiniteNearSemiring(
        [[0, 1, 2], [1, 1, 1], [2, 1, 2]],
        [[0, 0, 2], [0, 1, 2], [0, 2, 2]],
        0, 1, inv=[1, 0, 2], name="APXB", labels=("0", "1", "a"))


_BUILDERS = {
    "BOOL2": bool2,
    "BOOL4": bool4,
    "EX24": ex24,
    "EX28": ex28,
    "APXA": apxa,
    "APXB": apxb,
    "MV3": mv3,
    "MO2": mo2,
}

DESCRIPTIONS = {
    "BOOL2": "two-element Boolean near semiring (or/and/not)",
    "BOOL4": "four-element Boolean near semiring, rebuilt as BOOL2xBOOL2",
    "EX24": "as-printed 3-element table whose sum and product orders differ (not integral)",
    "EX28": "as-printed 3-element involutive table that is not integral (α(0)=2)",
    "APXA": "as-printed 6-element independence candidate; sum table breaks idempotence and neutrality",
    "APXB": "as-printed 3-element independence candidate; product table breaks annihilation",
    "MV3": "three-element chain, rebuilt from its truncated-sum companion algebra",
    "MO2": "six-element orthomodular near semiring, rebuilt from its height-two ortholattice",
}


def names() -> tuple:
    return tuple(_BUILDERS)


def fixture(name: str) -> FiniteNearSemiring:
    """Look up a fixture; 'AxB' (lowercase x) builds direct products."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if "x" in name:
        parts = name.split("x")
        if all(p in _BUILDERS for p in parts):
            out = _BUILDERS[parts[0]]()
            for p in parts[1:]:
                out = product_algebra(out, _BUILDERS[p]())
            return out
    raise AlgebraError(
        f"unknown fixture {name!r}; known: {', '.join(names())} and products like MV3xBOOL2")


def catalog() -> tuple:
    """(name, one-line description) pairs, in catalog order."""
    return tuple((n, DESCRIPTIONS[n]) for n in _BUILDERS)
