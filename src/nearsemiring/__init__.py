"""Finite near semirings with involution: a verification and search toolkit.

Load or build finite operation tables, audit them clause by clause against
axiom profiles, translate between near semirings and their companion
structures (basic algebras, MV-style chains, orthomodular lattices),
compute congruence lattices and witness terms, detect central elements by
independent methods and decompose into directly indecomposable factors, and
exhaustively enumerate small models up to isomorphism.
"""
from .core import (
    AlgebraError, CheckReport, Clause, ClauseResult, ClauseSet, DocumentError, FiniteNearSemiring,
    PartialOrderReport, PreconditionError, PROFILES, PropertyReport, TableStack, Violation,
    WitnessTermReport, check_axioms, check_involution, core_property_suite,
    dual_algebra, dump_algebra, induced_order, load_algebra, product_algebra,
)
from .varieties import (
    BasicAlgebra, OrthoLattice, SectionalInvolution, check_basic_algebra,
    check_lukasiewicz, check_oml, check_orthomodular_ns, lukasiewicz_suite,
    oml_commutes_suite, sectional_involution,
)
from .transforms import (
    RoundTripReport, basic_from_lns, lns_from_basic, oml_from_ons, ons_from_oml,
    roundtrip_check,
)
from .congruences import (
    Congruence, all_congruences, congruence_lattice_properties, is_congruence,
    is_factor_pair, join_partitions, meet_partitions, principal_congruence,
    quotient_algebra, witness_term_checks,
)
from .center import (
    CenterReport, DecompositionResult, IntervalAlgebra, CENTRALITY_METHODS,
    central_elements, central_identity_violation, central_lemma_suite,
    center_algebra, check_church, church_q, decompose, interval_algebra,
)
from .search import (
    IDENTITIES, SearchConstraint, SearchResult, are_isomorphic,
    canonical_form, canonicalize, enumerate_models, find_model,
    identity_first_violation, identity_holds, parse_constraint,
)
from . import fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
