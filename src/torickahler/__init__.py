"""Toric Kähler metrics in action coordinates.

Compute and verify U(n)-invariant Kähler metrics on toric spaces from data on
the moment polytope: Legendre duality between Kähler and symplectic
potentials, scalar curvature through jets or finite differences, the exact
boundary matching that singles out the scalar-flat metric on the blow-up of
C^n, and its asymptotic decay toward the euclidean metric.
"""

from .errors import (
    AccuracyError,
    BracketRangeError,
    DecayFitError,
    DegeneratePotentialError,
    DimensionError,
    DomainError,
    NearBoundaryError,
    NonAdmissibleError,
    SingularPointError,
    ToricError,
)
from .jets import TaylorJet, arith, jet_pow, ln_jet
from .polytope import (
    AffineFunctional,
    DelzantPolytope,
    build_standard,
    canonical_potential,
)
from .potentials import (
    RadialKahlerPotential,
    TPotential,
    admissibility,
    custom_potential,
    f2_jet,
    f2_value,
    flat_potential,
    flat_radial,
    fubini_study_potential,
    fubini_study_radial,
    generalized_burns_potential,
    kahler_to_t_potential,
    local_t_potential,
    scalar_flat_family,
    symplectic_evaluator,
)
from .curvature import (
    CurvatureReport,
    HessianEval,
    LegendreRoundtrip,
    abreu_t_window,
    extremal_check,
    hessian_general,
    hessian_t_family,
    legendre_roundtrip,
    scalar_curvature_abreu,
    scalar_curvature_reduced,
)
from .scalarflat import (
    BoundaryMatch,
    boundary_match,
    burns_simanca_potential,
    delta_check,
    reconstruct_F,
    solve_boundary_coefficients,
)
from .asymptotics import DecayReport, chart_deviation, decay_scan

__version__ = "0.1.0"
