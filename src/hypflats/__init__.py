"""Intersection probabilities and distance laws for random totally geodesic
flats hitting a ball in d-dimensional hyperbolic space (curvature K < 0).

The analytic layer evaluates the distance density and the flat-space
distance CDF in closed form, and the intersection probability, the
distance CDF, the moments and the critical constant as 1-d integrals by
adaptive quadrature.  The Monte Carlo
layer validates them by simulation in the Beltrami-Klein model, where
rotation invariance reduces a trial to a ratio of two chi-squares with
d - q and gamma + 1 degrees of freedom, and the one-flat geometry API
(bases, flats, their intersection) gives the same law with full frames.
"""

from .analytic import (
    MomentResult,
    PhaseMode,
    atom_mass,
    critical_constant_rho,
    crofton_constant,
    distance_cdf,
    distance_cdf_grid,
    distance_density,
    euclidean_distance_cdf,
    euclidean_intersection_probability,
    intersection_probability,
    moment,
    phase_limit,
    reduce_to_unit_curvature,
)
from .errors import (
    ConstructionError,
    CurvatureModeError,
    DomainError,
    HypflatsError,
    ProbabilityRangeError,
    QuadratureError,
    RankError,
)
from .klein import (
    AffineFlat,
    IntersectionOutcome,
    flat_from_normal_offset,
    intersect_with_central_subspace,
)
from .linalg import Basis, min_norm_solution, orthonormalize, project
from .montecarlo import (
    DistributionSummary,
    HittingFlatSampler,
    SimEstimate,
    estimate_intersection_probability,
    ks_statistic,
    sample_central_subspace,
    sample_hitting_flat,
    simulate_distance_distribution,
)
from .quadrature import QuadResult, Tolerance, integrate_adaptive
from .special import (
    Curvature,
    FlatConfig,
    constant_D,
    klein_distance,
    klein_radius,
    klein_radius_inv,
    log_sphere_surface,
    sphere_surface,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special
    "Curvature",
    "FlatConfig",
    "sphere_surface",
    "log_sphere_surface",
    "constant_D",
    "klein_radius",
    "klein_radius_inv",
    "klein_distance",
    # quadrature
    "Tolerance",
    "QuadResult",
    "integrate_adaptive",
    # analytic
    "MomentResult",
    "PhaseMode",
    "crofton_constant",
    "reduce_to_unit_curvature",
    "intersection_probability",
    "euclidean_intersection_probability",
    "atom_mass",
    "distance_cdf",
    "distance_cdf_grid",
    "distance_density",
    "euclidean_distance_cdf",
    "moment",
    "critical_constant_rho",
    "phase_limit",
    # linalg
    "Basis",
    "orthonormalize",
    "project",
    "min_norm_solution",
    # klein
    "AffineFlat",
    "IntersectionOutcome",
    "flat_from_normal_offset",
    "intersect_with_central_subspace",
    # montecarlo
    "SimEstimate",
    "DistributionSummary",
    "HittingFlatSampler",
    "sample_central_subspace",
    "sample_hitting_flat",
    "estimate_intersection_probability",
    "simulate_distance_distribution",
    "ks_statistic",
    # errors
    "HypflatsError",
    "DomainError",
    "CurvatureModeError",
    "RankError",
    "ConstructionError",
    "QuadratureError",
    "ProbabilityRangeError",
]
