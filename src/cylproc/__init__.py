"""Stationary anisotropic Poisson cylinder processes.

A numpy/scipy library for dilated flats in dimensions 2 and 3: exact
characteristics of the union set (volume fraction, covariance, contact
distributions, specific surface area), exact window-restricted simulation,
Monte Carlo estimators that verify every formula, and a pore-variance
constrained design optimizer.
"""

from .analytic import (
    PoreMoments,
    capacity_finite,
    covariance,
    covariance_2d_isotropic,
    covariance_derivative,
    linear_cdf,
    pore_moments,
    specific_surface,
    spherical_cdf,
    variance_bound_cs,
    volume_fraction,
)
from .estimate import (
    EstimateReport,
    est_covariance,
    est_linear_cdf,
    est_specific_surface_covderiv,
    est_specific_surface_linescan,
    est_spherical_cdf,
    est_volume_fraction,
)
from .euclid import (
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    ball_constants,
)
from .model import (
    DeterministicBase,
    DiscRadiusLaw,
    FixedAxes,
    GirdleBand,
    Isotropic,
    MixtureBase,
    ProcessSpec,
    RadiusLaw,
    spec_from_dict,
    spec_to_dict,
)
from .optimize import (
    DesignProblem,
    DesignSolution,
    isoperimetric_improvement,
    solve_radius_law,
    verify_solution,
)
from .rng import philox_stream
from .sim import (
    Realization,
    Window,
    contains,
    distance_to_union,
    export_realization_csv,
    import_realization_csv,
    ray_intervals,
    sample_realization,
)

__version__ = "0.1.0"
