"""Pore-variance-constrained maximization of the volume fraction.

With the intensity held fixed, the volume fraction grows with the mean
base area while the variance of the pore radius is controlled through the
mean base boundary.  Replacing any base by the disc of equal perimeter
can only increase the area (isoperimetric inequality), so optimal bases
are circular and the problem reduces to choosing a radius law R on
[0, R_max] that maximizes E[R^2] subject to E[R] <= c, where c combines
the variance budget with the radius cap.  Since R^2 <= R_max * R
pointwise with equality only at 0 and R_max, the optimum is the two-point
law supported on {0, R_max}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .analytic import pore_moments, variance_bound_cs
from .euclid import ConvexPolygon, Disc, Segment
from .model import ArgumentError, RadiusLaw, real
from .rng import philox_stream

__all__ = [
    "DesignProblem",
    "DesignSolution",
    "isoperimetric_improvement",
    "solve_radius_law",
    "verify_solution",
    "solution_to_json",
]


@dataclass(frozen=True)
class DesignProblem:
    """Fixed intensity, pore-radius variance budget, and manufacturable radius cap."""

    intensity: float
    eps: float
    r_max: float

    def __post_init__(self):
        object.__setattr__(self, "intensity", real("lambda", self.intensity))
        object.__setattr__(self, "eps", real("epsilon", self.eps))
        object.__setattr__(self, "r_max", real("r_max", self.r_max))
        variance_bound_cs(self.intensity, self.eps)  # lambda > 0 and the standing assumption on eps
        if self.r_max <= 0:
            raise ArgumentError("r_max", "radius cap must be positive")

    @property
    def mean_radius_cap(self) -> float:
        """c = min(sqrt(eps - 1/(pi lam)), R_max): the binding mean-radius budget."""
        return min(variance_bound_cs(self.intensity, self.eps) / (2.0 * math.pi), self.r_max)


@dataclass(frozen=True)
class DesignSolution:
    radius_law: RadiusLaw
    c: float
    q: float
    achieved_mean_area: float
    achieved_p: float
    var_h: float
    achieved_var_bound_satisfied: bool
    budget_eps: float


def isoperimetric_improvement(shape) -> tuple[Disc, float]:
    """Disc of equal perimeter and the (nonnegative) area gained by rounding.

    Rejected for segment bases: rounding is a statement about planar cross
    sections.
    """
    if isinstance(shape, Segment):
        raise ValueError("isoperimetric rounding applies to planar bases only")
    if not isinstance(shape, (Disc, ConvexPolygon)):
        raise TypeError(f"unsupported base {shape!r}")
    radius = shape.boundary / (2.0 * math.pi)
    disc = Disc(radius)
    return disc, disc.area - shape.area


def solve_radius_law(prob: DesignProblem) -> DesignSolution:
    """Radius law maximizing the volume fraction under the variance budget.

    Returns the two-point law {0 with 1-q, R_max with q}, q = c / R_max,
    which attains the maximal second moment E[R^2] = c * R_max among laws
    with E[R] <= c supported in [0, R_max].
    """
    c = prob.mean_radius_cap
    if c <= 0.0:
        raise ValueError("budget forces empty process: the variance budget admits only "
                         "zero-radius fibers, so no positive volume fraction is reachable")
    q = c / prob.r_max
    if q >= 1.0:
        law = RadiusLaw(((prob.r_max, 1.0),))
        q = 1.0
    else:
        law = RadiusLaw(((0.0, 1.0 - q), (prob.r_max, q)))
    second = q * prob.r_max**2
    mean_area = math.pi * second
    p = -math.expm1(-prob.intensity * mean_area)
    moments = pore_moments(prob.intensity, 2.0 * math.pi * law.mean)
    return DesignSolution(
        radius_law=law,
        c=c,
        q=q,
        achieved_mean_area=mean_area,
        achieved_p=p,
        var_h=moments.variance,
        achieved_var_bound_satisfied=bool(moments.variance <= prob.eps + 1e-12),
        budget_eps=prob.eps,
    )


def verify_solution(prob: DesignProblem, sol: DesignSolution, n_random: int, seed: int) -> bool:
    """Numerical certificate for the returned law.

    Draws random feasible radius laws (Dirichlet weights on a grid, radii
    rescaled into the mean budget) and checks that none improves E[R^2] by
    more than 1e-9; also re-checks the variance budget of the solution.
    """
    c = prob.mean_radius_cap
    if sol.radius_law.mean > c + 1e-12 or sol.radius_law.max_radius > prob.r_max + 1e-12:
        return False
    if pore_moments(prob.intensity, 2.0 * math.pi * sol.radius_law.mean).variance > prob.eps + 1e-9:
        return False
    best = sol.radius_law.second_moment
    rng = philox_stream(seed, 0)
    grid = np.linspace(0.0, prob.r_max, 41)
    for _ in range(n_random):
        w = rng.dirichlet(np.full(len(grid), 0.35))
        radii = grid.copy()
        mean = float(w @ radii)
        if mean > c and mean > 0:
            radii *= c / mean
        second = float(w @ radii**2)
        if second > best + 1e-9:
            return False
    return True


def solution_to_json(sol: DesignSolution) -> str:
    return json.dumps(
        {
            "radius_law": [[r, q] for r, q in sol.radius_law.atoms],
            "c": sol.c,
            "q": sol.q,
            "achieved_mean_area": sol.achieved_mean_area,
            "achieved_p": sol.achieved_p,
            "var_H": sol.var_h,
            "var_bound_satisfied": sol.achieved_var_bound_satisfied,
            "budget_eps": sol.budget_eps,
        },
        indent=2,
    )
