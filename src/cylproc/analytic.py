"""Closed-form characteristics of the union set of a Poisson cylinder process.

Volume fraction, capacity functional on finite point sets, covariance and
its directional derivative, linear and spherical contact distributions,
specific surface area, and the pore-radius moments used by the design
module.

The directional law enters only through two members (see
``cylproc.model``): ``radial_mean``, the mean of f(|Pr h|) split at the
kinks of f, serves the segment and disc atoms, whose covariogram depends
on |t| alone, and the mean projected length E[h, L]; ``union_mean``, the
mean of f(the projected points), integrates over the law's arc in the
plane and otherwise sums over the complement frames of its fixed axes or
product-rule nodes, held read-only per rule and k.  It takes the union
volume of three or more points and, on the one point h, the polygon
atoms' covariogram and their slope times [h, L].  No law or shape class
is named here.  The split rules reach machine precision on the isotropic
worked cases.  Polygon atoms, and capacities of three or more points in
space, use the product rules, which are not split at kinks: 64 x 128
nodes on the hemisphere, 48 x 96 on a girdle band.  For the unit square
these differ from rules twice as fine per axis by up to 1.7e-4 relative
in the covariance and its derivative (on the girdle band) and 3.7e-5 in
the three-point capacity; tests/test_quadrature.py holds those bounds.
The base enters only through each shape's batched ``covariogram``,
``covariogram_derivative``, ``intersection_areas`` and ``union_areas``,
called once for all the nodes or fixed axes; no shape formula lives
here.  Two and three points reduce to inclusion-exclusion: three
covariograms and one triple intersection per node for three, with no
union sweep; four or more run the union kernel.  For a polygon the
covariogram, the intersection and the union all run on its one
fixed-normal clip.  scipy serves only ``pore_moments`` and is imported
there, on first use, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euclid import Direction, crofton_factor, haar_mean_line_det, haar_mean_plane_det
from .model import ArgumentError, ProcessSpec, direction, real, reals

MAX_CAPACITY_POINTS = 16  # cost cap of the union-of-translates areas

__all__ = [
    "PoreMoments",
    "volume_fraction",
    "capacity_finite",
    "covariance",
    "covariance_2d_isotropic",
    "covariance_derivative",
    "linear_cdf",
    "spherical_cdf",
    "specific_surface",
    "pore_moments",
    "variance_bound_cs",
]


# ---------------------------------------------------------------------------
# expectations over the base and directional laws
# ---------------------------------------------------------------------------

def _split_atoms(spec: ProcessSpec):
    """(radial, polygon) atoms as (shape, weight) lists; zero atoms drop out."""
    radial, polys = [], []
    for shape, w in spec.base.atoms():
        if shape is not None:
            (radial if shape.radial else polys).append((shape, w))
    return radial, polys


def _expect_gamma(spec: ProcessSpec, h) -> float:
    """E over the shape law of the base covariogram at the projected lag h, a vector in R^d."""
    r = float(np.linalg.norm(h))
    if r == 0.0:
        return spec.base.mean_area
    radial, polys = _split_atoms(spec)

    def g(q):  # the radial atoms' mean covariogram at |t| = q, for arrays of q
        t = np.zeros(np.shape(q) + (spec.d - spec.k,))
        t[..., 0] = q
        return sum(w * shape.covariogram(t) for shape, w in radial)

    total = 0.0
    if radial:  # g kinks where the projected lag reaches an atom's diameter
        total += spec.alpha.radial_mean(spec, h, r, g, [shape.diameter for shape, _ in radial])
    if polys:
        total += spec.alpha.union_mean(spec, h[None], lambda t: sum(w * p.covariogram(t[:, 0]) for p, w in polys), ())
    return total


def _expect_gamma_prime(spec: ProcessSpec, unit_h: np.ndarray) -> float:
    """E over the shape law of gamma'(o, unit projected lag) * [h, L].

    The radial atoms' slope is a constant, times E[h, L], the radial mean
    of the projected length q of the unit h itself.
    """
    radial, polys = _split_atoms(spec)
    const = sum(w * shape.covariogram_derivative() for shape, w in radial)
    total = const * spec.alpha.radial_mean(spec, unit_h, 1.0, lambda q: q, ()) if const != 0.0 else 0.0

    def slope(t):  # [h, L] gamma'_K(o, u) of the polygon atoms, u = t / |t|, t the projected unit h
        nt = np.sqrt(np.vecdot(t[:, 0], t[:, 0]))
        ok = nt > 1e-14  # [h, L] vanishes together with the projection
        out = np.zeros(len(nt))
        out[ok] = nt[ok] * sum(w * p.covariogram_derivative(t[ok, 0] / nt[ok, None]) for p, w in polys)
        return out

    if polys:
        total += spec.alpha.union_mean(spec, unit_h[None], slope, ())
    return total


# ---------------------------------------------------------------------------
# public characteristics
# ---------------------------------------------------------------------------

def volume_fraction(spec: ProcessSpec) -> float:
    """Probability that a fixed point is covered: 1 - exp(-lambda * E[base volume])."""
    return -math.expm1(-spec.intensity * spec.base.mean_area)


def covariance(spec: ProcessSpec, h) -> float:
    """Two-point coverage probability C(h) = P(o and h both covered): 2 p less the two-point capacity, by expm1."""
    h = reals("h", h, (spec.d,))
    vol = 2.0 * spec.base.mean_area - _expect_gamma(spec, h)
    return 2.0 * volume_fraction(spec) + math.expm1(-spec.intensity * vol)


def covariance_2d_isotropic(lam: float, a: float, r: float) -> float:
    """Closed-form covariance of isotropic bands of half-width a in the plane."""
    lam, a, r = real("lam", lam), real("a", a), real("r", r)
    if lam <= 0 or a <= 0 or r < 0:
        raise ValueError("need lam > 0, a > 0, r >= 0")
    if r <= 2.0 * a:
        expo = -2.0 * lam * a - 2.0 * lam * r / math.pi
    else:
        expo = -2.0 * lam * a - (lam / math.pi) * (
            4.0 * a * math.acos(2.0 * a / r)
            + 2.0 * r * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * a * a / (r * r))))
        )
    return 1.0 - 2.0 * math.exp(-2.0 * lam * a) + math.exp(expo)


def covariance_derivative(spec: ProcessSpec, h_dir) -> float:
    """One-sided directional derivative of the covariance at the origin.

    Equals lambda * exp(-lambda E[A]) * E[gamma'(o, u) * [h, L]] where u is
    the unit projected direction; the integrand vanishes together with the
    projection when h lies in the direction space.
    """
    vec = reals("h_dir", h_dir.vec if isinstance(h_dir, Direction) else h_dir, (spec.d,))
    n = float(np.linalg.norm(vec))
    if abs(n - 1.0) > 1e-9:
        raise ArgumentError("h_dir", "h_dir must be a unit vector")
    lam = spec.intensity
    return lam * math.exp(-lam * spec.base.mean_area) * _expect_gamma_prime(spec, vec / n)


def capacity_finite(spec: ProcessSpec, points) -> float:
    """Hitting probability of a finite point set.

    1 - exp(-lambda * E[volume of the base-sweep of the projected points]).
    Pairs and triples reduce to inclusion-exclusion: a pair through the
    mean covariogram, a triple through three covariograms and the area of
    the triple intersection at each node.  Four or more points use exact
    union-of-translates areas (arc tracing for discs, the fixed-normal
    clip for polygons).  Triples and larger sets are averaged by the law's
    ``union_mean``.
    """
    pts = reals("points", points, (None, spec.d))
    if not 0 < len(pts) <= MAX_CAPACITY_POINTS:
        raise ArgumentError("points", f"the point set must hold 1 to {MAX_CAPACITY_POINTS} points")
    if len(pts) == 1:
        return volume_fraction(spec)
    if len(pts) == 2:
        vol = 2.0 * spec.base.mean_area - _expect_gamma(spec, pts[1] - pts[0])
    else:  # the union volume kinks where a projected pairwise gap matches an atom diameter
        targets = [shape.diameter for shape, _ in _split_atoms(spec)[0]]
        vol = spec.alpha.union_mean(spec, pts, lambda proj: _union_volumes(spec, proj), targets)
    return -math.expm1(-spec.intensity * vol)


def _union_volumes(spec: ProcessSpec, proj: np.ndarray) -> np.ndarray:
    """E over the base law of the volume of union_i (p_i - K) for each node; proj is (N, n, m).

    Three points reduce to inclusion-exclusion (Schneider & Weil 2008, sec. 9.1): 3|K| minus the
    covariograms of the three differences plus the area of the triple intersection.
    """
    total = np.zeros(len(proj))
    for shape, w in spec.base.atoms():
        if shape is None:
            continue
        if proj.shape[1] == 3:
            pairs = sum(shape.covariogram(proj[:, i] - proj[:, j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            total += w * (3.0 * shape.area - pairs + shape.intersection_areas(proj))
        else:
            total += w * shape.union_areas(proj)
    return total


def linear_cdf(spec: ProcessSpec, eta: Direction, r: float) -> float:
    """Linear contact distribution in direction eta, for every base kind.

    1 - exp(-lambda r C_o(eta)) with C_o(eta) = -E[gamma'_K(o, u) [eta, L]]:
    the mean width of the base's shadow across u, the unit projection of
    eta onto the complement, times the projected length [eta, L].
    """
    eta_vec = direction("eta", eta, spec.d).vec
    r = real("r", r, minimum=0)
    spec.require_positive_volume()
    c_o = -_expect_gamma_prime(spec, eta_vec)
    return -math.expm1(-spec.intensity * r * c_o)


def spherical_cdf(spec: ProcessSpec, r: float) -> float:
    """Spherical contact distribution (distance from an uncovered point).

    The Steiner formula 1 - exp(-lambda (r E[S(K)] + (m - 1) pi r^2)) in
    the complement of dimension m; for m = 1 a segment's boundary counts
    its two endpoints, so E[S] = 2 whatever the cross-section law.
    """
    r = real("r", r, minimum=0)
    spec.require_positive_volume()
    m = spec.d - spec.k
    return -math.expm1(-spec.intensity * (r * spec.base.mean_boundary + (m - 1) * math.pi * r * r))


def specific_surface(spec: ProcessSpec) -> float:
    """Mean boundary measure of the union set per unit volume: lambda exp(-lambda E[A]) E[S(K)].

    Integrates the covariance derivative over Haar lines.  By Fubini and
    rotation invariance the line average factorizes into the polar part,
    the Haar mean of [xi, L], and the mean of gamma'_K(o, u) over unit u in
    the complement, which is -S(K) / crofton_factor(d - k) by Cauchy's
    projection formula (Slivnyak-Mecke; Schneider & Weil 2008).  The Haar
    means and the Crofton factor stay computed, so that their product
    certifies the identity.
    """
    lam = spec.intensity
    d, k = spec.d, spec.k
    haar = haar_mean_line_det(d) if k == 1 else haar_mean_plane_det()
    slope = -spec.base.mean_boundary / crofton_factor(d - k)
    return -lam * crofton_factor(d) * math.exp(-lam * spec.base.mean_area) * (slope * haar)


def _intensity(lam) -> float:
    """A positive finite intensity, or an ArgumentError naming lambda."""
    lam = real("lambda", lam)
    if lam <= 0:
        raise ArgumentError("lambda", "intensity must be positive")
    return lam


@dataclass(frozen=True)
class PoreMoments:
    """First two moments of the pore radius at an uncovered point."""

    mean: float
    second_moment: float
    variance: float


def pore_moments(lam: float, c_s: float) -> PoreMoments:
    """Moments of the pore radius for axial cylinders in space.

    The pore radius has distribution 1 - exp(-lambda(r c_s + pi r^2)), so
    with y = c_s sqrt(lam / (4 pi)):
        E H   = erfcx(y) / (2 sqrt(lam)),
        E H^2 = 1/(pi lam) - c_s erfcx(y) / (2 pi sqrt(lam)).
    erfcx keeps the product exp(y^2) erfc(y) stable for large budgets.
    scipy is imported here, on first use, so that importing the package
    does not load it.
    """
    from scipy.special import erfcx

    lam, c_s = _intensity(lam), real("c_s", c_s, minimum=0)
    y = c_s * math.sqrt(lam / (4.0 * math.pi))
    tail = 0.5 * float(erfcx(y))  # exp(c_s^2 lam / 4 pi) * (1 - Phi(c_s sqrt(lam / 2 pi)))
    mean = tail / math.sqrt(lam)
    second = 1.0 / (math.pi * lam) - c_s * tail / (math.pi * math.sqrt(lam))
    return PoreMoments(mean=mean, second_moment=second, variance=second - mean * mean)


def variance_bound_cs(lam: float, eps: float) -> float:
    """Largest mean boundary budget whose pore-radius variance stays below eps.

    Valid under the standing assumption eps >= 1/(pi lam); any c_s at or
    below the returned value keeps Var H <= eps.
    """
    lam, eps = _intensity(lam), real("epsilon", eps)
    floor = 1.0 / (math.pi * lam)
    if eps < floor:
        raise ArgumentError(
            "epsilon",
            f"variance budget eps={eps} violates the standing assumption "
            f"eps >= 1/(pi lam) = {floor:.12g}"
        )
    return 2.0 * math.pi * math.sqrt(eps - floor)
