import math

import numpy as np
import pytest
from scipy.integrate import quad

import scalar_geometry as scalar
from cylproc import analytic
from cylproc.analytic import (
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
from cylproc.estimate import est_linear_cdf
from cylproc.euclid import (
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    crofton_factor,
    haar_mean_line_det,
    haar_mean_plane_det,
)
from cylproc.model import (
    ArgumentError,
    DeterministicBase,
    DiscRadiusLaw,
    FixedAxes,
    GirdleBand,
    Isotropic,
    MixtureBase,
    ProcessSpec,
    RadiusLaw,
)
from cylproc.rng import philox_stream
from cylproc.sim import Window


def spec3_iso(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def spec3_fixed(lam=0.1, a=1.0, axis=(0, 0, 1.0)):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=FixedAxes([(Direction(axis), 1.0)]),
                       base=DeterministicBase(Disc(a)))


def spec2_iso(lam=0.5, a=1.0):
    return ProcessSpec(d=2, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Segment(a)))


def spec3_girdle(lam=0.1, a=1.0, delta=0.35):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=GirdleBand(Direction([0, 0, 1.0]), delta),
                       base=DeterministicBase(Disc(a)))


ALL_SPECS = [spec3_iso(), spec3_fixed(), spec2_iso(), spec3_girdle(),
             ProcessSpec(d=3, k=2, intensity=0.5, alpha=Isotropic(), base=DeterministicBase(Segment(1.0))),
             ProcessSpec(d=2, k=1, intensity=0.5, alpha=GirdleBand(Direction([1.0, 0]), 0.5),
                         base=DeterministicBase(Segment(0.7)))]


# ---------------------------------------------------------------------------
# volume fraction
# ---------------------------------------------------------------------------

def test_volume_fraction_values():
    assert volume_fraction(spec3_iso()) == pytest.approx(1 - math.exp(-0.1 * math.pi), abs=1e-15)
    assert volume_fraction(spec2_iso()) == pytest.approx(1 - math.exp(-1.0), abs=1e-15)
    tiny = spec3_iso(lam=1e-12)
    assert 0 < volume_fraction(tiny) < 1e-11


# ---------------------------------------------------------------------------
# capacity functional
# ---------------------------------------------------------------------------

def test_capacity_single_point_is_volume_fraction():
    for spec in ALL_SPECS:
        origin = np.zeros(spec.d)
        assert capacity_finite(spec, [origin]) == pytest.approx(volume_fraction(spec), abs=1e-15)


def test_capacity_two_point_identity():
    rng = philox_stream(21, 0)
    for spec in ALL_SPECS:
        for _ in range(8):
            h = rng.uniform(-3, 3, size=spec.d)
            t = capacity_finite(spec, [np.zeros(spec.d), h])
            assert t == pytest.approx(2 * volume_fraction(spec) - covariance(spec, h), abs=1e-12)


def test_capacity_worked_example():
    t = capacity_finite(spec3_fixed(), [[0, 0, 0], [2, 0, 0]])
    assert t == pytest.approx(1 - math.exp(-0.2 * math.pi), abs=1e-12)


def test_capacity_input_validation():
    with pytest.raises(ValueError):
        capacity_finite(spec3_iso(), np.empty((0, 3)))
    with pytest.raises(ValueError):
        capacity_finite(spec3_iso(), np.zeros((17, 3)))


def test_union_area_discs_against_darts():
    rng = philox_stream(22, 0)
    centers = np.array([[0, 0], [1.2, 0.3], [0.4, 1.1], [3.5, 3.5], [-0.8, 0.9]])
    area = Disc(1.0).union_areas(centers[None])[0]
    lo, hi = centers.min(0) - 1.1, centers.max(0) + 1.1
    pts = rng.uniform(lo, hi, size=(400_000, 2))
    inside = np.zeros(len(pts), dtype=bool)
    for c in centers:
        inside |= ((pts - c) ** 2).sum(1) <= 1.0
    box = float(np.prod(hi - lo))
    se = box * math.sqrt(inside.mean() * (1 - inside.mean()) / len(pts))
    assert abs(area - inside.mean() * box) < 3 * se


def test_union_area_discs_ring_with_hole():
    ring = np.array([[2 * math.cos(t), 2 * math.sin(t)]
                     for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)])
    area = Disc(1.0).union_areas(ring[None])[0]
    rng = philox_stream(23, 0)
    lo, hi = ring.min(0) - 1.1, ring.max(0) + 1.1
    pts = rng.uniform(lo, hi, size=(400_000, 2))
    inside = np.zeros(len(pts), dtype=bool)
    for c in ring:
        inside |= ((pts - c) ** 2).sum(1) <= 1.0
    box = float(np.prod(hi - lo))
    se = box * math.sqrt(inside.mean() * (1 - inside.mean()) / len(pts))
    assert abs(area - inside.mean() * box) < 3 * se
    assert area < 8 * math.pi  # overlaps strictly reduce the naive sum


def test_union_identities_for_pairs():
    d = Disc(1.0)
    t = np.array([1.0, 0.5])
    assert d.union_areas(np.array([[[0, 0], t]]))[0] == pytest.approx(
        2 * math.pi - d.covariogram(t), abs=1e-12)
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    s = np.array([0.3, 0.4])
    assert sq.union_areas(-np.array([[[0.0, 0.0], s]]))[0] == pytest.approx(
        2.0 - scalar.polygon_covariogram(sq, s), abs=1e-12)
    # coincident translates deduplicate
    assert d.union_areas(np.array([[[0.2, 0.1], [0.2, 0.1]]]))[0] == pytest.approx(math.pi)


def test_capacity_three_points_matches_monte_carlo_area():
    # fixed axis keeps the projection deterministic: compare with a dart union
    spec = spec3_fixed(lam=0.07)
    pts = np.array([[0, 0, 0], [1.4, 0.2, 5.0], [0.3, 1.1, -2.0]])
    proj = pts[:, :2]
    area = Disc(1.0).union_areas(proj[None])[0]
    assert capacity_finite(spec, pts) == pytest.approx(1 - math.exp(-0.07 * area), abs=1e-12)


def test_capacity_three_points_slabs():
    # slabs with a fixed normal: projections onto the normal line by hand
    spec = ProcessSpec(d=3, k=2, intensity=0.3,
                       alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                       base=DeterministicBase(Segment(0.5)))
    pts = np.array([[0, 0, 0], [5.0, 1.0, 0.4], [-2.0, 3.0, 3.0]])
    # interval centres 0, 0.4, 3.0 with half-length 0.5: [-0.5,0.9] and [2.5,3.5]
    vol = 1.4 + 1.0
    assert capacity_finite(spec, pts) == pytest.approx(1 - math.exp(-0.3 * vol), abs=1e-12)
    # isotropic normals: the projected gaps shrink with |cos|, so the union is
    # never larger than the fixed-normal one aligned with the spread direction
    iso = ProcessSpec(d=3, k=2, intensity=0.3, alpha=Isotropic(), base=DeterministicBase(Segment(0.5)))
    t_iso = capacity_finite(iso, pts)
    assert 3 * volume_fraction(iso) >= t_iso >= volume_fraction(iso)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_covariance_at_zero_and_far():
    for spec in ALL_SPECS:
        p = volume_fraction(spec)
        assert covariance(spec, np.zeros(spec.d)) == pytest.approx(p, abs=1e-14)
    spec = spec3_fixed()
    far = covariance(spec, np.array([40.0, 0.0, 0.0]))  # 10 diameters, perpendicular to the axis
    assert abs(far - volume_fraction(spec) ** 2) < 1e-12


def test_covariance_bounds_and_symmetry():
    rng = philox_stream(24, 0)
    for spec in ALL_SPECS:
        p = volume_fraction(spec)
        for _ in range(10):
            h = rng.uniform(-4, 4, size=spec.d)
            c = covariance(spec, h)
            assert max(0.0, 2 * p - 1) - 1e-12 <= c <= p + 1e-12
            assert c == pytest.approx(covariance(spec, -h), abs=1e-12)


def test_covariance_2d_closed_form_values():
    # frozen evaluations of the piecewise formula
    assert covariance_2d_isotropic(0.5, 1.0, 0.0) == pytest.approx(1 - math.exp(-1.0), abs=1e-15)
    r1 = 1 - 2 * math.exp(-1.0) + math.exp(-1.0 - 1.0 / math.pi)
    assert covariance_2d_isotropic(0.5, 1.0, 1.0) == pytest.approx(r1, abs=1e-15)
    assert covariance_2d_isotropic(0.5, 1.0, 1.0) == pytest.approx(0.531828290436605, abs=1e-12)
    expo = -1.0 - (0.5 / math.pi) * (4 * math.acos(0.5) + 8 * (1 - math.sqrt(3) / 2))
    r4 = 1 - 2 * math.exp(-1.0) + math.exp(expo)
    assert covariance_2d_isotropic(0.5, 1.0, 4.0) == pytest.approx(r4, abs=1e-15)
    assert covariance_2d_isotropic(0.5, 1.0, 4.0) == pytest.approx(0.423496144298926, abs=1e-12)


def test_covariance_2d_continuity_and_quadrature_agreement():
    lam, a = 0.5, 1.0
    below = covariance_2d_isotropic(lam, a, 2 * a)
    above = covariance_2d_isotropic(lam, a, 2 * a + 1e-300)
    assert abs(below - above) < 1e-12
    spec = spec2_iso(lam, a)
    for r in (0.25, 0.5, 1.0, 1.999, 2.0, 2.001, 3.0, 4.0, 7.5):
        closed = covariance_2d_isotropic(lam, a, r)
        assert covariance(spec, np.array([r, 0.0])) == pytest.approx(closed, abs=1e-10)
        assert covariance(spec, np.array([r * 0.6, r * 0.8])) == pytest.approx(closed, abs=1e-10)


# ---------------------------------------------------------------------------
# covariance derivative
# ---------------------------------------------------------------------------

def test_covariance_derivative_worked_examples():
    spec = spec3_fixed()
    assert covariance_derivative(spec, Direction([0, 0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    expected = 0.1 * math.exp(-0.1 * math.pi) * (-2.0)
    assert covariance_derivative(spec, Direction([1.0, 0, 0])) == pytest.approx(expected, abs=1e-12)
    assert covariance_derivative(spec, Direction([1.0, 0, 0])) == pytest.approx(-0.146080538209729, abs=1e-12)


def test_covariance_derivative_matches_finite_difference():
    step = 1e-5
    rng = philox_stream(25, 0)
    for spec in ALL_SPECS:
        p = volume_fraction(spec)
        for _ in range(4):
            u = rng.normal(size=spec.d)
            u /= np.linalg.norm(u)
            fd = (covariance(spec, step * u) - p) / step
            assert abs(covariance_derivative(spec, u) - fd) < 1e-6


# ---------------------------------------------------------------------------
# contact distributions
# ---------------------------------------------------------------------------

def test_linear_cdf_values():
    spec = spec3_iso()
    eta = Direction([1.0, 0, 0])
    assert linear_cdf(spec, eta, 0.0) == 0.0
    expected = 1 - math.exp(-2 * 0.1 * 1.0 * (math.pi / 4))
    assert linear_cdf(spec, eta, 1.0) == pytest.approx(expected, abs=1e-12)
    assert linear_cdf(spec, eta, 1.0) == pytest.approx(0.145364000846767, abs=1e-12)
    fixed = spec3_fixed()
    for r in (0.2, 1.0, 3.0):
        assert linear_cdf(fixed, Direction([0, 0, 1.0]), r) == 0.0
    assert linear_cdf(fixed, Direction([1.0, 0, 0]), 1.0) == pytest.approx(1 - math.exp(-0.2), abs=1e-12)


def test_linear_cdf_2d_base_independent():
    eta = Direction([1.0, 0.0])
    for a in (0.1, 1.0, 5.0):
        spec = spec2_iso(lam=0.5, a=a)
        assert linear_cdf(spec, eta, 1.0) == pytest.approx(
            1 - math.exp(-0.5 * 2 / math.pi), abs=1e-12)


@pytest.mark.parametrize("vertices", [[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
                                      [[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]], ids=["square", "triangle"])
@pytest.mark.parametrize("alpha", [Isotropic(), GirdleBand(Direction([0, 0, 1.0]), 0.4)], ids=["iso", "girdle"])
def test_linear_cdf_of_polygon_bases_matches_the_estimator(vertices, alpha):
    spec = ProcessSpec(d=3, k=1, intensity=0.3, alpha=alpha, base=DeterministicBase(ConvexPolygon(vertices)))
    window = Window((0, 0, 0), (16, 16, 16))
    reports = est_linear_cdf(spec, window, Direction([1.0, 2.0, 2.0]), [0.5, 2.0], 4000, 20, seed=7)
    for rep in reports:
        assert abs(rep.z_score) < 4, rep


def full_girdle_values(spec):
    """The quadrature-backed values at a lag, a unit direction and three points, cut to the spec's dimension."""
    d = spec.d
    lag = np.array([0.7, -0.4, 0.5][:d])
    unit = np.array([1.0, 2.0, 2.0][:d]) / np.linalg.norm([1.0, 2.0, 2.0][:d])
    pts = np.array([[0.0, 0.0, 0.0], [0.4, -0.5, 0.3], [-0.3, 0.2, 0.6]])[:, :d]
    return {"covariance": covariance(spec, lag), "mean_covariogram": analytic._expect_gamma(spec, lag),
            "covariance_derivative": covariance_derivative(spec, unit),
            "linear_cdf": linear_cdf(spec, Direction(unit), 2.0), "capacity3": capacity_finite(spec, pts)}


def test_a_full_girdle_in_the_plane_is_the_isotropic_law_bit_for_bit():
    base = DeterministicBase(Segment(0.5))
    iso = ProcessSpec(d=2, k=1, intensity=0.3, alpha=Isotropic(), base=base)
    girdle = ProcessSpec(d=2, k=1, intensity=0.3, alpha=GirdleBand(Direction([1.0, 0.0]), 0.5 * math.pi), base=base)
    assert full_girdle_values(girdle) == full_girdle_values(iso)


# the band rules (48 x 96 nodes, 96 z nodes for radial atoms) against the
# hemisphere rules: measured up to 3.9e-6 relative for discs and slabs and
# 7.2e-5 for the unit square
@pytest.mark.parametrize("k, shape, rel", [(1, Disc(1.0), 1e-5), (2, Segment(0.5), 1e-5),
                                           (1, ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]),
                                            2e-4)], ids=["disc", "slab", "square"])
def test_a_full_girdle_in_space_is_the_isotropic_law(k, shape, rel):
    base = DeterministicBase(shape)
    iso = full_girdle_values(ProcessSpec(d=3, k=k, intensity=0.3, alpha=Isotropic(), base=base))
    girdle = full_girdle_values(ProcessSpec(d=3, k=k, intensity=0.3,
                                            alpha=GirdleBand(Direction([0.0, 0.0, 1.0]), 0.5 * math.pi), base=base))
    for name, want in iso.items():
        assert girdle[name] == pytest.approx(want, rel=rel), name


PUBLIC_ARGUMENTS = {
    "covariance": lambda spec, bad: covariance(spec, bad),
    "covariance_derivative": lambda spec, bad: covariance_derivative(spec, bad),
    "capacity_finite": lambda spec, bad: capacity_finite(spec, [np.zeros(3), bad]),
    "linear_cdf": lambda spec, bad: linear_cdf(spec, bad, 1.0),
}


@pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 1.0],
                                 [True, 0.0, 0.0], 1.0, "abc"])
@pytest.mark.parametrize("fn", PUBLIC_ARGUMENTS)
def test_vector_arguments_of_the_wrong_dimension_or_not_finite_are_rejected(fn, bad):
    with pytest.raises(ValueError):
        PUBLIC_ARGUMENTS[fn](spec3_iso(), bad)


@pytest.mark.parametrize("h_dir", [[2.0, 0.0, 0.0], [0.0, 0.6, 0.6]])
def test_covariance_derivative_rejects_a_direction_that_is_not_unit(h_dir):
    with pytest.raises(ArgumentError, match="unit vector") as info:
        covariance_derivative(spec3_iso(), h_dir)
    assert info.value.field == "h_dir"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, True, "1"])
def test_number_arguments_that_are_not_finite_or_out_of_range_are_rejected(bad):
    spec, eta = spec3_iso(), Direction([1.0, 0, 0])
    for call in (lambda: linear_cdf(spec, eta, bad), lambda: spherical_cdf(spec, bad),
                 lambda: pore_moments(bad, 1.0), lambda: pore_moments(0.1, bad),
                 lambda: variance_bound_cs(bad, 4.0), lambda: variance_bound_cs(0.1, bad),
                 lambda: covariance_2d_isotropic(bad, 1.0, 1.0), lambda: covariance_2d_isotropic(0.5, 1.0, bad)):
        with pytest.raises(ValueError):
            call()


def test_spherical_cdf_values():
    spec = spec3_iso()
    assert spherical_cdf(spec, 0.0) == 0.0
    assert spherical_cdf(spec, 1.0) == pytest.approx(1 - math.exp(-0.2 * math.pi - 0.1 * math.pi), abs=1e-14)
    assert spherical_cdf(spec, 1.0) == pytest.approx(0.610338862624653, abs=1e-12)
    # one-dimensional complement: independent of the cross-section law
    for a in (0.1, 5.0):
        spec2 = spec2_iso(lam=0.5, a=a)
        assert spherical_cdf(spec2, 1.0) == pytest.approx(1 - math.exp(-1.0), abs=1e-14)
    slab = ProcessSpec(d=3, k=2, intensity=0.5, alpha=Isotropic(), base=DeterministicBase(Segment(2.0)))
    assert spherical_cdf(slab, 0.75) == pytest.approx(1 - math.exp(-2 * 0.5 * 0.75), abs=1e-14)


def test_cdfs_monotone_from_zero_to_one():
    spec = spec3_iso()
    rs = np.linspace(0, 40, 60)
    lin = [linear_cdf(spec, Direction([1.0, 0, 0]), r) for r in rs]
    sph = [spherical_cdf(spec, r) for r in rs]
    for seq in (lin, sph):
        assert seq[0] == 0.0
        assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))
        assert seq[-1] > 0.99


# ---------------------------------------------------------------------------
# specific surface
# ---------------------------------------------------------------------------

def test_specific_surface_disc_closed_form_and_quadrature():
    spec = spec3_iso()
    exact = 2 * math.pi * 1.0 * 0.1 * math.exp(-0.1 * math.pi)
    # the quadrature path must certify the product identity to 1e-9
    assert abs(specific_surface(spec) - exact) < 1e-9
    # any directional law gives the same value for disc bases
    assert specific_surface(spec3_fixed()) == pytest.approx(exact, abs=1e-9)
    assert specific_surface(spec3_girdle()) == pytest.approx(exact, abs=1e-9)


def test_specific_surface_band_case():
    spec = spec2_iso(lam=0.5, a=1.0)
    assert specific_surface(spec) == pytest.approx(math.exp(-1.0), abs=1e-12)
    lawA = FixedAxes([(Direction([0, 0, 1.0]), 1.0)])
    lawB = FixedAxes([(Direction([1.0, 1.0, 0]), 0.3), (Direction([1.0, 0, 1.0]), 0.7)])
    slabA = ProcessSpec(d=3, k=2, intensity=0.5, alpha=lawA, base=DeterministicBase(Segment(1.0)))
    slabB = ProcessSpec(d=3, k=2, intensity=0.5, alpha=lawB, base=DeterministicBase(Segment(1.0)))
    exact = 2 * 0.5 * math.exp(-0.5 * 2.0)
    assert specific_surface(slabA) == pytest.approx(exact, abs=1e-12)
    assert abs(specific_surface(slabA) - specific_surface(slabB)) < 1e-12


def test_specific_surface_small_intensity_slope():
    # S / lam tends to the mean-boundary slope as lam -> 0
    for lam in (1e-6, 1e-8):
        spec = spec3_iso(lam=lam)
        assert specific_surface(spec) / lam == pytest.approx(2 * math.pi, rel=1e-5)


NO_BOUNDARY = DiscRadiusLaw(RadiusLaw(((0.0, 1.0),)))  # radius-zero atoms only


@pytest.mark.parametrize("lam, d, k, base", [
    (0.0, 2, 1, DeterministicBase(Segment(1.0))), (0.0, 3, 1, DeterministicBase(Disc(1.0))),
    (0.0, 3, 1, DeterministicBase(ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]))),
    (0.0, 3, 2, DeterministicBase(Segment(0.5))), (0.0, 3, 1, NO_BOUNDARY), (0.7, 3, 1, NO_BOUNDARY),
])
def test_a_surface_without_cylinders_or_boundary_is_plus_zero(lam, d, k, base):
    value = specific_surface(ProcessSpec(d=d, k=k, intensity=lam, alpha=Isotropic(), base=base))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
HEX_S = 0.5 * math.sqrt(3.0)
SURFACE_BASES = {
    "square": DeterministicBase(SQUARE),
    "triangle": DeterministicBase(ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])),
    "hexagon": DeterministicBase(ConvexPolygon([[1.0, 0.0], [0.5, HEX_S], [-0.5, HEX_S], [-1.0, 0.0],
                                                [-0.5, -HEX_S], [0.5, -HEX_S]])),
    "mixture": MixtureBase([(Disc(0.7), 0.5), (SQUARE, 0.5)]),
}
SURFACE_LAWS = {
    "iso": Isotropic(),
    "girdle": GirdleBand(Direction([0, 0, 1.0]), 0.4),
    "fixed": FixedAxes([(Direction([0, 0, 1.0]), 0.5), (Direction([0.6, 0, 0.8]), 0.3), (Direction([0, 1.0, 0]), 0.2)]),
}


@pytest.mark.parametrize("law", sorted(SURFACE_LAWS))
@pytest.mark.parametrize("base", sorted(SURFACE_BASES))
def test_specific_surface_polygon_base_via_quadrature(base, law):
    # the mean shadow width of a convex base is its perimeter / pi (Cauchy), so
    # S_V = lambda exp(-lambda E[A]) E[S(K)] (Slivnyak-Mecke) under every law
    spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=SURFACE_LAWS[law], base=SURFACE_BASES[base])
    expected = 0.1 * math.exp(-0.1 * spec.base.mean_area) * spec.base.mean_boundary
    assert specific_surface(spec) == pytest.approx(expected, rel=1e-15)
    # the Haar means and the Crofton factors, all computed, cancel in every setting; the
    # 64-node Haar rules round to 1.3e-15 off for lines in the plane and planes in space
    for d, k in ((2, 1), (3, 1), (3, 2)):
        haar = haar_mean_line_det(d) if k == 1 else haar_mean_plane_det()
        assert crofton_factor(d) * haar / crofton_factor(d - k) == pytest.approx(1, abs=2e-15)


def test_specific_surface_radius_law():
    law = RadiusLaw(((0.0, 0.5), (2.0, 0.5)))
    spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=DiscRadiusLaw(law))
    expected = 2 * math.pi * 0.1 * law.mean * math.exp(-0.1 * math.pi * law.second_moment)
    assert specific_surface(spec) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# pore moments
# ---------------------------------------------------------------------------

def pore_oracle(lam, cs):
    dens = lambda r: lam * (cs + 2 * math.pi * r) * math.exp(-lam * (r * cs + math.pi * r * r))
    m1, _ = quad(lambda r: r * dens(r), 0, np.inf, epsabs=1e-13, epsrel=1e-13)
    m2, _ = quad(lambda r: r * r * dens(r), 0, np.inf, epsabs=1e-13, epsrel=1e-13)
    return m1, m2


def test_pore_moments_closed_cases():
    pm = pore_moments(0.1, 0.0)
    assert pm.mean == pytest.approx(1 / (2 * math.sqrt(0.1)), abs=1e-14)
    assert pm.mean == pytest.approx(1.58113883008419, abs=1e-12)
    assert pm.second_moment == pytest.approx(1 / (0.1 * math.pi), abs=1e-14)
    assert pm.second_moment == pytest.approx(3.18309886183791, abs=1e-12)
    # frozen from the quadrature oracle
    assert pore_moments(0.1, 2 * math.pi).mean == pytest.approx(0.926453799301124, rel=1e-9)


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("cs", [0.0, 1.0, 2 * math.pi, 10.0])
def test_pore_moments_match_quadrature(lam, cs):
    pm = pore_moments(lam, cs)
    m1, m2 = pore_oracle(lam, cs)
    assert pm.mean == pytest.approx(m1, rel=1e-6)
    assert pm.second_moment == pytest.approx(m2, rel=1e-6)
    assert pm.variance == pytest.approx(m2 - m1 * m1, rel=1e-6)
    assert pm.variance >= 0


def test_variance_bound():
    lam = 0.1
    assert variance_bound_cs(lam, 1 / (math.pi * lam)) == 0.0
    bound = variance_bound_cs(lam, 4.0)
    assert bound == pytest.approx(2 * math.pi * math.sqrt(4 - 1 / (math.pi * lam)), abs=1e-12)
    assert bound == pytest.approx(5.67890520028623, abs=1e-10)
    # guarantee: Var H <= eps for every c_s in [0, bound]
    for cs in np.linspace(0.0, bound, 25):
        assert pore_moments(lam, cs).variance <= 4.0 + 1e-12
    with pytest.raises(ValueError, match="eps >= 1/\\(pi lam\\)"):
        variance_bound_cs(lam, 0.5 / (math.pi * lam))


def test_variance_bound_boundary_sweep():
    for lam in (0.05, 0.1, 0.5):
        for mult in (1.0, 1.05, 1.5, 3.0):
            eps = mult / (math.pi * lam)
            cs = variance_bound_cs(lam, eps)
            assert pore_moments(lam, cs).variance <= eps + 1e-12
