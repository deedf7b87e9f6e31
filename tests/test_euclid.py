import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylproc.euclid import (
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    _piecewise_gl,
    ball_constants,
    canonical_directions,
    complement_frames,
    haar_mean_line_det,
)
from cylproc.model import DeterministicBase, FixedAxes, GirdleBand, Isotropic, ProcessSpec, haar_vectors
from cylproc.rng import philox_stream
import scalar_geometry as scalar
from scalar_geometry import complement_frame

# frozen from a 1e7-dart run (z = 0.44 against the closed form)
LENS_AREA_UNIT_DISCS_AT_1 = 1.2283696986087567


def test_ball_constants():
    assert ball_constants(2) == (math.pi, 2 * math.pi)
    assert ball_constants(3) == (4 * math.pi / 3, 4 * math.pi)
    assert ball_constants(1) == (2.0, 2.0)
    assert ball_constants(0) == (1.0, 0.0)
    for m in (-1, 4, 2.0, True):
        with pytest.raises(ValueError):
            ball_constants(m)


def test_direction_canonicalization():
    rng = philox_stream(1, 0)
    for _ in range(200):
        v = rng.normal(size=rng.choice([2, 3]))
        if np.linalg.norm(v) < 1e-6:
            continue
        d1 = Direction(v)
        d2 = Direction(-v)
        assert d1 == d2
        assert abs(np.linalg.norm(d1.vec) - 1.0) < 1e-12
        assert Direction(d1.vec) == d1  # idempotent
    with pytest.raises(ValueError):
        Direction([0.0, 0.0, 0.0])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Direction([bad, 0.0, 1.0])


def test_project_along_examples():
    def complement_coords(axis, x):
        return np.array(x, dtype=float) @ complement_frames(np.array(axis, dtype=float)[None, :, None])[0]

    assert np.allclose(complement_coords([1.0, 0.0], [3.0, 4.0]), [4.0])
    assert np.allclose(complement_coords([1.0, 0.0], [5.0, 0.0]), [0.0])
    assert np.allclose(complement_coords([0.0, 0.0, 1.0], [1.0, 1.0, 1.0]), [1.0, 1.0])


def det(axis, eta, k=1) -> float:
    """[eta, L] for the direction space L that ``axis`` identifies, as analytic takes it under a one-axis law."""
    d = len(axis)
    spec = ProcessSpec(d=d, k=k, intensity=1.0, alpha=FixedAxes([(axis, 1.0)]),
                       base=DeterministicBase(Segment(1.0) if d - k == 1 else Disc(1.0)))
    return spec.alpha.radial_mean(spec, np.asarray(eta, dtype=float), 1.0, lambda q: q, ())


def test_subspace_det_examples_and_properties():
    assert det([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert det([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert det([1.0, 0.0], Direction([1.0, 1.0]).vec) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    rng = philox_stream(3, 0)
    for _ in range(200):
        d = int(rng.choice([2, 3]))
        u = Direction(rng.normal(size=d))
        eta = Direction(rng.normal(size=d))
        val = det(u.vec, eta.vec)
        assert 0.0 <= val <= 1.0 + 1e-12
        assert val == det(u.vec, -eta.vec)
        expected = math.sqrt(max(0.0, 1.0 - float(u.vec @ eta.vec) ** 2))
        assert val == pytest.approx(expected, abs=1e-12)


def test_plane_subspace_det():
    normal = [0.0, 0.0, 1.0]
    assert det(normal, [0.0, 0.0, 1.0], k=2) == pytest.approx(1.0, abs=1e-12)
    assert det(normal, [1.0, 0.0, 0.0], k=2) == pytest.approx(0.0, abs=1e-12)
    assert det(normal, Direction([1.0, 0.0, 1.0]).vec, k=2) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_covariogram_disc_values():
    disc = Disc(1.0)
    assert disc.covariogram([0.0, 0.0]) == pytest.approx(math.pi, abs=1e-14)
    assert disc.covariogram([2.0, 0.0]) == 0.0
    assert disc.covariogram([0.6, 0.8]) == pytest.approx(LENS_AREA_UNIT_DISCS_AT_1, abs=1e-12)


def test_covariogram_square_closed_form():
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    rng = philox_stream(4, 0)
    for _ in range(100):
        t = rng.uniform(-1.3, 1.3, size=2)
        expected = max(0.0, 1 - abs(t[0])) * max(0.0, 1 - abs(t[1]))
        assert sq.covariogram(t) == pytest.approx(expected, abs=1e-10)


# a regular hexagon of circumradius 1: three pairs of opposite parallel edges
_S = 0.5 * math.sqrt(3.0)
HEXAGON = ConvexPolygon([[1.0, 0.0], [0.5, _S], [-0.5, _S], [-1.0, 0.0], [-0.5, -_S], [0.5, -_S]])


@pytest.mark.parametrize("shape", [Disc(0.8), Segment(1.5),
                                   ConvexPolygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]]), HEXAGON])
def test_covariogram_properties(shape):
    rng = philox_stream(5, 0)
    area = shape.area
    for _ in range(60):
        t = rng.uniform(-3, 3, size=shape.dim)
        g = shape.covariogram(t)
        assert g == pytest.approx(shape.covariogram(-t), abs=1e-10)
        assert g <= area + 1e-10
        if np.linalg.norm(t) > shape.diameter:
            assert g == 0.0
    assert shape.covariogram(np.zeros(shape.dim)) == pytest.approx(area, rel=1e-12)


def test_covariogram_monte_carlo_oracle():
    # uniform points in the shape, membership of point + t
    rng = philox_stream(6, 0)
    for shape, t in [(Disc(1.0), np.array([0.7, 0.4])),
                     (ConvexPolygon([[0, 0], [2, 0], [2, 1], [0, 1]]), np.array([0.5, -0.3]))]:
        lo = shape.vertices.min(0) if isinstance(shape, ConvexPolygon) else -np.ones(2) * shape.radius
        hi = shape.vertices.max(0) if isinstance(shape, ConvexPolygon) else np.ones(2) * shape.radius
        pts = rng.uniform(lo, hi, size=(200_000, 2))
        inside = shape.contains(pts)
        box = float(np.prod(hi - lo))
        hits = shape.contains(pts[inside] + t)
        est = hits.mean() * inside.mean() * box
        se = box * math.sqrt(hits.mean() * (1 - hits.mean()) / max(hits.size, 1) + 1e-12)
        assert abs(est - shape.covariogram(t)) < 3 * se + 1e-3


def test_covariogram_derivative_examples():
    assert Disc(1.0).covariogram_derivative() == -2.0
    assert Segment(3.0).covariogram_derivative() == -1.0
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert sq.covariogram_derivative(np.array([1.0, 0.0])) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [Disc(1.0), Disc(0.35),
                                   ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]),
                                   ConvexPolygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]])])
def test_covariogram_derivative_finite_difference(shape):
    rng = philox_stream(7, 0)
    h = 1e-6
    for _ in range(20):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        fd = (shape.covariogram(h * u) - shape.area) / h
        assert abs(shape.covariogram_derivative(u) - fd) < 1e-4 * shape.area


def test_segment_derivative_finite_difference():
    seg = Segment(3.0)
    h = 1e-6
    for u in (np.array([1.0]), np.array([-1.0])):
        fd = (seg.covariogram(h * u) - seg.area) / h
        assert abs(seg.covariogram_derivative(u) - fd) < 1e-4 * seg.area


# ---------------------------------------------------------------------------
# the batched covariogram and derivative kernels
# ---------------------------------------------------------------------------

PENTAGON = ConvexPolygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]])
KERNEL_SHAPES = [Segment(0.7), Disc(0.8), PENTAGON]
KINDS = pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=["segment", "disc", "polygon"])


def lags(shape, lead, seed, reach=1.5):
    """Lags of shape lead + (dim,) with coordinates within reach times the diameter."""
    r = reach * shape.diameter
    return philox_stream(seed, 0).uniform(-r, r, size=(*lead, shape.dim))


def units(shape, lead, seed):
    v = philox_stream(seed, 1).normal(size=(*lead, shape.dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@KINDS
def test_kernels_return_one_value_per_row(shape):
    for lead in [(), (7,), (3, 4)]:
        assert np.shape(shape.covariogram(lags(shape, lead, 11))) == lead
        assert np.shape(shape.covariogram_derivative(units(shape, lead, 12))) == lead
    assert isinstance(shape.covariogram(np.zeros(shape.dim)), float)
    assert isinstance(shape.covariogram_derivative(units(shape, (), 13)), float)


@KINDS
def test_one_lag_is_its_row_of_a_stack_bit_for_bit(shape):
    T = lags(shape, (6, 8), 14)
    for kernel in (shape.covariogram, shape.distance):
        g = kernel(T)
        assert same_bits(kernel(T.reshape(-1, shape.dim)), g.reshape(-1))
        for i, j in np.ndindex(g.shape):
            assert same_bits(kernel(T[i, j]), g[i, j])
            assert same_bits(kernel(T[i, j:j + 1]), g[i, j:j + 1])


@KINDS
def test_batched_derivative_is_the_per_row_value(shape):
    U = units(shape, (6, 8), 15)
    d = shape.covariogram_derivative(U)
    for i, j in np.ndindex(d.shape):
        assert same_bits(shape.covariogram_derivative(U[i, j]), d[i, j])
    if not isinstance(shape, ConvexPolygon):  # rotation invariant: one number in every direction
        assert np.all(d == shape.covariogram_derivative())
    else:
        want = [scalar.polygon_covariogram_derivative(shape, u) for u in U.reshape(-1, 2)]
        assert np.allclose(d.reshape(-1), want, rtol=1e-15, atol=0.0)


SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def off_interior_lags(shape) -> np.ndarray:
    """Lags off the interior of K - K within one diameter: K and K + t meet in a null set."""
    if isinstance(shape, Segment):
        return np.array([[2.0 * shape.half_length], [-2.0 * shape.half_length]])
    if isinstance(shape, Disc):
        return np.array([[2.0 * shape.radius, 0.0], [0.0, -2.0 * shape.radius]])
    if shape is SQUARE:  # shifted by an edge vector, or by two: the translates share an edge or a corner
        return np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])
    # farther than 1e-9 outside K - K, the hull of the vertex differences
    V = shape.vertices
    hull = scalar.convex_hull_ccw((V[:, None, :] - V[None, :, :]).reshape(-1, 2))
    T = lags(shape, (2000,), 18, reach=1.0)
    T = T[[scalar.convex_distance(hull, t) > 1e-9 for t in T]]
    assert len(T) > 200
    return T


@pytest.mark.parametrize("shape", KERNEL_SHAPES + [SQUARE, HEXAGON],
                         ids=["segment", "disc", "polygon", "square", "hexagon"])
def test_covariogram_is_exactly_zero_off_the_interior_of_k_minus_k(shape):
    beyond = units(shape, (400,), 16) * shape.diameter * philox_stream(17, 0).uniform(1.0, 3.0, (400, 1))
    assert np.all(shape.covariogram(beyond) == 0.0)
    assert np.all(shape.covariogram(off_interior_lags(shape)) == 0.0)


@KINDS
def test_covariogram_is_nonnegative(shape):
    T = lags(shape, (3000,), 19)
    edge = units(shape, (3000,), 20) * shape.diameter * (1.0 - philox_stream(21, 0).uniform(0.0, 1e-6, (3000, 1)))
    assert np.all(shape.covariogram(T) >= 0.0)
    assert np.all(shape.covariogram(edge) >= 0.0)


@KINDS
def test_covariogram_matches_its_closed_form_or_the_clip_oracle(shape):
    T = lags(shape, (500,), 22, reach=0.7)
    g = shape.covariogram(T)
    want = np.array([scalar.covariogram(shape, t) for t in T])
    if isinstance(shape, Segment):
        assert same_bits(g, want)
    else:
        assert np.max(np.abs(g - want)) <= 1e-15 * shape.area


TRIANGLE = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])


def special_lags(poly) -> np.ndarray:
    """Lags along every edge direction up to one diameter, and every difference of two vertices."""
    V = poly.vertices
    E = np.roll(V, -1, axis=0) - V
    steps = np.linspace(-1.0, 1.0, 17)[:, None, None] * poly.diameter / np.linalg.norm(E, axis=1)[None, :, None]
    return np.concatenate([(steps * E).reshape(-1, 2), (V[:, None, :] - V[None, :, :]).reshape(-1, 2)])


@pytest.mark.parametrize("poly", [SQUARE, TRIANGLE, HEXAGON], ids=["square", "triangle", "hexagon"])
def test_polygon_covariogram_is_the_scalar_clip_on_edge_directions_and_vertex_differences(poly):
    T = special_lags(poly)
    g = poly.covariogram(T)
    want = np.array([scalar.polygon_covariogram(poly, t) for t in T])
    assert np.max(np.abs(g - want)) <= 1e-15 * poly.area
    assert np.all(g >= 0.0)
    for t, gt in zip(T, g):  # one lag is its row of the stack, bit for bit
        assert same_bits(poly.covariogram(t), gt)
    assert SQUARE.covariogram(np.array([1.0, 0.0])) == 0.0  # translates that share an edge meet in a null set


SPLIT_SQUARE = ConvexPolygon([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]])  # a vertex inside an edge


@pytest.mark.parametrize("poly", [SQUARE, TRIANGLE, HEXAGON, SPLIT_SQUARE],
                         ids=["square", "triangle", "hexagon", "split_square"])
def test_mean_shadow_width_is_the_perimeter_over_pi(poly):
    # Cauchy's formula, by a Gauss-Legendre rule split at the edge normals, where the width kinks
    brk = []
    for e in np.roll(poly.vertices, -1, axis=0) - poly.vertices:
        phi0 = math.atan2(-e[1], -e[0]) % (2.0 * math.pi)
        brk += [phi0, (phi0 + math.pi) % (2.0 * math.pi)]

    def width(phis):
        return -poly.covariogram_derivative(np.column_stack([np.cos(phis), np.sin(phis)]))

    mean = _piecewise_gl(width, 0.0, 2.0 * math.pi, brk, n=32) / (2.0 * math.pi)
    assert mean == pytest.approx(poly.boundary / math.pi, rel=1e-14)


def test_grassmann_average_det():
    assert haar_mean_line_det(2) == pytest.approx(2 / math.pi, abs=1e-12)
    # pi/4 confirmed by a 1e7-direction Monte Carlo run (z = 1.4)
    assert haar_mean_line_det(3) == pytest.approx(math.pi / 4, abs=1e-12)


@pytest.mark.parametrize("vertices, match", [
    pytest.param([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], "zero-length", id="repeated_vertex"),
    pytest.param([[0, 0], [1, 0], [2, 0]], "positive area", id="flat"),
])
def test_polygon_rejects_a_repeated_vertex_and_a_flat_outline(vertices, match):
    with pytest.raises(ValueError, match=match):
        ConvexPolygon(vertices)


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0]])  # too few
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]])  # nonconvex
    for bad in (math.inf, True):
        with pytest.raises(ValueError, match="finite"):
            ConvexPolygon([[0, 0], [1, 0], [1, bad], [0, 1]])
    hexa = ConvexPolygon([[math.cos(a), math.sin(a)] for a in np.linspace(0, 2 * math.pi, 6, endpoint=False)])
    assert hexa.area == pytest.approx(1.5 * math.sqrt(3), rel=1e-12)
    # circumcentre sits at the origin after construction
    sq = ConvexPolygon([[10, 10], [11, 10], [11, 11], [10, 11]])
    assert np.allclose(sq.vertices.mean(axis=0), [0, 0], atol=1e-9)
    assert sq.circumradius == pytest.approx(math.sqrt(0.5), abs=1e-9)


@pytest.mark.parametrize("j", [-27, -20, 0, 20])
def test_polygon_construction_scales_by_powers_of_two_bit_for_bit(j):
    # an acute triangle's enclosing circle is its circumcircle, whose test must be relative to the scale
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    unit, scaled = ConvexPolygon(triangle), ConvexPolygon(math.ldexp(1.0, j) * triangle)
    assert np.array_equal(scaled.vertices, math.ldexp(1.0, j) * unit.vertices)
    assert scaled.circumradius == math.ldexp(unit.circumradius, j)


def test_cross_sections_are_equal_by_kind_and_parameter():
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert Disc(1) == Disc(1.0) and hash(Disc(1)) == hash(Disc(1.0))
    assert Disc(1.0) != Disc(2.0) and Disc(1.0) != Segment(1.0)
    assert ConvexPolygon(square) == ConvexPolygon(square)
    assert hash(ConvexPolygon(square)) == hash(ConvexPolygon([[2, 2], [3, 2], [3, 3], [2, 3]]))
    assert ConvexPolygon(square) != ConvexPolygon([[0, 0], [1, 0], [0, 1]])
    assert len({Disc(0.5), Disc(0.5), Segment(0.5)}) == 2
    assert repr(Disc(1.0)) == "Disc(radius=1.0)"
    assert repr(Segment(0.5)) == "Segment(half_length=0.5)"


def test_segment_and_disc_validation():
    with pytest.raises(ValueError):
        Segment(0.0)
    with pytest.raises(ValueError):
        Disc(-1.0)
    for bad in (math.inf, math.nan, True, "1"):
        with pytest.raises(ValueError, match="finite"):
            Segment(bad)
        with pytest.raises(ValueError, match="finite"):
            Disc(bad)
    seg = Segment(2.0)
    assert seg.area == 4.0
    assert seg.boundary == 2.0
    disc = Disc(2.0)
    assert disc.area == pytest.approx(4 * math.pi)
    assert disc.boundary == pytest.approx(4 * math.pi)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def direction_batch(kind: str, d: int, seed: int, n: int = 48) -> np.ndarray:
    """Raw direction vectors of one kind; their signs are not canonical."""
    gen = philox_stream(seed, 0)
    if kind == "haar":
        return haar_vectors(d, gen, n)
    if kind == "girdle":
        return GirdleBand(np.eye(d)[-1], 0.2).sample_vectors(d, gen, n)
    if kind == "axis":
        # coordinate axes and the diagonals of coordinate planes, so frames hold exact zeros
        pool = np.array([v for v in np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d)).reshape(d, -1).T
                         if 0 < np.count_nonzero(v) <= 2])
        pool = pool / np.linalg.norm(pool, axis=1, keepdims=True)
        return pool[gen.integers(0, len(pool), n)]
    # off unit length: far off, just past the 1e-12 renormalization threshold, and just inside it
    scale = gen.choice([gen.uniform(0.1, 10.0), 1.0 + 1e-11, 1.0 + 1e-13], size=n)
    return haar_vectors(d, gen, n) * scale[:, None]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["haar", "girdle", "axis", "off_unit"]), d=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_batched_frames_match_the_scalar_subspaces_bit_for_bit(kind, d, seed):
    vecs = direction_batch(kind, d, seed)
    canon = canonical_directions(vecs)
    frames = complement_frames(canon[:, :, None])
    for v, c, f in zip(vecs, canon, frames):
        # the batched canonicalization and Gram-Schmidt are the scalar one-vector loops, bit for bit
        assert same_bits(scalar.canonical_direction(v), c)
        assert same_bits(Direction(v).vec, c)
        assert same_bits(complement_frame(c[:, None]), f)
    for k in range(1, d):
        spec = ProcessSpec(d=d, k=k, intensity=1.0, alpha=Isotropic(),
                           base=DeterministicBase(Segment(1.0) if d - k == 1 else Disc(1.0)))
        bases, frames = spec.subspace_frames(vecs)
        for v, basis, frame in zip(vecs, bases, frames):
            ref_basis, ref_frame = scalar.subspace(spec, v)
            assert same_bits(ref_basis, basis) and same_bits(ref_frame, frame)


def test_batched_frames_reject_what_direction_rejects():
    with pytest.raises(ValueError, match="zero vector"):
        canonical_directions(np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0]]))
    with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
        canonical_directions(np.ones((2, 4)))
    assert complement_frames(np.zeros((0, 3, 1))).shape == (0, 3, 2)
