import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylproc.euclid import (
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    Subspace,
    ball_constants,
    canonical_directions,
    complement_frames,
    covariogram,
    covariogram_derivative_at_origin,
    grassmann_average_det,
    project_along,
    subspace_det,
)
from cylproc.model import DeterministicBase, GirdleBand, Isotropic, ProcessSpec, haar_vectors
from cylproc.rng import philox_stream
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


def test_subspace_validation_and_projection():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    rng = philox_stream(2, 0)
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        v = rng.normal(size=d)
        L = Subspace.line(Direction(v))
        x = rng.normal(size=d)
        onto = L.project_onto(x)
        rest = L.embed_complement(L.complement_coords(x))
        assert np.linalg.norm(onto + rest - x) < 1e-9


def test_project_along_examples():
    L = Subspace.line(Direction([1.0, 0.0]))
    assert np.allclose(project_along([3.0, 4.0], L), [4.0])
    assert np.allclose(project_along([5.0, 0.0], L), [0.0])
    L3 = Subspace.line(Direction([0.0, 0.0, 1.0]))
    assert np.allclose(project_along([1.0, 1.0, 1.0], L3), [1.0, 1.0])


def test_subspace_det_examples_and_properties():
    L = Subspace.line(Direction([1.0, 0.0]))
    assert subspace_det(L, Direction([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert subspace_det(L, Direction([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    assert subspace_det(L, Direction([1.0, 1.0])) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    rng = philox_stream(3, 0)
    for _ in range(200):
        d = int(rng.choice([2, 3]))
        u = Direction(rng.normal(size=d))
        e = rng.normal(size=d)
        eta = Direction(e)
        Lu = Subspace.line(u)
        val = subspace_det(Lu, eta)
        assert 0.0 <= val <= 1.0 + 1e-12
        assert val == subspace_det(Lu, Direction(-e))
        expected = math.sqrt(max(0.0, 1.0 - float(u.vec @ eta.vec) ** 2))
        assert val == pytest.approx(expected, abs=1e-12)


def test_plane_subspace_det():
    P = Subspace.plane_with_normal(Direction([0.0, 0.0, 1.0]))
    assert subspace_det(P, Direction([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)
    assert subspace_det(P, Direction([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert subspace_det(P, Direction([1.0, 0.0, 1.0])) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_covariogram_disc_values():
    disc = Disc(1.0)
    assert covariogram(disc, [0.0, 0.0]) == pytest.approx(math.pi, abs=1e-14)
    assert covariogram(disc, [2.0, 0.0]) == 0.0
    assert covariogram(disc, [0.6, 0.8]) == pytest.approx(LENS_AREA_UNIT_DISCS_AT_1, abs=1e-12)


def test_covariogram_square_closed_form():
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    rng = philox_stream(4, 0)
    for _ in range(100):
        t = rng.uniform(-1.3, 1.3, size=2)
        expected = max(0.0, 1 - abs(t[0])) * max(0.0, 1 - abs(t[1]))
        assert covariogram(sq, t) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("shape", [Disc(0.8), Segment(1.5),
                                   ConvexPolygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]])])
def test_covariogram_properties(shape):
    rng = philox_stream(5, 0)
    area = shape.area
    for _ in range(60):
        t = rng.uniform(-3, 3, size=shape.dim)
        g = covariogram(shape, t)
        assert g == pytest.approx(covariogram(shape, -t), abs=1e-10)
        assert g <= area + 1e-10
        if np.linalg.norm(t) > shape.diameter:
            assert g == 0.0
    assert covariogram(shape, np.zeros(shape.dim)) == pytest.approx(area, rel=1e-12)


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
        assert abs(est - covariogram(shape, t)) < 3 * se + 1e-3


def test_covariogram_derivative_examples():
    assert covariogram_derivative_at_origin(Disc(1.0)) == -2.0
    assert covariogram_derivative_at_origin(Segment(3.0)) == -1.0
    sq = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert covariogram_derivative_at_origin(sq, np.array([1.0, 0.0])) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [Disc(1.0), Disc(0.35),
                                   ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]),
                                   ConvexPolygon([[0, 0], [2, 0], [2.5, 1], [1, 2], [-0.5, 1]])])
def test_covariogram_derivative_finite_difference(shape):
    rng = philox_stream(7, 0)
    h = 1e-6
    for _ in range(20):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        fd = (covariogram(shape, h * u) - shape.area) / h
        assert abs(covariogram_derivative_at_origin(shape, u) - fd) < 1e-4 * shape.area


def test_segment_derivative_finite_difference():
    seg = Segment(3.0)
    h = 1e-6
    for u in (np.array([1.0]), np.array([-1.0])):
        fd = (covariogram(seg, h * u) - seg.area) / h
        assert abs(covariogram_derivative_at_origin(seg, u) - fd) < 1e-4 * seg.area


def test_grassmann_average_det():
    L2 = Subspace.line(Direction([1.0, 0.0]))
    assert grassmann_average_det(2, L2) == pytest.approx(2 / math.pi, abs=1e-12)
    L3 = Subspace.line(Direction([0.0, 0.0, 1.0]))
    # pi/4 confirmed by a 1e7-direction Monte Carlo run (z = 1.4)
    assert grassmann_average_det(3, L3) == pytest.approx(math.pi / 4, abs=1e-12)
    other = Subspace.line(Direction([1.0, 2.0, -0.5]))
    assert grassmann_average_det(3, other) == grassmann_average_det(3, L3)


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0]])  # too few
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 0]])  # clockwise
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]])  # nonconvex
    hexa = ConvexPolygon([[math.cos(a), math.sin(a)] for a in np.linspace(0, 2 * math.pi, 6, endpoint=False)])
    assert hexa.area == pytest.approx(1.5 * math.sqrt(3), rel=1e-12)
    # circumcentre sits at the origin after construction
    sq = ConvexPolygon([[10, 10], [11, 10], [11, 11], [10, 11]])
    assert np.allclose(sq.vertices.mean(axis=0), [0, 0], atol=1e-9)
    assert sq.circumradius == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_segment_and_disc_validation():
    with pytest.raises(ValueError):
        Segment(0.0)
    with pytest.raises(ValueError):
        Disc(-1.0)
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
        assert same_bits(Direction(v).vec, c)
        # the batched Gram-Schmidt is the scalar one-subspace loop, bit for bit
        assert same_bits(complement_frame(c[:, None]), f)
    for k in range(1, d):
        spec = ProcessSpec(d=d, k=k, intensity=1.0, alpha=Isotropic(),
                           base=DeterministicBase(Segment(1.0) if d - k == 1 else Disc(1.0)))
        bases, frames = spec.subspace_frames(vecs)
        for v, basis, frame in zip(vecs, bases, frames):
            ref = Subspace.line(Direction(v)) if k == 1 else Subspace.plane_with_normal(Direction(v))
            assert same_bits(ref.basis, basis) and same_bits(ref.frame, frame)


def test_batched_frames_reject_what_direction_rejects():
    with pytest.raises(ValueError, match="zero vector"):
        canonical_directions(np.array([[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0]]))
    with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
        canonical_directions(np.ones((2, 4)))
    assert complement_frames(np.zeros((0, 3, 1))).shape == (0, 3, 2)
