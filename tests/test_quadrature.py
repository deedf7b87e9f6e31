"""The batched union-of-translates kernels and the hemisphere quadrature built on them.

The kernels are checked against the node-by-node loops in
``scalar_geometry`` (the oracle), against exact areas in configurations
the oracle gets wrong, and against doubled quadrature rules; hypothesis
checks monotonicity and the bounds of capacity and covariance.  Each law
builds its rule once per rule and k and holds it read-only.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import scalar_geometry as scalar
from cylproc import analytic, euclid, model
from cylproc.analytic import (
    capacity_finite,
    covariance,
    covariance_derivative,
    volume_fraction,
)
from cylproc.euclid import ConvexPolygon, Direction, Disc, Segment
from cylproc.model import (
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

SQUARE = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
TRIANGLE = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
HEX_S = 0.5 * math.sqrt(3.0)  # a regular hexagon of circumradius 1: three pairs of opposite parallel edges
HEXAGON = ConvexPolygon([[1.0, 0.0], [0.5, HEX_S], [-0.5, HEX_S], [-1.0, 0.0], [-0.5, -HEX_S], [0.5, -HEX_S]])
ISO = Isotropic()
GIRDLE = GirdleBand(Direction([0.0, 0.0, 1.0]), 0.4)
FIXED = FixedAxes([(Direction([0.0, 0.0, 1.0]), 0.5), (Direction([0.6, 0.0, 0.8]), 0.3),
                   (Direction([0.0, 1.0, 0.0]), 0.2)])
# generic point triples: no projected difference is parallel to an edge of
# the square or the triangle on the fixed axes, and no two points are close
POINT_SETS = (
    ((0.0, 0.0, 0.0), (0.7, 0.3, 0.2), (0.2, -0.6, 0.5)),
    ((0.0, 0.0, 0.0), (0.4, -0.5, 0.3), (-0.3, 0.2, 0.6)),
    ((0.0, 0.0, 0.0), (0.9, 0.1, -0.2), (0.1, 0.8, 0.1)),
    ((0.0, 0.0, 0.0), (0.2, 0.6, -0.4), (0.6, -0.1, 0.4)),
)
DERIV_DIR = np.array([1.0, 2.0, 2.0]) / 3.0


def spec3(alpha, base, lam=0.1):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=alpha, base=base)


# the analytic_quad benchmark's specs, then other bases under every law
BENCH_SPECS = {
    "poly_iso": spec3(ISO, DeterministicBase(SQUARE)),
    "poly_girdle": spec3(GIRDLE, DeterministicBase(SQUARE)),
    "disc_iso": spec3(ISO, DeterministicBase(Disc(1.0))),
}
LAWS = {"iso": ISO, "girdle": GIRDLE, "fixed": FIXED}
BASES = {
    "triangle": DeterministicBase(TRIANGLE),
    "mixture": MixtureBase([(Disc(0.7), 0.5), (SQUARE, 0.5)]),
    "radius_law": DiscRadiusLaw(RadiusLaw(((0.0, 0.2), (0.6, 0.3), (1.1, 0.5)))),
}
OTHER_SPECS = {f"{b}_{law}": spec3(LAWS[law], BASES[b]) for b in BASES for law in LAWS}
OTHER_SPECS["slab_fixed"] = ProcessSpec(d=3, k=2, intensity=0.3, alpha=FIXED, base=DeterministicBase(Segment(0.5)))


# ---------------------------------------------------------------------------
# the kernels at one node
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("centres, area", [
    ([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0]], 2.5),
    ([[3.0, 3.0], [3.0 + 1e-4, 3.0]], 1.0001),
    ([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]], 2.0),    # a column: shared vertical edges
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]], 2.0),    # abutting and overlapping
])
def test_collinear_edges_of_translates_count_once(centres, area):
    assert SQUARE.union_areas(-np.array(centres)[None])[0] == pytest.approx(area, rel=1e-12)


def test_capacity_with_collinear_projected_edges():
    spec = spec3(FixedAxes([(Direction([0.0, 0.0, 1.0]), 1.0)]), DeterministicBase(SQUARE))
    got = capacity_finite(spec, [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [10.0, 10.0, 0.0]])
    assert got == pytest.approx(-math.expm1(-0.25), rel=1e-12)


@pytest.mark.parametrize("centre", [(0.0, 0.0), (3.0, 3.0)])
@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_close_translates_are_not_merged(centre, delta):
    c = np.array(centre)
    area = SQUARE.union_areas(-np.array([[c, c + delta]]))[0]
    assert area == pytest.approx(1.0 + 2.0 * delta - delta * delta, rel=1e-12)


def test_coincident_translates_count_once():
    assert SQUARE.union_areas(-np.array([[[3.0, 3.0]] * 3]))[0] == pytest.approx(1.0, rel=1e-12)
    assert TRIANGLE.union_areas(-np.array([[[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]]))[0] == pytest.approx(
        2.0 * TRIANGLE.area, rel=1e-12)
    assert Disc(1.0).union_areas(np.array([[[0.2, 0.1]] * 3]))[0] == math.pi


def test_polygon_union_matches_the_scalar_loop_on_generic_centres():
    rng = philox_stream(61, 0)
    for poly in (SQUARE, TRIANGLE, HEXAGON):
        for n in (2, 3, 5, 8, analytic.MAX_CAPACITY_POINTS):
            for _ in range(10):
                centres = rng.uniform(-1.5, 1.5, size=(n, 2))
                want = scalar.union_area_polygons([c + poly.vertices for c in centres])
                assert poly.union_areas(-centres[None])[0] == pytest.approx(want, rel=1e-12)


def test_a_vertex_inside_an_edge_changes_no_area():
    # two edges on one line share one normal: the clip must count their line once
    split = ConvexPolygon([[-0.5, -0.5], [0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    rng = philox_stream(63, 0)
    C = rng.uniform(-1.0, 1.0, (200, 3, 2))
    T = rng.uniform(-1.2, 1.2, (200, 2))
    assert np.allclose(split.union_areas(C), SQUARE.union_areas(C), rtol=1e-14, atol=0.0)
    assert np.allclose(split.covariogram(T), SQUARE.covariogram(T), rtol=0.0, atol=1e-15)


def intersection_area(poly, shifts) -> float:
    """Area of the intersection of the translates poly + s, s in shifts, by convex clipping."""
    V = poly.vertices + shifts[0]
    for s in shifts[1:]:
        V = scalar.clip_convex(V, poly._normals, poly._offsets + poly._normals @ s)
    return scalar.polygon_area(V)


# multiples of 1/4: edges of translates of the square meet, overlap and coincide; half steps of the
# hexagonal tiling do the same for the hexagon
quarters = st.integers(-6, 6).map(lambda i: 0.25 * i)
half_tiles = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda ij: (0.75 * ij[0], HEX_S * (0.5 * ij[0] + ij[1])))


@settings(max_examples=90, deadline=None)
@given(poly=st.sampled_from([SQUARE, TRIANGLE, HEXAGON]),
       centres=st.lists(st.one_of(st.tuples(quarters, quarters), half_tiles), min_size=3, max_size=3))
def test_polygon_union_of_three_is_inclusion_exclusion(poly, centres):
    c = np.array(centres)
    pairs = sum(intersection_area(poly, c[[i, j]]) for i, j in ((0, 1), (0, 2), (1, 2)))
    want = 3.0 * poly.area - pairs + intersection_area(poly, c)
    assert poly.union_areas(-c[None])[0] == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# three points by inclusion-exclusion, against the union sweep
# ---------------------------------------------------------------------------

THREE_SHAPES = {"segment": Segment(0.5), "disc": Disc(1.0), "square": SQUARE, "triangle": TRIANGLE}
NO_COMMON_POINT = {  # every pair of translates overlaps, the three have no common point
    "disc": [(0.0, 0.0), (1.8, 0.0), (0.9, 0.9 * math.sqrt(3.0))],  # circumradius 1.04 > a
    "triangle": [(1.0, -0.5), (1.0, -1.0), (0.5, -0.5)],
}


def three_point_area(shape, C: np.ndarray) -> float:
    """The area capacity_finite takes for three points: 3|K| - the three covariograms + the triple intersection."""
    spec = ProcessSpec(d=3, k=3 - shape.dim, intensity=0.1, alpha=ISO, base=DeterministicBase(shape))
    return analytic._union_volumes(spec, C[None])[0]


def sweep_slack(shape, C: np.ndarray) -> float:
    """How far union_areas may lie from the exact area of the union of the translates c_i - K.

    Its sums hold terms as large as (circumradius + spread)^2, which bounds their rounding, and it
    takes centres (discs) or edge lines (polygons) nearer than _DEDUPE_TOL * circumradius as one,
    which moves the area by up to the boundary times their offset.
    """
    R = shape.circumradius
    lags = (C[:, None] - C).reshape(-1, C.shape[1])
    offsets = np.abs(lags @ shape._normals.T) if isinstance(shape, ConvexPolygon) else np.linalg.norm(lags, axis=1)
    near = offsets[(offsets > 0.0) & (offsets <= euclid._DEDUPE_TOL * R)]
    return 1e-14 * max(shape.area, (R + float(np.max(np.abs(lags)))) ** 2) + shape.boundary * float(near.sum())


centre = st.floats(-2.5, 2.5, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(THREE_SHAPES)),
       centres=st.lists(st.one_of(st.tuples(quarters, quarters), st.tuples(centre, centre)), min_size=3, max_size=3))
@example("disc", [(0.3, 0.2)] * 3)  # coincident
@example("square", [(0.3, 0.2), (0.9, -0.4), (0.3, 0.2)])
@example("triangle", [(0.3, 0.2), (0.3, 0.2), (0.9, -0.4)])
@example("segment", [(0.3, 0.0), (0.9, 0.0), (0.3, 0.0)])
@example("disc", [(0.3, 0.2), (0.3 + 1e-13, 0.2), (0.3, 0.2 - 1e-13)])  # coincident within 1e-13
@example("disc", [(0.3, 0.2), (0.3 + 1e-13, 0.2), (0.9, -0.4)])
@example("triangle", [(0.3, 0.2), (0.3 + 1e-13, 0.2), (0.9, -0.4)])
@example("square", [(0.3, 0.2), (0.3 + 1e-13, 0.2), (0.3, 0.2 - 1e-13)])
@example("disc", [(0.0, 0.0), (2.0, 0.0), (1.0, 0.5)])  # centres exactly 2a apart
@example("disc", [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
@example("square", [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)])  # opposite edges touch
@example("square", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
@example("segment", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
@example("disc", [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])  # collinear
@example("triangle", [(-0.7, 0.1), (0.0, 0.4), (0.7, 0.7)])
@example("square", [(-0.5, -0.5), (0.25, 0.25), (1.0, 1.0)])
@example("disc", [(0.0, 0.0), (0.4, 0.3), (50.0, -40.0)])  # one point far away
@example("triangle", [(0.0, 0.0), (0.4, 0.3), (50.0, -40.0)])
@example("segment", [(0.0, 0.0), (0.4, 0.0), (50.0, 0.0)])
@example("disc", NO_COMMON_POINT["disc"])
@example("triangle", NO_COMMON_POINT["triangle"])
def test_three_points_by_inclusion_exclusion_are_the_union_sweep(name, centres):
    # the triangle is not centrally symmetric, so c_i - K against c_i + K would show
    shape = THREE_SHAPES[name]
    C = np.array(centres)[:, :shape.dim]
    assert abs(three_point_area(shape, C) - shape.union_areas(C[None])[0]) <= sweep_slack(shape, C)


@pytest.mark.parametrize("name", sorted(NO_COMMON_POINT))
def test_pairs_that_overlap_without_a_common_point_leave_no_triple_term(name):
    shape, C = THREE_SHAPES[name], np.array(NO_COMMON_POINT[name])
    assert min(shape.covariogram(C[i] - C[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > 0.02 * shape.area
    assert shape.intersection_areas(C[None])[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(THREE_SHAPES)),
       centres=st.lists(st.one_of(st.tuples(quarters, quarters), st.tuples(centre, centre)), min_size=2, max_size=2))
def test_the_intersection_of_two_translates_is_the_covariogram_of_their_lag(name, centres):
    shape = THREE_SHAPES[name]
    C = np.array(centres)[:, :shape.dim]
    got, want = shape.intersection_areas(C[None])[0], shape.covariogram(C[0] - C[1])
    if isinstance(shape, Disc):  # Green's sum over the two arcs against the closed form
        assert abs(got - want) <= 1e-15 * shape.area
    else:  # the same arithmetic
        assert got == want


@pytest.mark.parametrize("name", sorted(THREE_SHAPES))
def test_the_intersection_of_n_translates_is_the_alternating_sum_of_unions(name):
    # |n_i A_i| = sum over non-empty subsets S of (-1)^(|S| + 1) |u_{i in S} A_i|, on two to five centres,
    # the second equal to the first in a quarter of the rows and the third within 1e-13 of it in another
    shape = THREE_SHAPES[name]
    rng = philox_stream(65, 0)
    for n in (2, 3, 4, 5):
        C = rng.uniform(-1.2, 1.2, (200, n, shape.dim))
        C[:50, 1] = C[:50, 0]
        if n > 2:
            C[50:100, 2] = C[50:100, 0] + 1e-13
        want = sum((-1) ** (len(S) + 1) * shape.union_areas(C[:, list(S)])
                   for r in range(1, n + 1) for S in itertools.combinations(range(n), r))
        assert np.allclose(shape.intersection_areas(C), want, rtol=0.0, atol=1e-12 * shape.area), n


@pytest.mark.parametrize("poly", [TRIANGLE, HEXAGON], ids=["triangle", "hexagon"])
def test_translates_a_width_apart_along_an_edge_normal_meet_in_exactly_zero_area(poly):
    # on the boundary of K - K the clip leaves areas of order 1e-17; the spread test makes them 0
    rng = philox_stream(66, 0)
    for (nx, ny), width in zip(poly._normals, poly._widths):
        t = width * np.array([nx, ny]) + rng.uniform(-1.0, 1.0, (2000, 1)) * np.array([-ny, nx])
        p = nx * -t[:, 0] + ny * -t[:, 1]  # n . c of the second translate, as the kernel forms it
        apart = np.abs(p) >= width
        assert apart.sum() > 50
        assert np.all(poly.covariogram(t[apart]) == 0.0)
        assert np.all(poly.intersection_areas(np.stack([np.zeros_like(t), -t, -0.5 * t], axis=1))[apart] == 0.0)


@pytest.mark.parametrize("shape, kernel, rows", [(SQUARE, "union_areas", (8192, 16, 2)),
                                                  (SQUARE, "covariogram", (8192, 2)),
                                                  (Disc(1.0), "union_areas", (8192, 16, 2)),
                                                  (SQUARE, "intersection_areas", (8192, 3, 2)),
                                                  (Disc(1.0), "intersection_areas", (8192, 3, 2))],
                         ids=["square-union_areas", "square-covariogram", "disc-union_areas",
                              "square-intersection_areas", "disc-intersection_areas"])
def test_polygon_kernels_keep_their_temporaries_chunked(shape, kernel, rows):
    # every temporary holds at most _CHUNK values; a table over all rows at once would be 16x or more
    # larger than this bound, which leaves room for the input's chunks, the output and a few temporaries
    X = philox_stream(62, 0).uniform(-1.0, 1.0, rows)
    tracemalloc.start()
    try:
        getattr(shape, kernel)(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * euclid._CHUNK * 8


# starts on a grid of quarters tie and pieces of length 0 are empty; +inf starts and -inf padding are
# the empty pieces of the polygon kernel and of the probe merge
sweep_piece = st.one_of(st.tuples(quarters, st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0])).map(
    lambda sl: (sl[0], sl[0] + sl[1])), st.just((math.inf, math.inf)), st.just((-math.inf, -math.inf)))
sweep_row = st.tuples(st.lists(sweep_piece, max_size=7), st.integers(-8, 4).map(lambda i: 0.25 * i),
                      st.integers(1, 12).map(lambda i: 0.25 * i))


@settings(max_examples=120, deadline=None)
@given(rows=st.lists(sweep_row, min_size=1, max_size=4))
def test_sweep_is_the_scalar_interval_merge_row_by_row(rows):
    # pieces on axis 0, one union per column, padded with -inf; ties sort by end, which may move an
    # empty slot but never a gap, a run or a sum
    width = max(1, *(len(pieces) for pieces, _, _ in rows))
    S, E = np.full((2, width, len(rows)), -math.inf)
    for r, (pieces, _, _) in enumerate(rows):
        S[:len(pieces), r], E[:len(pieces), r] = np.reshape(pieces, (-1, 2)).T
    lo, hi = (np.array([row[1] + k * row[2] for row in rows]) for k in (0, 1))
    g0, g1 = euclid._gaps(S, E, lo, hi)
    s, R, new = euclid._sweep(S, E, -math.inf, math.inf)
    ends = euclid._run_ends(new, R)
    with np.errstate(invalid="ignore"):  # -inf padding: ends - s is NaN there, and the where drops it
        lengths = np.cumsum(np.where(new, ends - s, 0.0), axis=0)[-1]
    uncovered = np.cumsum(g1 - g0, axis=0)[-1]
    for r, (pieces, _, _) in enumerate(rows):
        real = [p for p in pieces if p[0] > -math.inf]
        gaps = scalar.uncovered(real, lo[r], hi[r])
        assert [(a, b) for a, b in zip(g0[:, r], g1[:, r]) if b > a] == gaps
        assert np.all((g1[:, r] > g0[:, r]) | (g1[:, r] == g0[:, r]))
        assert uncovered[r] == sum(b - a for a, b in gaps)
        runs = scalar.union_intervals(real)
        assert [(a, b) for a, b, k in zip(s[:, r], ends[:, r], new[:, r]) if k] == [tuple(run) for run in runs]
        assert lengths[r] == sum(b - a for a, b in runs)


# ties on a grid of quarters, signed zeros and the -inf padding of the probe merge; no +inf, so no sum is NaN
scan_value = st.one_of(st.sampled_from([-math.inf, 0.0, -0.0]), quarters, st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=7), elements=scan_value))
@example(a=np.array([[-0.0, 0.0, -math.inf, 1.0]]))  # one row
@example(a=np.array([[0.0, -0.0, -math.inf], [-0.0, 0.0, -math.inf], [0.0, -0.0, 0.25]]))
def test_row_scans_are_numpys_axis_0_accumulate_bit_for_bit(a):
    before = a.tobytes()
    assert euclid._rowsum(a).tobytes() == np.cumsum(a, axis=0)[-1].tobytes()
    assert a.tobytes() == before
    for ufunc in (np.maximum, np.minimum):
        assert euclid._scan(ufunc, a.copy()).tobytes() == ufunc.accumulate(a, axis=0).tobytes()
        want = ufunc.accumulate(a[::-1], axis=0)[::-1]
        assert euclid._scan(ufunc, a.copy(), reverse=True).tobytes() == want.tobytes()


# quarters for tangent, coincident and wrapping arcs, thousandths for the rest; two
# distinct centres lie far outside both dedupe tolerances (1e-12 and 1e-12 a)
disc_coords = st.one_of(quarters, st.integers(-3000, 3000).map(lambda i: i / 1000))


@settings(max_examples=60, deadline=None)
@given(centres=st.lists(st.tuples(disc_coords, disc_coords), min_size=1, max_size=7),
       radius=st.sampled_from([0.3, 1.0, 2.5]))
def test_disc_union_is_the_scalar_arc_tracing_bit_for_bit(centres, radius):
    centres = np.array(centres, dtype=float)
    assert Disc(radius).union_areas(centres[None])[0] == scalar.union_area_discs(centres, radius)


@settings(max_examples=60, deadline=None)
@given(centres=st.lists(st.floats(-3, 3), min_size=1, max_size=7), half=st.sampled_from([0.25, 1.0]))
def test_segment_union_is_the_scalar_interval_merge_bit_for_bit(centres, half):
    proj = np.array(centres, dtype=float)[None, :, None]
    seg = ProcessSpec(d=3, k=2, intensity=0.1, alpha=ISO, base=DeterministicBase(Segment(half)))
    assert Segment(half).union_areas(proj)[0] == scalar.union_volume(seg, proj[0])


# ---------------------------------------------------------------------------
# parity with the node-by-node loops
# ---------------------------------------------------------------------------

def rules(monkeypatch, scale):
    """Scale both sides of the 64x128 hemisphere and 48x96 band rules."""
    monkeypatch.setattr(Isotropic, "rule", (int(64 * scale), int(128 * scale)))
    monkeypatch.setattr(GirdleBand, "rule", (int(48 * scale), int(96 * scale)))


def scalar_loops(monkeypatch):
    # on fixed axes the segment and disc atoms, and E[h, L], go through the law's radial mean
    monkeypatch.setattr(FixedAxes, "radial_mean", lambda law, spec, h, r, f, targets: scalar.radial_mean(spec, h, f))
    monkeypatch.setattr(analytic, "_frame_gamma_mean", scalar.frame_gamma_mean)
    monkeypatch.setattr(analytic, "_polygon_slope_mean", scalar.polygon_slope_mean)
    # every law in space, and fixed axes in the plane, sum their union volumes frame by frame through one helper
    monkeypatch.setattr(model, "_frame_sum", lambda spec, pts, f: scalar.mean_union_volume(spec, pts))


def batched_and_scalar(monkeypatch, fn, *args):
    got = fn(*args)
    with monkeypatch.context() as m:
        scalar_loops(m)
        want = fn(*args)
    return got, want


@pytest.mark.parametrize("family", sorted(BENCH_SPECS))
@pytest.mark.parametrize("variant", range(len(POINT_SETS)))
def test_benchmark_values_match_the_scalar_loops(monkeypatch, family, variant):
    spec, pts = BENCH_SPECS[family], np.array(POINT_SETS[variant])
    calls = [(capacity_finite, spec, pts)]
    if family != "disc_iso":  # disc covariances never ran through the node loop
        calls += [(covariance, spec, pts[1] - pts[0])]
        if variant == 0:
            calls += [(covariance_derivative, spec, DERIV_DIR)]
    for fn, *args in calls:
        got, want = batched_and_scalar(monkeypatch, fn, *args)
        assert got == pytest.approx(want, rel=1e-12), fn.__name__


@pytest.mark.parametrize("name", sorted(OTHER_SPECS))
def test_other_bases_match_the_scalar_loops(monkeypatch, name):
    # quarter-size rules keep the scalar loops short; each node is computed as at full size
    rules(monkeypatch, 0.5)
    spec, pts = OTHER_SPECS[name], np.array(POINT_SETS[1])
    for fn, *args in [(capacity_finite, spec, pts), (covariance, spec, pts[2] - pts[0]),
                      (covariance_derivative, spec, DERIV_DIR)]:
        got, want = batched_and_scalar(monkeypatch, fn, *args)
        assert got == pytest.approx(want, rel=1e-12), fn.__name__


# ---------------------------------------------------------------------------
# quadrature error of the default rules
# ---------------------------------------------------------------------------

# largest |default - doubled| / |doubled| over the benchmark's polygon specs
# and point sets (64x128 hemisphere and 48x96 band rules against 128x256 and
# 96x192): covariance 1.7e-4 and derivative 1.6e-4, both on the girdle band,
# and capacity 3.7e-5; the bounds allow 20% over
QUADRATURE_BOUNDS = {"covariance": 2.0e-4, "covariance_derivative": 2.0e-4, "capacity_finite": 4.5e-5}


@pytest.mark.parametrize("family", ["poly_iso", "poly_girdle"])
def test_quadrature_error_of_the_default_rules(monkeypatch, family):
    spec = BENCH_SPECS[family]
    calls = [("covariance_derivative", DERIV_DIR)]
    for P in map(np.array, POINT_SETS):
        calls += [("covariance", P[1] - P[0]), ("capacity_finite", P)]
    worst = dict.fromkeys(QUADRATURE_BOUNDS, 0.0)
    for fn, arg in calls:
        default = getattr(analytic, fn)(spec, arg)
        with monkeypatch.context() as m:
            rules(m, 2)
            fine = getattr(analytic, fn)(spec, arg)
        worst[fn] = max(worst[fn], abs(default - fine) / abs(fine))
    for fn, bound in QUADRATURE_BOUNDS.items():
        # a rule held without its size would compare the default rule with itself
        assert 0.0 < worst[fn] <= bound, (fn, worst[fn])


# ---------------------------------------------------------------------------
# the rule each law holds
# ---------------------------------------------------------------------------

FRESH_LAWS = {
    "iso": Isotropic,
    "girdle": lambda: GirdleBand(Direction([0.0, 0.0, 1.0]), 0.4),
    "fixed": lambda: FixedAxes(FIXED.axes),
}


def counted_builds(monkeypatch) -> list:
    """The calls of the frame builder the laws use, recorded from now on."""
    builds, build = [], model.complement_frames
    monkeypatch.setattr(model, "complement_frames", lambda *a: builds.append(a) or build(*a))
    return builds


@pytest.mark.parametrize("law", sorted(FRESH_LAWS))
def test_a_law_builds_its_frames_once(monkeypatch, law):
    spec = spec3(FRESH_LAWS[law](), DeterministicBase(SQUARE))
    h = np.array(POINT_SETS[1][1])
    builds = counted_builds(monkeypatch)
    first = covariance(spec, h)
    assert len(builds) == 1
    assert covariance(spec, h).hex() == first.hex()
    assert len(builds) == 1
    frames, ww = spec.alpha.frames(spec)
    with pytest.raises(ValueError):
        frames[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        ww[0] = 0.0
    # the same law under slabs holds the frames of k = 2 beside those of k = 1
    slab = ProcessSpec(d=3, k=2, intensity=0.3, alpha=spec.alpha, base=DeterministicBase(Segment(0.5)))
    assert spec.alpha.frames(slab)[0].shape == frames.shape[:2] + (1,)
    assert spec.alpha.frames(spec)[0] is frames


def bits(frames_and_weights) -> tuple:
    return tuple(a.tobytes() for a in frames_and_weights)


def test_a_changed_rule_is_built_and_the_default_comes_back(monkeypatch):
    law = Isotropic()
    spec = spec3(law, DeterministicBase(SQUARE))
    default = bits(law.frames(spec))
    with monkeypatch.context() as m:
        m.setattr(Isotropic, "rule", (32, 64))
        coarse = law.frames(spec)
        assert len(coarse[1]) == 2048
        assert bits(coarse) == bits(Isotropic().frames(spec))
    assert bits(law.frames(spec)) == default == bits(Isotropic().frames(spec))


def test_girdle_bands_of_different_widths_hold_their_own_rules():
    axis = Direction([0.0, 0.0, 1.0])
    narrow, wide = GirdleBand(axis, 0.2), GirdleBand(axis, 0.4)
    got = bits(narrow.frames(spec3(narrow, DeterministicBase(SQUARE))))
    assert got != bits(wide.frames(spec3(wide, DeterministicBase(SQUARE))))
    assert got == bits(GirdleBand(axis, 0.2).frames(spec3(narrow, DeterministicBase(SQUARE))))


# ---------------------------------------------------------------------------
# properties of capacity and covariance
# ---------------------------------------------------------------------------

LAWS_2D = {"iso": ISO, "girdle": GirdleBand(Direction([0.0, 1.0]), 0.4),
           "fixed": FixedAxes([(Direction([1.0, 0.0]), 0.5), (Direction([0.6, 0.8]), 0.5)])}
PROPERTY_SPECS = {
    **{f"{base}_{law}": spec3(LAWS[law], DeterministicBase(shape))
       for base, shape in (("square", SQUARE), ("disc", Disc(0.8))) for law in LAWS},
    **OTHER_SPECS,
    **{f"slab_{law}": ProcessSpec(d=3, k=2, intensity=0.3, alpha=LAWS[law], base=DeterministicBase(Segment(0.5)))
       for law in LAWS},
    **{f"band_{law}": ProcessSpec(d=2, k=1, intensity=0.4, alpha=LAWS_2D[law], base=DeterministicBase(Segment(0.5)))
       for law in LAWS},
}
coords = st.floats(-1.5, 1.5, allow_subnormal=False)
points = st.tuples(coords, coords, coords)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_SPECS)), pts=st.lists(points, min_size=4, max_size=4),
       which=st.integers(0, 2))
def test_capacity_grows_with_the_point_set(name, pts, which):
    spec = PROPERTY_SPECS[name]
    pts = np.array(pts)[:, :spec.d]  # the last point is the one added
    base = capacity_finite(spec, pts[:3])
    p = volume_fraction(spec)
    assert p - 1e-12 <= base <= 1.0
    assert capacity_finite(spec, pts) >= base - 1e-12
    assert capacity_finite(spec, pts[[0, 1, 2, which]]) == pytest.approx(base, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_SPECS)), h=points)
def test_covariance_lies_between_p_squared_and_p(name, h):
    spec = PROPERTY_SPECS[name]
    p = volume_fraction(spec)
    assert p * p - 1e-12 <= covariance(spec, np.array(h)[:spec.d]) <= p + 1e-12


class UnionKernelCalled(Exception):
    pass


@pytest.mark.parametrize("name", sorted(PROPERTY_SPECS))
def test_three_point_capacities_run_no_union_kernel(monkeypatch, name):
    def refuse(shape, C):
        raise UnionKernelCalled

    for cls in (Segment, Disc, ConvexPolygon):
        monkeypatch.setattr(cls, "union_areas", refuse)
    spec = PROPERTY_SPECS[name]
    pts = np.array(POINT_SETS[1] + ((0.9, 0.1, -0.2),))[:, :spec.d]
    assert volume_fraction(spec) <= capacity_finite(spec, pts[:3]) <= 1.0
    with pytest.raises(UnionKernelCalled):  # four points still take the sweep
        capacity_finite(spec, pts)
