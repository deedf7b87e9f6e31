import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylproc.analytic import capacity_finite, volume_fraction
from cylproc.euclid import (
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    _complement_frame,
    gauss_legendre,
)
from cylproc.model import (
    DeterministicBase,
    DiscRadiusLaw,
    FixedAxes,
    GirdleBand,
    Isotropic,
    MixtureBase,
    ProcessSpec,
    RadiusLaw,
    haar_vectors,
)
from cylproc.rng import philox_stream
from cylproc.sim import (
    PlacedCylinder,
    _hits_window,
    Realization,
    Window,
    contains,
    count_component_entries,
    covered_length,
    covered_mask,
    distance_mask,
    distance_to_union,
    export_realization_csv,
    import_realization_csv,
    ray_interval_bulk,
    ray_intervals,
    sample_realization,
)
from scalar_geometry import convex_distance, convex_hull_ccw, hits_window, sample_reference


def spec3_iso(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def single_cylinder_realization():
    spec = ProcessSpec(d=3, k=1, intensity=0.1,
                       alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                       base=DeterministicBase(Disc(1.0)))
    L = spec.subspace_for(Direction([0, 0, 1.0]))
    window = Window((-10, -10, -10), (10, 10, 10))
    cyl = PlacedCylinder(L, Disc(1.0), np.zeros(2))
    return Realization(spec=spec, window=window, cylinders=(cyl,), seed=0)


def test_window_validation_and_geometry():
    with pytest.raises(ValueError):
        Window((0, 0), (0, 1))
    w = Window((0, 0, 0), (20, 10, 5))
    assert w.min_side == 5
    assert w.volume == 1000
    assert w.circumradius == pytest.approx(0.5 * math.sqrt(400 + 100 + 25))
    e = w.erode(1.0)
    assert e.lo == (1, 1, 1) and e.hi == (19, 9, 4)
    el = w.erode_for_lag([2.0, -1.0, 0.0])
    assert el.lo == (0, 1, 0) and el.hi == (18, 10, 5)


def test_empty_process_yields_empty_realization():
    spec = spec3_iso(lam=0.0)
    real = sample_realization(spec, Window((0, 0, 0), (10, 10, 10)), seed=1)
    assert real.n_cylinders() == 0
    assert not contains(real, [5, 5, 5])
    assert distance_to_union(real, [5, 5, 5]) == np.inf
    assert ray_intervals(real, [1, 1, 1], np.array([1.0, 0, 0]), 5.0) == []


def test_same_seed_reproduces_identical_realizations():
    spec = spec3_iso()
    w = Window((0, 0, 0), (20, 20, 20))
    r1 = sample_realization(spec, w, seed=42)
    r2 = sample_realization(spec, w, seed=42)
    assert r1.n_cylinders() == r2.n_cylinders() > 0
    for a, b in zip(r1.cylinders, r2.cylinders):
        assert np.array_equal(a.offset, b.offset)
        assert np.array_equal(a.subspace.basis, b.subspace.basis)
        assert a.base == b.base
    r3 = sample_realization(spec, w, seed=43)
    assert r3.n_cylinders() != r1.n_cylinders() or not all(
        np.array_equal(a.offset, b.offset) for a, b in zip(r3.cylinders, r1.cylinders))


def test_every_stored_cylinder_hits_the_window():
    spec = spec3_iso()
    w = Window((0, 0, 0), (12, 12, 12))
    real = sample_realization(spec, w, seed=5)
    corners = w.corners
    for cyl in real.cylinders:
        proj = corners @ cyl.subspace.frame
        hull = convex_hull_ccw(proj)
        # distance from the offset to the window shadow at most the base circumradius
        assert convex_distance(hull, cyl.offset) <= cyl.base.circumradius + 1e-9


def hit_measure_oracle(spec, window, a):
    # lam * E over directions of area(shadow + disc of radius a), via the Steiner formula
    z_nodes, z_w = gauss_legendre(48, 0.0, 1.0)
    p_nodes, p_w = gauss_legendre(96, 0.0, 2 * math.pi)
    corners = window.corners
    total = 0.0
    for zi, wzi in zip(z_nodes, z_w):
        s = math.sqrt(max(0.0, 1 - zi * zi))
        for pj, wpj in zip(p_nodes, p_w):
            omega = np.array([s * math.cos(pj), s * math.sin(pj), zi])
            hull = convex_hull_ccw(corners @ _complement_frame(omega[:, None]))
            x, y = hull[:, 0], hull[:, 1]
            area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            perim = float(np.sum(np.linalg.norm(np.roll(hull, -1, axis=0) - hull, axis=1)))
            total += wzi * wpj / (2 * math.pi) * (area + a * perim + math.pi * a * a)
    return spec.intensity * total


def test_mean_retained_count_matches_hitting_measure():
    spec = spec3_iso()
    w = Window((0, 0, 0), (8, 8, 8))
    oracle = hit_measure_oracle(spec, w, 1.0)
    counts = np.array([sample_realization(spec, w, seed=100, stream=r).n_cylinders()
                       for r in range(1200)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - oracle) < 3 * se


def test_sampling_exactness_against_capacity():
    spec = spec3_iso()
    w = Window((0, 0, 0), (8, 8, 8))
    pts = np.array([[2.0, 2.0, 2.0], [4.5, 2.5, 3.0], [3.0, 5.5, 6.0]])
    t_exact = capacity_finite(spec, pts)
    hits = np.array([covered_mask(sample_realization(spec, w, seed=200, stream=r), pts).any()
                     for r in range(1200)])
    se = hits.std(ddof=1) / math.sqrt(len(hits))
    assert abs(hits.mean() - t_exact) < 3 * se


def test_sampling_exactness_against_capacity_slabs():
    spec = ProcessSpec(d=3, k=2, intensity=0.3, alpha=Isotropic(),
                       base=DeterministicBase(Segment(0.5)))
    w = Window((0, 0, 0), (8, 8, 8))
    pts = np.array([[2.0, 2.0, 2.0], [6.0, 3.0, 2.5], [2.5, 5.0, 6.0]])
    t_exact = capacity_finite(spec, pts)
    hits = np.array([covered_mask(sample_realization(spec, w, seed=300, stream=r), pts).any()
                     for r in range(1500)])
    se = hits.std(ddof=1) / math.sqrt(len(hits))
    assert abs(hits.mean() - t_exact) < 3 * se


def test_contains_examples():
    real = single_cylinder_realization()
    assert contains(real, [0.5, 0, 7])
    assert not contains(real, [1.5, 0, 7])
    with pytest.raises(ValueError):
        contains(real, [50, 0, 0])


def test_distance_examples():
    real = single_cylinder_realization()
    assert distance_to_union(real, [0.5, 0, 3]) == 0.0
    assert distance_to_union(real, [3, 0, 0]) == pytest.approx(2.0, abs=1e-12)
    law_spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(),
                           base=DiscRadiusLaw(RadiusLaw(((0.0, 0.5), (2.0, 0.5)))))
    real2 = sample_realization(law_spec, Window((0, 0, 0), (10, 10, 10)), seed=3)
    with pytest.raises(ValueError, match="radius-zero"):
        distance_to_union(real2, [5, 5, 5])


def test_contains_iff_distance_zero():
    spec = spec3_iso(lam=0.15)
    w = Window((0, 0, 0), (10, 10, 10))
    real = sample_realization(spec, w, seed=9)
    pts = w.uniform_points(philox_stream(9, 1), 20_000)
    inside = covered_mask(real, pts)
    dist = distance_mask(real, pts)
    assert np.array_equal(inside, dist <= 1e-9)


def test_ray_examples():
    real = single_cylinder_realization()
    iv = ray_intervals(real, [-5, 0, 0], np.array([1.0, 0, 0]), 10.0)
    assert len(iv) == 1
    assert iv[0][0] == pytest.approx(4.0, abs=1e-12)
    assert iv[0][1] == pytest.approx(6.0, abs=1e-12)
    # parallel to the axis, origin outside: no interval
    assert ray_intervals(real, [3, 0, -5], np.array([0, 0, 1.0]), 10.0) == []
    # parallel inside: the whole probe
    iv = ray_intervals(real, [0.2, 0, -5], np.array([0, 0, 1.0]), 10.0)
    assert iv == [(0.0, 10.0)]
    # tangent ray grazes without an interval
    assert ray_intervals(real, [1.0, -3, 0], np.array([0, 1.0, 0]), 6.0) == []
    with pytest.raises(ValueError):
        ray_intervals(real, [9, 0, 0], np.array([1.0, 0, 0]), 5.0)


def test_ray_intervals_merge_overlaps():
    spec = ProcessSpec(d=3, k=1, intensity=0.1,
                       alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                       base=DeterministicBase(Disc(1.0)))
    L = spec.subspace_for(Direction([0, 0, 1.0]))
    window = Window((-10, -10, -10), (10, 10, 10))
    cyls = (PlacedCylinder(L, Disc(1.0), np.zeros(2)),
            PlacedCylinder(L, Disc(1.0), np.array([1.0, 0.0])))
    real = Realization(spec=spec, window=window, cylinders=cyls, seed=0)
    iv = ray_intervals(real, [-5, 0, 0], np.array([1.0, 0, 0]), 10.0)
    assert iv == [(4.0, 7.0)]


def test_ray_bulk_matches_scalar():
    spec = spec3_iso(lam=0.12)
    w = Window((0, 0, 0), (12, 12, 12))
    real = sample_realization(spec, w, seed=31)
    gen = philox_stream(31, 1)
    length = 6.0
    mids = w.erode(length / 2).uniform_points(gen, 50)
    z = gen.uniform(-1, 1, 50)
    phi = gen.uniform(0, 2 * math.pi, 50)
    s = np.sqrt(1 - z**2)
    dirs = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    origins = mids - 0.5 * length * dirs
    ids, tins, touts = ray_interval_bulk(real, origins, dirs, length)
    for i in range(50):
        scalar = ray_intervals(real, origins[i], dirs[i], length)
        got = sorted((tins[j], touts[j]) for j in np.nonzero(ids == i)[0])
        merged = []
        for lo, hi in got:
            if merged and lo <= merged[-1][1] + 1e-12:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        assert merged == scalar


def test_component_entry_counting():
    ids = np.array([0, 0, 0, 1, 1])
    tins = np.array([0.0, 2.0, 2.5, 1.0, 5.0])
    touts = np.array([1.0, 3.0, 4.0, 2.0, 6.0])
    # ray 0: straddling start (dropped) + one merged component -> 1
    # ray 1: two components -> 2
    assert count_component_entries(ids, tins, touts, 10.0) == 3
    assert covered_length(ids, tins, touts, 10.0) == pytest.approx(1.0 + 2.0 + 1.0 + 1.0)


def test_interval_merge_does_not_depend_on_probe_index():
    # per probe: a gap of 5e-12 (above the 1e-12 merge tolerance) keeps two
    # components; an overlap within the tolerance merges into one
    tins = np.array([1.0, 2.0 + 5e-12, 1.0, 2.0 + 5e-13])
    touts = np.array([2.0, 3.0, 2.0, 3.0])
    counts, lengths = [], []
    for first in (0, 5000, 99_998):
        ids = np.array([first, first, first + 1, first + 1])
        counts.append(count_component_entries(ids, tins, touts, 10.0))
        lengths.append(covered_length(ids, tins, touts, 10.0))
    assert counts == [3, 3, 3]
    assert lengths[0] == lengths[1] == lengths[2] == pytest.approx(4.0, abs=1e-11)


def test_section_identity_covered_fraction():
    spec = spec3_iso()
    w = Window((0, 0, 0), (24, 24, 24))
    p = volume_fraction(spec)
    length = 16.0
    fracs = []
    for r in range(10):
        real = sample_realization(spec, w, seed=77, stream=r)
        gen = philox_stream(77, 1000 + r)
        n = 10_000
        z = gen.uniform(-1, 1, n)
        phi = gen.uniform(0, 2 * math.pi, n)
        s = np.sqrt(1 - z**2)
        dirs = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
        mids = w.erode(length / 2).uniform_points(gen, n)
        ids, tins, touts = ray_interval_bulk(real, mids - 0.5 * length * dirs, dirs, length)
        fracs.append(covered_length(ids, tins, touts, length) / (n * length))
    fracs = np.array(fracs)
    se = fracs.std(ddof=1) / math.sqrt(len(fracs))
    assert abs(fracs.mean() - p) < 3 * se


def test_csv_round_trip(tmp_path):
    specs = [
        spec3_iso(),
        ProcessSpec(d=2, k=1, intensity=0.5, alpha=Isotropic(), base=DeterministicBase(Segment(1.0))),
        ProcessSpec(d=3, k=2, intensity=0.3, alpha=Isotropic(), base=DeterministicBase(Segment(0.8))),
        ProcessSpec(d=3, k=1, intensity=0.05, alpha=Isotropic(),
                    base=DeterministicBase(ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]))),
    ]
    for i, spec in enumerate(specs):
        w = Window((0,) * spec.d, (15,) * spec.d)
        real = sample_realization(spec, w, seed=1234 + i)
        path = tmp_path / f"real_{i}.csv"
        export_realization_csv(real, path)
        back = import_realization_csv(path, spec, w)
        assert back.n_cylinders() == real.n_cylinders()
        pts = w.uniform_points(philox_stream(55, i), 20_000)
        assert np.array_equal(covered_mask(real, pts), covered_mask(back, pts))
        # export is byte-deterministic
        path2 = tmp_path / f"real_{i}_again.csv"
        export_realization_csv(sample_realization(spec, w, seed=1234 + i), path2)
        assert path.read_bytes() == path2.read_bytes()


# shape family -> (d, k, base, intensity); each is tried with isotropic and fixed axes
RAY_FAMILIES = {
    "band2": (2, 1, Segment(0.4), 0.8),
    "disc3": (3, 1, Disc(0.7), 0.2),
    "square3": (3, 1, ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.3),
    "slab3": (3, 2, Segment(0.3), 0.6),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(RAY_FAMILIES)), fixed=st.booleans(),
       probe=st.sampled_from(["haar", "axis", "across"]), seed=st.integers(0, 2**32 - 1))
def test_ray_intervals_are_disjoint_and_agree_with_membership(family, fixed, probe, seed):
    d, k, shape, lam = RAY_FAMILIES[family]
    axes = [[0.0, 1.0], [0.6, 0.8]] if d == 2 else [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]
    alpha = FixedAxes([(Direction(a), 0.5) for a in axes]) if fixed else Isotropic()
    spec = ProcessSpec(d=d, k=k, intensity=lam, alpha=alpha, base=DeterministicBase(shape))
    window = Window((0.0,) * d, (8.0,) * d)
    real = sample_realization(spec, window, seed)
    gen = philox_stream(seed, 1)
    length = 4.0
    # along the first axis a line cylinder is parallel to the probe and a slab
    # crosses it square on; across it the roles swap
    fixed_dir = {"axis": np.array(axes[0]), "across": np.eye(d)[0]}
    for _ in range(10):
        v = fixed_dir[probe] if probe in fixed_dir else haar_vectors(d, gen, 1)[0]
        origin = window.erode(0.5 * length).uniform_points(gen, 1)[0] - 0.5 * length * v
        iv = ray_intervals(real, origin, v, length)
        ends = [t for piece in iv for t in piece]
        assert all(a < b for a, b in zip(ends, ends[1:]))  # sorted, disjoint, each nonempty
        edges = [0.0, *ends, length]
        assert edges == sorted(edges)
        # the pieces alternate uncovered, covered, uncovered, ...
        for j, (a, b) in enumerate(zip(edges, edges[1:])):
            if b - a > 1e-6:
                mid = origin + 0.5 * (a + b) * v
                assert bool(covered_mask(real, mid[None, :])[0]) == (j % 2 == 1)


SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = ConvexPolygon([[0, 0], [1.3, 0.2], [0.4, 0.9]])
# shape family -> (d, k, base law, intensity)
HIT_FAMILIES = {
    "band2": (2, 1, DeterministicBase(Segment(0.4)), 1.0),
    "slab3": (3, 2, DeterministicBase(Segment(0.3)), 1.0),
    "disc3": (3, 1, DeterministicBase(Disc(0.7)), 0.2),
    "square3": (3, 1, DeterministicBase(SQUARE), 0.3),
    "triangle3": (3, 1, DeterministicBase(TRIANGLE), 0.3),
    "zero_atom3": (3, 1, DiscRadiusLaw(RadiusLaw(((0.0, 0.3), (0.5, 0.3), (1.5, 0.4)))), 0.2),
    "mixture3": (3, 1, MixtureBase([(Disc(0.6), 0.5), (SQUARE, 0.3), (TRIANGLE, 0.2)]), 0.25),
}


def hit_law(name: str, d: int):
    if name == "isotropic":
        return Isotropic()
    if name == "girdle":
        return GirdleBand(np.eye(d)[-1], 0.3)
    # axis-parallel axes project box corners onto each other; (0.6, 0, 0.8)
    # makes two projected box edges parallel
    axes = [[0.0, 1.0], [1.0, 0.0], [0.6, 0.8]] if d == 2 else \
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [1.0, 1.0, 0.0]]
    return FixedAxes([(Direction(a), 1.0 / len(axes)) for a in axes])


def hit_spec(family: str, law: str) -> ProcessSpec:
    d, k, base, lam = HIT_FAMILIES[family]
    return ProcessSpec(d=d, k=k, intensity=lam, alpha=hit_law(law, d), base=base)


def hit_window(d: int) -> Window:
    return Window((1.0, -2.0, 3.0)[:d], (9.0, 5.0, 20.0)[:d])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("law", ["isotropic", "girdle", "fixed"])
@pytest.mark.parametrize("family", sorted(HIT_FAMILIES))
def test_batched_hit_test_keeps_what_the_scalar_test_keeps(family, law):
    spec = hit_spec(family, law)
    window = hit_window(spec.d)
    gen = philox_stream(17, 0)
    n = 1500
    shapes = [s for s in spec.base.sample_shapes(gen, n) if s is not None]
    _, frame = spec.subspace_frames(spec.alpha.sample_vectors(spec.d, gen, len(shapes)))
    centre = np.vecmat(window.center, frame)
    # offsets out to just past the covering radius, so many candidates sit near the shadow's edge
    rho = 1.05 * (window.circumradius + spec.base.max_circumradius)
    off = centre + gen.uniform(-rho, rho, (len(shapes), spec.d - spec.k))
    got = _hits_window(window, frame, centre, off, shapes)
    want = [hits_window(f, s, o, window.corners) for f, s, o in zip(frame, shapes, off)]
    assert got.tolist() == want
    assert 0 < got.sum() < len(got)


@pytest.mark.parametrize("law", ["isotropic", "girdle", "fixed"])
@pytest.mark.parametrize("family", sorted(HIT_FAMILIES))
def test_sampler_matches_the_per_candidate_loop(family, law):
    spec = hit_spec(family, law)
    window = hit_window(spec.d)
    for seed in (3, 4):
        real = sample_realization(spec, window, seed, stream=1)
        ref = sample_reference(spec, window, seed, stream=1)
        assert len(real.cylinders) == len(ref) > 0
        for cyl, (L, shape, off) in zip(real.cylinders, ref):
            assert cyl.base is shape
            assert same_bits(cyl.subspace.basis, L.basis)
            assert same_bits(cyl.subspace.frame, L.frame)
            assert same_bits(cyl.offset, off)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(HIT_FAMILIES)),
       law=st.sampled_from(["isotropic", "girdle", "fixed"]), seed=st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_exact(tmp_path_factory, family, law, seed):
    spec = hit_spec(family, law)
    window = hit_window(spec.d)
    real = sample_realization(spec, window, seed)
    path = tmp_path_factory.mktemp("csv") / "real.csv"
    export_realization_csv(real, path)
    first = path.read_bytes()
    back = import_realization_csv(path, spec, window)
    export_realization_csv(back, path)
    assert path.read_bytes() == first
    assert back.n_cylinders() == real.n_cylinders()
    for a, b in zip(real.cylinders, back.cylinders):
        assert a.base == b.base
        assert same_bits(a.subspace.frame, b.subspace.frame)
        assert same_bits(a.offset, b.offset)
        if spec.k == 1:
            assert same_bits(a.subspace.basis, b.subspace.basis)
        else:
            # the file holds a slab's frame, not its sampled normal: the plane
            # basis is rebuilt from the frame
            assert same_bits(b.subspace.basis, _complement_frame(b.subspace.frame))


def test_csv_round_trip_of_an_empty_realization(tmp_path):
    for family in ("slab3", "disc3"):
        spec = hit_spec(family, "isotropic")
        empty = Realization(spec=spec, window=hit_window(3), cylinders=(), seed=0)
        path = tmp_path / f"{family}.csv"
        export_realization_csv(empty, path)
        assert import_realization_csv(path, spec, empty.window).cylinders == ()
