import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylproc import sim
from cylproc.analytic import capacity_finite, volume_fraction
from cylproc.euclid import (
    GEOM_TOL,
    ConvexPolygon,
    Direction,
    Disc,
    Segment,
    canonical_directions,
    gauss_legendre,
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
    haar_vectors,
)
from cylproc.rng import philox_stream
from cylproc.sim import (
    _hits_window,
    Realization,
    Window,
    contains,
    count_component_entries,
    covered_mask,
    distance_mask,
    distance_to_union,
    export_realization_csv,
    import_realization_csv,
    ray_interval_bulk,
    ray_intervals,
    sample_realization,
)
import scalar_geometry as oracle
from scalar_geometry import (
    complement_frame,
    convex_distance,
    convex_hull_ccw,
    corners,
    hits_window,
    sample_reference,
    subspace,
)


def covered_length(ids, tins, touts) -> float:
    """Total length of the union of intervals across all probes."""
    _, t_in, t_out = sim._probe_components(ids, tins, touts)
    return float(np.sum(t_out - t_in))


def spec3_iso(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def one_direction_realization(d, k, shape, vec, offsets):
    """Cylinders of one shape on one direction space, at the given offsets, in a side-20 window."""
    spec = ProcessSpec(d=d, k=k, intensity=0.1, alpha=FixedAxes([(Direction(vec), 1.0)]),
                       base=DeterministicBase(shape))
    axis = Direction(vec).vec
    n = len(offsets)
    return Realization(spec, Window((-10.0,) * d, (10.0,) * d), np.tile(axis, (n, 1)),
                       np.tile(subspace(spec, axis), (n, 1, 1)), np.reshape(offsets, (n, d - k)), (shape,),
                       np.zeros(n, dtype=int), seed=0)


def z_axis_discs(offsets):
    """Unit-disc cylinders along the z axis at the given offsets, in a side-20 window."""
    return one_direction_realization(3, 1, Disc(1.0), [0, 0, 1.0], offsets)


def single_cylinder_realization():
    return z_axis_discs([[0.0, 0.0]])


def test_a_window_the_sampler_cannot_draw_fails_before_any_draw():
    # both fail before any allocation: the sizes in between would allocate billions of candidates
    for lo, hi in (((-1e308, 0, 0), (1e308, 4, 4)), ((0, 0, 0), (1e200, 1e200, 4))):  # a side, or the diagonal
        with pytest.raises(ValueError, match="finite diagonal"):
            Window(lo, hi)
    with pytest.raises(ArgumentError, match="more than the sampler can draw") as info:
        sample_realization(single_cylinder_realization().spec, Window((0, 0, 0), (1e12, 4, 4)), seed=0)
    assert info.value.field == "window"


def test_window_validation_and_geometry():
    with pytest.raises(ValueError):
        Window((0, 0), (0, 1))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Window((0, 0, 0), (bad, 10, 10))
    with pytest.raises(ValueError, match="finite"):
        Window((0, 0, False), (1, 1, True))  # not the unit box
    w = Window((0, 0, 0), (20, 10, 5))
    assert w.min_side == 5
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
    for name in ("axes", "frames", "offsets", "shape_index"):
        assert np.array_equal(getattr(r1, name), getattr(r2, name))
    assert r1.shapes == r2.shapes
    r3 = sample_realization(spec, w, seed=43)
    assert r3.n_cylinders() != r1.n_cylinders() or not np.array_equal(r3.offsets, r1.offsets)


def test_every_stored_cylinder_hits_the_window():
    spec = spec3_iso()
    w = Window((0, 0, 0), (12, 12, 12))
    real = sample_realization(spec, w, seed=5)
    box = corners(w)
    for frame, offset, j in zip(real.frames, real.offsets, real.shape_index):
        hull = convex_hull_ccw(box @ frame)
        # distance from the offset to the window shadow at most the base circumradius
        assert convex_distance(hull, offset) <= real.shapes[j].circumradius + 1e-9


def hit_measure_oracle(spec, window, a):
    # lam * E over directions of area(shadow + disc of radius a), via the Steiner formula
    z_nodes, z_w = gauss_legendre(48, 0.0, 1.0)
    p_nodes, p_w = gauss_legendre(96, 0.0, 2 * math.pi)
    box = corners(window)
    total = 0.0
    for zi, wzi in zip(z_nodes, z_w):
        s = math.sqrt(max(0.0, 1 - zi * zi))
        for pj, wpj in zip(p_nodes, p_w):
            omega = np.array([s * math.cos(pj), s * math.sin(pj), zi])
            hull = convex_hull_ccw(box @ complement_frame(omega[:, None]))
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
    real = z_axis_discs([[0.0, 0.0], [1.0, 0.0]])
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
    assert count_component_entries(ids, tins, touts) == 3
    assert covered_length(ids, tins, touts) == pytest.approx(1.0 + 2.0 + 1.0 + 1.0)


def test_interval_merge_does_not_depend_on_probe_index():
    # per probe: a gap of 5e-12 (above the 1e-12 merge tolerance) keeps two
    # components; an overlap within the tolerance merges into one
    tins = np.array([1.0, 2.0 + 5e-12, 1.0, 2.0 + 5e-13])
    touts = np.array([2.0, 3.0, 2.0, 3.0])
    counts, lengths = [], []
    for first in (0, 5000, 99_998):
        ids = np.array([first, first, first + 1, first + 1])
        counts.append(count_component_entries(ids, tins, touts))
        lengths.append(covered_length(ids, tins, touts))
    assert counts == [3, 3, 3]
    assert lengths[0] == lengths[1] == lengths[2] == pytest.approx(4.0, abs=1e-11)


@st.composite
def ragged_intervals(draw):
    """Flat (ids, tins, touts) as ray_interval_bulk returns them: probes interleaved, t_out > t_in."""
    ids, tins, touts = [], [], []
    for pid in draw(st.lists(st.integers(0, 100_000), max_size=6, unique=True)):
        prev = 0.0
        for _ in range(draw(st.integers(1, 6))):
            start = draw(st.sampled_from(["zero", "tie", "gap", "grid"]))
            if start == "zero":
                t = 0.0
            elif start == "tie":
                t = tins[-1] if ids and ids[-1] == pid else 1.0
            elif start == "gap":
                t = prev + draw(st.sampled_from([5e-13, 5e-12, -0.25, 0.5]))
            else:
                t = draw(st.integers(0, 12).map(lambda i: 0.5 * i))
            t = max(t, 0.0)
            prev = t + draw(st.sampled_from([0.25, 1.0, 2.5, 1e-3]))
            ids.append(pid)
            tins.append(t)
            touts.append(prev)
    order = draw(st.permutations(range(len(ids))))
    return (np.array(ids, dtype=np.int64)[order], np.array(tins)[order], np.array(touts)[order])


def merged_per_probe(ids, tins, touts):
    """Components per probe, probes in id order, joining an interval within 1e-12 of the run before it."""
    comps = []
    for pid in sorted(set(ids.tolist())):
        sel = ids == pid
        for lo, hi in sorted(zip(tins[sel].tolist(), touts[sel].tolist()), key=lambda iv: iv[0]):
            if comps and comps[-1][0] == pid and lo <= comps[-1][2] + 1e-12:
                comps[-1][2] = max(comps[-1][2], hi)
            else:
                comps.append([pid, lo, hi])
    return comps


@settings(max_examples=200, deadline=None)
@given(intervals=ragged_intervals(), chunk=st.sampled_from([1, 5, sim._CHUNK]), data=st.data())
def test_probe_merge_is_the_per_probe_loop(intervals, chunk, data):
    ids, tins, touts = intervals
    want = merged_per_probe(ids, tins, touts)
    shuffled = data.draw(st.permutations(range(len(ids))))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim, "_CHUNK", chunk)  # the merge is one flat pass, so no cap on a kernel's stacks may change it
        got_ids, got_in, got_out = sim._probe_components(ids, tins, touts)
        assert [list(c) for c in zip(got_ids.tolist(), got_in.tolist(), got_out.tolist())] == want
        # the merge sorts its input itself: the same intervals in another order give the same bits
        again = sim._probe_components(ids[shuffled], tins[shuffled], touts[shuffled])
        assert [(a.dtype, a.tobytes()) for a in again] == [(a.dtype, a.tobytes()) for a in (got_ids, got_in, got_out)]
        assert count_component_entries(ids, tins, touts) == sum(lo > 1e-9 for _, lo, _ in want)
        assert covered_length(ids, tins, touts) == float(np.sum(np.array([hi - lo for _, lo, hi in want])))


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
        fracs.append(covered_length(ids, tins, touts) / (n * length))
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
    table = [s for s, _ in spec.base.atoms()]
    shapes = [table[j] for j in spec.base.sample_index(gen, n) if table[j] is not None]
    frame = spec.subspace_frames(spec.alpha.sample_vectors(spec.d, gen, len(shapes)))
    centre = np.vecmat(window.center, frame)
    # offsets out to just past the covering radius, so many candidates sit near the shadow's edge
    rho = 1.05 * (window.circumradius + spec.base.max_circumradius)
    off = centre + gen.uniform(-rho, rho, (len(shapes), spec.d - spec.k))
    got = _hits_window(window, frame, centre, off, table, np.array([table.index(s) for s in shapes]))
    want = [hits_window(f, s, o, corners(window)) for f, s, o in zip(frame, shapes, off)]
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
        assert real.n_cylinders() == len(ref) > 0
        for i, (axis, frame, shape, off) in enumerate(ref):
            assert real.shapes[real.shape_index[i]] is shape
            assert same_bits(real.axes[i], axis)
            assert same_bits(real.frames[i], frame)
            assert same_bits(real.offsets[i], off)


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
    assert [real.shapes[j] for j in real.shape_index] == [back.shapes[j] for j in back.shape_index]
    for name in ("axes", "frames", "offsets"):
        assert same_bits(getattr(real, name), getattr(back, name))


@pytest.mark.parametrize("normal", [[1e-9, -0.6, 0.8], [1e-8, -0.6, 0.8], [0.0, 1e-10, -1.0]])
def test_a_slab_keeps_its_place_through_the_csv_round_trip(tmp_path, normal):
    # a leading coordinate in (1e-12, 1e-7] ahead of a negative one: the frame must carry the sign the
    # reader gives the stored normal, or each slab comes back at its mirror position
    spec = ProcessSpec(d=3, k=2, intensity=0.5, alpha=FixedAxes([(Direction(normal), 1.0)]),
                       base=DeterministicBase(Segment(0.5)))
    window = Window((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
    real = sample_realization(spec, window, seed=3)
    assert real.n_cylinders() > 0
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    export_realization_csv(real, first)
    back = import_realization_csv(first, spec, window)
    export_realization_csv(back, again)
    assert again.read_bytes() == first.read_bytes()
    pts = window.uniform_points(philox_stream(3, 7), 4000)
    assert np.array_equal(covered_mask(real, pts), covered_mask(back, pts))
    for r in (real, back):
        assert same_bits(r.frames[:, :, 0], canonical_directions(r.axes))


def test_one_atom_laws_sample_as_their_shape(tmp_path):
    # a one-atom law draws nothing for the base, whichever form states it
    window = Window((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
    bases = {"deterministic": DeterministicBase(Disc(1.0)), "mixture": MixtureBase([(Disc(1.0), 1.0)]),
             "radius_law": DiscRadiusLaw(RadiusLaw(((1.0, 1.0),)))}
    written = {}
    for name, base in bases.items():
        spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=base)
        export_realization_csv(sample_realization(spec, window, seed=5), tmp_path / f"{name}.csv")
        written[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert written["mixture"] == written["deterministic"]
    assert written["radius_law"] == written["deterministic"]


def test_csv_round_trip_of_an_empty_realization(tmp_path):
    for family in ("slab3", "disc3"):
        spec = hit_spec(family, "isotropic")
        empty = empty_realization(spec, hit_window(3))
        path = tmp_path / f"{family}.csv"
        export_realization_csv(empty, path)
        back = import_realization_csv(path, spec, empty.window)
        assert back.n_cylinders() == 0 and back.frames.shape == (0, 3, 3 - spec.k)


def empty_realization(spec, window):
    d, m = spec.d, spec.d - spec.k
    return Realization(spec, window, np.empty((0, d)), np.empty((0, d, m)), np.empty((0, m)), (),
                       np.empty(0, dtype=int), seed=0)


@pytest.mark.parametrize("written, read", [("disc3", "slab3"), ("slab3", "disc3")])
def test_csv_reader_rejects_a_file_of_the_wrong_cylinder_dimension(tmp_path, written, read):
    real = sample_realization(hit_spec(written, "isotropic"), hit_window(3), seed=2)
    assert real.n_cylinders() > 0
    path = tmp_path / "real.csv"
    export_realization_csv(real, path)
    with pytest.raises(ValueError, match="CSV line 2: "):
        import_realization_csv(path, hit_spec(read, "isotropic"), hit_window(3))


def test_csv_reader_rejects_a_shape_that_does_not_fit_the_complement(tmp_path):
    # a disc row under a slab spec with an empty offset_v: only the shape is wrong
    path = tmp_path / "real.csv"
    path.write_text("cyl_id,axis_x,axis_y,axis_z,offset_u,offset_v,shape,param0\r\n"
                    "0,0,0,1,0.5,,segment,0.3\r\n"
                    "1,0,0,1,0.5,,disc,0.3\r\n")
    with pytest.raises(ValueError, match="CSV line 3: a disc base has dimension 2, not d - k = 1"):
        import_realization_csv(path, hit_spec("slab3", "isotropic"), hit_window(3))


CSV_HEADER = "cyl_id,axis_x,axis_y,axis_z,offset_u,offset_v,shape,param0\r\n"
CSV_GOOD_ROW = "0,0,0,1,0.5,0.5,disc,0.3\r\n"


@pytest.mark.parametrize("text, match", [
    pytest.param(CSV_GOOD_ROW + "1,0,0,1,nan,0.5,disc,0.3\r\n", "CSV line 3: the axis", id="nan_offset"),
    pytest.param(CSV_GOOD_ROW + "1,0,0,1,0.5,0.5\r\n", "CSV line 3: the row has too few fields", id="short_row"),
    pytest.param(CSV_GOOD_ROW + "\r\n", "CSV line 3: the row has too few fields", id="blank_line"),
    pytest.param(CSV_GOOD_ROW + "1,0,x,1,0.5,0.5,disc,0.3\r\n", "CSV line 3: could not convert", id="not_a_number"),
    pytest.param(CSV_GOOD_ROW + "1,0,0,1,0.5,0.5,torus,0.3\r\n", "CSV line 3: unknown shape tag", id="unknown_tag"),
    pytest.param(CSV_GOOD_ROW + "1,0,0,1,0.5,0.5,disc,-0.3\r\n", "CSV line 3: disc radius", id="negative_radius"),
    pytest.param(CSV_GOOD_ROW + "1,0,inf,1,0.5,0.5,disc,0.3\r\n", "CSV line 3: the axis", id="infinite_axis"),
    pytest.param(CSV_GOOD_ROW + "1,0,0,0,0.5,0.5,disc,0.3\r\n", "CSV line 3: the axis", id="zero_axis"),
    pytest.param(CSV_GOOD_ROW + "1,0,0,1,0.5,-inf,disc,0.3\r\n", "CSV line 3: the axis", id="infinite_offset"),
    pytest.param(None, "CSV file is empty", id="empty_file"),
    pytest.param("cyl_id,axis_x,axis_y,axis_z,offset_u,offset_v\r\n" + CSV_GOOD_ROW, "CSV line 1: no column 'shape'",
                 id="no_shape_column"),
    pytest.param("cyl_id,axis_x,axis_y,offset_u,shape,param0\r\n0,1,0,0.5,segment,0.3\r\n",
                 "CSV dimension does not match the spec", id="planar_file"),
])
def test_csv_reader_names_the_line_of_a_bad_row(tmp_path, text, match):
    path = tmp_path / "real.csv"
    path.write_text("" if text is None else text if text.startswith("cyl_id") else CSV_HEADER + text)
    with pytest.raises(ValueError, match=match):
        import_realization_csv(path, hit_spec("disc3", "isotropic"), hit_window(3))


def test_csv_reader_takes_an_axis_too_long_to_square(tmp_path):
    path = tmp_path / "real.csv"
    path.write_text(CSV_HEADER + CSV_GOOD_ROW + "1,0,0,1e200,0.5,0.5,disc,0.3\r\n")
    real = import_realization_csv(path, hit_spec("disc3", "isotropic"), hit_window(3))
    assert np.array_equal(real.axes, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("query, match", [
    pytest.param(lambda real: ray_intervals(real, [-5, 0, 0], np.array([2.0, 0, 0]), 1.0), "unit vector",
                 id="ray_of_a_direction_that_is_not_unit"),
    pytest.param(lambda real: distance_to_union(real, [50, 0, 0]), "inside the window",
                 id="distance_from_outside_the_window"),
    pytest.param(lambda real: sample_realization(real.spec, Window((0, 0), (1, 1)), seed=0), "dimensions differ",
                 id="sample_in_a_planar_window"),
])
def test_queries_reject_arguments_they_cannot_answer(query, match):
    with pytest.raises(ValueError, match=match):
        query(single_cylinder_realization())


@pytest.mark.parametrize("direction, length, field", [
    pytest.param([1.0, 0.0, 0.0], -2.0, "length", id="negative_length"),
    pytest.param([1.0, 0.0, 0.0], math.nan, "length", id="nan_length"),
    pytest.param([math.nan, 0.0, 0.0], 1.0, "direction", id="nan_direction"),
    pytest.param([2.0, 0.0, 0.0], 1.0, "direction", id="direction_not_unit"),
])
def test_a_ray_from_a_covered_origin_names_its_bad_argument(direction, length, field):
    real = single_cylinder_realization()
    assert covered_mask(real, np.zeros((1, 3)))[0]  # the origin lies on the cylinder's axis
    with pytest.raises(ArgumentError) as info:
        ray_intervals(real, [0.0, 0.0, 0.0], np.array(direction), length)
    assert info.value.field == field


@pytest.mark.parametrize("query, field", [
    pytest.param(lambda real: ray_intervals(real, [math.nan, 0.0, 0.0], np.array([1.0, 0, 0]), 1.0), "origin",
                 id="ray_from_a_nan_origin"),
    pytest.param(lambda real: ray_intervals(real, [0.0, 0.0], np.array([1.0, 0, 0]), 1.0), "origin",
                 id="ray_from_a_planar_origin"),
    pytest.param(lambda real: contains(real, [0.0, math.nan, 0.0]), "x", id="membership_of_a_nan_point"),
    pytest.param(lambda real: contains(real, [0.0, 0.0]), "x", id="membership_of_a_planar_point"),
    pytest.param(lambda real: distance_to_union(real, [0.0, 0.0, math.nan]), "x", id="distance_of_a_nan_point"),
    pytest.param(lambda real: distance_to_union(real, [0.0, 0.0]), "x", id="distance_of_a_planar_point"),
])
def test_scalar_queries_name_a_point_that_is_not_d_finite_numbers(query, field):
    with pytest.raises(ArgumentError) as info:
        query(single_cylinder_realization())
    assert info.value.field == field


# the per-shape kernels against the per-cylinder loops of the oracle: the
# HIT_FAMILIES under every law, plus a mixture of two polygons with different
# vertex counts
PARITY_CASES = [(family, law) for family in sorted(HIT_FAMILIES) for law in ("isotropic", "girdle", "fixed")]
PARITY_CASES += [("polygons3", law) for law in ("isotropic", "fixed")]


def parity_spec(family: str, law: str) -> ProcessSpec:
    if family == "polygons3":
        return ProcessSpec(d=3, k=1, intensity=0.3, alpha=hit_law(law, 3),
                           base=MixtureBase([(SQUARE, 0.6), (TRIANGLE, 0.4)]))
    return hit_spec(family, law)


def probes(window, gen, n: int, length: float):
    dirs = haar_vectors(window.dim, gen, n)
    return window.erode(0.5 * length).uniform_points(gen, n) - 0.5 * length * dirs, dirs


def assert_kernels_match_the_oracle(real, n_points: int, seed: int):
    gen = philox_stream(seed, 7)
    pts = real.window.uniform_points(gen, n_points)
    assert np.array_equal(covered_mask(real, pts), oracle.covered_mask(real, pts))
    assert np.array_equal(distance_mask(real, pts), oracle.distance_mask(real, pts))
    origins, dirs = probes(real.window, gen, n_points, 3.0)
    # Haar directions, and one direction for every probe as first_entry_times passes it: the
    # first coordinate axis, parallel to some cylinders under the fixed-axes law
    for dirs in (dirs, np.broadcast_to(np.eye(real.window.dim)[0], dirs.shape)):
        assert_rays_match_the_oracle(real, origins, dirs, 3.0)


def assert_rays_match_the_oracle(real, origins, dirs, length: float):
    runs = ray_interval_bulk(real, origins, dirs, length), oracle.ray_interval_bulk(real, origins, dirs, length)
    # the kernel groups intervals by shape, the loop by cylinder: compare in (id, t_in, t_out) order
    got, want = ([a[np.lexsort(x[::-1])] for a in x] for x in runs)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    return runs[0]


@pytest.mark.parametrize("family, law", PARITY_CASES)
def test_query_kernels_match_the_per_cylinder_loops(family, law):
    spec = parity_spec(family, law)
    real = sample_realization(spec, hit_window(spec.d), seed=11)
    assert real.n_cylinders() > 0
    assert_kernels_match_the_oracle(real, 300, seed=11)


def test_query_kernels_match_the_per_cylinder_loops_across_chunks():
    spec = parity_spec("mixture3", "isotropic")
    real = sample_realization(spec, hit_window(3), seed=12)
    n_points = 4000
    assert np.bincount(real.shape_index).min() > sim._CHUNK // n_points  # every shape spans chunks
    assert_kernels_match_the_oracle(real, n_points, seed=12)


@pytest.mark.parametrize("family", ["disc3", "mixture3", "slab3"])
def test_rays_match_the_per_cylinder_loops_with_more_probes_than_a_stack(family):
    # a stack then holds one cylinder and a part of the probes, and a batch can end inside a cylinder's
    # probes; the intervals still come shape by shape, cylinder by cylinder and probe by probe
    spec = parity_spec(family, "isotropic")
    real = sample_realization(spec, hit_window(3), seed=14)
    n = sim._CHUNK + 2500
    origins, dirs = probes(real.window, philox_stream(14, 7), n, 5.6)
    got = ray_interval_bulk(real, origins, dirs, 5.6)
    shapes = [Realization(real.spec, real.window, real.axes[sel], real.frames[sel], real.offsets[sel], real.shapes,
                          real.shape_index[sel], real.seed)
              for sel in (real.shape_index == j for j in range(len(real.shapes)))]
    want = [np.concatenate(x) for x in zip(*(oracle.ray_interval_bulk(r, origins, dirs, 5.6) for r in shapes))]
    for a, b in zip(got, want):
        assert same_bits(a, b)
    assert len(got[0]) > sim._CHUNK


def test_query_kernels_on_an_empty_realization():
    real = empty_realization(parity_spec("mixture3", "isotropic"), hit_window(3))
    assert_kernels_match_the_oracle(real, 50, seed=13)
    assert not covered_mask(real, np.ones((4, 3))).any()
    assert np.all(distance_mask(real, np.ones((4, 3))) == np.inf)


# ---------------------------------------------------------------------------
# shifted membership: one pass, each row as its own call
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, law", PARITY_CASES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), step=st.floats(1e-3, 0.5), long=st.floats(2.0, 12.0))
def test_shifted_membership_rows_are_the_separate_calls(family, law, seed, step, long):
    spec = parity_spec(family, law)
    window = hit_window(spec.d)
    real = sample_realization(spec, window, seed)
    gen = philox_stream(seed, 5)
    around = Window(tuple(x - 3.0 for x in window.lo), tuple(x + 3.0 for x in window.hi))
    pts = np.vstack([window.uniform_points(gen, 300), around.uniform_points(gen, 100)])  # some outside the window
    dirs = haar_vectors(spec.d, gen, 4)
    # a zero shift, the covariance-derivative steps and their Richardson halves, and shifts longer
    # than every base's circumradius
    shifts = np.vstack([np.zeros((1, spec.d)), step * dirs, 0.5 * step * dirs, long * dirs[:2]])
    rows = covered_mask(real, pts, shifts)
    assert rows.shape == (1 + len(shifts), len(pts))
    assert same_bits(rows[0], covered_mask(real, pts))
    for s, row in zip(shifts, rows[1:]):
        assert same_bits(row, covered_mask(real, pts + s))


def test_shifted_membership_on_an_empty_realization():
    real = empty_realization(parity_spec("mixture3", "isotropic"), hit_window(3))
    rows = covered_mask(real, np.ones((4, 3)), np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]))
    assert rows.shape == (3, 4) and not rows.any()
    with pytest.raises(ValueError, match="finite"):
        covered_mask(real, np.ones((4, 3)), np.array([[math.nan, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# ray edge cases: the pruned kernels against the per-cylinder loops
# ---------------------------------------------------------------------------

def test_rays_tangent_to_a_disc_give_no_interval():
    # z-axis discs, frame coordinates (x, y): lines at exactly radius 1 from the axes
    real = one_direction_realization(3, 1, Disc(1.0), [0, 0, 1.0], [[0.0, 0.0], [3.0, 5.0]])
    origins = np.array([[-5.0, 1.0, 0.3], [-5.0, -1.0, 2.0], [2.0, 1.0, 0.0], [4.0, 1.0, -1.0],
                        [-5.0, 0.5, 0.0]])
    dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    ids, _, _ = assert_rays_match_the_oracle(real, origins, dirs, 9.0)
    assert ids.tolist() == [4]  # only the secant


def test_rays_parallel_to_a_disc_axis():
    real = one_direction_realization(3, 1, Disc(1.0), [0, 0, 1.0], [[0.0, 0.0]])
    # inside, on the boundary circle, and outside, each along the axis in both senses
    origins = np.array([[0.3, 0.2, -5.0], [1.0, 0.0, -5.0], [1.5, 0.0, -5.0], [0.0, -0.9, 5.0]])
    dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    ids, tins, touts = assert_rays_match_the_oracle(real, origins, dirs, 8.0)
    assert ids.tolist() == [0, 1, 3] and tins.tolist() == [0.0] * 3 and touts.tolist() == [8.0] * 3


def test_rays_parallel_to_a_slab():
    real = one_direction_realization(3, 2, Segment(0.3), [0, 0, 1.0], [[0.0], [2.0]])
    # inside, on either face, and between the slabs, in two directions of the plane
    z = np.array([0.1, 0.3, -0.3, 0.5, 1.9, 2.3])
    origins = np.column_stack([np.full(12, -4.0), np.full(12, -3.0), np.tile(z, 2)])
    dirs = np.repeat([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]], len(z), axis=0)
    ids, _, _ = assert_rays_match_the_oracle(real, origins, dirs, 6.0)
    assert sorted(ids.tolist()) == [0, 1, 2, 4, 5, 6, 7, 8, 10, 11]


@pytest.mark.parametrize("shape", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_rays_through_a_polygon_vertex(shape):
    real = one_direction_realization(3, 1, shape, [0, 0, 1.0], [[0.0, 0.0], [0.25, -0.1]])
    gen = philox_stream(23, 0)
    corners = np.vstack([shape.vertices, shape.vertices + [0.25, -0.1]])
    length = 6.0
    # along each edge, tangent to the circumcircle at each corner, and at random angles through it
    edges = np.roll(shape.vertices, -1, axis=0) - shape.vertices
    angles = np.concatenate([np.arctan2(edges[:, 1], edges[:, 0]),
                             np.arctan2(shape.vertices[:, 0], -shape.vertices[:, 1]),
                             gen.uniform(0.0, 2.0 * math.pi, 24)])
    v = np.column_stack([np.cos(angles), np.sin(angles)])
    at = np.repeat(corners, len(v), axis=0)
    dirs = np.column_stack([np.tile(v, (len(corners), 1)), np.zeros(len(at))])
    origins = np.column_stack([at, gen.uniform(-1.0, 1.0, len(at))]) - 0.5 * length * dirs
    ids, _, _ = assert_rays_match_the_oracle(real, origins, dirs, length)
    assert len(ids) > 0


def test_a_ray_the_clip_lets_past_a_short_edge_is_kept():
    # a 1e-4 edge on the circumcircle: the clip keeps a line parallel to an edge up to GEOM_TOL / |e|
    # outside it, so this line, 5e-6 outside the edge and the circumcircle, still gets an interval
    angles = np.array([0.0, 0.5 * math.pi, 0.5 * math.pi + 1e-4, math.pi, 1.5 * math.pi])
    shape = ConvexPolygon(np.column_stack([np.cos(angles), np.sin(angles)]))
    a, b = shape.vertices[1], shape.vertices[2]
    w = (b - a) / np.linalg.norm(b - a)
    length = 4.0
    at = 0.5 * (a + b) + 0.5 * GEOM_TOL / np.linalg.norm(b - a) * np.array([w[1], -w[0]]) - 0.5 * length * w
    assert abs(at[0] * w[1] - at[1] * w[0]) > shape.circumradius
    real = one_direction_realization(3, 1, shape, [0, 0, 1.0], [[0.0, 0.0]])
    ids, _, _ = assert_rays_match_the_oracle(real, np.array([[*at, 0.0]]), np.array([[*w, 0.0]]), length)
    assert ids.tolist() == [0]


def short_edge_polygon() -> ConvexPolygon:
    """A unit-circle pentagon with one edge of 1e-4, past which the clip lets parallel lines through."""
    angles = np.array([0.0, 0.5 * math.pi, 0.5 * math.pi + 1e-4, math.pi, 1.5 * math.pi])
    return ConvexPolygon(np.column_stack([np.cos(angles), np.sin(angles)]))


PREFILTER_FAMILIES = {
    "disc": DeterministicBase(Disc(0.7)),
    "square": DeterministicBase(SQUARE),
    "short_edge": DeterministicBase(short_edge_polygon()),
    "radius_law": HIT_FAMILIES["zero_atom3"][2],
    "mixture": HIT_FAMILIES["mixture3"][2],
}


def prefilter_edge_probes(real, gen, length: float):
    """Probes where the ray kernel's line-to-axis test decides, a few per cylinder.

    Lines at the cylinder's ``ray_radius`` and at its circumradius from the
    axis, and one ulp either side of each; for a polygon, a line parallel
    to an edge and up to twice the clip's tolerance outside it; and a line
    whose direction is within 1e-13 of the axis.  Each probe has its middle
    nearest the axis, and its direction is stretched to a non-unit length.
    """
    origins, dirs = [], []
    for a, frame, off, j in zip(real.axes, real.frames, real.offsets, real.shape_index):
        shape = real.shapes[j]
        base = frame @ off
        middle = base + ((real.window.center - base) @ a + gen.uniform(-2.0, 2.0)) * a
        reach, r = shape.ray_radius(length), shape.circumradius
        for rho in (reach, np.nextafter(reach, 0.0), np.nextafter(reach, math.inf),
                    r, np.nextafter(r, 0.0), np.nextafter(r, math.inf)):
            v = haar_vectors(3, gen, 1)[0]
            across = np.cross(v, a)
            origins.append(middle + rho * across / np.linalg.norm(across) - 0.5 * length * v)
            dirs.append(v)
        if isinstance(shape, ConvexPolygon):
            k = gen.integers(len(shape.vertices))
            q, e = shape.vertices[k], np.roll(shape.vertices, -1, axis=0)[k] - shape.vertices[k]
            out = np.array([e[1], -e[0]]) / np.linalg.norm(e)
            foot = q + 0.5 * e + gen.uniform(0.0, 2.0) * GEOM_TOL / np.linalg.norm(e) * out
            v = frame @ (e / np.linalg.norm(e)) + gen.uniform(-1.0, 1.0) * a
            origins.append(middle + frame @ foot - 0.5 * length * v)
            dirs.append(v)
        tilt = np.cross(a, haar_vectors(3, gen, 1)[0])
        v = a + 1e-13 * tilt / np.linalg.norm(tilt)
        side = np.cross(a, haar_vectors(3, gen, 1)[0])
        origins.append(middle + gen.uniform(0.0, 1.5) * r * side / np.linalg.norm(side) - 0.5 * length * v)
        dirs.append(v)
    stretch = gen.uniform(0.25, 4.0, (len(dirs), 1))
    return np.reshape(origins, (-1, 3)), np.reshape(dirs, (-1, 3)) * stretch


def scaled_realization(real, s: float):
    """The realization with every length times s: window, offsets and bases."""
    shapes = tuple(Disc(x.radius * s) if isinstance(x, Disc) else ConvexPolygon(x.vertices * s) for x in real.shapes)
    window = Window(tuple(s * x for x in real.window.lo), tuple(s * x for x in real.window.hi))
    return Realization(real.spec, window, real.axes, real.frames, s * real.offsets, shapes, real.shape_index,
                       real.seed)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(PREFILTER_FAMILIES)), law=st.sampled_from(["isotropic", "fixed"]),
       j=st.integers(-30, 30), seed=st.integers(0, 2**32 - 1))
def test_the_ray_prefilter_keeps_every_pair_the_oracle_solves(family, law, j, seed):
    spec = ProcessSpec(d=3, k=1, intensity=0.2, alpha=hit_law(law, 3), base=PREFILTER_FAMILIES[family])
    real = sample_realization(spec, hit_window(3), seed)
    length = 0.8 * real.window.min_side
    origins, dirs = prefilter_edge_probes(real, philox_stream(seed, 3), length)
    s = 2.0 ** j  # exact: the probes scale with the window, as the prefilter's slack does
    try:
        real = scaled_realization(real, s)
    except ValueError:  # a polygon edge below the constructor's absolute GEOM_TOL, at the smallest scales
        assume(False)
    assert_rays_match_the_oracle(real, s * origins, dirs, s * length)


def test_the_ray_kernel_keeps_its_temporaries_chunked():
    # the line scan's geometry: 10,000 Haar probes of length 32 over about 280 unit discs in a side-40 window.
    # The intervals, gathered and then joined, take twice their size; all else is stacks of _CHUNK pairs.
    # A line-to-axis test over all pairs at once would hold 2 x 280 x 10,000 floats (45 MB).
    window = Window((0.0,) * 3, (40.0,) * 3)
    real = sample_realization(spec3_iso(), window, seed=5)
    origins, dirs = probes(window, philox_stream(5, 7), 10_000, 32.0)
    tracemalloc.start()
    try:
        ids, tins, touts = ray_interval_bulk(real, origins, dirs, 32.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) > 10_000
    assert peak < 2 * (ids.nbytes + tins.nbytes + touts.nbytes) + 32 * sim._CHUNK * 8


def test_the_probe_merge_holds_little_beside_its_input():
    # the line scan's geometry, as above: the merge sorts one complex key and reuses it for the running ends
    window = Window((0.0,) * 3, (40.0,) * 3)
    real = sample_realization(spec3_iso(), window, seed=5)
    origins, dirs = probes(window, philox_stream(5, 7), 10_000, 32.0)
    ids, tins, touts = ray_interval_bulk(real, origins, dirs, 32.0)
    tracemalloc.start()
    try:
        count_component_entries(ids, tins, touts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (ids.nbytes + tins.nbytes + touts.nbytes)


@pytest.mark.parametrize("shape", [SQUARE, TRIANGLE, Disc(0.7)], ids=["square", "triangle", "disc"])
def test_membership_at_the_rim_of_a_base(shape):
    # points on the rim, and just outside it within the membership tolerance, which a sharp corner widens
    real = one_direction_realization(3, 1, shape, [0, 0, 1.0], [[0.0, 0.0], [2.0, -1.0]])
    rim = shape.vertices if isinstance(shape, ConvexPolygon) else 0.7 * np.eye(2)
    out = rim / np.linalg.norm(rim, axis=1, keepdims=True)
    pts = np.vstack([rim, rim + 0.5 * GEOM_TOL * out, rim + 1e-6 * out, rim + [2.0, -1.0]])
    pts = np.column_stack([pts, np.linspace(-1.0, 1.0, len(pts))])
    got = covered_mask(real, pts)
    assert same_bits(got, oracle.covered_mask(real, pts))
    assert got.tolist() == [True] * (2 * len(rim)) + [False] * len(rim) + [True] * len(rim)
    back = pts - [0.25, 0.0, 0.0]
    rows = covered_mask(real, back, np.array([[0.25, 0.0, 0.0]]))
    assert same_bits(rows[1], covered_mask(real, back + [0.25, 0.0, 0.0]))
