"""Exact sampling of the union set inside a bounded window, with queries.

A realization holds every cylinder of the process that hits the window,
obtained by superset-then-reject sampling: offsets are drawn on a disc (or
interval) of radius R_W + r_max in the position space, which covers the
hitting set of every shape in the base support, so the retained cylinders
are an exact sample.  Membership anywhere in the window is therefore
exact; distances are exact up to the erosion margin used by the callers.

A :class:`Realization` is a set of read-only arrays: per cylinder its
identifying vector, complement frame, offset and an index into a table of
the distinct cross sections.  The sampler fills them in one array pass:
the vectors are the law's canonical draws, whose frames
:meth:`~cylproc.model.ProcessSpec.subspace_frames` builds, and each
distinct shape's own vectorized hit test compares its bases with the
window's shadow, the zonotope spanned by the projected box edges.  The
CSV reader fills the same arrays row by row and canonicalizes the vectors
before the same call; a shape is written under its tag and parameter.

Each query has one kernel, :func:`covered_mask`, :func:`distance_mask`
and :func:`ray_interval_bulk`, and each finishes only the pairs whose
answer can change.  The point kernels loop over the shape table, project
that shape's cylinders in stacks of at most ``_CHUNK`` point-cylinder
pairs with one ``matmul``, and run the shape's own test on the stack;
:func:`covered_mask` with ``shifts`` re-projects only the pairs near
enough for a shifted point to fall inside.  The ray kernel has two
stages.  The first tests, by one product per stack, whether each probe's
line passes within the shape's ``ray_radius`` of each line cylinder's
axis.  The second projects the kept pairs cylinder by cylinder, with the
same bits as a whole stack, and the shape's own kernel solves them a
batch of at most ``_CHUNK`` at a time, returning only non-empty
intervals, grouped by shape, cylinder and probe.
No code here depends on a shape's kind.  The scalar queries
:func:`contains`, :func:`distance_to_union` and :func:`ray_intervals` are
n = 1 views of them that add only argument and window checks.  Probe
intervals are merged in one place, :func:`_probe_components`, by one
sort on (probe, t_in) and one running maximum of (probe, t_out), flat
over all probes.
"""

from __future__ import annotations

import csv
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from . import model
from .euclid import (
    _TANGENT_TOL,
    GEOM_TOL,
    NORM_TOL,
    Direction,
    canonical_directions,
    number,
    shape_from_params,
)
from .model import ArgumentError, ProcessSpec
from .rng import philox_stream


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Window:
    """Axis-aligned box [lo, hi] in R^2 or R^3."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(number(x, "window bounds") for x in self.lo)
        hi = tuple(number(x, "window bounds") for x in self.hi)
        if len(lo) != len(hi) or len(lo) not in (2, 3):
            raise ValueError("window must be a box in R^2 or R^3")
        sides = [h - l for l, h in zip(lo, hi)]
        if not (all(s > 0.0 for s in sides) and sum(s * s for s in sides) < math.inf):
            raise ValueError("window must have a positive extent in every coordinate and a finite diagonal")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.array(self.lo) + np.array(self.hi))

    @property
    def circumradius(self) -> float:
        return 0.5 * float(np.linalg.norm(np.array(self.hi) - np.array(self.lo)))

    @property
    def min_side(self) -> float:
        return float(np.min(np.array(self.hi) - np.array(self.lo)))

    def erode(self, margin: float) -> "Window":
        """The box moved in by ``margin`` on every side."""
        return Window(tuple(l + margin for l in self.lo), tuple(h - margin for h in self.hi))

    def erode_for_lag(self, h) -> "Window":
        """Points x with both x and x + h inside the window."""
        h = np.asarray(h, dtype=float)
        lo = tuple(l + max(-x, 0.0) for l, x in zip(self.lo, h))
        hi = tuple(u - max(x, 0.0) for u, x in zip(self.hi, h))
        return Window(lo, hi)

    def uniform_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def contains_points(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= np.array(self.lo) - GEOM_TOL) & (x <= np.array(self.hi) + GEOM_TOL), axis=1)


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Realization:
    """All cylinders of one sample hitting the window, as read-only arrays.

    Cylinder i is {y : y . frames[i] in shapes[shape_index[i]] + offsets[i]}:
    ``axes`` (N, d) holds the canonical identifying vector (the axis of a
    line, the normal of a slab), ``frames`` (N, d, m) its complement frame
    by ``spec.subspace_frames``, and ``offsets`` (N, m) the base position.
    ``shapes`` holds the distinct cross sections.
    """

    spec: ProcessSpec
    window: Window
    axes: np.ndarray
    frames: np.ndarray
    offsets: np.ndarray
    shapes: tuple
    shape_index: np.ndarray
    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, dtype in (("axes", float), ("frames", float), ("offsets", float), ("shape_index", np.intp)):
            a = np.array(getattr(self, name), dtype=dtype)  # a private copy, so no caller can change it
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "shapes", tuple(self.shapes))

    def n_cylinders(self) -> int:
        return len(self.shape_index)


_MAX_MEAN = 9.2e18  # numpy's Poisson sampler draws means up to about 9.22e18


def _covering(spec: ProcessSpec, window: Window) -> tuple[float, float]:
    """Radius R_W + r_max of the covering disc or interval in position space, and its mean candidate count.

    A count the Poisson sampler cannot draw is an ArgumentError naming the window.
    """
    r_max = spec.base.max_circumradius
    if not math.isfinite(r_max):
        raise ValueError("base law must have bounded circumradius")
    rho = window.circumradius + r_max
    mean = spec.intensity * (2.0 * rho if spec.d - spec.k == 1 else math.pi * rho * rho)
    if not mean <= _MAX_MEAN:
        raise ArgumentError("window", f"the window needs {mean:.3g} candidate cylinders on average, "
                                      f"more than the sampler can draw ({_MAX_MEAN:.3g})")
    return rho, mean


def sample_realization(spec: ProcessSpec, window: Window, seed: int, stream: int = 0) -> Realization:
    """Exact sample of the cylinders hitting the window.

    Draws a Poisson number of candidates on the covering disc/interval of
    radius R_W + r_max in position space and keeps exactly those hitting
    the window.  Radius-zero atoms of the base law carry no volume and are
    dropped; distance-based queries reject such realizations (see
    :func:`distance_to_union`).  Frames, offsets and the hit test run on
    all candidates at once.
    """
    if spec.d != window.dim:
        raise ValueError("spec and window dimensions differ")
    rho, mean = _covering(spec, window)
    rng = philox_stream(seed, stream)
    d, m = spec.d, spec.d - spec.k
    n = int(rng.poisson(mean)) if spec.intensity > 0 else 0

    atoms = [shape for shape, _ in spec.base.atoms()]
    dirs = spec.alpha.sample_vectors(d, rng, n)
    drawn = spec.base.sample_index(rng, n)
    if m == 1:
        offs = rng.uniform(-rho, rho, n)[:, None]
    else:
        rad = rho * np.sqrt(rng.uniform(0.0, 1.0, n))
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        offs = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    live = np.flatnonzero(np.array([shape is not None for shape in atoms])[drawn])
    frame = spec.subspace_frames(dirs[live])
    centre = np.vecmat(window.center, frame)  # the window centre in each frame
    off = centre + offs[live]
    hit = _hits_window(window, frame, centre, off, atoms, drawn[live])
    used, index = np.unique(drawn[live][hit], return_inverse=True)
    shapes = tuple(atoms[j] for j in used)
    return Realization(spec, window, dirs[live][hit], frame[hit], off[hit], shapes, index, seed, stream)


def _hits_window(window: Window, frame: np.ndarray, centre: np.ndarray, off: np.ndarray,
                 shapes, index: np.ndarray) -> np.ndarray:
    """Which candidates' bases ``shapes[index]``, placed at ``off``, meet the window's shadow within GEOM_TOL.

    Along L the box projects to the zonotope with the window centre's
    coordinates ``centre`` as its centre and the projected box edges
    g_j = (hi - lo)_j * frame[j] as generators; each shape tests its own
    candidates against it.
    """
    gens = np.subtract(window.hi, window.lo)[None, :, None] * frame  # (N, d, m)
    hit = np.zeros(len(index), dtype=bool)
    for j, shape in enumerate(shapes):
        sel = np.flatnonzero(index == j)
        if len(sel):
            hit[sel] = shape.meets_zonotope(gens[sel], centre[sel], off[sel])
    return hit


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

_CHUNK = 1 << 14  # point-cylinder pairs per stacked projection; bounds every kernel temporary
_NEAR_TOL = 1e-9  # relative slack of the near-pair test of shifted membership
_RAY_TOL = 1e-6  # relative slack of the ray kernel's line-to-axis test


def _chunks(real: Realization, n: int):
    """(shape, cylinder indices) per distinct shape, at most _CHUNK // n cylinders at a time."""
    step = max(1, _CHUNK // max(n, 1))
    for j, shape in enumerate(real.shapes):
        idx = np.flatnonzero(real.shape_index == j)
        for a in range(0, len(idx), step):
            yield shape, idx[a:a + step]


def _project(frames: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Coordinates (c, n, m) of the points in each of the frames (c, d, m), stored coordinate-major.

    One product F^T P^T per stack; its transposed view keeps each
    coordinate contiguous over the points, so the shape tests that follow
    run on contiguous rows.  Every entry rounds as ``pts @ frame`` does.
    """
    return np.matmul(frames.transpose(0, 2, 1), pts.T).transpose(0, 2, 1)


def covered_mask(real: Realization, points: np.ndarray, shifts=None) -> np.ndarray:
    """Membership of each point in the union set (no window check; bulk path).

    With ``shifts`` (k, d) the result is (1 + k, n): row 0 for the points
    and row i for ``points + shifts[i - 1]``, bit for bit as separate calls
    give them.  One pass over all pairs keeps the near pairs, those within
    the shape's ``reach`` + max |shift| of the cylinder plus a rounding
    slack relative to the window's coordinates; only they can hold a point
    or a shifted copy of it.  The shape's test runs on them alone, after the
    shifted points are projected pair by pair with ``np.vecmat``, which
    rounds as the stacked projection does.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    moves = np.empty((0, pts.shape[1])) if shifts is None else np.atleast_2d(np.asarray(shifts, dtype=float))
    if not np.isfinite(moves).all():
        raise ValueError("shifts must be finite")
    out = np.zeros((1 + len(moves), len(pts)), dtype=bool)
    far = float(np.sqrt(np.vecdot(moves, moves)).max(initial=0.0))
    far += _NEAR_TOL * (far + max(map(abs, real.window.lo + real.window.hi)))
    for shape, sel in _chunks(real, len(pts)):
        u = _project(real.frames[sel], pts) - real.offsets[sel, None]
        cyl, near = np.divmod(np.flatnonzero(np.einsum("...i,...i->...", u, u) <= (shape.reach + far) ** 2),
                              len(pts))
        u = u[cyl, near][None]
        if len(moves):
            at = sel[cyl]
            u = np.concatenate([u, np.vecmat(pts[near] + moves[:, None], real.frames[at]) - real.offsets[at]])
        row, pair = np.nonzero(shape.contains(u))
        out[row, near[pair]] = True
    return out[0] if shifts is None else out


def contains(real: Realization, x) -> bool:
    """Exact membership of a single point of the window in the union set."""
    x = model.reals("x", x, (real.window.dim,))
    if not real.window.contains_points(x)[0]:
        raise ValueError("membership is only guaranteed inside the window")
    return bool(covered_mask(real, x[None, :])[0])


def distance_mask(real: Realization, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the stored union (inf when empty; bulk path)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), np.inf)
    for shape, sel in _chunks(real, len(pts)):
        u = _project(real.frames[sel], pts) - real.offsets[sel, None]
        out = np.minimum(out, shape.distance(u).min(axis=0))
    return out


def distance_to_union(real: Realization, x) -> float:
    """Euclidean distance from a window point to the union set.

    Exact for distances up to the erosion margin of the query point: a
    cylinder within distance r of x intersects the ball B(x, r), so it hits
    the window whenever that ball does.  Realizations of base laws with
    radius-zero atoms are rejected because their axis lines are thinned
    out of the sample yet would be sensed by distance queries.
    """
    if real.spec.base.has_zero_mass:
        raise ValueError("distance queries are unsupported for base laws with "
                         "radius-zero atoms (their axis lines are not materialized)")
    x = model.reals("x", x, (real.window.dim,))
    if not real.window.contains_points(x)[0]:
        raise ValueError("distance queries must start inside the window")
    return float(distance_mask(real, x[None, :])[0])


# ---------------------------------------------------------------------------
# ray queries
# ---------------------------------------------------------------------------

def ray_intervals(real: Realization, origin, direction, length: float):
    """Sorted disjoint [t_in, t_out] intervals of the ray inside the union set.

    The probe segment {origin + t*direction, t in [0, length]} must stay in
    the window.  Tangential grazes produce no interval.
    """
    origin = model.reals("origin", origin, (real.window.dim,))
    length = model.real("length", length, minimum=0)
    d_vec = model.reals("direction", direction.vec if isinstance(direction, Direction) else direction,
                        (real.window.dim,))
    if abs(float(np.linalg.norm(d_vec)) - 1.0) > 1e-9:
        raise ArgumentError("direction", "direction must be a unit vector")
    endpoint = origin + length * d_vec
    inside = real.window.contains_points(np.stack([origin, endpoint]))
    if not bool(np.all(inside)):
        raise ValueError("the probe segment must stay inside the window")
    _, t_in, t_out = _probe_components(*ray_interval_bulk(real, origin[None, :], d_vec[None, :], length))
    return list(zip(t_in.tolist(), t_out.tolist()))


def ray_interval_bulk(real: Realization, origins: np.ndarray, dirs: np.ndarray, length: float):
    """Per-cylinder clipped intervals for many probe segments at once.

    Returns flat arrays (ray_id, t_in, t_out) with t clipped to [0, length],
    grouped by shape, then by cylinder, then by probe; an interval whose
    unclipped entry lies before 0 is reported with t_in == 0, which marks a
    component straddling the segment start.  Two stages: :func:`_ray_pairs`
    keeps, in that order, the probe-cylinder pairs that can give an
    interval, and each batch of them is projected by :func:`_project_pairs`
    and solved by one call of the shape's kernel, which returns only the
    non-empty intervals.
    """
    origins, dirs = np.asarray(origins, dtype=float), np.asarray(dirs, dtype=float)
    ids_all, tin_all, tout_all = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    for shape, cyl, probe in _ray_pairs(real, origins, dirs, length):
        pair, t_in, t_out = shape.clipped_intervals(*_project_pairs(real, cyl, probe, origins, dirs), length)
        ids_all.append(pair % len(origins) if probe is None else probe[pair])
        tin_all.append(t_in)
        tout_all.append(t_out)
    return np.concatenate(ids_all).astype(np.int64), np.concatenate(tin_all), np.concatenate(tout_all)


def _ray_pairs(real: Realization, origins: np.ndarray, dirs: np.ndarray, length: float):
    """(shape, cylinder indices, probe indices) of the pairs that can give an interval, at most _CHUNK at a time.

    Pairs come shape by shape, cylinder by cylinder and probe by probe.  A
    shape whose ``ray_radius`` is inf keeps every pair: it comes in stacks
    of whole cylinders, as many as _CHUNK pairs hold (at least one), with
    None for the probes.  Otherwise its cylinders are lines in R^3, and
    one with axis a through p0 = F off keeps the probes o + t v whose line
    passes within that radius R of the axis: with
    P = (o - p0) . (v x a) = v . (p0 x a) + a . (o x v), that is
    P^2 + (R a . v)^2 <= R^2 |v|^2.  One product of the rows [p0 x a, a]
    and [R a, 0] with the probe columns [v; o x v] gives both terms for a
    stack of at most _CHUNK pairs.  The bound gains s^2 |v|^2 for
    rounding, s = _RAY_TOL (R + the largest window or origin coordinate).
    The test, the projection and the shapes' solves round by a few ulps of
    these lengths; the disc's discriminant rounds by ulps of |u0|^2 |w|^2,
    which moves its tangent line by about sqrt(ulp) |u0|.
    """
    n = len(origins)
    width = min(max(n, 1), _CHUNK)  # probes per stack
    step = _CHUNK // width  # cylinders per stack
    cols = None
    for j, shape in enumerate(real.shapes):
        sel = np.flatnonzero(real.shape_index == j)
        radius = shape.ray_radius(length)
        if math.isinf(radius):
            for a in range(0, len(sel), step):
                yield shape, sel[a:a + step], None
            continue
        if cols is None:
            cols = np.concatenate([dirs, np.cross(origins, dirs)], axis=1).T.copy()
            scale = max(map(abs, real.window.lo + real.window.hi)) + np.abs(origins).max(initial=0.0)
        axes = real.axes[sel]
        base = np.matvec(real.frames[sel], real.offsets[sel])
        rows = np.stack([np.column_stack([np.cross(base, axes), axes]),
                         np.column_stack([radius * axes, np.zeros_like(axes)])], axis=1)  # (c, 2, 6)
        bound = (radius * radius + (_RAY_TOL * (radius + scale)) ** 2) * np.vecdot(dirs, dirs)
        held, count = [], 0
        for a in range(0, len(sel), step):
            for p in range(0, n, width):
                k = min(width, n - p)
                PQ = np.matmul(rows[a:a + step].reshape(-1, 6), cols[:, p:p + k])
                np.square(PQ, out=PQ)
                flat = np.flatnonzero(PQ[0::2] + PQ[1::2] <= bound[p:p + k])
                if count + len(flat) > _CHUNK:
                    yield shape, *map(np.concatenate, zip(*held))
                    held, count = [], 0
                held.append((sel[a + flat // k], p + flat % k))
                count += len(flat)
        if count:
            yield shape, *map(np.concatenate, zip(*held))


def _project_pairs(real: Realization, cyl: np.ndarray, probe, origins: np.ndarray, dirs: np.ndarray):
    """Frame coordinates (c, n, m) of the pairs' origins, less the offsets, and of their directions.

    With probe None they are those of every probe in each cylinder, by
    :func:`_project`.  Otherwise they are those of each pair, (1, K, m)
    and stored coordinate-major as :func:`_project` stores them: the pairs
    come cylinder by cylinder, and each cylinder's run is one product
    F^T P^T of its gathered probes into the run's columns, which rounds as
    :func:`_project` does, so the shape's solve gives the same bits.
    """
    if probe is None:
        frames = real.frames[cyl]
        return _project(frames, origins) - real.offsets[cyl, None], _project(frames, dirs)
    u0 = np.empty((real.frames.shape[2], len(cyl)))
    w = np.empty_like(u0)
    starts = np.flatnonzero(np.diff(cyl, prepend=-1)).tolist()
    pts, vecs = np.take(origins, probe, axis=0), np.take(dirs, probe, axis=0)
    for a, b in zip(starts, starts[1:] + [len(cyl)]):
        frame = real.frames[cyl[a]].T
        np.matmul(frame, pts[a:b].T, out=u0[:, a:b])
        np.matmul(frame, vecs[a:b].T, out=w[:, a:b])
    u0 -= np.take(real.offsets, cyl, axis=0).T
    return u0.T[None], w.T[None]


def _probe_components(ids, tins, touts):
    """Merged components of the union along each probe, as (probe id, t_in, t_out), in probe and t order.

    One sort on probe + i*t_in and one running maximum of probe + i*t_out,
    whose real part keeps an end from carrying across probes: an interval
    starts a component when it is its probe's first or starts more than the
    tangent tolerance past the run's end before it.  One complex buffer
    holds the key and then the running ends.
    """
    z = np.empty(len(ids), dtype=complex)
    z.real, z.imag = ids, tins
    order = np.argsort(z, kind="stable")  # merges the runs the ray kernel returns, one per cylinder
    s = tins[order]
    z.real = ids[order]  # one gathered temporary at a time
    z.imag = touts[order]
    del order
    np.maximum.accumulate(z, out=z)  # the probes are sorted, so the real part stays each one's id
    new = np.ones(len(s), dtype=bool)
    new[1:] = (z.real[1:] != z.real[:-1]) | (s[1:] > z.imag[:-1] + _TANGENT_TOL)
    return z.real[new].astype(ids.dtype), s[new], z.imag[np.roll(new, -1)]  # a component ends where the next starts


def count_component_entries(ids, tins, touts) -> int:
    """Number of merged-component entry points strictly inside the probes.

    Probes are independent segments indexed by ``ids``, with t clipped to
    the segment as :func:`ray_interval_bulk` gives it.  Each connected
    component of the union along a probe, as :func:`_probe_components`
    merges it, is counted through its entry endpoint; components
    straddling the probe start (t_in == 0) are dropped.
    """
    return int(np.count_nonzero(_probe_components(ids, tins, touts)[1] > 1e-9))


def first_entry_times(real: Realization, origins: np.ndarray, direction_vec: np.ndarray, length: float):
    """Earliest hitting parameter per probe ray (inf when the ray misses)."""
    n = len(origins)
    dirs = np.broadcast_to(direction_vec, (n, real.spec.d))
    ids, tins, _ = ray_interval_bulk(real, origins, dirs, length)
    out = np.full(n, np.inf)
    np.minimum.at(out, ids, tins)
    return out


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def _csv_params(shape) -> tuple:
    """A cross section's parameter as the strings one CSV row writes."""
    return tuple(f"{x:.17g}" for x in np.ravel(shape.param).tolist())


def export_realization_csv(real: Realization, path) -> None:
    """Write cylinders as CSV.

    Header: cyl_id, axis components, offset coordinates in the canonical
    complement frame, shape tag, then shape parameters (half-length or
    radius, or the flattened polygon vertex list).  2-D realizations drop
    the z and v columns.  Each distinct shape's fields are formatted once,
    and each row with one ``%`` format.
    """
    d = real.spec.d
    m = d - real.spec.k
    fields = [_csv_params(shape) for shape in real.shapes]
    width = max([1] + [len(fields[j]) for j in np.unique(real.shape_index).tolist()])
    tails = [",".join([shape.tag, *params] + [""] * (width - len(params)))
             for shape, params in zip(real.shapes, fields)]
    header = ["cyl_id", *("axis_x", "axis_y", "axis_z")[:d], *("offset_u", "offset_v")[:d - 1], "shape",
              *[f"param{i}" for i in range(width)]]
    row = ",".join(["%d"] + ["%.17g"] * (d + m) + [""] * (d - 1 - m) + ["%s"]) + "\r\n"
    values = zip(np.column_stack([real.axes, real.offsets]).tolist(), real.shape_index.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % (i, *v, tails[j]) for i, (v, j) in enumerate(values))


def import_realization_csv(path, spec: ProcessSpec, window: Window, seed: int = 0) -> Realization:
    """Rebuild a realization from :func:`export_realization_csv` output.

    Rows are parsed into the arrays as they are read; then the stored
    identifying vectors (the axis of a line, the normal of a slab) are
    canonicalized and all frames built in one ``spec.subspace_frames``
    call, the rule the sampler's frames follow from its canonical draws.
    Re-exporting the result therefore writes the same bytes.  Each
    distinct (tag, parameters) gives one entry of the shape table; those
    written from a base shape of ``spec`` are that very shape, so polygon
    vertices are not recentred again.  A bad row raises a ValueError that
    names its line: a short row, a field that is not a number, a shape or
    ``offset_v`` that does not fit d - k, a non-finite offset, and a
    non-finite or zero axis.  The reader takes quotes literally, as the
    writer uses none, so row i of the table is line i + 2 of the file.
    """
    m = spec.d - spec.k
    with open(path, newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        header = next(reader, None)
        if header is None:
            raise ValueError("CSV file is empty")
        d = 3 if "axis_z" in header else 2
        if d != spec.d:
            raise ValueError("CSV dimension does not match the spec")
        try:
            col = {name: j for j, name in enumerate(header)}
            names = ("axis_x", "axis_y", "axis_z")[:d] + ("offset_u", "offset_v")[:m]
            pick = operator.itemgetter(*[col[name] for name in names])
            v_at = col.get("offset_v")  # empty exactly when the complement is a line
            tag_at = col["shape"]
            param_at = [j for j, name in enumerate(header) if name.startswith("param")]
            atoms = {(shape.tag, _csv_params(shape)): shape for shape, _ in spec.base.atoms() if shape is not None}
            slots, shapes = {}, []
            values, index = array("d"), array("q")
            for row in reader:
                if v_at is not None and (row[v_at] == "") != (m == 1):
                    raise ValueError(f"offset_v must be {'empty' if m == 1 else 'given'} when d - k = {m}")
                key = (row[tag_at], tuple(row[j] for j in param_at if row[j] != ""))
                slot = slots.get(key)
                if slot is None:
                    shape = atoms[key] if key in atoms else shape_from_params(key[0], [float(x) for x in key[1]])
                    if shape.dim != m:
                        raise ValueError(f"a {key[0]} base has dimension {shape.dim}, not d - k = {m}")
                    slot = slots[key] = len(shapes)
                    shapes.append(shape)
                index.append(slot)
                values.extend(map(float, pick(row)))
        except IndexError as exc:
            raise ValueError(f"CSV line {reader.line_num}: the row has too few fields") from exc
        except KeyError as exc:
            raise ValueError(f"CSV line 1: no column {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"CSV line {reader.line_num}: {exc}") from exc
    table = np.frombuffer(values, dtype=float).reshape(len(index), d + m)
    with np.errstate(over="ignore"):  # an axis too long to square is rescaled by canonical_directions
        bad = ~(np.isfinite(table).all(axis=1) & (np.sqrt(np.vecdot(table[:, :d], table[:, :d])) >= NORM_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"CSV line {i + 2}: the axis {table[i, :d].tolist()} must be finite and nonzero "
                         f"and the offset {table[i, d:].tolist()} finite")
    axes = canonical_directions(table[:, :d])
    return Realization(spec, window, axes, spec.subspace_frames(axes), table[:, d:], shapes,
                       np.frombuffer(index, dtype=np.int64), seed)
