"""Scalar oracles for the batched sampler, queries and analytic quadrature.

The window-hit oracle works one candidate at a time and by a different
route: the convex hull of the projected window corners, the
point-to-hull distance and a separating-axis overlap test.  The tests
compare the batched hit test with :func:`hits_window` candidate by
candidate, and the sampler with :func:`sample_reference`, the
per-candidate sampler loop built on it.  :func:`canonical_direction`
and :func:`complement_frame` are the one-vector loops that
``euclid.canonical_directions`` and ``euclid.complement_frames`` batch;
:func:`subspace` gives the complement frame of the direction space one
canonical vector identifies, as ``ProcessSpec.subspace_frames`` does for
a stack.  The query oracles are the per-cylinder loops the simulation
module used to run.  The quadrature oracle, at the end, is the
node-by-node loop the analytic module used to run, with covariograms one
lag at a time from closed forms and, for polygons, from clipping one copy
of the polygon by the other, and the axis-by-axis radial mean of fixed
axes.
"""

import math

import numpy as np

from cylproc.euclid import _FRAME_TOL, _TANGENT_TOL, GEOM_TOL, NORM_TOL, Disc, Segment
from cylproc.model import FixedAxes
from cylproc.rng import philox_stream


def canonical_direction(v) -> np.ndarray:
    """The canonical representative of one vector v.

    v is divided by its norm unless that is within 1e-12 of one, then
    flipped so that its first coordinate of magnitude > 1e-12 is positive.
    """
    a = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(a))
    if n < NORM_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    if abs(n - 1.0) > NORM_TOL:
        a = a / n
    for x in a:
        if abs(x) > NORM_TOL:
            return a.copy() if x > 0 else -a
    raise ValueError("zero vector has no canonical sign")


def subspace(spec, vec) -> np.ndarray:
    """Complement frame of the direction space one unit vector identifies, one subspace at a time.

    The vector, taken as given, spans the line for k = 1 and is the
    plane's normal, and so its own frame, for k = d - 1.
    """
    v = np.asarray(vec, dtype=float)[:, None]
    return complement_frame(v) if spec.k == 1 else v


def complement_frame(B: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the orthogonal complement of span(B), one subspace at a time.

    Gram-Schmidt over the standard basis in index order; a candidate is
    accepted when its residual is comfortably nonzero.
    """
    d, m = B.shape
    cols: list[np.ndarray] = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            v = v - B @ (B.T @ v)
            for f in cols:
                v = v - f * float(f @ v)
        n = float(np.linalg.norm(v))
        if n > _FRAME_TOL:
            cols.append(v / n)
        if len(cols) == d - m:
            break
    if len(cols) != d - m:
        raise ValueError("failed to build a complement frame")
    return np.column_stack(cols)


def corners(window) -> np.ndarray:
    """The 2^d corner points of a window box."""
    axes = [(l, h) for l, h in zip(window.lo, window.hi)]
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(window.dim, -1).T


def sample_reference(spec, window, seed: int, stream: int = 0) -> list:
    """(axis, frame, shape, offset) of each kept cylinder: the sampler's draws, one candidate at a time."""
    rng = philox_stream(seed, stream)
    m = spec.d - spec.k
    rho = window.circumradius + spec.base.max_circumradius
    measure = 2.0 * rho if m == 1 else math.pi * rho * rho
    n = int(rng.poisson(spec.intensity * measure)) if spec.intensity > 0 else 0
    if n == 0:
        return []
    dirs = spec.alpha.sample_vectors(spec.d, rng, n)
    atoms = [shape for shape, _ in spec.base.atoms()]
    shapes = [atoms[j] for j in spec.base.sample_index(rng, n)]
    if m == 1:
        offs = rng.uniform(-rho, rho, n)[:, None]
    else:
        rad = rho * np.sqrt(rng.uniform(0.0, 1.0, n))
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        offs = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    kept = []
    for vec, shape, o in zip(dirs, shapes, offs):
        if shape is None:
            continue
        frame = subspace(spec, vec)
        off = window.center @ frame + o
        if hits_window(frame, shape, off, corners(window)):
            kept.append((vec, frame, shape, off))
    return kept


def hits_window(frame: np.ndarray, shape, off: np.ndarray, corners: np.ndarray) -> bool:
    """Whether one cylinder with complement ``frame`` and base ``shape`` at ``off`` hits the box."""
    proj = corners @ frame
    if frame.shape[1] == 1:
        lo, hi = float(np.min(proj)), float(np.max(proj))
        a = shape.half_length
        return off[0] + a >= lo - GEOM_TOL and off[0] - a <= hi + GEOM_TOL
    shadow = convex_hull_ccw(proj)
    if isinstance(shape, Disc):
        return convex_distance(shadow, off) <= shape.radius + GEOM_TOL
    return convex_overlap(shadow, shape.vertices + off)


def convex_hull_ccw(points) -> np.ndarray:
    """Counterclockwise convex hull of planar points (Andrew monotone chain)."""
    P = np.unique(np.asarray(points, dtype=float), axis=0)
    P = P[np.lexsort((P[:, 1], P[:, 0]))]
    if len(P) <= 2:
        return P

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, q = out[-2], out[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(P)
    upper = half(P[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def convex_distance(hull_ccw: np.ndarray, p) -> float:
    """Distance from a point to a convex polygon given as a ccw vertex array."""
    p = np.asarray(p, dtype=float)
    V = np.asarray(hull_ccw, dtype=float)
    if len(V) == 1:
        return float(np.linalg.norm(p - V[0]))
    if len(V) == 2:
        return _point_segment_distance(p, V[0], V[1])
    edges = np.roll(V, -1, axis=0) - V
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    inside = np.all(np.einsum("ij,ij->i", normals, p[None, :] - V) <= GEOM_TOL * np.linalg.norm(normals, axis=1))
    if inside:
        return 0.0
    return min(_point_segment_distance(p, a, b) for a, b in zip(V, np.roll(V, -1, axis=0)))


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def convex_overlap(hull_a: np.ndarray, hull_b: np.ndarray, tol: float = GEOM_TOL) -> bool:
    """Separating-axis test for two convex ccw polygons (closed sets)."""
    for V in (hull_a, hull_b):
        W = np.roll(V, -1, axis=0)
        edges = W - V
        axes = np.column_stack([edges[:, 1], -edges[:, 0]])
        for ax in axes:
            n = float(np.linalg.norm(ax))
            if n == 0.0:
                continue
            ax = ax / n
            pa = hull_a @ ax
            pb = hull_b @ ax
            if np.min(pb) > np.max(pa) + tol or np.min(pa) > np.max(pb) + tol:
                return False
    return True


# ---------------------------------------------------------------------------
# per-cylinder query loops
# ---------------------------------------------------------------------------

def cylinders(real):
    """(frame, offset, base) of each cylinder of a realization, in order."""
    return [(f, o, real.shapes[j]) for f, o, j in zip(real.frames, real.offsets, real.shape_index)]


def covered_mask(real, pts) -> np.ndarray:
    out = np.zeros(len(pts), dtype=bool)
    for frame, off, base in cylinders(real):
        out |= base.contains(pts @ frame - off)
    return out


def distance_mask(real, pts) -> np.ndarray:
    out = np.full(len(pts), np.inf)
    for frame, off, base in cylinders(real):
        out = np.minimum(out, base.distance(pts @ frame - off))
    return out


def ray_interval_bulk(real, origins, dirs, length: float):
    """(ray id, t_in, t_out) of every cylinder's clipped interval, cylinder by cylinder."""
    ids_all, tin_all, tout_all = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    n = len(origins)
    for frame, off, base in cylinders(real):
        u0 = origins @ frame - off
        w = dirs @ frame
        if isinstance(base, Segment):
            a = base.half_length
            w0, p0 = w[:, 0], u0[:, 0]
            par = np.abs(w0) <= _TANGENT_TOL
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-a - p0) / w0
                t2 = (a - p0) / w0
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            lo[par] = 0.0
            hi[par] = np.where(np.abs(p0[par]) <= a, length, -1.0)
        elif isinstance(base, Disc):
            a = base.radius
            ww = np.einsum("ij,ij->i", w, w)
            b = np.einsum("ij,ij->i", u0, w)
            c = np.einsum("ij,ij->i", u0, u0) - a * a
            par = ww <= _TANGENT_TOL**2
            disc = b * b - ww * c
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.sqrt(np.maximum(disc, 0.0))
                lo = (-b - root) / ww
                hi = (-b + root) / ww
            miss = disc <= _TANGENT_TOL
            lo[miss] = 0.0
            hi[miss] = -1.0
            lo[par] = 0.0
            hi[par] = np.where(c[par] <= 0.0, length, -1.0)
        else:
            E = np.roll(base.vertices, -1, axis=0) - base.vertices
            normals = np.column_stack([E[:, 1], -E[:, 0]])
            lo = np.full(n, -np.inf)
            hi = np.full(n, np.inf)
            ok = np.ones(n, dtype=bool)
            for n_e, q in zip(normals, base.vertices):
                denom = w @ n_e
                num = (q - u0) @ n_e
                par = np.abs(denom) < _TANGENT_TOL
                ok &= ~par | (num >= -GEOM_TOL)
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = num / denom
                upper = denom > 0
                lower = (~par) & (~upper)
                hi = np.where(upper, np.minimum(hi, t), hi)
                lo = np.where(lower, np.maximum(lo, t), lo)
            lo[~ok] = 0.0
            hi[~ok] = -1.0
        lo = np.maximum(lo, 0.0)
        hi = np.minimum(hi, length)
        keep = hi - lo > 0.0
        ids_all.append(np.nonzero(keep)[0])
        tin_all.append(lo[keep])
        tout_all.append(hi[keep])
    return np.concatenate(ids_all).astype(np.int64), np.concatenate(tin_all), np.concatenate(tout_all)


# ---------------------------------------------------------------------------
# scalar quadrature loops: one node, one translate and one edge at a time
# ---------------------------------------------------------------------------
#
# The per-node loops ``cylproc.analytic`` ran before its quadrature was
# batched, kept as the oracle for the batched kernels.  Frames come from
# the scalar :func:`complement_frame` or :func:`subspace` and covariograms
# from :func:`covariogram`.  The polygon union drops a stretch shared by
# same-orientation collinear edges twice, and merges
# translates up to about 1e-5 times their coordinates apart, so compare
# only point sets with no collinear or near-coincident configuration.

def law_frames(spec) -> list:
    """(complement frame, weight) of each fixed axis or quadrature node, one subspace at a time."""
    if isinstance(spec.alpha, FixedAxes):
        return [(subspace(spec, direction.vec), w) for direction, w in spec.alpha.axes]
    return [(subspace(spec, omega), w) for omega, w in zip(*spec.alpha.nodes())]


def radial_mean(spec, h, f) -> float:
    """E over fixed axes of f(|Pr h|), axis by axis, with f at one projected length at a time."""
    return sum(w * float(f(float(np.linalg.norm(h @ frame)))) for frame, w in law_frames(spec))


def frame_gamma_mean(spec, atoms, h) -> float:
    """E over the directional law of sum_a w_a gamma_a(projected h), axis by axis or node by node."""
    acc = 0.0
    for frame, w in law_frames(spec):
        t = h @ frame
        acc += w * sum(wa * covariogram(shape, t) for shape, wa in atoms)
    return acc


def polygon_slope_mean(spec, polys, unit_h) -> float:
    """E over the directional law of [h, L] sum_p w_p gamma_p'(o, u), axis by axis or node by node."""
    acc = 0.0
    for frame, w in law_frames(spec):
        t = unit_h @ frame
        nt = float(np.linalg.norm(t))
        if nt <= 1e-14:
            continue
        acc += w * nt * sum(wp * polygon_covariogram_derivative(poly, t / nt) for poly, wp in polys)
    return acc


def mean_union_volume(spec, pts) -> float:
    """E over the directional and base laws of the volume of union_i (p_i - K), axis by axis or node by node."""
    return sum(w * union_volume(spec, pts @ frame) for frame, w in law_frames(spec))


def covariogram(shape, t) -> float:
    """gamma_K(t) at one lag: the segment and disc closed forms, clipping for a polygon."""
    if isinstance(shape, Segment):
        return max(0.0, 2.0 * shape.half_length - abs(float(t[0])))
    if isinstance(shape, Disc):
        a, q = shape.radius, float(np.linalg.norm(t))
        if q >= 2.0 * a:
            return 0.0
        return 2.0 * a * a * math.acos(q / (2.0 * a)) - 0.5 * q * math.sqrt(4.0 * a * a - q * q)
    return polygon_covariogram(shape, t)


def polygon_covariogram(poly, t) -> float:
    """Area of the polygon intersected with its translate by t, by clipping one with the other."""
    return polygon_area(clip_convex(poly.vertices, poly._normals, poly._offsets - poly._normals @ np.asarray(t)))


def polygon_covariogram_derivative(poly, u) -> float:
    """Minus the length of the polygon's shadow on the line orthogonal to the unit vector u."""
    proj = poly.vertices @ np.array([-u[1], u[0]])
    return -float(np.max(proj) - np.min(proj))


def polygon_area(V) -> float:
    if V is None or len(V) < 3:
        return 0.0
    x, y = V[:, 0], V[:, 1]
    return 0.5 * float(np.abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def clip_convex(subject, normals, offsets):
    """Clip a convex polygon by the halfplanes n.x <= b; returns vertex array."""
    poly = [p for p in np.asarray(subject, dtype=float)]
    for n, b in zip(normals, offsets):
        if not poly:
            return np.empty((0, 2))
        out = []
        prev = poly[-1]
        dp = b - float(n @ prev)
        for cur in poly:
            dc = b - float(n @ cur)
            if dp >= -GEOM_TOL:
                out.append(prev)
                if dc < -GEOM_TOL:
                    out.append(prev + (cur - prev) * (dp / (dp - dc)))
            elif dc >= -GEOM_TOL:
                out.append(prev + (cur - prev) * (dp / (dp - dc)))
            prev, dp = cur, dc
        poly = out
    return np.asarray(poly) if poly else np.empty((0, 2))


def union_volume(spec, proj) -> float:
    """E over the base law of the volume of union_i (p_i - K) for one node's projections."""
    total = 0.0
    for shape, w in spec.base.atoms():
        if shape is None:
            continue
        if isinstance(shape, Segment):
            a = shape.half_length
            total += w * sum(e - s for s, e in union_intervals([(c - a, c + a) for c in proj[:, 0].tolist()]))
        elif isinstance(shape, Disc):
            total += w * union_area_discs(proj, shape.radius)
        else:
            total += w * union_area_polygons([p - shape.vertices for p in proj])
    return total


def union_area_discs(centers, a: float) -> float:
    """Area of a union of discs of radius a, by tracing exposed arcs circle by circle.

    The angles come from numpy's arccos and arctan2, which round alike on one
    argument and on many; the C library's acos and atan2 may round otherwise.
    """
    pts = []
    for c in np.asarray(centers, dtype=float):
        if all(np.linalg.norm(c - q) > 1e-12 for q in pts):
            pts.append(c)
    if len(pts) == 1:
        return math.pi * a * a
    total = 0.0
    for i, ci in enumerate(pts):
        covered = []
        for j, cj in enumerate(pts):
            dv = cj - ci
            dist = float(np.linalg.norm(dv))
            if j == i or dist >= 2.0 * a:
                continue
            beta = float(np.arccos(dist / (2.0 * a)))  # numpy's, as the kernel: libm's may round differently
            theta_c = float(np.arctan2(dv[1], dv[0]))
            covered.append((theta_c - beta, theta_c + beta))
        for t1, t2 in complement_arcs(covered):
            total += 0.5 * (ci[0] * a * (math.sin(t2) - math.sin(t1))
                            - ci[1] * a * (math.cos(t2) - math.cos(t1)) + a * a * (t2 - t1))
    return total


def union_intervals(intervals, lo: float = -math.inf, hi: float = math.inf) -> list:
    """Sorted union of intervals clipped to [lo, hi]; pieces within 1e-14 are joined."""
    merged = []
    for s, e in sorted(intervals):
        if e <= lo or s >= hi:
            continue
        s, e = max(s, lo), min(e, hi)
        if merged and s <= merged[-1][1] + 1e-14:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return merged


def uncovered(intervals, lo: float, hi: float) -> list:
    """Pieces of [lo, hi] that the intervals leave uncovered, in order."""
    gaps, cursor = [], lo
    for s, e in union_intervals(intervals, lo, hi):
        if s > cursor + 1e-14:
            gaps.append((cursor, s))
        cursor = e
    if cursor < hi - 1e-14:
        gaps.append((cursor, hi))
    return gaps


def complement_arcs(covered) -> list:
    """Arcs of [0, 2 pi) not covered by the angular intervals; wrapping pieces are split."""
    two_pi = 2.0 * math.pi
    pieces = []
    for s, e in covered:
        span = e - s
        s %= two_pi
        e = s + span
        pieces += [(s, e)] if e <= two_pi else [(s, two_pi), (0.0, e - two_pi)]
    return uncovered(pieces, 0.0, two_pi)


def union_area_polygons(translates) -> float:
    """Area of a union of translates of one convex polygon, edge by edge."""
    polys = []
    for V in translates:
        if all(not np.allclose(V[0], Q[0], atol=1e-12) for Q in polys):
            polys.append(np.asarray(V, dtype=float))
    total = 0.0
    for i, V in enumerate(polys):
        for a_pt, b_pt in zip(V, np.roll(V, -1, axis=0)):
            d_vec = b_pt - a_pt
            covered = [seg for j, Q in enumerate(polys) if j != i
                       for seg in [segment_inside_convex(a_pt, d_vec, Q)] if seg is not None]
            cross = a_pt[0] * d_vec[1] - a_pt[1] * d_vec[0]
            total += 0.5 * cross * sum(t1 - t0 for t0, t1 in uncovered(covered, 0.0, 1.0))
    return total


def segment_inside_convex(a_pt, d_vec, Q):
    """Parameter range of {a + t d, t in [0, 1]} inside the convex ccw polygon Q, or None."""
    E = np.roll(Q, -1, axis=0) - Q
    tlo, thi = 0.0, 1.0
    for n_e, q in zip(np.column_stack([E[:, 1], -E[:, 0]]), Q):
        denom = float(n_e @ d_vec)
        num = float(n_e @ (q - a_pt))
        if abs(denom) < 1e-14:
            if num < -1e-12:
                return None
            continue
        t = num / denom
        if denom > 0:
            thi = min(thi, t)
        else:
            tlo = max(tlo, t)
        if tlo >= thi:
            return None
    return (tlo, thi)
