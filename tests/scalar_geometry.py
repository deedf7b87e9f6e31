"""Scalar window-hit oracle for the batched sampler.

One candidate at a time and by a different route: the convex hull of
the projected window corners, the point-to-hull distance and a
separating-axis overlap test.  The tests compare the batched hit test
with :func:`hits_window` candidate by candidate, and the sampler with
:func:`sample_reference`, the per-candidate sampler loop built on it.
"""

import math

import numpy as np

from cylproc.euclid import GEOM_TOL, Disc
from cylproc.rng import philox_stream


def sample_reference(spec, window, seed: int, stream: int = 0) -> list:
    """(subspace, shape, offset) of each kept cylinder: the sampler's draws, one candidate at a time."""
    rng = philox_stream(seed, stream)
    m = spec.d - spec.k
    rho = window.circumradius + spec.base.max_circumradius
    measure = 2.0 * rho if m == 1 else math.pi * rho * rho
    n = int(rng.poisson(spec.intensity * measure)) if spec.intensity > 0 else 0
    if n == 0:
        return []
    dirs = spec.alpha.sample_vectors(spec.d, rng, n)
    shapes = spec.base.sample_shapes(rng, n)
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
        L = spec.subspace_for(vec)
        off = L.complement_coords(window.center) + o
        if hits_window(L.frame, shape, off, window.corners):
            kept.append((L, shape, off))
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
