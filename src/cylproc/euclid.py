"""Low-dimensional Euclidean primitives and the per-shape kernels.

Exact geometry in R^2 / R^3: directions with antipodal identification,
deterministic orthonormal frames for the complements of their spans,
unit-ball constants, and Gauss-Legendre rules, piecewise between given
kinks.  The cross sections (segment, disc, convex polygon) are the only
code that knows a base's kind: each has its
area, boundary, membership and distance tests, the reach of its
membership test, the ray kernel that returns the non-empty clipped
intervals of lines, the hit test against a window's shadow, and the tag
and parameter it is written under, and one batched kernel each for the
covariogram, its derivative at the origin, the area of an intersection
of translates and the area of a union of translates; a single lag or
direction is the n = 1 view of a stack, bit for bit.  A polygon's
intersection of translates is one clip of half-planes over its own fixed
edge normals, by tables built with it; its covariogram is the two-row
intersection, and its union of translates runs on the same clip.  A
disc's intersection adds Green's integral over each circle's one arc
inside all the others, with no sort.  The union kernels share one interval-union
routine, :func:`_sweep`, which the simulation's probe merge uses too; it
takes the pieces of each union on axis 0, and the union kernels put the
quadrature node last, so each operation runs over a chunk's nodes as one
contiguous row.  Their running maxima and minima and their in-order sums
over axis 0 go row by row, bit for bit numpy's accumulate (:func:`_scan`,
:func:`_rowsum`).  The disc's angles come from numpy's arccos and arctan2,
and its sin and cos run on the exposed arcs alone.  Every absolute
tolerance is defined here, and so is :func:`number`, the one check of a
scalar argument.  Everything is immutable after construction and safe to
share between workers.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12      # unit-norm and orthonormality checks
GEOM_TOL = 1e-9       # geometric predicates: membership, clipping
_TANGENT_TOL = 1e-12  # quadratic discriminants below this give no interval; probe intervals join within it
_FRAME_TOL = 1e-7     # Gram-Schmidt residual acceptance threshold
_DEDUPE_TOL = 1e-12   # translates, or polygon edge lines, nearer than this times the circumradius coincide
_JOIN_TOL = 1e-14     # covered pieces of a union of translates nearer than this are joined
_CHUNK = 1 << 13      # elements per temporary of a union or polygon covariogram kernel (64 KB); bounds a call's memory


def number(value, name: str = "", minimum: float | None = None, integer: bool = False):
    """``value`` as a float (an int when ``integer``), or a ValueError whose message starts with ``name``.

    A bool, a non-number, NaN, +-inf, a fraction where an integer is needed
    and a value below ``minimum`` are rejected.  This is the one check of a
    scalar: the cross sections call it, and ``model.real`` names its field.
    """
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (not integer or x.is_integer()) and (minimum is None or x >= minimum)):
        what = ("an integer" if integer else "a finite number") + ("" if minimum is None else f" >= {minimum:g}")
        raise ValueError(f"{name} must be {what}, got {value!r}".lstrip())
    return int(value) if integer else x


# ---------------------------------------------------------------------------
# directions and complement frames
# ---------------------------------------------------------------------------

def canonical_directions(V) -> np.ndarray:
    """The canonical representatives of the rows of V, in one pass.

    A row is divided by its norm unless that is within 1e-12 of one, then
    flipped so that its first coordinate of magnitude > 1e-12 is positive.
    A row whose squared norm overflows is first scaled by the power of two
    that brings its largest coordinate into [1/2, 1), which is exact.
    """
    V = np.array(V, dtype=float)
    if V.ndim != 2 or V.shape[1] not in (2, 3):
        raise ValueError(f"directions must be vectors in R^2 or R^3, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise ValueError("directions must have finite coordinates")
    with np.errstate(over="ignore"):
        n = np.sqrt(np.vecdot(V, V))  # np.linalg.norm of each row
    huge = ~np.isfinite(n)
    if huge.any():
        W = np.ldexp(V[huge], -np.frexp(np.max(np.abs(V[huge]), axis=1))[1][:, None])
        V[huge], n[huge] = W, np.sqrt(np.vecdot(W, W))
    if np.any(n < NORM_TOL):
        raise ValueError("cannot normalize a (near-)zero vector")
    far = np.abs(n - 1.0) > NORM_TOL
    V[far] = V[far] / n[far, None]
    big = np.abs(V) > NORM_TOL
    if not np.all(big.any(axis=1)):
        raise ValueError("zero vector has no canonical sign")
    lead = V[np.arange(len(V)), np.argmax(big, axis=1)]
    V[lead < 0] = -V[lead < 0]
    return V


class Direction:
    """A unit vector in R^d (d in {2, 3}) with v and -v identified.

    The stored representative has its first nonzero coordinate positive, so
    equal lines compare equal regardless of the sign they were built with.
    Canonicalization is idempotent; it is the n = 1 view of
    :func:`canonical_directions`, bit for bit.
    """

    __slots__ = ("_v",)

    def __init__(self, v):
        a = np.asarray(v, dtype=float)
        if a.ndim != 1 or a.size not in (2, 3):
            raise ValueError(f"direction must be a vector in R^2 or R^3, got shape {a.shape}")
        a = canonical_directions(a[None])[0]
        a.flags.writeable = False
        self._v = a

    @property
    def vec(self) -> np.ndarray:
        return self._v

    @property
    def dim(self) -> int:
        return self._v.size

    def __eq__(self, other):
        return isinstance(other, Direction) and np.array_equal(self._v, other._v)

    def __hash__(self):
        return hash((self._v + 0.0).tobytes())  # + 0.0 folds -0.0 into 0.0, which compares equal

    def __repr__(self):
        return f"Direction({self._v.tolist()})"


def complement_frames(V: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal bases (N, d, d - 1) of the complements of the lines the unit rows V (N, d) span.

    Gram-Schmidt over the standard basis in index order, two passes per
    candidate (the second restores orthogonality lost to rounding); a
    candidate is accepted when its residual is comfortably nonzero.  The
    result depends only on the line V[i] spans numerically, never on run
    order or on the other rows, which keeps complement coordinates
    reproducible.  Every dot product goes through ``np.vecdot`` on
    C-contiguous stacks, which rounds like the scalar ``@`` of a
    one-line loop; ``einsum`` or a plain sum would not.
    """
    V = np.ascontiguousarray(V, dtype=float)
    N, d = V.shape
    k = d - 1
    F = np.zeros((N, d, k))
    count = np.zeros(N, dtype=np.intp)  # columns accepted so far, per row
    for i in range(d):
        todo = count < k
        if not todo.any():
            break
        v = np.zeros((N, d))
        v[:, i] = 1.0
        for _ in range(2):
            v = v - V * np.vecdot(V, v)[:, None]
            for j in range(k):
                has = count > j
                if not has.any():
                    break
                f = np.ascontiguousarray(F[:, :, j])
                step = v - f * np.vecdot(f, v)[:, None]
                v = step if has.all() else np.where(has[:, None], step, v)
        n = np.sqrt(np.vecdot(v, v))
        take = np.flatnonzero(todo & (n > _FRAME_TOL))
        F[take, :, count[take]] = v[take] / n[take, None]
        count[take] += 1
    if np.any(count < k):
        raise ValueError("failed to build a complement frame")
    return F


# ---------------------------------------------------------------------------
# ball constants and Grassmannian averages
# ---------------------------------------------------------------------------

_KAPPA = (1.0, 2.0, math.pi, 4.0 * math.pi / 3.0)


def ball_constants(m: int) -> tuple[float, float]:
    """(volume, surface area) of the unit ball in R^m for m in 0..3.

    kappa_0=1, kappa_1=2, kappa_2=pi, kappa_3=4pi/3 and omega_m = m*kappa_m
    for m >= 1; the surface area of a 0-ball is 0 by convention.
    """
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or not 0 <= m <= 3:
        raise ValueError(f"ball dimension must be an integer in 0..3, got {m!r}")
    kappa = _KAPPA[m]
    omega = m * kappa if m >= 1 else 0.0
    return kappa, omega


def crofton_factor(d: int) -> float:
    """d kappa_d / kappa_{d-1}: specific surface per mean entry into a set per unit length of Haar lines."""
    return d * ball_constants(d)[0] / ball_constants(d - 1)[0]


@lru_cache(maxsize=None)
def _gl_base(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _gl_base(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _piecewise_gl(f, a: float, b: float, breaks, n: int = 48) -> float:
    """Integrate f over [a, b] with Gauss-Legendre on each smooth piece."""
    if b <= a:
        return 0.0
    cuts = sorted({float(c) for c in breaks if a + 1e-14 < c < b - 1e-14})
    edges = [a, *cuts, b]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(n, lo, hi)
        total += float(np.sum(w * f(x)))
    return total


def _angle_breakpoints(r: float, psi: float, targets, lo: float, hi: float):
    """Angles in (lo, hi) where r*|cos(phi - psi)| crosses one of the targets.

    Includes the |cos| kink itself (target 0).  The function is pi-periodic,
    so each solution is replicated by multiples of pi into the window.
    """
    out = []
    for t in set(float(x) for x in targets) | {0.0}:
        if t > r or r <= 0.0:
            continue
        a0 = math.acos(min(1.0, max(0.0, t / r)))
        for x in (a0, -a0):
            base = (psi + x) % math.pi
            k0 = math.floor((lo - base) / math.pi)
            for k in (k0, k0 + 1, k0 + 2):
                c = base + k * math.pi
                if lo < c < hi:
                    out.append(c)
    return out


def haar_mean_line_det(d: int) -> float:
    """Haar mean of [xi', L] over lines xi' for a fixed line L in R^d."""
    if d == 2:
        x, w = gauss_legendre(64, 0.0, math.pi)
        return float(np.sum(np.sin(x) * w) / math.pi)
    x, w = gauss_legendre(64, 0.0, 0.5 * math.pi)
    return float(np.sum(np.sin(x) ** 2 * w))


def haar_mean_plane_det() -> float:
    """Haar mean of [xi', L] over lines xi' for a fixed plane L in R^3."""
    x, w = gauss_legendre(64, 0.0, 0.5 * math.pi)
    return float(np.sum(np.cos(x) * np.sin(x) * w))


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

class CrossSection:
    """A base set in the canonical complement frame: a :class:`Segment`, :class:`Disc` or :class:`ConvexPolygon`.

    A kind is written, in CSV and JSON alike, under its ``tag`` with one
    parameter: the attribute named ``field``, which the constructor takes
    back.  ``param_shape`` arranges a flat list of numbers into it.  The
    covariogram of a ``radial`` kind depends on the lag's length alone.
    ``reach`` and ``diameter`` follow from the circumradius unless a kind
    sets its own.  ``ray_radius(length)`` bounds how far from the origin a
    line may pass and still get an interval of a probe of that length from
    ``clipped_intervals``; it is inf where no pair is pruned.  Two cross
    sections are equal when they are of one kind with equal parameters.
    """

    __slots__ = ()

    @property
    def param(self):
        """The parameter as a number or nested lists of numbers."""
        return np.asarray(getattr(self, self.field)).tolist()

    def __eq__(self, other):
        return type(other) is type(self) and other.param == self.param

    def __hash__(self):
        # + 0.0 folds -0.0 into 0.0, which compares equal to it
        return hash((self.tag, (np.asarray(getattr(self, self.field), dtype=float) + 0.0).tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}({self.field}={self.param!r})"

    @property
    def reach(self) -> float:
        """Radius about the origin of the set that ``contains`` accepts."""
        return self.circumradius + GEOM_TOL

    @property
    def diameter(self) -> float:
        return 2.0 * self.circumradius


class Segment(CrossSection):
    """Symmetric interval [-a, a]: the base of a band (one-dimensional complement).

    Its "area" is the 1-D length 2a.  The boundary measure counts the two
    endpoints, so ``boundary`` is 2 regardless of the half-length.
    """

    dim, radial = 1, True
    tag, field, param_shape = "segment", "half_length", ()
    __slots__ = ("half_length",)

    def __init__(self, half_length: float):
        self.half_length = number(half_length, "segment half-length")
        if not self.half_length > 0:
            raise ValueError("segment half-length must be positive and finite")

    @property
    def area(self) -> float:
        return 2.0 * self.half_length

    @property
    def boundary(self) -> float:
        return 2.0

    @property
    def circumradius(self) -> float:
        return self.half_length

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u[..., 0]) <= self.half_length + GEOM_TOL

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.abs(u[..., 0]) - self.half_length, 0.0)

    def covariogram(self, t):
        """Length of K n (K + t), max(0, 2a - |t|), for lags t (..., 1): an array (...), a number for one lag."""
        return np.maximum(0.0, 2.0 * self.half_length - np.abs(np.asarray(t, dtype=float)[..., 0]))[()]

    def covariogram_derivative(self, u=None):
        """gamma'(o, u) = -1 for unit u (..., 1), in either direction; the number itself when u is None."""
        return -1.0 if u is None else np.full(np.shape(u)[:-1], -1.0)[()]

    def ray_radius(self, length: float) -> float:
        """inf: no pair is pruned, as the solve is as cheap as any miss test would be."""
        return math.inf

    def clipped_intervals(self, u0: np.ndarray, w: np.ndarray, length: float):
        """The non-empty intervals in [0, length] of the lines u0 + t w (c, n, 1) through the segment.

        Returns (flat index into (c, n), t_in, t_out), in index order.  A
        line parallel to the segment and inside it gets [0, length].  Every
        pair is solved and clipped before the hits are compressed.
        """
        a = self.half_length
        w0, p0 = w[..., 0], u0[..., 0]
        par = np.abs(w0) <= _TANGENT_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-a - p0) / w0
            t2 = (a - p0) / w0
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        lo[par] = 0.0
        hi[par] = np.where(np.abs(p0[par]) <= a, length, -1.0)
        return _clipped(np.arange(lo.size), lo.ravel(), hi.ravel(), length)

    def meets_zonotope(self, gens: np.ndarray, centre: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Whether the segment at each ``off`` overlaps the interval ``centre`` +- half the sum of |gens| (N, d, 1)."""
        half = 0.5 * np.sum(np.abs(gens[:, :, 0]), axis=1)
        lo, hi, a = centre[:, 0] - half, centre[:, 0] + half, self.half_length
        return (off[:, 0] + a >= lo - GEOM_TOL) & (off[:, 0] - a <= hi + GEOM_TOL)

    def union_areas(self, C: np.ndarray) -> np.ndarray:
        """Length of union_i (c_i - K) for each row of points C (N, n, 1), summed run by run in order."""
        c, a = C[:, :, 0].T, self.half_length
        s, R, new = _sweep(c - a, c + a, -math.inf, math.inf)
        return _rowsum(np.where(new, _run_ends(new, R) - s, 0.0))

    def intersection_areas(self, C: np.ndarray) -> np.ndarray:
        """Length of n_i (c_i - K) for each row of points C (N, n, 1): max(0, 2a - the spread of the c_i)."""
        c = C[:, :, 0]
        return np.maximum(0.0, 2.0 * self.half_length - (c.max(axis=1) - c.min(axis=1)))


class Disc(CrossSection):
    """Disc of radius a centred at the origin of the complement frame."""

    dim, radial = 2, True
    tag, field, param_shape = "disc", "radius", ()
    __slots__ = ("radius",)

    def __init__(self, radius: float):
        self.radius = number(radius, "disc radius")
        if not self.radius > 0:
            raise ValueError("disc radius must be positive and finite")

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2

    @property
    def boundary(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def circumradius(self) -> float:
        return self.radius

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        return np.einsum("...i,...i->...", u, u) <= (self.radius + GEOM_TOL) ** 2

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.sqrt(np.einsum("...i,...i->...", u, u)) - self.radius, 0.0)

    def covariogram(self, t):
        """Lens area 2a^2 acos(q/2a) - (q/2) sqrt(4a^2 - q^2), q = |t|, for lags t (..., 2); 0 from q = 2a.

        The two terms cancel near q = 2a, where rounding could leave the
        difference below 0; it is held at 0 there.
        """
        a = self.radius
        t = np.asarray(t, dtype=float)
        q = np.sqrt(np.vecdot(t, t))
        x = np.clip(q / (2.0 * a), 0.0, 1.0)
        lens = 2.0 * a * a * np.arccos(x) - 0.5 * q * np.sqrt(np.maximum(4.0 * a * a - q * q, 0.0))
        return np.maximum(lens, 0.0)[()]

    def covariogram_derivative(self, u=None):
        """gamma'(o, u) = -2a for unit u (..., 2); the number itself when u is None."""
        return -2.0 * self.radius if u is None else np.full(np.shape(u)[:-1], -2.0 * self.radius)[()]

    def ray_radius(self, length: float) -> float:
        """The radius: a line gets an interval only where a^2 |w|^2 - (u0 x w)^2 exceeds the tangency tolerance.

        A line parallel to the axis gets one only inside the disc.
        """
        return self.radius

    def clipped_intervals(self, u0: np.ndarray, w: np.ndarray, length: float):
        """The non-empty intervals in [0, length] of the lines u0 + t w (c, n, 2) through the disc.

        Returns (flat index into (c, n), t_in, t_out), in index order.  A
        line that misses or grazes gets none; one parallel to the axis and
        inside the disc gets [0, length].  The discriminant is formed for
        every pair; roots, masks and clipping run only on the pairs it
        keeps.
        """
        a = self.radius
        ww = np.einsum("...j,...j->...", w, w)
        b = np.einsum("...j,...j->...", u0, w)
        c = np.einsum("...j,...j->...", u0, u0) - a * a
        par = ww <= _TANGENT_TOL**2
        disc = b * b - ww * c
        live = np.flatnonzero((disc > _TANGENT_TOL) | par)
        ww, b, c, par, disc = (np.ravel(x)[live] for x in (ww, b, c, par, disc))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt(np.maximum(disc, 0.0))
            lo = (-b - root) / ww
            hi = (-b + root) / ww
        lo[par] = 0.0
        hi[par] = np.where(c[par] <= 0.0, length, -1.0)
        return _clipped(live, lo, hi, length)

    def meets_zonotope(self, gens: np.ndarray, centre: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Whether the disc at each ``off`` lies within r of the zonogon at ``centre`` spanned by gens (N, 3, 2)."""
        return _zonogon_distance(gens, off - centre) <= self.radius + GEOM_TOL

    def union_areas(self, C: np.ndarray) -> np.ndarray:
        """Area of union_i (c_i - K) for each row of points C (N, n, 2), by boundary-arc tracing.

        Each exposed arc, traversed counterclockwise on its own circle, has the
        union on its left, so summing the Green line integrals over exposed
        arcs gives the area, holes included.  The angles come from numpy's
        arccos and arctan2, which may round differently from the C library's
        acos and atan2; the distances are symmetric bit for bit, so arccos
        runs once per pair.  Only the exposed arcs reach sin and cos, and
        each node adds its arcs circle by circle, in order, as a loop does.
        """
        a = self.radius
        n = C.shape[1]
        two_pi = 2.0 * math.pi
        others = ~np.eye(n, dtype=bool)[:, :, None]
        upper = np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]

        def chunk(C):
            X, Y = np.ascontiguousarray(C.transpose(2, 1, 0))  # (n, N): one row per centre
            dx, dy = X[:, None] - X, Y[:, None] - Y  # [j, i] = c_j - c_i
            dv = np.stack([dx, dy], axis=-1)
            dist = np.sqrt(np.vecdot(dv, dv))
            keep = np.ones(X.shape, dtype=bool)  # centre i lies farther than the tolerance from earlier kept ones
            for i in range(1, n):
                keep[i] = ~np.any((dist[i, :i] <= _DEDUPE_TOL * a) & keep[:i], axis=0)
            hit = keep[:, None] & keep & others & (dist < 2.0 * a)
            beta, theta = np.zeros(dist.shape), np.zeros(dist.shape)
            pair = np.nonzero(hit & upper)
            beta[pair] = beta[pair[1], pair[0], pair[2]] = np.arccos(dist[pair] / (2.0 * a))
            theta[hit] = np.arctan2(dy[hit], dx[hit])
            s = theta - beta  # covered arc [s, s + span] of circle i
            span = (theta + beta) - s
            s %= two_pi
            e = s + span
            wrap = hit & (e > two_pi)  # an arc past 2 pi is split in two
            g0, g1 = _gaps(np.concatenate([np.where(hit, s, 0.0), np.zeros_like(s)]),
                           np.concatenate([np.where(hit, np.minimum(e, two_pi), 0.0), np.where(wrap, e - two_pi, 0.0)]),
                           0.0, two_pi)
            # the exposed arcs as [i, slot, node], arc by arc as a loop adds; every other slot would add an exact 0
            i, slot, node = np.nonzero(((g1 > g0) & keep).transpose(1, 0, 2))
            t0, t1 = g0[slot, i, node], g1[slot, i, node]
            green = 0.5 * (X[i, node] * a * (np.sin(t1) - np.sin(t0)) - Y[i, node] * a * (np.cos(t1) - np.cos(t0))
                           + a * a * (t1 - t0))
            total = np.bincount(node, green, X.shape[1])  # adds each node's arcs in the order given
            return np.where(keep.sum(axis=0) == 1, math.pi * a * a, total)

        return _chunked(chunk, C, 2 * n * n)

    def intersection_areas(self, C: np.ndarray) -> np.ndarray:
        """Area of n_i (c_i - K) for each row of points C (N, n, 2), by Green's sum over arcs in the others.

        Circle i's arc inside disc j spans +- acos(|w| / 2a) <= pi / 2 about the direction of w = c_j - c_i,
        so its arcs inside the other discs meet in one interval, found without a sort: each lies within pi
        of its arc inside the first other disc.  The interval starts where one arc starts and ends where one
        ends, at c_i + w (1/2 -+ i sqrt(a^2 - |w|^2 / 4) / |w|) as complex numbers, so Green's sum needs no
        sine.  Centres within the dedupe tolerance of an earlier kept one drop out, as in
        :meth:`union_areas`.  The area is pi a^2 where one centre is kept, and exactly 0 where two kept
        centres lie 2a or more apart.
        """
        a = self.radius
        n = C.shape[1]
        if n == 1:
            return np.full(len(C), math.pi * a * a)
        I, J = np.triu_indices(n, 1)
        pid = np.zeros((n, n), dtype=np.intp)  # the pair of two centres
        pid[I, J] = pid[J, I] = np.arange(len(I))
        other = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)  # (n, n - 1)
        sides = pid[np.arange(n)[:, None], other]
        sign = np.where(other < np.arange(n)[:, None], -1.0, 1.0)[:, :, None]  # c_i is its pair's later centre

        def chunk(C):
            X, Y = np.ascontiguousarray(C.transpose(2, 1, 0))  # (n, N): one row per centre
            X, Y = X - X[0], Y - Y[0]  # the area is translation invariant; small coordinates keep Green's sum exact
            d = (X[J] - X[I]) + 1j * (Y[J] - Y[I])  # c_j - c_i for each pair i < j
            dist = np.abs(d)
            keep = np.ones(X.shape, dtype=bool)  # centre i lies farther than the tolerance from earlier kept ones
            for i in range(1, n):
                keep[i] = ~np.any((dist[pid[i, :i]] <= _DEDUPE_TOL * a) & keep[:i], axis=0)
            half = np.arccos(np.minimum(dist / (2.0 * a), 1.0))[sides]  # [i, q]: the q-th other disc of circle i
            rise = (np.sqrt(np.maximum(a * a - 0.25 * dist * dist, 0.0)) / np.where(dist > 0.0, dist, 1.0))[sides]
            w = d[sides] * sign
            bound = keep[:, None] & keep[other]  # a kept disc bounds a kept circle
            ref = w[:, -1]  # the direction of the first other kept disc
            for q in range(n - 3, -1, -1):
                ref = np.where(bound[:, q], w[:, q], ref)
            rel = np.angle(w * ref[:, None].conj())
            lo = np.where(bound, rel - half, -math.inf)
            hi = np.where(bound, rel + half, math.inf)
            l, h, wl, wh, rl, rh = lo[:, 0], hi[:, 0], w[:, 0], w[:, 0], rise[:, 0], rise[:, 0]
            for q in range(1, n - 1):  # the latest start and the earliest end, and the arcs they come from
                up, down = lo[:, q] > l, hi[:, q] < h
                l, wl, rl = np.where(up, lo[:, q], l), np.where(up, w[:, q], wl), np.where(up, rise[:, q], rl)
                h, wh, rh = np.where(down, hi[:, q], h), np.where(down, w[:, q], wh), np.where(down, rise[:, q], rh)
            chord = wh * (0.5 + 1j * rh) - wl * (0.5 - 1j * rl)  # from the arc's start to its end
            arc = bound.any(axis=1) & (h > l)  # a dropped centre has no arc
            green = np.where(arc, 0.5 * (X * chord.imag - Y * chord.real + a * a * (h - l)), 0.0)
            apart = np.any(keep[I] & keep[J] & (dist >= 2.0 * a), axis=0)
            return np.where(keep.sum(axis=0) == 1, math.pi * a * a, np.where(apart, 0.0, _rowsum(green)))

        return _chunked(chunk, C, 2 * n * (n - 1))  # complex temporaries (n, n - 1) count twice


class ConvexPolygon(CrossSection):
    """Convex polygon base, counterclockwise vertices, circumcentre at the origin.

    The constructor validates convexity and orientation and recentres the
    vertices so the centre of the smallest enclosing circle sits at the
    origin, which is the canonical placement for cylinder bases.
    """

    dim, radial = 2, False
    tag, field, param_shape = "polygon", "vertices", (-1, 2)
    __slots__ = ("vertices", "_normals", "_offsets", "_widths", "_sides", "area", "boundary", "circumradius",
                 "reach", "_corner", "_shortest")

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        for x in np.asarray(vertices, dtype=object).ravel():
            number(x, "polygon vertex coordinates")
        edges = np.roll(V, -1, axis=0) - V
        lengths = np.linalg.norm(edges, axis=1)
        if np.any(lengths < GEOM_TOL):
            raise ValueError("polygon has a degenerate (zero-length) edge")
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        scale = float(np.max(np.abs(V))) or 1.0
        if np.any(cross < -GEOM_TOL * scale ** 2):
            raise ValueError("polygon must be convex and counterclockwise")
        area = 0.5 * float(np.sum(V[:, 0] * np.roll(V[:, 1], -1) - np.roll(V[:, 0], -1) * V[:, 1]))
        if area <= GEOM_TOL * scale ** 2:
            raise ValueError("polygon must have positive area")
        centre, radius = _min_enclosing_circle(V)
        V = V - centre
        V.flags.writeable = False
        self.vertices = V
        self.area = area
        self.boundary = float(np.sum(lengths))
        self.circumradius = radius
        # outward edge normals: inside means n . x <= b for every edge
        n = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        b = np.einsum("ij,ij->i", n, V)
        width = b - np.min(n @ V.T, axis=1)  # K's width along each edge normal
        for a in (n, b, width):
            a.flags.writeable = False
        self._normals = n
        self._offsets = b
        self._widths = width
        # clip tables: side g bounds the edge line f of {x : n_g . x <= H_g}, x = H_f n_f + s d_f, where
        # s A[f, g] <= H_g - H_f B[f, g]; per edge, the sides it enters, then those it leaves, then its opposites
        A, B = np.column_stack([-n[:, 1], n[:, 0]]) @ n.T, n @ n.T
        par = np.abs(A) <= 1e-12
        sides = [(f, np.concatenate([np.flatnonzero(~par[f] & (A[f] < 0.0)), np.flatnonzero(~par[f] & (A[f] > 0.0))]))
                 for f in range(len(n)) if not np.any(par[f, :f] & (B[f, :f] > 0.0))]  # a repeated normal adds no edge
        self._sides = tuple((f, g, A[f, g, None], B[f, g, None], int(np.sum(A[f, g] < 0.0)),
                             np.flatnonzero(par[f] & (B[f] < 0.0))) for f, g in sides)
        # an edge line moved out by t moves a corner out by t / cos(theta / 2), theta the turn of the normals there
        self._corner = 1.0 / math.sqrt(0.5 * (1.0 + float(np.min(np.sum(n * np.roll(n, 1, axis=0), axis=1)))))
        self._shortest = float(np.min(lengths))
        self.reach = radius + GEOM_TOL * self._corner

    @property
    def diameter(self) -> float:
        V = self.vertices
        d2 = np.sum((V[:, None, :] - V[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(np.max(d2)))

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        vals = u @ self._normals.T - self._offsets
        return np.all(vals <= GEOM_TOL, axis=-1)

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        inside = self.contains(u)
        V = self.vertices
        W = np.roll(V, -1, axis=0)
        x, y = u[..., 0], u[..., 1]
        best = np.full(u.shape[:-1], np.inf)
        for (ax, ay), (bx, by) in zip(V, W):  # edge by edge, in elementwise products that round alike for any n
            ex, ey = bx - ax, by - ay
            tt = np.clip(((x - ax) * ex + (y - ay) * ey) / (ex * ex + ey * ey), 0.0, 1.0)
            gx, gy = x - (ax + tt * ex), y - (ay + tt * ey)
            best = np.minimum(best, np.sqrt(gx * gx + gy * gy))
        return np.where(inside, 0.0, best)[()]

    def _clip(self, H):
        """Span (lo, hi) of each edge line f of {x : n_g . x <= H_g}, H (m, ...), by Cyrus-Beck.

        The span is along d_f, n_f turned counterclockwise by a right angle.  An opposite parallel side g
        empties line f unless H_f + H_g >= 0; a repeated normal spans (0, 0).
        """
        shape, H = H.shape, H.reshape(len(H), -1)
        lo, hi = np.zeros_like(H), np.zeros_like(H)
        for f, g, a, b, enter, opposite in self._sides:  # a single side needs no reduction, and no opposite no test
            r = (H[g] - b * H[f]) / a
            lo[f] = r[0] if enter == 1 else np.max(r[:enter], axis=0)
            hi[f] = r[enter] if enter == len(g) - 1 else np.min(r[enter:], axis=0)
            if len(opposite):
                hi[f][np.any(H[opposite] + H[f] < 0.0, axis=0)] = -np.inf
        return lo.reshape(shape), hi.reshape(shape)

    def covariogram(self, t):
        """Area of K n (K + t) for lags t (..., 2): the two-row view of :meth:`intersection_areas`, at -K and -t - K."""
        t = np.asarray(t, dtype=float)
        C = np.zeros((t.size // 2, 2, 2))
        C[:, 1] = -t.reshape(-1, 2)
        return self.intersection_areas(C).reshape(t.shape[:-1])[()]

    def intersection_areas(self, C: np.ndarray) -> np.ndarray:
        """Area of n_i (c_i - K) for each row of points C (N, n, 2): 1/2 sum_f H_f |edge f| of one clip.

        The negated set is n_i (K - c_i) = {x : n_f . x <= H_f}, H_f = b_f - max_i n_f . c_i.  The area is
        exactly 0 where the spread of the n_f . c_i reaches K's width along an edge normal n_f.
        """
        n, m = C.shape[1], len(self._offsets)
        if n == 1:
            return np.full(len(C), self.area)
        nx, ny = self._normals.T[:, :, None]

        def chunk(C):  # elementwise products, and a sum side by side, round alike for any number of rows
            X, Y = C.transpose(2, 1, 0)  # (n, N): one row per translate
            # the area is translation invariant: the first translate moves to the origin, where n_f . c is 0
            top = bottom = 0.0
            for x, y in zip(X[1:] - X[0], Y[1:] - Y[0]):
                p = nx * x + ny * y
                top, bottom = np.maximum(top, p), np.minimum(bottom, p)
            H = self._offsets[:, None] - top
            lo, hi = self._clip(H)
            area = np.maximum(0.5 * _rowsum(H * np.maximum(hi - lo, 0.0)), 0.0)
            return np.where(np.any(top - bottom >= self._widths[:, None], axis=0), 0.0, area)

        return _chunked(chunk, C, max(m, n))

    def covariogram_derivative(self, u):
        """gamma'(o, u) for unit u (..., 2): minus the width of K's shadow on the line orthogonal to u."""
        u = np.asarray(u, dtype=float)
        perp = np.stack([-u[..., 1], u[..., 0]], axis=-1).reshape(-1, 2)
        # one zero row more keeps even a single u on the matrix-matrix product, which rounds every row alike
        shadow = (np.vstack([perp, np.zeros(2)]) @ self.vertices.T)[:-1]
        return -(shadow.max(axis=1) - shadow.min(axis=1)).reshape(u.shape[:-1])[()]

    def ray_radius(self, length: float) -> float:
        """The circumradius, widened by how far past an edge the clip lets a line parallel to it pass.

        That is GEOM_TOL plus the drift of a parallel line over the probe,
        over the edge length, widened at the sharpest corner.
        """
        return self.circumradius + (GEOM_TOL + length * _TANGENT_TOL) / self._shortest * self._corner

    def clipped_intervals(self, u0: np.ndarray, w: np.ndarray, length: float):
        """The non-empty intervals in [0, length] of the lines u0 + t w (c, n, 2) through the polygon.

        Returns (flat index into (c, n), t_in, t_out), in index order.  Every
        line is clipped edge by edge (Cyrus-Beck); the ray kernel passes only
        the lines within ``ray_radius`` of the centre.
        """
        u0, w = (np.ascontiguousarray(x.reshape(-1, 2)) for x in (u0, w))
        E = np.roll(self.vertices, -1, axis=0) - self.vertices
        lo = np.full(len(u0), -np.inf)
        hi = np.full(len(u0), np.inf)
        ok = np.ones(len(u0), dtype=bool)
        for n_e, q in zip(np.column_stack([E[:, 1], -E[:, 0]]), self.vertices):
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
        return _clipped(np.arange(len(u0)), lo, hi, length)

    def meets_zonotope(self, gens: np.ndarray, centre: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Separating-axis test of the polygon at each ``off`` against the zonogon at ``centre`` spanned by gens.

        The candidate axes are the zonogon's edge normals (those of the
        generators) and the polygon's own; the sets are closed.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero generator (an axis along a box edge) gives a NaN axis, which separates nothing
            normals = np.stack([gens[..., 1], -gens[..., 0]], axis=-1)
            normals = normals / np.linalg.norm(normals, axis=-1, keepdims=True)
        p = off - centre
        axes = np.concatenate([normals, np.broadcast_to(self._normals, (len(p), *self._normals.shape))], axis=1)
        half = 0.5 * np.sum(np.abs(np.matmul(axes, gens.transpose(0, 2, 1))), axis=2)
        proj = np.matmul(axes, self.vertices.T) + np.matmul(axes, p[:, :, None])
        apart = (proj.min(axis=2) > half + GEOM_TOL) | (-half > proj.max(axis=2) + GEOM_TOL)
        return ~np.any(apart, axis=1)

    def union_areas(self, C: np.ndarray) -> np.ndarray:
        """Area of union_i (c_i - K) for each row of points C (N, n, 2): 1/2 sum_{i,f} H_if |exposed edge f of i|.

        c_i - K = {x : -n_f . x <= H_if = b_f - n_f . c_i} has K's clip tables.  The clip of a pair i < j at
        min(H_i, H_j) covers edge f of the translate inner there; a tie within the dedupe tolerance goes to
        the lower index, so a shared stretch of one orientation counts once, while touching opposite edges
        cover each other.  One sort-and-sweep per (f, i) leaves the exposed length.
        """
        n, m = C.shape[1], len(self._offsets)
        I, J = np.triu_indices(n, 1)
        slots = np.argsort(np.concatenate([I, J]), kind="stable").reshape(n, n - 1)  # i's pieces of the 2P
        gather = np.arange(m)[:, None], slots.T[:, None]  # pieces (n - 1, f, i) of the (f, 2P) tables
        nx, ny = self._normals.T[:, :, None, None]

        def chunk(C):
            X, Y = np.ascontiguousarray(C.transpose(2, 1, 0))  # (n, N): one row per translate
            X, Y = X - X[0], Y - Y[0]  # the area is translation invariant; small coordinates keep Green's sum exact
            H = self._offsets[:, None, None] - (nx * X + ny * Y)  # [f, i, node]
            lo, hi = self._clip(np.concatenate([H, np.minimum(H[:, I], H[:, J])], axis=1))
            inner = H[:, I] < H[:, J] - _DEDUPE_TOL * self.circumradius
            s, e = np.where(lo[:, n:] < hi[:, n:], lo[:, n:], np.inf), hi[:, n:]  # an empty clip covers nothing
            s = np.concatenate([np.where(inner, s, np.inf), np.where(inner, np.inf, s)], axis=1)
            g0, g1 = _gaps(s[gather], np.concatenate([e, e], axis=1)[gather], lo[:, :n], hi[:, :n])
            exposed = np.sum(g1 - g0, axis=0)
            return 0.5 * _rowsum(_rowsum(H * exposed))  # side by side, then i by i

        return _chunked(chunk, C, m * n * n)


SHAPE_TYPES = {cls.tag: cls for cls in (Segment, Disc, ConvexPolygon)}


def shape_from_params(tag: str, values):
    """The cross section written under ``tag`` with the flat parameter list ``values``."""
    if tag not in SHAPE_TYPES:
        raise ValueError(f"unknown shape tag {tag!r}")
    cls = SHAPE_TYPES[tag]
    return cls(np.reshape(values, cls.param_shape).tolist())


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------

def _min_enclosing_circle(V):
    """Smallest circle containing all points; brute force over pairs and triples."""
    V = np.asarray(V, dtype=float)
    n = len(V)
    scale = float(np.max(np.abs(V))) or 1.0
    tol = 1e-10 * scale

    def covers(c, r):
        return bool(np.all(np.linalg.norm(V - c, axis=1) <= r + tol))

    best_c, best_r = None, np.inf
    for i in range(n):
        for j in range(i + 1, n):
            c = 0.5 * (V[i] + V[j])
            r = 0.5 * float(np.linalg.norm(V[i] - V[j]))
            if r < best_r and covers(c, r):
                best_c, best_r = c, r
    if best_c is not None:
        return best_c, best_r
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                c = _circumcentre(V[i], V[j], V[k])
                if c is None:
                    continue
                r = float(np.linalg.norm(V[i] - c))
                if r < best_r and covers(c, r):
                    best_c, best_r = c, r
    if best_c is None:
        raise ValueError("could not compute the enclosing circle")
    return best_c, best_r


def _circumcentre(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-14 * np.max(np.abs([a, b, c])) ** 2:  # relative: twice the area against the squared extent
        return None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])


# ---------------------------------------------------------------------------
# kernels behind the shape methods: window shadows, unions of translates
# ---------------------------------------------------------------------------

def _zonogon_distance(gens: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each point p to the centred zonogon spanned by its three generators."""
    # orient the generators into the upper half plane and sort them by angle;
    # adding them in turn, then subtracting them, walks the boundary ccw
    flip = (gens[..., 1] < 0) | ((gens[..., 1] == 0) & (gens[..., 0] < 0))
    g = np.where(flip[..., None], -gens, gens)
    order = np.argsort(np.arctan2(g[..., 1], g[..., 0]), axis=1)
    g = np.take_along_axis(g, order[..., None], axis=1)
    edges = np.concatenate([g, -g], axis=1)  # (N, 6, 2)
    starts = np.cumsum(edges, axis=1) - edges - 0.5 * g.sum(axis=1)[:, None, :]
    q = p[:, None, :] - starts
    cross = edges[..., 0] * q[..., 1] - edges[..., 1] * q[..., 0]
    inside = np.all(cross >= 0.0, axis=1)
    ee = np.sum(edges * edges, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ee > 0.0, np.clip(np.sum(q * edges, axis=2) / ee, 0.0, 1.0), 0.0)
    gap = q - t[..., None] * edges
    dist = np.sqrt(np.min(np.sum(gap * gap, axis=2), axis=1))
    return np.where(inside, 0.0, dist)


def _clipped(index: np.ndarray, lo: np.ndarray, hi: np.ndarray, length: float):
    """(index, t_in, t_out) of the intervals [lo, hi] that keep a positive length when clipped to [0, length]."""
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, length)
    keep = np.flatnonzero(hi - lo > 0.0)
    return index[keep], lo[keep], hi[keep]


def _chunked(kernel, C: np.ndarray, per_node: int) -> np.ndarray:
    """kernel over chunks of the rows of C whose temporaries stay under _CHUNK elements."""
    step = max(1, _CHUNK // per_node)
    return np.concatenate([kernel(C[a:a + step]) for a in range(0, len(C), step)])


def _scan(ufunc, a, reverse: bool = False):
    """Running ``ufunc`` (np.maximum or np.minimum) down the rows of a, or up them when ``reverse``, in place.

    Bit for bit ``ufunc.accumulate(a, axis=0)`` (of ``a[::-1]``, read back
    reversed): each step is ufunc(running row, next row).  A loop over rows
    runs each step over a whole row, where numpy's accumulate over a short
    axis 0 runs column by column.
    """
    step = 1 if reverse else -1
    for k in range(len(a) - 2, -1, -1) if reverse else range(1, len(a)):
        ufunc(a[k + step], a[k], out=a[k])
    return a


def _rowsum(a):
    """The rows of a added one after another, by a loop over rows: ``np.cumsum(a, axis=0)[-1]`` bit for bit."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _sweep(s, e, lo, hi, tol: float = _JOIN_TOL):
    """Sort pieces [s, e] along axis 0 by start, after clipping them to [lo, hi]: the interval union.

    The pieces of one union lie on axis 0 and the unions side by side on
    the axes after it; lo and hi are numbers, or arrays that broadcast
    against one piece's slot s[0], with the bounds of each union.

    Returns the sorted starts, the running maximum R of the ends before
    each piece (from lo, with one more entry after the last piece), and
    whether each piece starts a new covered run (s > R + tol).  Pieces
    outside [lo, hi] become empty pieces at lo, which change nothing.
    Start and end sort together as one complex number, so tied starts come
    in the order of their ends; that moves only where an empty slot falls.
    """
    inside = (e > lo) & (s < hi)
    z = np.empty(s.shape, dtype=complex)
    z.real = np.where(inside, np.maximum(s, lo), lo)
    z.imag = np.where(inside, np.minimum(e, hi), lo)
    z.sort(axis=0)
    s = z.real
    R = _scan(np.maximum, np.concatenate([np.broadcast_to(lo, (1, *s.shape[1:])), z.imag]))
    return s, R, s > R[:-1] + tol


def _run_ends(new, R):
    """For each sorted piece of :func:`_sweep`, the end of the covered run it belongs to."""
    # a run ends at R where the next run starts (or after the last piece)
    ends = np.where(np.concatenate([new[1:], np.ones_like(new[:1])]), R[1:], math.inf)
    return _scan(np.minimum, ends, reverse=True)


def _gaps(s, e, lo, hi):
    """Pieces of [lo, hi] the pieces [s, e] (axis 0) leave uncovered, in order, as (start, end) arrays.

    One slot before each sorted piece and one after the last; a slot
    without a gap has start == end.
    """
    s, R, new = _sweep(s, e, lo, hi)
    last = R[-1:]
    return R, np.concatenate([np.where(new, s, R[:-1]), np.where(last < hi - _JOIN_TOL, hi, last)])
