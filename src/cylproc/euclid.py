"""Low-dimensional Euclidean primitives.

Exact geometry in R^2 / R^3: directions with antipodal identification,
linear subspaces with deterministic orthonormal frames for their
complements, cross-section shapes (segment, disc, convex polygon) with
exact covariograms, and unit-ball constants.  Everything is immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12   # unit-norm and orthonormality checks
GEOM_TOL = 1e-9    # geometric predicates: membership, clipping
_FRAME_TOL = 1e-7  # Gram-Schmidt residual acceptance threshold


# ---------------------------------------------------------------------------
# directions and subspaces
# ---------------------------------------------------------------------------

def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so that its first coordinate of magnitude > 1e-12 is positive."""
    for x in v:
        if abs(x) > NORM_TOL:
            return v.copy() if x > 0 else -v
    raise ValueError("zero vector has no canonical sign")


def canonical_directions(V) -> np.ndarray:
    """The rows of V as :class:`Direction` stores them, bit for bit, in one pass.

    A row is divided by its norm unless that is within 1e-12 of one, then
    flipped so that its first coordinate of magnitude > 1e-12 is positive.
    """
    V = np.array(V, dtype=float)
    if V.ndim != 2 or V.shape[1] not in (2, 3):
        raise ValueError(f"directions must be vectors in R^2 or R^3, got shape {V.shape}")
    n = np.sqrt(np.vecdot(V, V))  # np.linalg.norm of each row
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
    Canonicalization is idempotent.
    """

    __slots__ = ("_v",)

    def __init__(self, v):
        a = np.asarray(v, dtype=float)
        if a.ndim != 1 or a.size not in (2, 3):
            raise ValueError(f"direction must be a vector in R^2 or R^3, got shape {a.shape}")
        n = float(np.linalg.norm(a))
        if n < NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero vector")
        if abs(n - 1.0) > NORM_TOL:  # keep canonicalization bit-for-bit idempotent
            a = a / n
        a = canonical_sign(a)
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
        return hash(self._v.tobytes())

    def __repr__(self):
        return f"Direction({self._v.tolist()})"


def complement_frames(B: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal bases of the orthogonal complements of span(B[i]) for a stack B (N, d, m).

    Gram-Schmidt over the standard basis in index order, two passes per
    candidate (the second restores orthogonality lost to rounding); a
    candidate is accepted when its residual is comfortably nonzero.  The
    result depends only on span(B[i]) numerically, never on run order or
    on the other rows, which keeps complement coordinates reproducible.
    Every dot product goes through ``np.vecdot``, ``np.vecmat`` or
    ``np.matvec`` on C-contiguous stacks, which round like the scalar
    ``@`` of a one-subspace loop; ``einsum`` or a plain sum would not.
    """
    B = np.ascontiguousarray(B, dtype=float)
    N, d, m = B.shape
    k = d - m
    F = np.zeros((N, d, k))
    count = np.zeros(N, dtype=np.intp)  # columns accepted so far, per row
    for i in range(d):
        todo = count < k
        if not todo.any():
            break
        v = np.zeros((N, d))
        v[:, i] = 1.0
        for _ in range(2):
            v = v - np.matvec(B, np.vecmat(v, B))
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


class Subspace:
    """An m-dimensional linear subspace of R^d, m in {1, 2}, m < d.

    ``basis`` holds orthonormal columns spanning the subspace; ``frame``
    holds the canonical orthonormal basis of the orthogonal complement.
    Cross-section and offset coordinates are always expressed in ``frame``.
    """

    __slots__ = ("basis", "frame")

    def __init__(self, basis):
        B = np.asarray(basis, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        d, m = B.shape
        if d not in (2, 3) or m not in (1, 2) or m >= d:
            raise ValueError(f"subspace must have dimension 1 or 2 inside R^2/R^3, got {m} in R^{d}")
        if not np.allclose(B.T @ B, np.eye(m), atol=NORM_TOL):
            raise ValueError("basis columns must be orthonormal within 1e-12")
        B = B.copy()
        B.flags.writeable = False
        self.basis = B
        F = complement_frames(B[None])[0]
        F.flags.writeable = False
        self.frame = F

    @classmethod
    def line(cls, direction: Direction) -> "Subspace":
        return cls(direction.vec[:, None])

    @classmethod
    def plane_with_normal(cls, normal: Direction) -> "Subspace":
        if normal.dim != 3:
            raise ValueError("planes exist only in R^3")
        return cls(complement_frames(normal.vec[None, :, None])[0])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    def project_onto(self, x):
        x = np.asarray(x, dtype=float)
        return (x @ self.basis) @ self.basis.T

    def complement_coords(self, x):
        """Coordinates, in ``frame``, of the component of x orthogonal to the subspace."""
        return np.asarray(x, dtype=float) @ self.frame

    def embed_complement(self, u):
        """Inverse of :meth:`complement_coords` on the complement."""
        return np.asarray(u, dtype=float) @ self.frame.T

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def project_along(x, subspace: Subspace) -> np.ndarray:
    """Project x along ``subspace`` onto its orthogonal complement.

    Returns coordinates in the complement's canonical frame.  Linear, and
    composing with :meth:`Subspace.embed_complement` is idempotent.
    """
    return subspace.complement_coords(x)


def subspace_det(xi: Subspace, eta: Direction) -> float:
    """Volume of the parallelepiped spanned by an orthonormal basis of xi and eta.

    For two lines this is |sin| of the enclosed angle; for a plane and a
    vector it is |cos| of the angle between the vector and the plane normal.
    Invariant under the antipodal flip of eta.  Always in [0, 1].
    """
    if eta.dim != xi.ambient_dim:
        raise ValueError("dimension mismatch between subspace and direction")
    resid = eta.vec - xi.basis @ (xi.basis.T @ eta.vec)
    return float(np.linalg.norm(resid))


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


@lru_cache(maxsize=None)
def _gl_base(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _gl_base(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def grassmann_average_det(d: int, xi: Subspace) -> float:
    """Average parallelepiped volume [xi', xi] over Haar-random lines xi'.

    By rotation invariance the value does not depend on xi: 2/pi in the
    plane, pi/4 in space.  Computed by quadrature in a frame aligned with
    xi, where the integrand is analytic.
    """
    if d not in (2, 3):
        raise ValueError("only dimensions 2 and 3 are supported")
    if xi.dim != 1 or xi.ambient_dim != d:
        raise ValueError("xi must be a line in R^d")
    return haar_mean_line_det(d)


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

class Segment:
    """Symmetric interval [-a, a]: the base of a band (one-dimensional complement).

    Its "area" is the 1-D length 2a.  The boundary measure counts the two
    endpoints, so ``boundary`` is 2 regardless of the half-length.
    """

    dim = 1
    __slots__ = ("half_length",)

    def __init__(self, half_length: float):
        if not half_length > 0:
            raise ValueError("segment half-length must be positive")
        self.half_length = float(half_length)

    @property
    def area(self) -> float:
        return 2.0 * self.half_length

    @property
    def boundary(self) -> float:
        return 2.0

    @property
    def circumradius(self) -> float:
        return self.half_length

    @property
    def diameter(self) -> float:
        return 2.0 * self.half_length

    def contains(self, u, tol: float = GEOM_TOL):
        u = np.asarray(u, dtype=float)
        return np.abs(u[..., 0]) <= self.half_length + tol

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.abs(u[..., 0]) - self.half_length, 0.0)

    def covariogram(self, t) -> float:
        q = abs(float(np.asarray(t, dtype=float).reshape(-1)[0]))
        return max(0.0, 2.0 * self.half_length - q)

    def covariogram_derivative(self, u=None) -> float:
        # gamma(t) = 2a - |t| near the origin, in either direction
        return -1.0

    def __repr__(self):
        return f"Segment(half_length={self.half_length})"

    def __eq__(self, other):
        return isinstance(other, Segment) and other.half_length == self.half_length

    def __hash__(self):
        return hash(("Segment", self.half_length))


class Disc:
    """Disc of radius a centred at the origin of the complement frame."""

    dim = 2
    __slots__ = ("radius",)

    def __init__(self, radius: float):
        if not radius > 0:
            raise ValueError("disc radius must be positive")
        self.radius = float(radius)

    @property
    def area(self) -> float:
        return math.pi * self.radius ** 2

    @property
    def boundary(self) -> float:
        return 2.0 * math.pi * self.radius

    @property
    def circumradius(self) -> float:
        return self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, u, tol: float = GEOM_TOL):
        u = np.asarray(u, dtype=float)
        return np.einsum("...i,...i->...", u, u) <= (self.radius + tol) ** 2

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.sqrt(np.einsum("...i,...i->...", u, u)) - self.radius, 0.0)

    def covariogram(self, t) -> float:
        """Lens area of two unit-translate discs: 2a^2 acos(q/2a) - (q/2) sqrt(4a^2-q^2)."""
        a = self.radius
        q = float(np.linalg.norm(np.asarray(t, dtype=float)))
        if q >= 2.0 * a:
            return 0.0
        return 2.0 * a * a * math.acos(q / (2.0 * a)) - 0.5 * q * math.sqrt(4.0 * a * a - q * q)

    def covariogram_derivative(self, u=None) -> float:
        return -2.0 * self.radius

    def __repr__(self):
        return f"Disc(radius={self.radius})"

    def __eq__(self, other):
        return isinstance(other, Disc) and other.radius == self.radius

    def __hash__(self):
        return hash(("Disc", self.radius))


class ConvexPolygon:
    """Convex polygon base, counterclockwise vertices, circumcentre at the origin.

    The constructor validates convexity and orientation and recentres the
    vertices so the centre of the smallest enclosing circle sits at the
    origin, which is the canonical placement for cylinder bases.
    """

    dim = 2
    __slots__ = ("vertices", "_normals", "_offsets", "area", "boundary", "circumradius")

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[1] != 2 or V.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        edges = np.roll(V, -1, axis=0) - V
        if np.any(np.linalg.norm(edges, axis=1) < GEOM_TOL):
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
        self.boundary = float(np.sum(np.linalg.norm(edges, axis=1)))
        self.circumradius = radius
        # outward edge normals: inside means n . x <= b for every edge
        n = np.column_stack([edges[:, 1], -edges[:, 0]])
        n = n / np.linalg.norm(n, axis=1, keepdims=True)
        b = np.einsum("ij,ij->i", n, V)
        n.flags.writeable = False
        b.flags.writeable = False
        self._normals = n
        self._offsets = b

    @property
    def diameter(self) -> float:
        V = self.vertices
        d2 = np.sum((V[:, None, :] - V[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(np.max(d2)))

    def contains(self, u, tol: float = GEOM_TOL):
        u = np.asarray(u, dtype=float)
        vals = u @ self._normals.T - self._offsets
        return np.all(vals <= tol, axis=-1)

    def distance(self, u):
        u = np.asarray(u, dtype=float)
        single = u.ndim == 1
        pts = u[None, :] if single else u
        inside = self.contains(pts)
        V = self.vertices
        W = np.roll(V, -1, axis=0)
        best = np.full(pts.shape[:-1], np.inf)
        for a, b in zip(V, W):
            ab = b - a
            tt = np.clip((pts - a) @ ab / float(ab @ ab), 0.0, 1.0)
            proj = a + tt[..., None] * ab
            best = np.minimum(best, np.linalg.norm(pts - proj, axis=-1))
        out = np.where(inside, 0.0, best)
        return float(out[0]) if single else out

    def covariogram(self, t) -> float:
        """Exact area of the polygon intersected with its translate by t."""
        t = np.asarray(t, dtype=float)
        clipped = _clip_convex(self.vertices, self._normals, self._offsets + self._normals @ (-t))
        return _polygon_area(clipped)

    def covariogram_derivative(self, u) -> float:
        """Minus the length of the shadow of the polygon on the line orthogonal to u."""
        u = np.asarray(u, dtype=float)
        perp = np.array([-u[1], u[0]])
        proj = self.vertices @ perp
        return -float(np.max(proj) - np.min(proj))

    def __repr__(self):
        return f"ConvexPolygon({self.vertices.shape[0]} vertices, area={self.area:.6g})"

    def __eq__(self, other):
        return (
            isinstance(other, ConvexPolygon)
            and other.vertices.shape == self.vertices.shape
            and np.array_equal(other.vertices, self.vertices)
        )

    def __hash__(self):
        return hash(("ConvexPolygon", self.vertices.tobytes()))


CrossSection = Segment | Disc | ConvexPolygon


def covariogram(shape, t) -> float:
    """Volume of shape intersected with its translate by t; see the shape classes."""
    return shape.covariogram(t)


def covariogram_derivative_at_origin(shape, u=None) -> float:
    """One-sided derivative of t -> covariogram(t*u) at t = 0+ (always <= 0)."""
    return shape.covariogram_derivative(u)


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------

def _polygon_area(V) -> float:
    if V is None or len(V) < 3:
        return 0.0
    x, y = V[:, 0], V[:, 1]
    return 0.5 * float(np.abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _clip_convex(subject, normals, offsets):
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
    if abs(d) < 1e-14 * max(1.0, np.max(np.abs([a, b, c])) ** 2):
        return None
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])
