"""Stationary Poisson cylinder process descriptions.

A process is fixed by the ambient dimension d, the flat dimension k of the
cylinder axes, the intensity (expected cylinders per unit (d-k)-volume of
position space), a directional law for the axes, and a base law for the
cross sections.  The directional law is stated on the vector identifying
the direction space: the axis direction when k = 1, the normal when
k = d - 1; :meth:`ProcessSpec.subspace_frames` alone turns it into the
complement frame.  Base sets are centred so the circumcentre sits at the
origin of that frame, and the base law does not depend on the sampled
direction.

Each directional law owns what depends on its kind: its draws and its
quadrature.  The continuous laws integrate over their one line-angle
``arc`` in the plane and over the ``nodes`` of a product Gauss-Legendre
rule in space.  Every law gives the complement ``frames`` and weights of
those nodes (or of its fixed axes), one ``radial_mean``, the mean of
f(|Pr h|) over its direction spaces, split at the kinks of f, and one
``union_mean``, the mean of a function of a point set's projections
onto the complement: over the arc, split where a projected gap meets
a target, for a continuous law in the plane, and otherwise as one dot
of the frames' weights with f.  Every law builds the frames of
its ``nodes`` (a product rule, or the fixed axes themselves) once per
rule and k and holds them read-only for every later call, while a
continuous law's ``nodes`` builds the rule anew on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euclid import (
    NORM_TOL,
    SHAPE_TYPES,
    CrossSection,
    Direction,
    Disc,
    _angle_breakpoints,
    _piecewise_gl,
    canonical_directions,
    complement_frames,
    gauss_legendre,
    number,
)

__all__ = [
    "ArgumentError",
    "ConfigError",
    "check_fields",
    "real",
    "reals",
    "direction",
    "haar_vectors",
    "RadiusLaw",
    "Isotropic",
    "FixedAxes",
    "GirdleBand",
    "BaseDistribution",
    "DeterministicBase",
    "DiscRadiusLaw",
    "MixtureBase",
    "ProcessSpec",
    "spec_to_dict",
    "spec_from_dict",
]


# ---------------------------------------------------------------------------
# radius law
# ---------------------------------------------------------------------------

def _check_weights(weights) -> None:
    """Require the weights of a discrete law, numbers already, to be positive and to sum to 1 within 1e-12."""
    if not all(w > 0 for w in weights):
        raise ValueError("weights must be positive")
    if abs(sum(weights) - 1.0) > NORM_TOL:
        raise ValueError("weights must sum to 1 within 1e-12")


@dataclass(frozen=True)
class RadiusLaw:
    """Discrete law of a disc radius: atoms ((r_1, q_1), ...), q_i > 0, sum q_i = 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((number(r, "radius"), number(q, "weight")) for r, q in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("radius law needs at least one atom")
        radii = [r for r, _ in atoms]
        if not all(r >= 0 for r in radii):
            raise ValueError("radii must be nonnegative")
        if len(set(radii)) != len(radii):
            raise ValueError("radii must be distinct")
        _check_weights([q for _, q in atoms])

    @property
    def mean(self) -> float:
        return sum(r * q for r, q in self.atoms)

    @property
    def second_moment(self) -> float:
        return sum(r * r * q for r, q in self.atoms)

    @property
    def max_radius(self) -> float:
        return max(r for r, _ in self.atoms)


# ---------------------------------------------------------------------------
# directional distributions
# ---------------------------------------------------------------------------

def haar_vectors(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-uniform unit vectors in R^d, not canonicalized.

    In the plane the angle is drawn on [0, pi), in space (z, phi) on the
    cylinder [-1, 1] x [0, 2 pi) (Archimedes).  Callers that need line
    directions canonicalize the rows; callers that orient probes keep them.
    """
    if d == 2:
        phi = rng.uniform(0.0, math.pi, n)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _zone_nodes(axis: np.ndarray, frame: np.ndarray, lo: float, hi: float, nz: int, nphi: int):
    """Product Gauss-Legendre rule for the Haar law on the zone lo <= <u, axis> <= hi of the sphere in R^3.

    Returns the directions (nz * nphi, 3) and their weights; ``frame``
    spans the plane orthogonal to the axis.
    """
    z, wz = gauss_legendre(nz, lo, hi)
    phi, wphi = gauss_legendre(nphi, 0.0, 2.0 * math.pi)
    zz, pp = np.meshgrid(z, phi, indexing="ij")
    ww = np.outer(wz, wphi) / ((hi - lo) * 2.0 * math.pi)
    rad = np.sqrt(np.maximum(0.0, 1.0 - zz**2))
    rc, rs = rad * np.cos(pp), rad * np.sin(pp)
    dirs = np.stack([zz * a + rc * f0 + rs * f1 for a, (f0, f1) in zip(axis, frame)], axis=-1)
    return dirs.reshape(-1, 3), ww.reshape(-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_POLE = np.array([0.0, 0.0, 1.0])
_POLE_FRAME = complement_frames(_POLE[None])[0]


class _HeldFrames:
    """A directional law whose quadrature ``nodes()``, directions and weights, are framed once per ``rule`` and k."""

    rule = None  # a law with a product rule names its sizes here

    def __init__(self):
        self._held = {}  # (rule, k) -> read-only frames and weights

    def frames(self, spec):
        """Complement frames (N, d, d - k) of the law's nodes, and their weights, both read-only.

        The nodes are not canonicalized, which would flip some slab frames.
        They are built on the first call for each ``rule`` and k, and held.
        """
        key = (self.rule, spec.k)
        if key not in self._held:
            dirs, ww = self.nodes()
            self._held[key] = _read_only(spec.subspace_frames(dirs)), _read_only(ww)
        return self._held[key]

    def union_mean(self, spec, pts: np.ndarray, f, targets) -> float:
        """The one frame sum: E over the frames of f(the points projected onto each), f (N, n, d - k) -> N values."""
        frames, ww = self.frames(spec)
        return float(ww @ f(np.matmul(pts, frames)))


class _ContinuousLaw(_HeldFrames):
    """A directional law with a density: integrated over its 2-D arc or its 3-D product rule.

    Each law supplies ``arc``, the line-angle interval (lo, hi, density)
    that carries it in the plane, ``nodes()``, its product rule in space,
    and ``_radial_mean_3d``.
    """

    def radial_mean(self, spec, h: np.ndarray, r: float, f, targets) -> float:
        """E over the law of f(|Pr h|), Pr the projection onto the complement of the direction space.

        r is the length of the lag h, passed so that a unit lag counts as
        exactly 1.  f is vectorized and kinks where its argument meets one
        of the targets; the rules are split there.
        """
        if spec.d == 3:
            return self._radial_mean_3d(spec.k, h, r, f, targets)
        psi = math.atan2(-h[0], h[1])  # <h, normal(phi)> = r cos(phi - psi)
        lo, hi, dens = self.arc
        brk = _angle_breakpoints(r, psi, targets, lo, hi)
        return dens * _piecewise_gl(lambda phi: f(r * np.abs(np.cos(phi - psi))), lo, hi, brk)

    def union_mean(self, spec, pts: np.ndarray, f, targets) -> float:
        """E over the law of f(the points projected onto the complement), f mapping (N, n, d - k) to N values.

        In space the product rule's frames are summed.  In the plane the
        arc is integrated, split where a projected pairwise gap meets one
        of the targets (a gap of 0 has no kink).
        """
        if spec.d == 3:
            return super().union_mean(spec, pts, f, targets)
        gaps = [(float(np.linalg.norm(dv)), math.atan2(-dv[0], dv[1]))
                for dv in (pts[i] - pts[j] for i in range(len(pts)) for j in range(i))]

        def g(phis):
            normals = np.column_stack([-np.sin(phis), np.cos(phis)])
            return f(np.matvec(pts, normals)[:, :, None])

        lo, hi, dens = self.arc
        brk = [b for rr, psi in gaps for b in _angle_breakpoints(rr, psi, targets, lo, hi)]
        return dens * _piecewise_gl(g, lo, hi, brk, n=32)


class Isotropic(_ContinuousLaw):
    """Haar-uniform directional law."""

    rule = (64, 128)  # z and azimuth nodes of the product rule on the upper hemisphere
    arc = (0.0, math.pi, 1.0 / math.pi)

    def sample_vectors(self, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
        return canonical_directions(haar_vectors(d, rng, n))

    def nodes(self):
        return _zone_nodes(_POLE, _POLE_FRAME, 0.0, 1.0, *self.rule)

    def _radial_mean_3d(self, k: int, h, r: float, f, targets) -> float:
        if k == 1:  # |Pr h| = r sin(theta), theta the angle between h and the axis
            brk = [math.asin(min(1.0, t / r)) for t in targets if t < r]
            return _piecewise_gl(lambda theta: f(r * np.sin(theta)) * np.sin(theta), 0.0, 0.5 * math.pi, brk)
        # k = 2: |Pr h| = r z, with z = |<h / r, normal>| uniform on [0, 1]
        return _piecewise_gl(lambda z: f(r * z), 0.0, 1.0, [t / r for t in targets if t < r])

    def __repr__(self):
        return "Isotropic()"


class FixedAxes(_HeldFrames):
    """Discrete directional law on finitely many axes with positive weights, summed over their frames."""

    def __init__(self, axes):
        super().__init__()
        pairs = tuple((a if isinstance(a, Direction) else Direction(a), number(w, "weight")) for a, w in axes)
        if not pairs:
            raise ValueError("at least one axis required")
        dims = {a.dim for a, _ in pairs}
        if len(dims) != 1:
            raise ValueError("all axes must share one ambient dimension")
        _check_weights([w for _, w in pairs])
        self.axes = pairs
        self._vecs = np.array([a.vec for a, _ in pairs])
        self._weights = _read_only(np.array([w for _, w in pairs]))

    @property
    def dim(self) -> int:
        return self.axes[0][0].dim

    def sample_vectors(self, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
        if d != self.dim:
            raise ValueError("dimension mismatch")
        if len(self.axes) == 1:  # one axis draws nothing, as a one-atom base law
            return self._vecs[np.zeros(n, dtype=np.intp)]
        return self._vecs[rng.choice(len(self.axes), size=n, p=self._weights)]

    def nodes(self):
        """The axes (N, d) and their weights: the law's own quadrature."""
        return self._vecs, self._weights

    def radial_mean(self, spec, h: np.ndarray, r: float, f, targets) -> float:
        """E over the law of f(|Pr h|), the one-point view of ``union_mean``; r matters to integrated laws only."""
        return self.union_mean(spec, h[None], lambda t: f(np.sqrt(np.vecdot(t[:, 0], t[:, 0]))), targets)

    def __repr__(self):
        return f"FixedAxes({[(a.vec.tolist(), w) for a, w in self.axes]})"


class GirdleBand(_ContinuousLaw):
    """Directions within latitude delta of the great circle orthogonal to ``axis``.

    Every sampled vector u satisfies |<u, axis>| <= sin(delta); the law is
    the Haar measure restricted to that band.
    """

    rule = (48, 96)  # z and azimuth nodes of the product rule on the band

    def __init__(self, axis, delta: float):
        super().__init__()
        self.axis = axis if isinstance(axis, Direction) else Direction(axis)
        self.delta = real("delta", delta)
        if not 0.0 < self.delta <= 0.5 * math.pi:
            raise ArgumentError("delta", "band half-width delta must lie in (0, pi/2]")
        self.frame = complement_frames(self.axis.vec[None])[0]  # d x (d - 1) frame orthogonal to the axis
        c = math.atan2(self.axis.vec[1], self.axis.vec[0]) + 0.5 * math.pi
        self.arc = (c - self.delta, c + self.delta, 1.0 / (2.0 * self.delta))

    @property
    def dim(self) -> int:
        return self.axis.dim

    def sample_vectors(self, d: int, rng: np.random.Generator, n: int) -> np.ndarray:
        if d != self.dim:
            raise ValueError("dimension mismatch")
        if d == 2:
            # angle to the axis within [pi/2 - delta, pi/2 + delta]
            psi = rng.uniform(0.5 * math.pi - self.delta, 0.5 * math.pi + self.delta, n)
            ax = self.axis.vec
            base = math.atan2(ax[1], ax[0])
            u = np.column_stack([np.cos(base + psi), np.sin(base + psi)])
        else:
            s = math.sin(self.delta)
            z = rng.uniform(-s, s, n)
            phi = rng.uniform(0.0, 2.0 * math.pi, n)
            rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            u = (
                z[:, None] * self.axis.vec[None, :]
                + rad[:, None] * (np.cos(phi)[:, None] * self.frame[:, 0] + np.sin(phi)[:, None] * self.frame[:, 1])
            )
        return canonical_directions(u)

    def nodes(self):
        s = math.sin(self.delta)
        return _zone_nodes(self.axis.vec, self.frame, -s, s, *self.rule)

    def _radial_mean_3d(self, k: int, h, r: float, f, targets) -> float:
        if k == 1:  # |Pr h| = r sqrt(1 - dot^2), dot = <h / r, omega>
            xs = {math.sqrt(max(0.0, 1.0 - (t / r) ** 2)) for t in targets if t <= r} | {1.0}
            return self._band_mean(h / r, lambda dot: f(r * np.sqrt(np.maximum(0.0, 1.0 - dot**2))),
                                   sorted({s * x for x in xs for s in (1.0, -1.0)}))
        dot_targets = sorted({s * t / r for t in targets if t <= r for s in (1.0, -1.0)} | {0.0})
        return self._band_mean(h / r, lambda dot: f(r * np.abs(dot)), dot_targets)

    def _band_mean(self, u: np.ndarray, f_of_dot, dot_targets) -> float:
        """Band average of f(<u, omega>) over 96 z nodes, split in azimuth where the dot meets one of the targets."""
        s = math.sin(self.delta)
        c0 = float(u @ self.axis.vec)
        cp = math.hypot(float(u @ self.frame[:, 0]), float(u @ self.frame[:, 1]))
        z_nodes, z_weights = gauss_legendre(96, -s, s)
        total = 0.0
        for z, wz in zip(z_nodes, z_weights):
            amp = math.sqrt(max(0.0, 1.0 - z * z)) * cp
            mid = z * c0
            xs = ((t - mid) / amp for t in dot_targets) if amp > 0.0 else ()
            brk = [math.acos(x) for x in xs if -1.0 <= x <= 1.0]
            total += wz / (2.0 * s) * (1.0 / math.pi) * _piecewise_gl(
                lambda v: f_of_dot(mid + amp * np.cos(v)), 0.0, math.pi, brk)
        return total

    def __repr__(self):
        return f"GirdleBand(axis={self.axis.vec.tolist()}, delta={self.delta})"


DirectionalDistribution = Isotropic | FixedAxes | GirdleBand


# ---------------------------------------------------------------------------
# base distributions
# ---------------------------------------------------------------------------

class BaseDistribution:
    """Discrete law Q of the cross section: atoms ((K_1, q_1), ...), q_i > 0, sum q_i = 1.

    Every formula reads the base only through this law's moments and
    draws.  A ``None`` atom is a disc of radius 0: its cylinder degenerates
    to its axis, carries no volume and is never placed, but keeps its
    weight, which is exactly how the surface budget of the design problem
    accounts for it.  The law lives in the dimension of its atoms, a
    ``None`` counting as planar.  The weights are checked once, by the
    ``RadiusLaw`` of a ``DiscRadiusLaw`` and by ``MixtureBase`` otherwise.
    """

    def __init__(self, atoms):
        atoms = tuple((shape, number(w, "weight")) for shape, w in atoms)
        if not atoms:
            raise ValueError("base law needs at least one atom")
        dims = {2 if shape is None else shape.dim for shape, _ in atoms}
        if len(dims) != 1:
            raise ValueError("the atoms of a base law must share one dimension")
        self._atoms = atoms
        self._weights = np.array([w for _, w in atoms])
        self.dim = dims.pop()

    @property
    def mean_area(self) -> float:
        return sum(w * shape.area for shape, w in self._atoms if shape is not None)

    @property
    def mean_boundary(self) -> float:
        return sum((w * shape.boundary for shape, w in self._atoms if shape is not None), 0.0)

    @property
    def max_circumradius(self) -> float:
        return max(0.0 if shape is None else shape.circumradius for shape, _ in self._atoms)

    @property
    def has_zero_mass(self) -> bool:
        return any(shape is None for shape, _ in self._atoms)

    def atoms(self):
        return self._atoms

    def sample_index(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Indices into :meth:`atoms` of n draws; a one-atom law draws nothing."""
        if len(self._atoms) == 1:
            return np.zeros(n, dtype=np.intp)
        return rng.choice(len(self._atoms), size=n, p=self._weights)

    def __repr__(self):
        return f"{type(self).__name__}({self._atoms!r})"


class DiscRadiusLaw(BaseDistribution):
    """Disc bases whose radius follows a discrete law; a radius-0 atom is a ``None`` atom."""

    def __init__(self, law: RadiusLaw):
        super().__init__((Disc(r) if r > 0 else None, q) for r, q in law.atoms)
        self.law = law


class MixtureBase(BaseDistribution):
    """Finite mixture of fixed cross sections."""

    def __init__(self, components):
        components = tuple(components)
        for shape, _ in components:
            if not isinstance(shape, CrossSection):
                raise ValueError(f"a base shape must be a cross section, got {shape!r}")
        super().__init__(components)
        _check_weights([w for _, w in self._atoms])


class DeterministicBase(MixtureBase):
    """Every cylinder carries the same cross section: the one-component mixture."""

    def __init__(self, shape: CrossSection):
        super().__init__(((shape, 1.0),))
        self.shape = shape


# ---------------------------------------------------------------------------
# process spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """A stationary Poisson cylinder process in R^d.

    intensity is the expected number of cylinders per unit (d-k)-volume of
    the position space.  alpha is the law of the identifying direction
    (axis for k = 1, normal for k = d - 1); base is the cross-section law
    in the canonical complement frame.
    """

    d: int
    k: int
    intensity: float
    alpha: DirectionalDistribution
    base: BaseDistribution

    def __post_init__(self):
        object.__setattr__(self, "d", real("d", self.d, integer=True))
        object.__setattr__(self, "k", real("k", self.k, integer=True))
        object.__setattr__(self, "intensity", real("lambda", self.intensity, minimum=0))
        if self.d not in (2, 3):
            raise ArgumentError("d", "ambient dimension must be 2 or 3")
        if self.k not in (1, self.d - 1) or self.k >= self.d:
            raise ArgumentError("k", "flat dimension must be 1 or d-1 and below d")
        m = self.d - self.k
        if self.base.dim != m:
            raise ArgumentError("base", f"base dimension {self.base.dim} does not match d-k = {m}")
        if getattr(self.alpha, "dim", self.d) != self.d:
            raise ArgumentError("alpha", "directional law lives in the wrong dimension")

    def subspace_frames(self, vecs: np.ndarray) -> np.ndarray:
        """Complement frames (N, d, d - k) of the direction spaces the unit rows (N, d) identify, as given.

        A row spans the line for k = 1, whose frame Gram-Schmidt builds, and
        is the plane's normal, its own frame, for k = d - 1.
        """
        return complement_frames(vecs) if self.k == 1 else vecs[:, :, None]

    def require_positive_volume(self):
        """Enforce the standing assumption 0 < volume fraction < 1."""
        lam_a = self.intensity * self.base.mean_area
        if not lam_a > 0:
            raise ValueError("process is degenerate: intensity * mean base volume must be positive")


# ---------------------------------------------------------------------------
# JSON-facing serialization (schema shared with the command line front end)
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A config field is missing, unknown or malformed; the message starts with its path."""


class ArgumentError(ValueError):
    """An argument is out of range or of the wrong type; ``field`` names it as a config spells it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_fields(doc, path: str, required=(), optional=()) -> None:
    """Require a JSON object holding every required field and no field outside both lists."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}: missing required field '{key}'")
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}: unknown field '{key}'")


def real(field: str, value, minimum: float | None = None, integer: bool = False):
    """``value`` checked by :func:`~cylproc.euclid.number`, or an ArgumentError naming ``field``."""
    try:
        return number(value, minimum=minimum, integer=integer)
    except ValueError as exc:
        raise ArgumentError(field, str(exc)) from exc


def reals(field: str, value, shape: tuple, minimum: float | None = None) -> np.ndarray:
    """``value`` as a float array of ``shape`` (None matches any length), each entry checked by :func:`real`."""
    try:
        items = [real(field, x, minimum) if len(shape) == 1 else reals(field, x, shape[1:], minimum)
                 for x in value]
    except TypeError:  # not a list
        items = None
    if items is None or shape[0] not in (None, len(items)):
        what = "finite numbers"
        for i, n in enumerate(reversed(shape)):
            what = ("a list of " if i == len(shape) - 1 else "lists of ") + ("" if n is None else f"{n} ") + what
        raise ArgumentError(field, f"must be {what}, got {value!r}")
    return np.array(items, dtype=float).reshape(len(items), *shape[1:])


def direction(field: str, value, d: int) -> Direction:
    """``value``, a Direction or a nonzero vector in R^d, as a Direction, or an ArgumentError naming ``field``."""
    if isinstance(value, Direction) and value.dim == d:
        return value
    vec = reals(field, value, (d,))
    try:
        return Direction(vec)
    except ValueError as exc:
        raise ArgumentError(field, str(exc)) from exc


_ALPHA_FIELDS = {"isotropic": (), "fixed_axes": ("axes",), "girdle": ("axis", "delta")}
_SHAPE_FIELDS = {tag: (cls.field,) for tag, cls in SHAPE_TYPES.items()}
_BASE_FIELDS = {**_SHAPE_FIELDS, "disc_radius_law": ("atoms",), "mixture": ("components",)}


def _typed(doc, path: str, fields: dict, what: str) -> str:
    """The "type" of a typed object whose other fields match that type's entry in ``fields``."""
    kind = doc.get("type") if isinstance(doc, dict) else None
    # an unknown type is reported before the fields it would need
    check_fields(doc, path, ("type", *fields.get(kind, ())), doc if kind not in fields else ())
    if kind not in fields:
        raise ConfigError(f"{path}.type: unknown {what} {kind!r}")
    return kind


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError or TypeError re-raised as a ConfigError naming path (and the field)."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except ArgumentError as exc:
        raise ConfigError(f"{path}.{exc.field}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _shape_from_dict(doc, path: str):
    cls = SHAPE_TYPES[_typed(doc, path, _SHAPE_FIELDS, "shape type")]
    return _built(f"{path}.{cls.field}", cls, doc[cls.field])


def spec_to_dict(spec: ProcessSpec) -> dict:
    if isinstance(spec.alpha, Isotropic):
        alpha = {"type": "isotropic"}
    elif isinstance(spec.alpha, FixedAxes):
        alpha = {"type": "fixed_axes", "axes": [{"direction": a.vec.tolist(), "weight": w} for a, w in spec.alpha.axes]}
    else:
        alpha = {"type": "girdle", "axis": spec.alpha.axis.vec.tolist(), "delta": spec.alpha.delta}
    if isinstance(spec.base, DeterministicBase):
        base = {"type": spec.base.shape.tag, spec.base.shape.field: spec.base.shape.param}
    elif isinstance(spec.base, DiscRadiusLaw):
        base = {"type": "disc_radius_law", "atoms": [[r, q] for r, q in spec.base.law.atoms]}
    else:
        base = {
            "type": "mixture",
            "components": [{"weight": w, "shape": {"type": s.tag, s.field: s.param}} for s, w in spec.base.atoms()],
        }
    return {"d": spec.d, "k": spec.k, "lambda": spec.intensity, "alpha": alpha, "base": base}


def spec_from_dict(doc: dict) -> ProcessSpec:
    """Parse a spec document, rejecting missing, unknown and malformed fields with their paths under ``spec``."""
    check_fields(doc, "spec", ("d", "k", "lambda", "alpha", "base"))
    alpha_doc, apath = doc["alpha"], "spec.alpha"
    akind = _typed(alpha_doc, apath, _ALPHA_FIELDS, "directional law")
    if akind == "isotropic":
        alpha = Isotropic()
    elif akind == "fixed_axes":
        axes = []
        for i, ax in enumerate(_built(f"{apath}.axes", list, alpha_doc["axes"])):
            check_fields(ax, f"{apath}.axes[{i}]", ("direction", "weight"))
            axes.append((_built(f"{apath}.axes[{i}].direction", Direction, ax["direction"]), ax["weight"]))
        alpha = _built(f"{apath}.axes", FixedAxes, axes)
    else:
        axis = _built(f"{apath}.axis", Direction, alpha_doc["axis"])
        alpha = _built(apath, GirdleBand, axis, alpha_doc["delta"])

    base_doc, bpath = doc["base"], "spec.base"
    bkind = _typed(base_doc, bpath, _BASE_FIELDS, "base law")
    if bkind == "disc_radius_law":
        base = DiscRadiusLaw(_built(f"{bpath}.atoms", RadiusLaw, base_doc["atoms"]))
    elif bkind == "mixture":
        comps = []
        for i, comp in enumerate(_built(f"{bpath}.components", list, base_doc["components"])):
            cpath = f"{bpath}.components[{i}]"
            check_fields(comp, cpath, ("weight", "shape"))
            comps.append((_shape_from_dict(comp["shape"], f"{cpath}.shape"), comp["weight"]))
        base = _built(f"{bpath}.components", MixtureBase, comps)
    else:
        base = DeterministicBase(_shape_from_dict(base_doc, bpath))
    return _built("spec", ProcessSpec, doc["d"], doc["k"], doc["lambda"], alpha, base)
