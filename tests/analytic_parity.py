"""Analytic values over a grid of specs, written bit for bit, for comparing two checkouts.

    PYTHONPATH=src python3 tests/analytic_parity.py > new.json
    PYTHONPATH=src python3 tests/analytic_parity.py --compare old.json new.json

The first form evaluates covariance and the mean covariogram
E gamma_K(Pr h) at five lags, the two-, three- and
eight-point capacity, the covariance derivative, the specific surface and
the linear and spherical contact distributions at two radii, over disc,
square, triangle, regular hexagon, two radius-law and mixture bases under isotropic, girdle
and fixed-axes laws in space, and over slabs and bands under the same laws:
513 values, each as ``float.hex``.  Eight points put eight or more pieces
on an edge's or a circle's sweep, where a sum over a contiguous axis adds
pairwise and one over an outer axis adds in sequence, so only they show a
reordered sum.  The second radius law is one whose
moments round differently as sum q pi r^2 and as pi sum q r^2.  It
evaluates the grid twice, on the same law objects: the second pass reads
the quadrature frames the first left held, and a value that differs
between the passes is named on stderr and makes the script exit 1
without writing the file.  The second form lists every value that differs between two such files, with
its relative change, and the count of equal values; keys only one file
holds (a grid that grew) are counted, not compared.  It exits 1 when a
shared value differs and 0 otherwise.
"""

import json
import sys

import numpy as np

from cylproc import analytic
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

SQUARE = ConvexPolygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
TRIANGLE = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
_S = 0.5 * 3.0 ** 0.5  # a regular hexagon of circumradius 1: three pairs of opposite parallel edges
HEXAGON = ConvexPolygon([[1.0, 0.0], [0.5, _S], [-0.5, _S], [-1.0, 0.0], [-0.5, -_S], [0.5, -_S]])
LAWS_3D = {
    "iso": Isotropic(),
    "girdle": GirdleBand(Direction([0.0, 0.0, 1.0]), 0.4),
    "fixed": FixedAxes([(Direction([0.0, 0.0, 1.0]), 0.5), (Direction([0.6, 0.0, 0.8]), 0.3),
                        (Direction([0.0, 1.0, 0.0]), 0.2)]),
}
LAWS_2D = {
    "iso": Isotropic(),
    "girdle": GirdleBand(Direction([0.0, 1.0]), 0.4),
    "fixed": FixedAxes([(Direction([1.0, 0.0]), 0.5), (Direction([0.6, 0.8]), 0.5)]),
}
BASES = {
    "disc": DeterministicBase(Disc(1.0)),
    "square": DeterministicBase(SQUARE),
    "triangle": DeterministicBase(TRIANGLE),
    "hexagon": DeterministicBase(HEXAGON),
    "radius_law": DiscRadiusLaw(RadiusLaw(((0.0, 0.2), (0.6, 0.3), (1.1, 0.5)))),
    "radius_pair": DiscRadiusLaw(RadiusLaw(((0.2, 0.5), (0.4, 0.5)))),
    "mixture": MixtureBase([(Disc(0.7), 0.5), (SQUARE, 0.5)]),
}
LAGS = ((0.3, 0.1, 0.2), (0.7, -0.4, 0.5), (1.2, 0.3, -0.6), (2.5, 1.0, 0.3), (0.05, 0.0, 0.9))
POINTS = ((0.0, 0.0, 0.0), (0.4, -0.5, 0.3), (-0.3, 0.2, 0.6))
POINTS8 = POINTS + ((0.7, 0.3, 0.2), (0.2, -0.6, 0.5), (0.9, 0.1, -0.2), (0.1, 0.8, 0.1), (0.6, -0.1, 0.4))
DIRECTION = (1.0, 2.0, 2.0)
RADII = (0.5, 2.0)


def specs():
    for law, alpha in LAWS_3D.items():
        for name, base in BASES.items():
            yield f"{name}_{law}", ProcessSpec(d=3, k=1, intensity=0.1, alpha=alpha, base=base)
        yield f"slab_{law}", ProcessSpec(d=3, k=2, intensity=0.3, alpha=alpha,
                                         base=DeterministicBase(Segment(0.5)))
        yield f"band_{law}", ProcessSpec(d=2, k=1, intensity=0.4, alpha=LAWS_2D[law],
                                         base=DeterministicBase(Segment(0.5)))


def values() -> dict:
    out = {}
    for name, spec in specs():
        d = spec.d
        pts = np.array(POINTS)[:, :d]
        unit = np.array(DIRECTION[:d]) / np.linalg.norm(DIRECTION[:d])
        for h in LAGS:
            out[f"{name}/covariance{list(h[:d])}"] = analytic.covariance(spec, np.array(h[:d]))
            # the mean covariogram itself: the covariance rounds most of its last digits away
            out[f"{name}/mean_covariogram{list(h[:d])}"] = analytic._expect_gamma(spec, np.array(h[:d]))
        out[f"{name}/capacity2"] = analytic.capacity_finite(spec, pts[:2])
        out[f"{name}/capacity3"] = analytic.capacity_finite(spec, pts)
        out[f"{name}/capacity8"] = analytic.capacity_finite(spec, np.array(POINTS8)[:, :d])
        out[f"{name}/covariance_derivative"] = analytic.covariance_derivative(spec, unit)
        out[f"{name}/specific_surface"] = analytic.specific_surface(spec)
        for r in RADII:
            out[f"{name}/linear_cdf[{r}]"] = analytic.linear_cdf(spec, Direction(unit), r)
            out[f"{name}/spherical_cdf[{r}]"] = analytic.spherical_cdf(spec, r)
    return {key: float(v).hex() for key, v in out.items()}


def compare(old_path: str, new_path: str) -> bool:
    """Print what differs between two files; True when every shared key is equal."""
    old, new = (json.loads(open(p).read()) for p in (old_path, new_path))
    common = [k for k in old if k in new]
    moved = [(k, float.fromhex(old[k]), float.fromhex(new[k])) for k in common if old[k] != new[k]]
    for key, a, b in moved:
        print(f"{key}: {a!r} -> {b!r} (relative {abs(b - a) / abs(a):.2g})")
    print(f"{len(common) - len(moved)} of {len(common)} shared values equal bit for bit; "
          f"{len(old) - len(common)} only in the first file, {len(new) - len(common)} only in the second")
    return not moved


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(0 if compare(*sys.argv[2:4]) else 1)
    cold, warm = values(), values()
    moved = [key for key in cold if warm[key] != cold[key]]
    for key in moved:
        print(f"{key}: {cold[key]} on the first pass, {warm[key]} on the second", file=sys.stderr)
    if moved:
        sys.exit(1)
    json.dump(cold, sys.stdout, indent=1)
    print()
