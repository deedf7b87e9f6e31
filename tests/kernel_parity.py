"""Query-kernel outputs over a grid of realizations, hashed bit for bit, for comparing two checkouts.

    PYTHONPATH=src python3 tests/kernel_parity.py > new.json
    PYTHONPATH=src python3 tests/kernel_parity.py --compare old.json new.json

The first form samples two realizations (seeds 11 and 12) of every shape
family of ``test_sim.HIT_FAMILIES`` under the isotropic, girdle and
fixed-axes laws, and of the two-polygon mixture ``polygons3`` under the
isotropic and fixed-axes laws.  On each it hashes the output of
``covered_mask`` without and with shifts (zero, covariance-derivative
steps and their halves, a lag, and a shift longer than the window's
circumradius over the bases), ``distance_mask``, ``ray_interval_bulk`` for
Haar and axis-parallel probes, and ``count_component_entries`` of those
intervals: each entry is a SHA-256 of the arrays' bytes.  The second form
lists every entry that differs between two such files and the count of
equal entries; keys only one file holds are counted, not compared.  It
exits 1 when a shared entry differs and 0 otherwise.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from cylproc import sim  # noqa: E402
from cylproc.model import haar_vectors  # noqa: E402
from cylproc.rng import philox_stream  # noqa: E402
from test_sim import HIT_FAMILIES, hit_window, parity_spec  # noqa: E402

CASES = [(family, law) for family in sorted(HIT_FAMILIES) for law in ("isotropic", "girdle", "fixed")]
CASES += [("polygons3", law) for law in ("isotropic", "fixed")]
SEEDS = (11, 12)
N_POINTS = 2000
LENGTH = 3.0
STEP = 0.02


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def shifted_rows(real, pts, shifts):
    """covered_mask of the points and of each shifted copy; separate calls where it takes no shifts."""
    try:
        return sim.covered_mask(real, pts, shifts)
    except TypeError:
        return np.array([sim.covered_mask(real, pts)] + [sim.covered_mask(real, pts + s) for s in shifts])


def values() -> dict:
    out = {}
    for family, law in CASES:
        spec = parity_spec(family, law)
        window = hit_window(spec.d)
        d = spec.d
        for seed in SEEDS:
            key = f"{family}_{law}/{seed}"
            real = sim.sample_realization(spec, window, seed)
            gen = philox_stream(seed, 7)
            pts = window.uniform_points(gen, N_POINTS)
            dirs = haar_vectors(d, gen, 6)
            shifts = {
                "zero": np.zeros((1, d)),
                "step": STEP * dirs,
                "richardson": np.vstack([STEP * dirs, 0.5 * STEP * dirs]),
                "lag": np.array([[1.0, 0.5, 0.0][:d]]),
                "long": np.array([[9.0, -4.0, 6.0][:d]]),
            }
            out[f"{key}/covered_mask"] = digest(sim.covered_mask(real, pts))
            for name, s in shifts.items():
                out[f"{key}/covered_mask+{name}"] = digest(shifted_rows(real, pts, s))
            out[f"{key}/distance_mask"] = digest(sim.distance_mask(real, pts))
            probe_dirs = haar_vectors(d, gen, N_POINTS)
            origins = window.erode(0.5 * LENGTH).uniform_points(gen, N_POINTS) - 0.5 * LENGTH * probe_dirs
            for name, v in (("haar", probe_dirs), ("axis", np.broadcast_to(np.eye(d)[0], probe_dirs.shape))):
                ids, tins, touts = sim.ray_interval_bulk(real, origins, v, LENGTH)
                out[f"{key}/ray_interval_bulk[{name}]"] = digest(ids, tins, touts)
                out[f"{key}/count_component_entries[{name}]"] = str(sim.count_component_entries(ids, tins, touts))
    return out


def compare(old_path: str, new_path: str) -> bool:
    """Print what differs between two files; True when every shared key is equal."""
    old, new = (json.loads(open(p).read()) for p in (old_path, new_path))
    common = [k for k in old if k in new]
    moved = [k for k in common if old[k] != new[k]]
    for key in moved:
        print(f"{key}: differs")
    print(f"{len(common) - len(moved)} of {len(common)} shared entries equal bit for bit; "
          f"{len(old) - len(common)} only in the first file, {len(new) - len(common)} only in the second")
    return not moved


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        sys.exit(0 if compare(*sys.argv[2:4]) else 1)
    else:
        json.dump(values(), sys.stdout, indent=1)
        print()
