"""Query-kernel outputs over a grid of realizations, hashed bit for bit, for comparing two checkouts.

    PYTHONPATH=src python3 tests/kernel_parity.py > new.json
    PYTHONPATH=src python3 tests/kernel_parity.py --compare old.json new.json

The first form samples two realizations (seeds 11 and 12) of every shape
family of ``test_sim.HIT_FAMILIES`` under the isotropic, girdle and
fixed-axes laws, and of the two-polygon mixture ``polygons3`` under the
isotropic and fixed-axes laws.  On each it hashes the ``axes``,
``frames``, ``offsets`` and ``shape_index`` of the realization and of its
CSV export read back, so a change of the frame convention or of the
sampler's draws shows in entries of its own, and the
output of ``covered_mask`` without and with shifts (zero,
covariance-derivative steps and their halves, a lag, and a shift longer
than the window's circumradius over the bases), ``distance_mask``, ``ray_interval_bulk`` for
Haar and axis-parallel probes, and ``count_component_entries`` of those
intervals with, beside it, the merged components ``_probe_components``
gives (probe ids, t_in and t_out), so the merge's ends and signed zeros
are pinned too: each entry is a SHA-256 of the arrays' bytes.  Line cylinders
(d - k = 2) add two probe sets: long Haar probes, 0.8 times the window's
shortest side as in the line scan, and probes within 1e-9 rad of a
cylinder's axis.  The second form
lists every entry that differs between two such files and the count of
equal entries; keys only one file holds are counted, not compared.  It
exits 1 when a shared entry differs and 0 otherwise.
"""

import hashlib
import json
import sys
import tempfile
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
LONG = 0.8  # long probes, as a share of the window's shortest side
TILT = 1e-9  # the largest angle of a near-axis probe to its cylinder's axis, in radians
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


def values(tmp: Path) -> dict:
    out = {}
    for family, law in CASES:
        spec = parity_spec(family, law)
        window = hit_window(spec.d)
        d = spec.d
        for seed in SEEDS:
            key = f"{family}_{law}/{seed}"
            real = sim.sample_realization(spec, window, seed)
            sim.export_realization_csv(real, tmp / "real.csv")
            back = sim.import_realization_csv(tmp / "real.csv", spec, window)
            for source, r in (("sample", real), ("csv", back)):
                for name in ("axes", "frames", "offsets", "shape_index"):
                    out[f"{key}/{source}[{name}]"] = digest(getattr(r, name))
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
                out[f"{key}/probe_components[{name}]"] = digest(*sim._probe_components(ids, tins, touts))
            if d - spec.k == 2:
                for name, (length, origins, v) in line_probes(real, gen).items():
                    ids, tins, touts = sim.ray_interval_bulk(real, origins, v, length)
                    out[f"{key}/ray_interval_bulk[{name}]"] = digest(ids, tins, touts)
                    out[f"{key}/count_component_entries[{name}]"] = str(sim.count_component_entries(ids, tins, touts))
                    out[f"{key}/probe_components[{name}]"] = digest(*sim._probe_components(ids, tins, touts))
    return out


def line_probes(real, gen) -> dict:
    """Long Haar probes, and probes tilted by at most TILT from the axes of the cylinders in turn."""
    window, d = real.window, real.spec.d
    length = LONG * window.min_side
    haar = haar_vectors(d, gen, N_POINTS)
    axes = real.axes[np.arange(N_POINTS) % max(real.n_cylinders(), 1)] if real.n_cylinders() else haar
    across = np.cross(axes, haar_vectors(d, gen, N_POINTS))
    across /= np.linalg.norm(across, axis=1, keepdims=True)
    near = axes + np.tan(gen.uniform(0.0, TILT, N_POINTS))[:, None] * across
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    out = {}
    for name, v in (("haar_long", haar), ("near_axis", near)):
        out[name] = length, window.erode(0.5 * length).uniform_points(gen, N_POINTS) - 0.5 * length * v, v
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
        with tempfile.TemporaryDirectory() as tmp:
            json.dump(values(Path(tmp)), sys.stdout, indent=1)
        print()
