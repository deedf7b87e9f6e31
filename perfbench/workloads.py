"""The three benchmark workloads: set-up, job lists, jobs and output checks.

Each workload is built in two steps.  The constructor is the set-up that
``setup_s`` times: it imports the layers it drives and builds specs,
windows and configs.  ``jobs(seed)`` then derives the fixed job list from
the workload seed.  ``run(job)`` is the timed unit of work; ``check(job,
out)`` runs outside the timed interval and returns (passed, digest bytes,
extra counts).

The job list comes from the seed alone; a short job may be listed more
than once.  A run executes the list over and over with the same inputs
for about ``--seconds`` (at least ``MIN_PASSES`` times), and the runner
keeps each job's fastest time, so a slow spell of the host inflates
single timings but seldom every one of them.  ``mc_compare`` also sizes
its one job from ``--seconds``, through a nominal cost per replicate
(typical of a 2-core Intel Xeon virtual machine at 2.1 GHz with Python
3.11, numpy 2.4 and scipy 1.17), so a given (seconds, seed) always means
the same job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

SQUARE = {"type": "polygon", "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}
UNIT_DISC = {"type": "disc", "radius": 1.0}
ISO = {"type": "isotropic"}
GIRDLE = {"type": "girdle", "axis": [0.0, 0.0, 1.0], "delta": 0.4}


def spec3(alpha, base, lam=0.1):
    return {"d": 3, "k": 1, "lambda": lam, "alpha": alpha, "base": base}


@dataclass(frozen=True)
class Job:
    id: int
    label: str
    seed: int
    params: tuple = ()


# ---------------------------------------------------------------------------
# mc_compare: the verification run users make
# ---------------------------------------------------------------------------

class McCompare:
    """One in-process ``cylproc compare`` per run, all six estimator quantities.

    The acceptance process (3-D isotropic unit discs, lambda 0.1, window
    side 40).  A run is a single compare job with as many replicates as fit
    in ``--seconds``: every replicate re-samples six realizations, so the
    replicate count, not the job count, sets the cost, and the z-tests at
    the default threshold 4 need many replicates (the false-alarm rate per
    report is that of Student's t with n_replicates - 1 degrees of freedom).
    """

    name = "mc_compare"
    MIN_PASSES = 1  # the one job fills --seconds; see the README
    REP_S = 1.2  # nominal seconds per replicate
    MIN_REPS = 8
    QUANTITIES = ("volume_fraction", "covariance", "spherical_cdf", "linear_cdf",
                  "surface_linescan", "surface_covderiv")

    def __init__(self, workdir: Path, seconds: float):
        from cylproc import cli
        from cylproc.model import spec_from_dict
        from cylproc.sim import Window

        self.cli = cli
        self.workdir = workdir
        self.n_reps = max(self.MIN_REPS, int(seconds // self.REP_S))
        spec = spec3(ISO, UNIT_DISC)
        window = {"lo": [0.0, 0.0, 0.0], "hi": [40.0, 40.0, 40.0]}
        # parsed here so that a bad config fails in set-up, not in a timed job
        spec_from_dict(spec)
        Window(tuple(window["lo"]), tuple(window["hi"]))
        config = {
            "spec": spec,
            "window": window,
            "estimate": {
                "quantities": list(self.QUANTITIES),
                "n_points": 2500,
                "n_replicates": self.n_reps,
                "lags": [[1.0, 0.5, 0.0]],
                "radii": [1.0],
                "eta": [0.0, 0.0, 1.0],
                # kept at >= 1e4 probes per replicate so the probe-index
                # dependent merge tolerance of count_component_entries is hit
                "n_lines": 10_000,
                "n_dirs": 6,
            },
        }
        self.config_path = workdir / "compare.json"
        self.config_path.write_text(json.dumps(config))

    def jobs(self, seed: int) -> list[Job]:
        return [Job(0, "compare", seed * 1000)]

    def span_name(self, job: Job) -> str:
        return "cli.main"

    def run(self, job: Job):
        out = self.workdir / f"compare{job.id}"
        argv = ["compare", "--config", str(self.config_path), "--seed", str(job.seed),
                "--workers", "1", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        return rc, out

    def check(self, job: Job, result):
        rc, out = result
        csv_bytes = (out / "reports.csv").read_bytes()
        json_bytes = (out / "reports.json").read_bytes()
        extra = {"cli.out_bytes": len(csv_bytes) + len(json_bytes)}

        def reject_constant(token):
            raise ValueError(f"non-strict JSON constant {token}")

        try:
            doc = json.loads(json_bytes, parse_constant=reject_constant)
        except ValueError:
            return False, csv_bytes, extra
        reports = doc.get("reports", [])
        ok = (rc == 0 and len(reports) == len(self.QUANTITIES)
              and all(math.isfinite(r["estimate"]) and r["z_score"] is not None for r in reports))
        return ok, csv_bytes, extra


# ---------------------------------------------------------------------------
# realize_roundtrip: sampler, CSV export/import, a few membership queries
# ---------------------------------------------------------------------------

# family -> (spec document, window side).  The sizes give every family's
# job about the same cost, so each family holds a fifth of the time and
# job_p50_s is the middle of fifteen like jobs rather than the boundary
# between two families: band and slab intensities and windows are raised
# from the acceptance sizes, and the square window is smaller because a
# polygon hit test costs more than a disc one.
FAMILIES = {
    "disc_iso": (spec3(ISO, UNIT_DISC), 40.0),
    "square_iso": (spec3(ISO, SQUARE), 34.0),
    "disc_girdle": (spec3(GIRDLE, UNIT_DISC), 40.0),
    "band2_iso": ({"d": 2, "k": 1, "lambda": 4.0, "alpha": ISO,
                   "base": {"type": "segment", "half_length": 0.25}}, 200.0),
    "slab_iso": ({"d": 3, "k": 2, "lambda": 4.0, "alpha": ISO,
                  "base": {"type": "segment", "half_length": 0.25}}, 120.0),
}


class RealizeRoundtrip:
    """Sample, export CSV, import CSV, query both copies; cycles over five families."""

    name = "realize_roundtrip"
    CYCLES = 3  # jobs per family in the job list
    MIN_PASSES = 3
    N_CHECK_POINTS = 256

    def __init__(self, workdir: Path, seconds: float):
        from cylproc import sim
        from cylproc.model import spec_from_dict
        from cylproc.rng import philox_stream

        self.sim = sim
        self.workdir = workdir
        self.families = {}
        for i, (fam, (doc, side)) in enumerate(FAMILIES.items()):
            spec = spec_from_dict(doc)
            window = sim.Window((0.0,) * spec.d, (side,) * spec.d)
            points = window.uniform_points(philox_stream(0, i), self.N_CHECK_POINTS)
            self.families[fam] = (spec, window, points)

    def jobs(self, seed: int) -> list[Job]:
        names = list(self.families)
        n = self.CYCLES * len(names)
        return [Job(j, names[j % len(names)], seed * 100_000 + j) for j in range(n)]

    def span_name(self, job: Job) -> str:
        return "job"

    def run(self, job: Job):
        sim = self.sim
        spec, window, points = self.families[job.label]
        path = self.workdir / f"{job.label}.csv"
        real = sim.sample_realization(spec, window, job.seed)
        sim.export_realization_csv(real, path)
        back = sim.import_realization_csv(path, spec, window, seed=job.seed)
        return real, back, sim.covered_mask(real, points), sim.covered_mask(back, points), path

    def check(self, job: Job, result):
        real, back, mask, mask_back, path = result
        ok = real.n_cylinders() == back.n_cylinders() and np.array_equal(mask, mask_back)
        return ok, path.read_bytes(), {}


# ---------------------------------------------------------------------------
# analytic_quad: closed forms and hemisphere quadrature, no simulation
# ---------------------------------------------------------------------------

ANALYTIC_SPECS = {
    "poly_iso": spec3(ISO, SQUARE),
    "poly_girdle": spec3(GIRDLE, SQUARE),
    "disc_iso": spec3(ISO, UNIT_DISC),
}
# point triples for capacity_finite; the covariance lag of a variant is
# points[1] - points[0], so the two-point capacity 2p - C(h) is known and
# capacity monotonicity is checked without another quadrature
POINT_SETS = (
    ((0.0, 0.0, 0.0), (0.7, 0.3, 0.2), (0.2, -0.6, 0.5)),
    ((0.0, 0.0, 0.0), (0.4, -0.5, 0.3), (-0.3, 0.2, 0.6)),
    ((0.0, 0.0, 0.0), (0.9, 0.1, -0.2), (0.1, 0.8, 0.1)),
    ((0.0, 0.0, 0.0), (0.2, 0.6, -0.4), (0.6, -0.1, 0.4)),
)
# one derivative direction for every seed: the cost of a derivative call
# moves by up to a third with the direction, and job_p50_s is the mean of
# the two derivative calls, so a seeded direction would move it by that
DERIV_DIR = (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)
SEEDLESS = ("covariance_derivative", "specific_surface")
FUNCS = ("covariance", "covariance_derivative", "capacity_finite", "specific_surface")
REFERENCE_PATH = HERE / "analytic_reference.json"
# above the 5.8e-6 error of the default 64x128 hemisphere rule, so a more
# accurate rule still passes
REL_TOL = 1e-4


def analytic_inputs(fn: str, variant: int):
    pts = np.array(POINT_SETS[variant])
    if fn == "covariance":
        return (pts[1] - pts[0],)
    if fn == "covariance_derivative":
        return (np.array(DERIV_DIR),)
    if fn == "capacity_finite":
        return (pts,)
    return ()


def reference_key(family: str, fn: str, variant: int) -> str:
    return f"{family}/{fn}" if fn in SEEDLESS else f"{family}/{fn}/v{variant}"


class AnalyticQuad:
    """Single calls of four analytic functions on three specs; a pass is one round."""

    name = "analytic_quad"
    MIN_PASSES = 2  # a pass is one round of calls
    # timings per call and round; the short calls are repeated so that
    # their fastest time, and job_p50_s with it, is not one slow spell
    REPEATS = {"covariance": 2, "covariance_derivative": 4, "capacity_finite": 1,
               "specific_surface": 4}

    def __init__(self, workdir: Path, seconds: float):
        from cylproc import analytic
        from cylproc.model import spec_from_dict

        self.analytic = analytic
        self.specs = {fam: spec_from_dict(doc) for fam, doc in ANALYTIC_SPECS.items()}
        self.reference = json.loads(REFERENCE_PATH.read_text())
        self._cov = {}

    def jobs(self, seed: int) -> list[Job]:
        rng = np.random.default_rng(seed)
        out, n = [], 0
        for fam in self.specs:
            variant = int(rng.integers(len(POINT_SETS)))
            for fn in FUNCS:
                out.extend([Job(n, f"{fn}.{fam}", seed, (fam, fn, variant))] * self.REPEATS[fn])
                n += 1
        return out

    def span_name(self, job: Job) -> str:
        return f"analytic.{job.label}"

    def run(self, job: Job):
        fam, fn, variant = job.params
        return getattr(self.analytic, fn)(self.specs[fam], *analytic_inputs(fn, variant))

    def check(self, job: Job, value):
        fam, fn, variant = job.params
        ref = self.reference[reference_key(fam, fn, variant)]
        ok = math.isfinite(value) and abs(value - ref) <= REL_TOL * abs(ref)
        p = self.analytic.volume_fraction(self.specs[fam])
        slack = 1e-12
        if fn == "covariance":
            self._cov[fam] = value
            ok = ok and p * p - slack <= value <= p + slack
        elif fn == "capacity_finite":
            two_point = 2.0 * p - self._cov[fam]
            ok = ok and p - slack <= value <= 1.0 and value >= two_point - 1e-9
        return ok, f"{job.label}.v{variant}={value:.12g}\n".encode(), {}


WORKLOADS = {w.name: w for w in (McCompare, RealizeRoundtrip, AnalyticQuad)}
