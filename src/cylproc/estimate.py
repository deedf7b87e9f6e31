"""Monte Carlo estimators for every analytic characteristic.

Each estimator runs independent replicates (fresh realization per
replicate, one random stream per replicate) and reports the mean of the
replicate values together with the standard error across replicates.
Points inside one realization are dependent, so replicate-level resampling
is the honest uncertainty for z-tests against the analytic values.

Every characteristic is a functional of the same random set, so one
realization per replicate serves all requested quantities:
``run_estimators`` samples it once, runs each quantity's per-replicate
function on it, and drops it before the next replicate.  The ``est_*``
functions are one-quantity calls of that runner.

Streams are addressed as (seed, 2*rep) for the realization and
(seed, 2*rep + 1) for the query randomness; each quantity draws from its
own fresh copy of the query stream.  Results therefore depend only on
(seed, replicate index), never on worker count, scheduling order or which
other quantities share the run.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, model
from .euclid import Direction, crofton_factor
from .model import ArgumentError, ProcessSpec, haar_vectors
from .rng import philox_stream
from .sim import (
    Realization,
    Window,
    count_component_entries,
    covered_mask,
    distance_mask,
    first_entry_times,
    ray_interval_bulk,
    sample_realization,
)

DEFAULT_LAG_FRACTION = 0.25  # lags and probe radii are capped at this fraction of the min side

__all__ = [
    "ArgumentError",
    "EstimateReport",
    "Estimator",
    "run_estimators",
    "prepare_volume_fraction",
    "prepare_covariance",
    "prepare_spherical_cdf",
    "prepare_linear_cdf",
    "prepare_linescan",
    "prepare_covderiv",
    "est_volume_fraction",
    "est_covariance",
    "est_spherical_cdf",
    "est_linear_cdf",
    "est_specific_surface_linescan",
    "est_specific_surface_covderiv",
    "reports_to_csv",
    "reports_to_json",
]


@dataclass(frozen=True)
class EstimateReport:
    name: str
    estimate: float
    std_error: float
    n_samples: int
    n_replicates: int
    seed: int
    analytic: float | None = None
    z_score: float | None = None

    @staticmethod
    def from_replicates(name, values, n_samples, seed, analytic=None) -> "EstimateReport":
        values = np.asarray(values, dtype=float)
        n = len(values)
        est = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        z = None
        if analytic is not None:
            diff = est - analytic
            if math.isnan(diff) or math.isnan(se):
                z = math.nan
            elif se > 0:
                z = diff / se
            else:
                z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return EstimateReport(name, est, se, int(n_samples), n, int(seed), analytic, z)


# One validated quantity: ``one(real, gen)`` gives a replicate's value per label from the
# shared realization and the quantity's query stream, ``n_samples`` counts the samples per
# replicate and ``references`` holds the analytic value per label.
Estimator = namedtuple("Estimator", "labels n_samples one references")


def run_estimators(spec: ProcessSpec, window: Window, estimators, n_reps: int, seed: int,
                   workers: int = 1) -> list[EstimateReport]:
    """Reports of every estimator, in order, sampling one realization per replicate."""

    def replicate(rep):
        real = sample_realization(spec, window, seed, stream=2 * rep)
        return [e.one(real, philox_stream(seed, 2 * rep + 1)) for e in estimators]

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(replicate, range(n_reps)))
    else:
        per_rep = [replicate(r) for r in range(n_reps)]
    reports = []
    for j, e in enumerate(estimators):
        values = np.asarray([vals[j] for vals in per_rep], dtype=float).reshape(n_reps, len(e.labels))
        reports += [EstimateReport.from_replicates(label, values[:, i], e.n_samples * n_reps, seed,
                                                   analytic=ref)
                    for i, (label, ref) in enumerate(zip(e.labels, e.references))]
    return reports


# ---------------------------------------------------------------------------
# volume fraction and covariance
# ---------------------------------------------------------------------------

def prepare_volume_fraction(spec: ProcessSpec, window: Window, n_points: int) -> Estimator:
    """Fraction of uniform window points covered by the union set."""
    n_points = _count("n_points", n_points)

    def one(real, gen):
        pts = window.uniform_points(gen, n_points)
        return float(np.mean(covered_mask(real, pts)))

    return Estimator(["volume_fraction"], n_points, one, [analytic.volume_fraction(spec)])


def prepare_covariance(spec: ProcessSpec, window: Window, lags, n_points: int) -> Estimator:
    """Two-point coverage frequency at each lag, on the lag-eroded window."""
    lags, n_points = model.reals("lags", lags, (None, window.dim)), _count("n_points", n_points)
    cap = DEFAULT_LAG_FRACTION * window.min_side
    for h in lags:
        if float(np.linalg.norm(h)) >= cap:
            raise ArgumentError("lags", f"lag {h} exceeds the {DEFAULT_LAG_FRACTION:g} * min-side "
                                        f"cap {cap:g}")
    subs = [window.erode_for_lag(h) for h in lags]

    def one(real, gen):
        vals = []
        for h, sub in zip(lags, subs):
            pts = sub.uniform_points(gen, n_points)
            hit = covered_mask(real, pts, h[None]).all(axis=0)  # x and x + h covered
            vals.append(float(np.mean(hit)))
        return vals

    return Estimator([f"covariance[{np.array2string(h, separator=',')}]" for h in lags], n_points,
                     one, [analytic.covariance(spec, h) for h in lags])


def est_volume_fraction(spec: ProcessSpec, window: Window, n_points: int, n_reps: int,
                        seed: int, workers: int = 1) -> EstimateReport:
    est = prepare_volume_fraction(spec, window, n_points)
    return run_estimators(spec, window, [est], n_reps, seed, workers)[0]


def est_covariance(spec: ProcessSpec, window: Window, lags, n_points: int, n_reps: int,
                   seed: int, workers: int = 1) -> list[EstimateReport]:
    est = prepare_covariance(spec, window, lags, n_points)
    return run_estimators(spec, window, [est], n_reps, seed, workers)


# ---------------------------------------------------------------------------
# contact distributions
# ---------------------------------------------------------------------------

def _uncovered_points(real: Realization, gen, region: Window, n_points: int, p_hint: float):
    """Uniform points of the region conditioned on not being covered."""
    out = []
    have = 0
    guard = 0
    while have < n_points:
        guard += 1
        if guard > 200:
            raise RuntimeError("rejection sampling failed to find uncovered points")
        need = n_points - have
        batch = max(int(need / max(1.0 - p_hint, 1e-3) * 1.25), 256)
        pts = region.uniform_points(gen, batch)
        keep = pts[~covered_mask(real, pts)]
        out.append(keep[:need])
        have += len(out[-1])
    return np.vstack(out)


def _count(field: str, value) -> int:
    """A positive integer, or an ArgumentError naming ``field``."""
    return model.real(field, value, minimum=1, integer=True)


def _check_radii(radii) -> list[float]:
    radii = model.reals("radii", radii, (None,), minimum=0).tolist()
    if not radii:
        raise ArgumentError("radii", "at least one radius is required")
    return radii


def prepare_spherical_cdf(spec: ProcessSpec, window: Window, radii, n_points: int) -> Estimator:
    """Empirical distance distribution from uncovered points to the union."""
    radii, n_points = _check_radii(radii), _count("n_points", n_points)
    r_max = max(radii)
    cap = DEFAULT_LAG_FRACTION * window.min_side
    if r_max > cap:
        raise ArgumentError("radii", f"max radius {r_max} exceeds the distance cap {cap:g}")
    if spec.base.has_zero_mass:
        raise ValueError("spherical contact estimation is unsupported for base laws "
                         "with radius-zero atoms")
    p = analytic.volume_fraction(spec)
    if p > 0.999:
        raise ValueError("spherical contact estimation: complement is too thin for rejection sampling (p > 0.999)")
    region = window.erode(r_max)

    def one(real, gen):
        pts = _uncovered_points(real, gen, region, n_points, p)
        dist = distance_mask(real, pts)
        return [float(np.mean(dist <= r)) for r in radii]

    return Estimator([f"spherical_cdf[r={r:g}]" for r in radii], n_points, one,
                     [analytic.spherical_cdf(spec, r) for r in radii])


def prepare_linear_cdf(spec: ProcessSpec, window: Window, eta: Direction, radii,
                       n_rays: int) -> Estimator:
    """Empirical first-contact distribution along rays in direction eta."""
    eta = model.direction("eta", eta, window.dim)
    radii, n_rays = _check_radii(radii), _count("n_rays", n_rays)
    r_max, eta_vec = max(radii), eta.vec
    try:
        region = window.erode_for_lag(r_max * eta_vec)
    except ValueError as exc:
        raise ArgumentError("radii", f"max radius {r_max} leaves no room for rays: {exc}") from exc
    p = analytic.volume_fraction(spec)
    if p > 0.999:
        raise ValueError("linear contact estimation: complement is too thin for rejection sampling (p > 0.999)")

    def one(real, gen):
        pts = _uncovered_points(real, gen, region, n_rays, p)
        t_first = first_entry_times(real, pts, eta_vec, r_max)
        return [float(np.mean(t_first <= r)) for r in radii]

    return Estimator([f"linear_cdf[r={r:g}]" for r in radii], n_rays, one,
                     [analytic.linear_cdf(spec, eta, r) for r in radii])


def est_spherical_cdf(spec: ProcessSpec, window: Window, radii, n_points: int, n_reps: int,
                      seed: int, workers: int = 1) -> list[EstimateReport]:
    est = prepare_spherical_cdf(spec, window, radii, n_points)
    return run_estimators(spec, window, [est], n_reps, seed, workers)


def est_linear_cdf(spec: ProcessSpec, window: Window, eta: Direction, radii, n_rays: int,
                   n_reps: int, seed: int, workers: int = 1) -> list[EstimateReport]:
    est = prepare_linear_cdf(spec, window, eta, radii, n_rays)
    return run_estimators(spec, window, [est], n_reps, seed, workers)


# ---------------------------------------------------------------------------
# specific surface
# ---------------------------------------------------------------------------

def prepare_linescan(spec: ProcessSpec, window: Window, n_lines: int,
                     probe_length: float | None = None) -> Estimator:
    """Line-intercept estimator of the specific surface area.

    Probe segments of a fixed length are placed with Haar-uniform direction
    and uniform midpoint in the accordingly eroded window, so every probe
    lies inside the window and component entry counts are exact.  Each
    entry endpoint strictly inside a probe marks one component; components
    straddling the probe start are dropped, which by stationarity keeps the
    count unbiased for intensity * length.
    """
    n_lines = _count("n_lines", n_lines)
    length = 0.8 * window.min_side if probe_length is None else model.real("probe_length", probe_length)
    if not 0 < length < window.min_side:
        raise ArgumentError("probe_length",
                            "probe length must be positive and below the window min side")
    factor = crofton_factor(spec.d)
    inner = window.erode(0.5 * length)

    def one(real, gen):
        dirs = haar_vectors(spec.d, gen, n_lines)
        mids = inner.uniform_points(gen, n_lines)
        origins = mids - 0.5 * length * dirs
        ids, tins, touts = ray_interval_bulk(real, origins, dirs, length)
        entries = count_component_entries(ids, tins, touts)
        return factor * entries / (n_lines * length)

    return Estimator(["specific_surface_linescan"], n_lines, one,
                     [analytic.specific_surface(spec)])


def prepare_covderiv(spec: ProcessSpec, window: Window, step: float, n_dirs: int, n_points: int,
                     richardson: bool = False) -> Estimator:
    """Covariance-derivative estimator of the specific surface area.

    For Haar directions xi the one-sided derivative is approximated by
    (C(step xi) - p) / step on shared points, then averaged and scaled by
    the Crofton factor.  The finite difference has a documented O(step)
    bias, so comparisons carry a bias budget on top of the standard error.
    ``richardson`` extrapolates the differences at steps h and h/2
    (2 D(h/2) - D(h)), trading a little variance for the O(step) term.
    """
    cap = DEFAULT_LAG_FRACTION * window.min_side
    step, n_dirs, n_points = model.real("step", step), _count("n_dirs", n_dirs), _count("n_points", n_points)
    if not 0 < step < cap:
        raise ArgumentError("step", f"step must be in (0, {cap:g})")
    factor = crofton_factor(spec.d)
    inner = window.erode(step)

    def one(real, gen):
        pts = inner.uniform_points(gen, n_points)
        dirs = haar_vectors(spec.d, gen, n_dirs)
        # the points, then shifted by step * xi and, for Richardson, by 0.5 * step * xi: one call
        rows = covered_mask(real, pts, np.vstack([step * dirs] + ([0.5 * step * dirs] if richardson else [])))
        base = rows[0]
        p0 = float(np.mean(base))
        acc = 0.0
        for j in range(n_dirs):
            both = base & rows[1 + j]
            diff = (float(np.mean(both)) - p0) / step
            if richardson:
                half = base & rows[1 + n_dirs + j]
                diff = 2.0 * (float(np.mean(half)) - p0) / (0.5 * step) - diff
            acc += diff
        return -factor * acc / n_dirs

    return Estimator(["specific_surface_covderiv"], n_points * n_dirs, one,
                     [analytic.specific_surface(spec)])


def est_specific_surface_linescan(spec: ProcessSpec, window: Window, n_lines: int, n_reps: int,
                                  seed: int, workers: int = 1,
                                  probe_length: float | None = None) -> EstimateReport:
    est = prepare_linescan(spec, window, n_lines, probe_length)
    return run_estimators(spec, window, [est], n_reps, seed, workers)[0]


def est_specific_surface_covderiv(spec: ProcessSpec, window: Window, step: float, n_dirs: int,
                                  n_points: int, n_reps: int, seed: int,
                                  workers: int = 1, richardson: bool = False) -> EstimateReport:
    est = prepare_covderiv(spec, window, step, n_dirs, n_points, richardson)
    return run_estimators(spec, window, [est], n_reps, seed, workers)[0]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

_CSV_FIELDS = ("name", "estimate", "std_error", "n_samples", "n_replicates", "seed", "analytic", "z_score")


def reports_to_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_FIELDS)
        for rep in reports:
            row = []
            for f in _CSV_FIELDS:
                val = getattr(rep, f)
                if val is None:
                    row.append("")
                elif isinstance(val, float):
                    row.append(f"{val:.12g}")
                else:
                    row.append(val)
            writer.writerow(row)


def _json_value(val):
    """Strict-JSON form of a report field: non-finite numbers become null."""
    return None if isinstance(val, float) and not math.isfinite(val) else val


def reports_to_json(reports) -> str:
    return json.dumps(
        {"reports": [{f: _json_value(getattr(rep, f)) for f in _CSV_FIELDS} for rep in reports]},
        indent=2, allow_nan=False, default=float,
    )
