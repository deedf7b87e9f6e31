#!/usr/bin/env python3
"""cylproc benchmark: one workload per run, single process, one worker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there (the run fails if it is missing).  Every metric is printed
by name with its unit, every job's output is checked outside its timed
interval, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Each run executes its workload's job list over and over with the same
inputs for about ``--seconds`` and keeps each job's fastest time:
``wall_s`` is the sum of those times and ``job_p50_s`` their median.
Every pass is checked, and all passes must give the same output digest.
A traced run executes the passes untraced and then as many again traced,
so that ``trace.overhead_frac`` compares equal work; layer metrics are
totals per pass.  Results, provenance and (traced runs) the span list are
written to ``perfbench/_runs/``.
"""

from __future__ import annotations

import os

# one worker and no extra threads: keep BLAS single-threaded in this
# process and in the set-up probes it starts (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
SETUP_SAMPLES = 5  # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs beyond it

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.sample_realization.calls": "count",
    "sim.sample_realization.s": "s",
    "sim.sample_realization.cyl": "count",
    "sim.sample_realization.us_per_cyl": "us",
    "sim.covered_mask.s": "s",
    "sim.covered_mask.pt_cyl": "count",
    "sim.covered_mask.ns_per_pt_cyl": "ns",
    "sim.distance_mask.s": "s",
    "sim.distance_mask.pt_cyl": "count",
    "sim.distance_mask.ns_per_pt_cyl": "ns",
    "sim.ray_interval_bulk.s": "s",
    "sim.ray_interval_bulk.probe_cyl": "count",
    "sim.ray_interval_bulk.ns_per_probe_cyl": "ns",
    "sim.ray_interval_bulk.intervals": "count",
    "sim.reduce.s": "s",
    "sim.export_realization_csv.s": "s",
    "sim.export_realization_csv.bytes": "B",
    "sim.import_realization_csv.s": "s",
    "sim.import_realization_csv.us_per_cyl": "us",
    "estimate.self_s": "s",
    "estimate.resample_ratio": "ratio",
    "estimate.uncovered_accept_ratio": "ratio",
    "estimate.analytic_ref.s": "s",
    "analytic.covariance.poly_iso.ms": "ms",
    "analytic.covariance.poly_girdle.ms": "ms",
    "analytic.covariance.disc_iso.ms": "ms",
    "analytic.covariance_derivative.poly_iso.ms": "ms",
    "analytic.covariance_derivative.poly_girdle.ms": "ms",
    "analytic.capacity_finite.poly_iso.ms": "ms",
    "analytic.capacity_finite.poly_girdle.ms": "ms",
    "analytic.capacity_finite.disc_iso.ms": "ms",
    "analytic.specific_surface.poly_iso.ms": "ms",
    "euclid.polygon_covariogram.calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "trace.overhead_frac": "ratio",
    "trace.layer_coverage_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def require_source():
    if not (SRC / "cylproc" / "__init__.py").is_file():
        raise SystemExit(f"error: no cylproc package under {SRC}; run from a source checkout")


def load_workload(name: str, seconds: float, workdir: Path):
    """The timed set-up: import the package from this checkout and build the workload."""
    sys.path.insert(0, str(SRC))
    import cylproc

    if Path(cylproc.__file__).resolve().parent != (SRC / "cylproc").resolve():
        raise SystemExit(f"error: imported cylproc from {cylproc.__file__}, not from {SRC}")
    return workloads.WORKLOADS[name](workdir, seconds)


def setup_probe(args) -> int:
    workdir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        load_workload(args.workload, args.seconds, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    """Process start to first-job-ready, in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {rc}")
        times.append(t1 - t0)
    return times


def run_pass(workload, jobs, tracer=None):
    """Run the job list once; returns per-job seconds, failures, digest chunks, extras."""
    times, chunks, extras, failed = [], [], Counter(), 0
    for job in jobs:
        sid = None
        if tracer is not None:
            tracer.job = job.id
            sid = tracer.begin(workload.span_name(job))
        t0 = time.perf_counter()
        try:
            out = workload.run(job)
        except Exception:  # a job that raises counts as failed; the run goes on
            out = None
            traceback.print_exc()
        finally:
            times.append(time.perf_counter() - t0)
            if sid is not None:
                tracer.end(sid)
        ok = False
        if out is not None:
            try:
                ok, chunk, extra = workload.check(job, out)
                chunks.append(chunk)
                extras.update(extra)
            except Exception:
                traceback.print_exc()
        if not ok:
            failed += 1
            print(f"job {job.id} ({job.label}, seed {job.seed}) FAILED its check", file=sys.stderr)
    return times, failed, chunks, extras


def run_passes(workload, jobs, seconds, passes=None, tracer=None):
    """Run the job list ``passes`` times, or else for about ``seconds``.

    Without ``passes``, passes go on while the next one, taking as long as
    the last, still ends within ``seconds``, and there are never fewer than
    ``workload.MIN_PASSES``.  A job may appear more than once in the list;
    it is timed at every appearance.  Returns each distinct job's fastest
    time, the pass count, the failure count, the digest, the extras of one
    pass and whether every pass gave the same digest.
    """
    best, failed, digests, done = {}, 0, set(), 0
    start, pass_s = time.perf_counter(), 0.0
    while True:
        if passes is not None:
            if done >= passes:
                break
        elif done >= workload.MIN_PASSES and time.perf_counter() - start + pass_s > seconds:
            break
        t0 = time.perf_counter()
        times, n_failed, chunks, extras = run_pass(workload, jobs, tracer)
        pass_s = time.perf_counter() - t0
        for job, t in zip(jobs, times):
            best[job.id] = min(t, best.get(job.id, t))
        failed += n_failed
        digests.add(digest_of(chunks))
        done += 1
    if len(digests) > 1:
        print("passes over the same inputs gave different outputs", file=sys.stderr)
    return list(best.values()), done, failed, min(digests), extras, len(digests) == 1


def digest_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def job_tail(times):
    """(value, percentile) with exactly TAIL_BEYOND jobs beyond, or None if too few jobs."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(tracer, passes, extras, wall_untraced, wall_traced) -> dict:
    """Layer metrics per pass over the job list (the tracer sums all passes)."""
    calls, dur, own = tracer.self_times()
    c = Counter({k: v / passes for k, v in tracer.counts.items()})
    calls = Counter({k: v / passes for k, v in calls.items()})
    dur = Counter({k: v / passes for k, v in dur.items()})
    own = Counter({k: v / passes for k, v in own.items()})

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    for name in ("sample_realization", "covered_mask", "distance_mask", "ray_interval_bulk",
                 "export_realization_csv", "import_realization_csv"):
        m[f"sim.{name}.s"] = own[f"sim.{name}"]
    m["sim.sample_realization.calls"] = calls["sim.sample_realization"]
    m["sim.sample_realization.cyl"] = c["sim.sample_realization.cyl"]
    m["sim.sample_realization.us_per_cyl"] = per(m["sim.sample_realization.s"],
                                                 m["sim.sample_realization.cyl"], 1e6)
    for name in ("covered_mask", "distance_mask"):
        m[f"sim.{name}.pt_cyl"] = c[f"sim.{name}.pt_cyl"]
        m[f"sim.{name}.ns_per_pt_cyl"] = per(m[f"sim.{name}.s"], m[f"sim.{name}.pt_cyl"], 1e9)
    m["sim.ray_interval_bulk.probe_cyl"] = c["sim.ray_interval_bulk.probe_cyl"]
    m["sim.ray_interval_bulk.ns_per_probe_cyl"] = per(m["sim.ray_interval_bulk.s"],
                                                      m["sim.ray_interval_bulk.probe_cyl"], 1e9)
    m["sim.ray_interval_bulk.intervals"] = c["sim.ray_interval_bulk.intervals"]
    m["sim.reduce.s"] = own["sim.first_entry_times"] + own["sim.count_component_entries"]
    m["sim.export_realization_csv.bytes"] = c["sim.export_realization_csv.bytes"]
    m["sim.import_realization_csv.us_per_cyl"] = per(m["sim.import_realization_csv.s"],
                                                     c["sim.import_realization_csv.cyl"], 1e6)
    m["estimate.self_s"] = sum(v for k, v in own.items() if k.startswith("estimate.est_")) \
        + own["estimate._uncovered_points"]
    m["estimate.resample_ratio"] = per(c["estimate.sample_calls"], len(tracer.sample_pairs))
    m["estimate.uncovered_accept_ratio"] = per(c["estimate.uncovered.kept"],
                                               c["estimate.uncovered.tested"])
    m["estimate.analytic_ref.s"] = dur["estimate.analytic_ref"]
    for key in PER_LAYER:
        if key.startswith("analytic."):
            span = key[: -len(".ms")]
            m[key] = per(dur[span], calls[span], 1e3)
    m["euclid.polygon_covariogram.calls"] = c["euclid.polygon_covariogram.calls"]
    m["cli.self_s"] = own["cli.main"]
    m["cli.out_bytes"] = extras.get("cli.out_bytes", 0)
    m["trace.overhead_frac"] = per(wall_traced, wall_untraced) - 1.0
    # every span but the benchmark's own per-job root belongs to a listed layer
    m["trace.layer_coverage_frac"] = per(sum(v for k, v in own.items() if k != "job"),
                                         tracer.root_seconds() / passes)
    return {key: m[key] for key in PER_LAYER}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if not commit:
        for line in _read(ROOT / ".git" / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(idx / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    RUNS.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    setup_times = measure_setup(args)
    workdir = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        workload = load_workload(args.workload, args.seconds, workdir)
        jobs = workload.jobs(args.seed)
        times, passes, failed, digest, extras, steady = run_passes(workload, jobs, args.seconds)
        attempted = len(jobs) * passes
        correct = failed == 0 and steady
        record = {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                t_times, _, t_failed, t_digest, extras, t_steady = run_passes(
                    workload, jobs, args.seconds, passes, tracer)
            finally:
                tracer.uninstall()
            attempted += len(jobs) * passes
            failed += t_failed
            same = t_digest == digest
            if not same:
                print("traced outputs differ from untraced outputs", file=sys.stderr)
            correct = correct and t_failed == 0 and t_steady and same
            metrics = layer_metrics(tracer, passes, extras, sum(times), sum(t_times))
            units = PER_LAYER
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": sum(times),
                "job_p50_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args)
    print(f"provenance: {json.dumps(prov)}")
    print(f"workload {args.workload}: {len(times)} jobs, {len(jobs)} timed per pass, "
          f"{passes} passes, seed {args.seed}, trace {args.trace}")
    print(f"setup samples s: {' '.join(f'{t:.4f}' for t in setup_times)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"job_p50_s n = {len(times)}")
        tail = job_tail(times)
        if tail is None:
            print(f"job_tail_s omitted: {len(times)} jobs, fewer than {TAIL_BEYOND + 1}")
        else:
            print(f"job_tail_s = {tail[0]:.6g} s (p{tail[1]:.1f}, n = {len(times)}, "
                  f"{TAIL_BEYOND} jobs beyond)")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    print(f"output_digest_sha256 = {digest}")

    record.update(provenance=prov, metrics=metrics, passes=passes, job_seconds=times,
                  digest=digest, correct=correct, attempted=attempted, failed=failed)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
