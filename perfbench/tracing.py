"""Span recorder for the traced benchmark run.

Layers are timed from outside: the public functions of ``cylproc.sim``,
``cylproc.estimate`` and ``cylproc.cli`` are wrapped by rebinding the names
each module imported (or defines and looks up at call time), so nothing in
``src/`` changes.  One wrapper is made per original function and installed
under every name that refers to it, so a call records exactly one span
whichever module made it.  ``ConvexPolygon.covariogram`` and
``covariogram_derivative`` run thousands of times per analytic call and are
only counted, not spanned.

Spans stay in memory as (id, name, start_ns, end_ns, parent_id, job_id) and
are written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

SIM_FUNCS = ("sample_realization", "covered_mask", "distance_mask", "ray_interval_bulk",
             "first_entry_times", "count_component_entries",
             "export_realization_csv", "import_realization_csv")
EST_FUNCS = ("est_volume_fraction", "est_covariance", "est_spherical_cdf", "est_linear_cdf",
             "est_specific_surface_linescan", "est_specific_surface_covderiv")
# estimate's rejection sampler for the contact estimators; private, but it is
# where points are kept or discarded, so it is the only place to count that
UNCOVERED = "_uncovered_points"


def _n_points(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.sample_pairs: set = set()  # (seed, stream) sampled under estimate spans
        self.job = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][1] if self._stack else None

    def wrap(self, name, fn, after=None):
        """Span-recording wrapper; ``after(args, kwargs, out)`` runs outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def begin(self, name) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter_ns(), None, parent, self.job])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][3] = time.perf_counter_ns()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        from cylproc import analytic, cli, estimate, sim
        from cylproc.euclid import ConvexPolygon

        hooks = self._count_hooks()
        for name in SIM_FUNCS:
            original = getattr(sim, name)
            wrapper = self.wrap(f"sim.{name}", original, hooks.get(name))
            for module in (sim, estimate, cli):
                if getattr(module, name, None) is original:
                    self._patch(module, name, wrapper)
        for name in EST_FUNCS:
            self._patch(estimate, name, self.wrap(f"estimate.{name}", getattr(estimate, name)))
        self._patch(estimate, UNCOVERED,
                    self.wrap(f"estimate.{UNCOVERED}", getattr(estimate, UNCOVERED), hooks[UNCOVERED]))
        # estimate calls the analytic module's public functions for its references
        self._patch(estimate, "analytic", SimpleNamespace(**{
            name: self.wrap("estimate.analytic_ref", getattr(analytic, name))
            for name in analytic.__all__ if callable(getattr(analytic, name))}))
        for name in ("covariogram", "covariogram_derivative"):
            self._patch(ConvexPolygon, name, self._counted(getattr(ConvexPolygon, name)))

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["euclid.polygon_covariogram.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_hooks(self):
        from cylproc import sim

        c = self.counts
        sample_sig = inspect.signature(sim.sample_realization)

        def sample(args, kwargs, out):
            c["sim.sample_realization.cyl"] += out.n_cylinders()
            if (self.parent_name() or "").startswith("estimate."):
                bound = sample_sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.sample_pairs.add((bound.arguments["seed"], bound.arguments["stream"]))
                c["estimate.sample_calls"] += 1

        def mask(key):
            def hook(args, kwargs, out):
                n = _n_points(args[1])
                c[f"{key}.pt_cyl"] += n * args[0].n_cylinders()
                if key == "sim.covered_mask" and self.parent_name() == f"estimate.{UNCOVERED}":
                    c["estimate.uncovered.tested"] += n
            return hook

        def rays(args, kwargs, out):
            c["sim.ray_interval_bulk.probe_cyl"] += _n_points(args[1]) * args[0].n_cylinders()
            c["sim.ray_interval_bulk.intervals"] += len(out[0])

        def export(args, kwargs, out):
            c["sim.export_realization_csv.bytes"] += os.path.getsize(args[1])

        def imported(args, kwargs, out):
            c["sim.import_realization_csv.cyl"] += out.n_cylinders()

        def uncovered(args, kwargs, out):
            c["estimate.uncovered.kept"] += len(out)

        return {"sample_realization": sample, "covered_mask": mask("sim.covered_mask"),
                "distance_mask": mask("sim.distance_mask"), "ray_interval_bulk": rays,
                "export_realization_csv": export, "import_realization_csv": imported,
                UNCOVERED: uncovered}

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Per-name (calls, total duration s, total self time s)."""
        child_ns = defaultdict(int)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls, dur, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            calls[name] += 1
            dur[name] += (t1 - t0) * 1e-9
            own[name] += (t1 - t0 - child_ns[sid]) * 1e-9
        return calls, dur, own

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, _, t0, t1, parent, _ in self.spans if parent < 0) * 1e-9
