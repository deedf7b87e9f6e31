"""Batch command-line front end.

Subcommands evaluate closed forms, run estimator suites, compare the two,
export simulated realizations, and solve design problems.  All inputs come
from one JSON config; every command is deterministic given (config, seed,
workers).  Exit codes: 0 success, 1 usage or config error, 2 statistical
comparison failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import analytic, estimate
from .model import (ArgumentError, ConfigError, ProcessSpec, _built, check_fields, direction, real, reals,
                    spec_from_dict)
from .optimize import DesignProblem, solve_radius_law, solution_to_json, verify_solution
from .sim import Window, _covering, export_realization_csv, sample_realization


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _parse_spec(config: dict) -> ProcessSpec:
    if "spec" not in config:
        raise ConfigError("config: missing required field 'spec'")
    spec = spec_from_dict(config["spec"])
    _built("spec", spec.require_positive_volume)
    return spec


def _parse_window(config: dict, spec: ProcessSpec) -> Window:
    if "window" not in config:
        raise ConfigError("config: missing required field 'window'")
    doc = config["window"]
    check_fields(doc, "window", ("lo", "hi"))
    window = _built("window", Window, doc["lo"], doc["hi"])
    if window.dim != spec.d:
        raise ConfigError(f"window: a box in R^{window.dim} does not match the spec's R^{spec.d}")
    _covering(spec, window)  # a window the sampler cannot draw fails before any sampling
    return window


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_ANALYTIC_KEYS = ("lags", "spherical_radii", "linear_radii", "linear_eta", "pore_moments")


def cmd_analytic(config: dict, args) -> int:
    spec = _parse_spec(config)
    section = config.get("analytic", {})
    check_fields(section, "analytic", (), _ANALYTIC_KEYS)
    # every field is checked before any closed form is evaluated
    lags = _built("analytic", reals, "lags", section.get("lags", []), (None, spec.d))
    spherical, linear = (_built("analytic", reals, key, section.get(key, []), (None,), minimum=0)
                         for key in ("spherical_radii", "linear_radii"))
    eta = section.get("linear_eta")
    if len(linear) or eta is not None:
        eta = _built("analytic", direction, "linear_eta", eta, spec.d)
    pore = bool(section.get("pore_moments"))
    if pore and (spec.d != 3 or spec.k != 1):
        raise ConfigError("analytic.pore_moments: pore moments apply to axial cylinders in R^3")

    rows = [("volume_fraction", analytic.volume_fraction(spec)),
            ("specific_surface", analytic.specific_surface(spec))]
    rows += [(f"covariance[{','.join(_fmt(float(x)) for x in h)}]",
              analytic.covariance(spec, h)) for h in lags]
    rows += [(f"spherical_cdf[r={_fmt(r)}]", analytic.spherical_cdf(spec, r)) for r in spherical]
    rows += [(f"linear_cdf[r={_fmt(r)}]", analytic.linear_cdf(spec, eta, r)) for r in linear]
    if pore:
        pm = analytic.pore_moments(spec.intensity, spec.base.mean_boundary)
        rows += [("pore_mean", pm.mean), ("pore_second_moment", pm.second_moment),
                 ("pore_variance", pm.variance)]
    out = Path(args.out)
    _write(out / "analytic.csv", "name,value\n" + "".join(f"{n},{_fmt(v)}\n" for n, v in rows))
    _write(out / "analytic.json", json.dumps({n: v for n, v in rows}, indent=2))
    for n, v in rows:
        print(f"{n} = {_fmt(v)}")
    return 0


_EST_KEYS = ("quantities", "n_points", "n_replicates", "lags", "radii", "eta",
             "n_rays", "n_lines", "probe_length", "step", "n_dirs", "richardson")


def _prepare(quantity: str, section: dict, spec: ProcessSpec, window: Window,
             n_points: int) -> estimate.Estimator:
    """One quantity's estimator; bad arguments fail here, before any sampling."""
    get = section.get
    calls = {
        "volume_fraction": (estimate.prepare_volume_fraction, n_points),
        "covariance": (estimate.prepare_covariance, get("lags"), n_points),
        "spherical_cdf": (estimate.prepare_spherical_cdf, get("radii"), n_points),
        "linear_cdf": (estimate.prepare_linear_cdf, get("eta"), get("radii"), get("n_rays", n_points)),
        "surface_linescan": (estimate.prepare_linescan, get("n_lines", n_points), get("probe_length")),
        "surface_covderiv": (estimate.prepare_covderiv, get("step", 0.02), get("n_dirs", 32), n_points,
                             bool(get("richardson", False))),
    }
    if quantity not in calls:
        raise ConfigError(f"estimate.quantities: unknown quantity '{quantity}'")
    prepare, *arguments = calls[quantity]
    return _built("estimate", prepare, spec, window, *arguments)


def _run_estimators(config: dict, args) -> list[estimate.EstimateReport]:
    spec = _parse_spec(config)
    window = _parse_window(config, spec)
    section = config.get("estimate", {})
    check_fields(section, "estimate", ("quantities",), _EST_KEYS)
    quantities = section["quantities"]
    if not (isinstance(quantities, list) and all(isinstance(q, str) for q in quantities)):
        raise ConfigError(f"estimate.quantities: must be a list of quantity names, got {quantities!r}")
    n_points = _built("estimate", real, "n_points", section.get("n_points", 100_000), minimum=1, integer=True)
    n_reps = _built("estimate", real, "n_replicates", section.get("n_replicates", 50), minimum=2, integer=True)
    estimators = [_prepare(q, section, spec, window, n_points) for q in quantities]
    return _built("estimate", estimate.run_estimators, spec, window, estimators, n_reps, args.seed, args.workers)


def _emit_reports(reports, args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    estimate.reports_to_csv(reports, out / "reports.csv")
    _write(out / "reports.json", estimate.reports_to_json(reports))
    for rep in reports:
        z = "" if rep.z_score is None else f"  z={_fmt(rep.z_score)}"
        ana = "" if rep.analytic is None else f"  analytic={_fmt(rep.analytic)}"
        print(f"{rep.name}: {_fmt(rep.estimate)} +- {_fmt(rep.std_error)}{ana}{z}")


def cmd_estimate(config: dict, args) -> int:
    _emit_reports(_run_estimators(config, args), args)
    return 0


def cmd_compare(config: dict, args) -> int:
    reports = _run_estimators(config, args)
    _emit_reports(reports, args)
    zs = [abs(r.z_score) for r in reports if r.z_score is not None]
    worst = math.nan if any(math.isnan(z) for z in zs) else max(zs, default=0.0)
    print(f"worst |z| = {_fmt(worst)} (threshold {_fmt(args.z_threshold)})")
    return 0 if worst <= args.z_threshold else 2


def cmd_simulate(config: dict, args) -> int:
    spec = _parse_spec(config)
    window = _parse_window(config, spec)
    check_fields(config.get("simulate", {}), "simulate")
    real = sample_realization(spec, window, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_realization_csv(real, out / "realization.csv")
    print(f"{real.n_cylinders()} cylinders hit the window (seed {args.seed})")
    return 0


def cmd_optimize(config: dict, args) -> int:
    if "optimize" not in config:
        raise ConfigError("config: missing required field 'optimize'")
    section = config["optimize"]
    check_fields(section, "optimize", ("lambda", "epsilon", "r_max"), ("n_verify",))
    n_verify = _built("optimize", real, "n_verify", section.get("n_verify", 0), minimum=0, integer=True)
    prob = _built("optimize", DesignProblem, section["lambda"], section["epsilon"], section["r_max"])
    sol = _built("optimize", solve_radius_law, prob)
    certified = True
    if n_verify > 0:
        certified = verify_solution(prob, sol, n_verify, args.seed)
    out = Path(args.out)
    _write(out / "solution.json", solution_to_json(sol))
    print(f"optimal radius law: mass {_fmt(1.0 - sol.q)} at 0, {_fmt(sol.q)} at {_fmt(prob.r_max)}")
    print(f"achieved volume fraction p = {_fmt(sol.achieved_p)}; Var H = {_fmt(sol.var_h)} "
          f"<= eps = {_fmt(prob.eps)}: {sol.achieved_var_bound_satisfied}")
    if n_verify > 0:
        print(f"random-search certificate ({n_verify} laws): {'ok' if certified else 'FAILED'}")
    return 0 if certified else 2


_COMMANDS = {
    "analytic": cmd_analytic,
    "estimate": cmd_estimate,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylproc",
        description="Poisson cylinder processes: closed forms, simulation, estimation, design.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--workers", type=int, default=1, help="replicate-level workers")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--z-threshold", type=float, default=4.0,
                        help="compare: largest acceptable |z| (default 4)")
    parser.error = _usage_error  # exit 1 through main, not argparse's exit 2
    return parser


def _usage_error(message: str):
    raise ConfigError(message)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        real("--workers", args.workers, minimum=1, integer=True)
        real("--seed", args.seed, minimum=0, integer=True)
        real("--z-threshold", args.z_threshold, minimum=0)
        config = _load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except ArgumentError as exc:  # a flag's; the commands map the config's to their paths
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
