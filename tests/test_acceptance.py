"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; reference values quoted to five
digits are display roundings of the exact expressions, which are always
recomputed in place.
"""

import json
import math
import time

import numpy as np
import pytest

from cylproc.analytic import (
    covariance_2d_isotropic,
    linear_cdf,
    pore_moments,
    specific_surface,
    variance_bound_cs,
    volume_fraction,
)
from cylproc.cli import main
from cylproc.estimate import (
    est_covariance,
    est_linear_cdf,
    est_specific_surface_covderiv,
    est_specific_surface_linescan,
    est_spherical_cdf,
    est_volume_fraction,
)
from cylproc.euclid import Direction, Disc, Segment
from cylproc.model import (
    DeterministicBase,
    DiscRadiusLaw,
    FixedAxes,
    Isotropic,
    ProcessSpec,
    RadiusLaw,
)
from cylproc.optimize import DesignProblem, solve_radius_law, verify_solution
from cylproc.sim import Window
from tests.test_analytic import pore_oracle

SEED = 20240808


def spec3_iso(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def spec2_iso(lam=0.5, a=1.0):
    return ProcessSpec(d=2, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Segment(a)))


def report_line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{status}] {detail}")
    assert ok, detail


def test_criterion_1_volume_fraction():
    t0 = time.perf_counter()
    rep = est_volume_fraction(spec3_iso(), Window((0, 0, 0), (20, 20, 20)),
                              n_points=100_000, n_reps=50, seed=SEED)
    elapsed = time.perf_counter() - t0
    exact = 1 - math.exp(-0.1 * math.pi)
    z_exact = (rep.estimate - exact) / rep.std_error
    z_quoted = (rep.estimate - 0.26956) / rep.std_error
    ok = abs(z_exact) < 3 and abs(z_quoted) < 3 and elapsed < 60
    report_line(1, ok, f"volume fraction {rep.estimate:.5f} +- {rep.std_error:.5f} vs "
                       f"{exact:.5f} (|z|={abs(z_exact):.2f} < 3), runtime {elapsed:.1f}s < 60s")


def test_criterion_2_covariance_2d():
    t0 = time.perf_counter()
    lags = [[0.5, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]
    reps = est_covariance(spec2_iso(), Window((0, 0), (50, 50)), lags,
                          n_points=100_000, n_reps=50, seed=SEED)
    elapsed = time.perf_counter() - t0
    zs = []
    for rep, r in zip(reps, (0.5, 1.0, 2.0, 4.0)):
        closed = covariance_2d_isotropic(0.5, 1.0, r)
        assert rep.analytic == pytest.approx(closed, abs=1e-10)
        zs.append((rep.estimate - closed) / rep.std_error)
    branch_gap = abs(covariance_2d_isotropic(0.5, 1.0, 2.0) -
                     covariance_2d_isotropic(0.5, 1.0, 2.0 + 1e-300))
    ok = all(abs(z) < 3 for z in zs) and branch_gap < 1e-12 and elapsed < 120
    report_line(2, ok, "2D covariance |z| = " + ", ".join(f"{abs(z):.2f}" for z in zs) +
                f" (all < 3); branch continuity {branch_gap:.1e} < 1e-12; runtime {elapsed:.1f}s < 120s")


def test_criterion_3_spherical_contact():
    reps = est_spherical_cdf(spec3_iso(), Window((0, 0, 0), (20, 20, 20)),
                             [0.25, 0.5, 1.0], n_points=20_000, n_reps=50, seed=SEED)
    zs3 = [rep.z_score for rep in reps]
    # cross-section independence in the plane: thin and thick bands agree
    w2 = Window((0, 0), (50, 50))
    thin = est_spherical_cdf(spec2_iso(lam=0.2, a=0.1), w2, [0.25, 0.5, 1.0],
                             n_points=20_000, n_reps=30, seed=SEED)
    thick = est_spherical_cdf(spec2_iso(lam=0.2, a=5.0), w2, [0.25, 0.5, 1.0],
                              n_points=20_000, n_reps=30, seed=SEED + 1)
    pair_ok, exact_ok = [], []
    for ra, rb, r in zip(thin, thick, (0.25, 0.5, 1.0)):
        combined = math.hypot(ra.std_error, rb.std_error)
        pair_ok.append(abs(ra.estimate - rb.estimate) < 3 * combined)
        target = 1 - math.exp(-2 * 0.2 * r)
        exact_ok.append(abs(ra.estimate - target) < 3 * ra.std_error and
                        abs(rb.estimate - target) < 3 * rb.std_error)
    ok = all(abs(z) < 3 for z in zs3) and all(pair_ok) and all(exact_ok)
    report_line(3, ok, "spherical |z| = " + ", ".join(f"{abs(z):.2f}" for z in zs3) +
                "; 2D base independence holds at a=0.1 vs a=5 (3 combined stderr)")


def test_criterion_4_linear_contact_and_convention():
    w3 = Window((0, 0, 0), (20, 20, 20))
    fixed = ProcessSpec(d=3, k=1, intensity=0.1,
                        alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                        base=DeterministicBase(Disc(1.0)))
    par = est_linear_cdf(fixed, w3, Direction([0, 0, 1.0]), [1.0], 5_000, 20, seed=SEED)[0]
    perp = est_linear_cdf(fixed, w3, Direction([1.0, 0, 0]), [1.0], 20_000, 30, seed=SEED)[0]
    parallel_ok = par.estimate + 3 * par.std_error < 0.005
    perp_ok = abs(perp.z_score) < 3

    # convention arbitration on the isotropic process: the adopted constant
    # uses the Haar mean pi/4 of the axis determinant; the alternative
    # doubles it (equivalently uses 1/2 for the Haar mean)
    spec = spec3_iso()
    radii = (0.5, 1.0, 2.0)
    reps = est_linear_cdf(spec, w3, Direction([1.0, 0, 0]), list(radii), 20_000, 30, seed=SEED)
    ours_all, alt_all = [], []
    for rep, r in zip(reps, radii):
        ours = linear_cdf(spec, Direction([1.0, 0, 0]), r)
        alt = 1 - math.exp(-2 * 0.1 * r * 2 * (math.pi / 4))
        ours_all.append(abs(rep.estimate - ours) < 3 * rep.std_error)
        alt_all.append(abs(rep.estimate - alt) < 3 * rep.std_error)
    exactly_one = all(ours_all) and not any(alt_all)
    ok = parallel_ok and perp_ok and exactly_one
    report_line(4, ok, f"parallel axis H(1) = {par.estimate:.4f} < 0.005; perpendicular |z| = "
                       f"{abs(perp.z_score):.2f} < 3; convention: Haar-mean constant fits at all "
                       f"radii, the doubled alternative fits at none")


def test_criterion_5_specific_surface():
    spec = spec3_iso()
    exact = 2 * math.pi * 1.0 * 0.1 * math.exp(-0.1 * math.pi)
    line = est_specific_surface_linescan(spec, Window((0, 0, 0), (40, 40, 40)),
                                         n_lines=100_000, n_reps=50, seed=SEED)
    rel = abs(line.estimate - exact) / exact
    line_ok = abs(line.z_score) < 3 and rel < 0.02 and abs(line.estimate - 0.45896) < 3 * line.std_error

    cov = est_specific_surface_covderiv(spec, Window((0, 0, 0), (36, 36, 36)), step=0.02,
                                        n_dirs=24, n_points=20_000, n_reps=32, seed=SEED)
    cov_rel = abs(cov.estimate - exact) / exact
    cov_ok = cov_rel < 0.05
    agree = abs(line.estimate - cov.estimate) < 3 * math.hypot(line.std_error, cov.std_error) + 0.01 * exact

    w2 = Window((0, 0), (50, 50))
    lawA = FixedAxes([(Direction([1.0, 0.0]), 1.0)])
    lawB = FixedAxes([(Direction([1.0, 1.0]), 0.5), (Direction([0.0, 1.0]), 0.5)])
    sa = ProcessSpec(d=2, k=1, intensity=0.5, alpha=lawA, base=DeterministicBase(Segment(1.0)))
    sb = ProcessSpec(d=2, k=1, intensity=0.5, alpha=lawB, base=DeterministicBase(Segment(1.0)))
    ra = est_specific_surface_linescan(sa, w2, 20_000, 30, seed=SEED)
    rb = est_specific_surface_linescan(sb, w2, 20_000, 30, seed=SEED + 1)
    band_exact = 2 * 0.5 * math.exp(-1.0)
    band_ok = (abs(ra.z_score) < 3 and abs(rb.z_score) < 3 and
               abs(ra.estimate - rb.estimate) < 3 * math.hypot(ra.std_error, rb.std_error) and
               abs(ra.analytic - band_exact) < 1e-12)
    ok = line_ok and cov_ok and agree and band_ok
    report_line(5, ok, f"line scan {line.estimate:.5f} vs {exact:.5f} "
                       f"(|z|={abs(line.z_score):.2f}, rel={rel:.3%} < 2%); covariance-derivative "
                       f"rel={cov_rel:.3%} < 5%; estimators agree; 2D band case alpha-invariant")


def test_criterion_6_product_identity():
    spec = spec3_iso()
    closed = 2 * math.pi * 1.0 * 0.1 * math.exp(-0.1 * math.pi)
    quad = specific_surface(spec)
    gap = abs(quad - closed)
    ok = gap < 1e-9
    report_line(6, ok, f"quadrature path vs closed form: |{quad:.12f} - {closed:.12f}| = "
                       f"{gap:.2e} < 1e-9 (certifies (-2a)(pi/4) = (-pi a)(1/2))")


def test_criterion_7_pore_moments():
    worst = 0.0
    for lam in (0.01, 0.1, 1.0):
        for cs in (0.0, 1.0, 2 * math.pi, 10.0):
            pm = pore_moments(lam, cs)
            m1, m2 = pore_oracle(lam, cs)
            worst = max(worst, abs(pm.mean - m1) / m1, abs(pm.second_moment - m2) / m2)
    sweep_ok = True
    for lam in (0.05, 0.1, 0.5):
        for mult in (1.0, 1.05, 1.5, 3.0):
            eps = mult / (math.pi * lam)
            cs = variance_bound_cs(lam, eps)
            for frac in np.linspace(0.0, 1.0, 9):
                sweep_ok &= pore_moments(lam, frac * cs).variance <= eps + 1e-12
    ok = worst < 1e-6 and sweep_ok
    report_line(7, ok, f"pore moments vs quadrature: worst relative error {worst:.2e} < 1e-6 "
                       f"on the 12-point grid; Var H <= eps along the sufficient-condition boundary")


def test_criterion_8_optimizer():
    prob = DesignProblem(0.1, 4.0, 2.0)
    sol = solve_radius_law(prob)
    c = math.sqrt(4.0 - 1.0 / (0.1 * math.pi))
    q_gap = abs(sol.q - c / 2.0)
    q_ok = q_gap < 1e-9 and round(sol.q, 5) == 0.45191
    cert = verify_solution(prob, sol, 1000, seed=SEED)

    spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=DiscRadiusLaw(sol.radius_law))
    assert volume_fraction(spec) == pytest.approx(sol.achieved_p, abs=1e-14)
    rep = est_volume_fraction(spec, Window((0, 0, 0), (20, 20, 20)),
                              n_points=100_000, n_reps=50, seed=SEED)
    z = (rep.estimate - sol.achieved_p) / rep.std_error
    ok = q_ok and cert and abs(z) < 3
    report_line(8, ok, f"q = {sol.q:.9f} (|q - c/R_max| = {q_gap:.1e} < 1e-9, rounds to 0.45191); "
                       f"1000 random laws certify optimality; end-to-end volume fraction "
                       f"{rep.estimate:.5f} vs achieved p {sol.achieved_p:.5f} (|z| = {abs(z):.2f} < 3)")


def test_criterion_9_determinism(tmp_path):
    spec_doc = {"d": 3, "k": 1, "lambda": 0.1, "alpha": {"type": "isotropic"},
                "base": {"type": "disc", "radius": 1.0}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "spec": spec_doc,
        "window": {"lo": [0, 0, 0], "hi": [15, 15, 15]},
        "analytic": {"lags": [[1.0, 0, 0]], "spherical_radii": [1.0]},
        "estimate": {"quantities": ["volume_fraction"], "n_points": 5000, "n_replicates": 8},
        "optimize": {"lambda": 0.1, "epsilon": 4.0, "r_max": 2.0, "n_verify": 100},
    }))
    pairs = []
    for cmd, fname in (("simulate", "realization.csv"), ("analytic", "analytic.json"),
                       ("estimate", "reports.csv"), ("compare", "reports.csv"),
                       ("optimize", "solution.json")):
        blobs = []
        for run in range(2):
            out = tmp_path / f"{cmd}{run}"
            assert main([cmd, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
            blobs.append((out / fname).read_bytes())
        pairs.append(blobs[0] == blobs[1])
    # worker-count invariance of estimator reports
    outs = []
    for i, workers in enumerate(("1", "4")):
        out = tmp_path / f"wk{i}"
        assert main(["estimate", "--config", str(cfg), "--seed", "7", "--workers", workers,
                     "--out", str(out)]) == 0
        outs.append((out / "reports.csv").read_bytes())
    worker_ok = outs[0] == outs[1]
    ok = all(pairs) and worker_ok
    report_line(9, ok, "byte-identical outputs for all five commands across reruns; "
                       "estimator reports identical for workers 1 and 4")
