import json
import math

import numpy as np
import pytest

from cylproc.analytic import covariance_2d_isotropic, linear_cdf, specific_surface, volume_fraction
from cylproc.estimate import (
    ArgumentError,
    EstimateReport,
    est_covariance,
    est_linear_cdf,
    est_specific_surface_covderiv,
    est_specific_surface_linescan,
    est_spherical_cdf,
    est_volume_fraction,
    prepare_covariance,
    prepare_covderiv,
    prepare_linear_cdf,
    prepare_linescan,
    prepare_spherical_cdf,
    prepare_volume_fraction,
    reports_to_csv,
    reports_to_json,
    run_estimators,
)
from cylproc.euclid import ConvexPolygon, Direction, Disc, Segment
from cylproc.model import DeterministicBase, FixedAxes, GirdleBand, Isotropic, ProcessSpec
from cylproc.sim import Window


def spec3_iso(lam=0.1, a=1.0):
    return ProcessSpec(d=3, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Disc(a)))


def spec2_iso(lam=0.5, a=1.0):
    return ProcessSpec(d=2, k=1, intensity=lam, alpha=Isotropic(), base=DeterministicBase(Segment(a)))


W3 = Window((0, 0, 0), (20, 20, 20))
W2 = Window((0, 0), (50, 50))


def test_empty_process_estimates_zero():
    spec = spec3_iso(lam=0.0)
    rep = est_volume_fraction(spec, W3, 2000, 4, seed=1)
    assert rep.estimate == 0.0
    assert rep.std_error == 0.0
    assert rep.z_score == 0.0
    line = est_specific_surface_linescan(spec, W3, 500, 3, seed=1)
    assert line.estimate == 0.0
    cov = est_specific_surface_covderiv(spec, W3, step=0.02, n_dirs=4, n_points=500,
                                        n_reps=3, seed=1)
    assert cov.estimate == 0.0


def test_volume_fraction_small_run():
    rep = est_volume_fraction(spec3_iso(), W3, 20_000, 20, seed=2)
    assert rep.analytic == pytest.approx(volume_fraction(spec3_iso()))
    assert abs(rep.z_score) < 3
    assert rep.n_replicates == 20
    assert rep.std_error > 0
    rep2 = est_volume_fraction(spec2_iso(), W2, 20_000, 15, seed=2)
    assert rep2.analytic == pytest.approx(1 - math.exp(-1.0))
    assert abs(rep2.z_score) < 3


def test_worker_count_does_not_change_reports():
    a = est_volume_fraction(spec3_iso(), W3, 4000, 8, seed=9, workers=1)
    b = est_volume_fraction(spec3_iso(), W3, 4000, 8, seed=9, workers=4)
    assert a == b
    ra = est_covariance(spec2_iso(), W2, [[1.0, 0.0], [4.0, 0.0]], 4000, 6, seed=9, workers=1)
    rb = est_covariance(spec2_iso(), W2, [[1.0, 0.0], [4.0, 0.0]], 4000, 6, seed=9, workers=4)
    assert ra == rb


def test_covariance_zero_lag_equals_volume_fraction_estimator():
    spec = spec3_iso()
    rep_vf = est_volume_fraction(spec, W3, 5000, 6, seed=11)
    rep_c0 = est_covariance(spec, W3, [np.zeros(3)], 5000, 6, seed=11)[0]
    assert rep_c0.estimate == rep_vf.estimate  # same realizations, same point draws


def test_covariance_2d_small_run():
    reps = est_covariance(spec2_iso(), W2, [[0.5, 0], [1, 0], [2, 0], [4, 0]], 20_000, 20, seed=3)
    for rep, r in zip(reps, (0.5, 1.0, 2.0, 4.0)):
        assert rep.analytic == pytest.approx(covariance_2d_isotropic(0.5, 1.0, r), abs=1e-10)
        assert abs(rep.z_score) < 3
    with pytest.raises(ValueError):
        est_covariance(spec2_iso(), W2, [[13.0, 0.0]], 100, 2, seed=3)


def test_spherical_cdf_small_run_and_monotone():
    reps = est_spherical_cdf(spec3_iso(), W3, [0.0, 0.25, 0.5, 1.0], 10_000, 15, seed=4)
    assert reps[0].estimate == 0.0  # uncovered points sit at positive distance
    ests = [r.estimate for r in reps]
    assert all(b >= a for a, b in zip(ests, ests[1:]))  # nested events
    for rep in reps[1:]:
        assert abs(rep.z_score) < 3
    with pytest.raises(ValueError):
        est_spherical_cdf(spec3_iso(), W3, [6.0], 100, 2, seed=4)


def test_spherical_cdf_2d_base_independence():
    ra = est_spherical_cdf(spec2_iso(lam=0.2, a=0.1), W2, [1.0], 10_000, 12, seed=5)[0]
    rb = est_spherical_cdf(spec2_iso(lam=0.2, a=5.0), W2, [1.0], 10_000, 12, seed=6)[0]
    exact = 1 - math.exp(-2 * 0.2 * 1.0)
    assert abs(ra.estimate - exact) < 3 * ra.std_error
    assert abs(rb.estimate - exact) < 3 * rb.std_error
    combined = math.hypot(ra.std_error, rb.std_error)
    assert abs(ra.estimate - rb.estimate) < 3 * combined


def test_linear_cdf_parallel_axis_hits_nothing():
    spec = ProcessSpec(d=3, k=1, intensity=0.1,
                       alpha=FixedAxes([(Direction([0, 0, 1.0]), 1.0)]),
                       base=DeterministicBase(Disc(1.0)))
    rep = est_linear_cdf(spec, W3, Direction([0, 0, 1.0]), [1.0], 4000, 8, seed=7)[0]
    assert rep.estimate + 3 * rep.std_error < 0.005
    assert rep.analytic == 0.0


def test_linear_cdf_settles_the_constant_convention():
    # the Monte Carlo run is the arbiter between the adopted constant and the
    # doubled alternative: exactly one of the two candidates fits
    spec = spec3_iso()
    reps = est_linear_cdf(spec, W3, Direction([1.0, 0, 0]), [0.5, 1.0, 2.0], 10_000, 15, seed=8)
    for rep, r in zip(reps, (0.5, 1.0, 2.0)):
        ours = linear_cdf(spec, Direction([1.0, 0, 0]), r)
        doubled = 1 - math.exp(-2 * 0.1 * r * math.pi / 2)  # doubled directional constant
        assert abs(rep.estimate - ours) < 3 * rep.std_error
        assert abs(rep.estimate - doubled) > 3 * rep.std_error


def test_linear_cdf_2d_base_invariance():
    eta = Direction([1.0, 0.0])
    ra = est_linear_cdf(spec2_iso(lam=0.5, a=0.5), W2, eta, [1.0], 8000, 12, seed=12)[0]
    rb = est_linear_cdf(spec2_iso(lam=0.5, a=2.0), W2, eta, [1.0], 8000, 12, seed=13)[0]
    assert abs(ra.estimate - rb.estimate) < 3 * math.hypot(ra.std_error, rb.std_error)
    assert abs(ra.estimate - ra.analytic) < 3 * ra.std_error


def test_linescan_small_run():
    rep = est_specific_surface_linescan(spec3_iso(), W3, 10_000, 15, seed=14)
    assert rep.analytic == pytest.approx(specific_surface(spec3_iso()), abs=1e-12)
    assert abs(rep.z_score) < 3


def test_linescan_2d_alpha_invariance():
    lawA = FixedAxes([(Direction([1.0, 0.0]), 1.0)])
    lawB = FixedAxes([(Direction([1.0, 1.0]), 0.5), (Direction([0.0, 1.0]), 0.5)])
    sa = ProcessSpec(d=2, k=1, intensity=0.5, alpha=lawA, base=DeterministicBase(Segment(1.0)))
    sb = ProcessSpec(d=2, k=1, intensity=0.5, alpha=lawB, base=DeterministicBase(Segment(1.0)))
    ra = est_specific_surface_linescan(sa, W2, 10_000, 15, seed=15)
    rb = est_specific_surface_linescan(sb, W2, 10_000, 15, seed=16)
    exact = 2 * 0.5 * math.exp(-1.0)
    assert abs(ra.estimate - exact) < 3 * ra.std_error
    assert abs(rb.estimate - exact) < 3 * rb.std_error
    assert abs(ra.estimate - rb.estimate) < 3 * math.hypot(ra.std_error, rb.std_error)


def test_polygon_base_covariance_end_to_end():
    # square cross sections exercise the direction-resolved quadrature and
    # the polygon membership / ray machinery together
    square = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    spec = ProcessSpec(d=3, k=1, intensity=0.1, alpha=Isotropic(), base=DeterministicBase(square))
    reps = est_covariance(spec, Window((0, 0, 0), (16, 16, 16)), [[0.7, 0.0, 0.0]],
                          n_points=15_000, n_reps=15, seed=21)
    assert abs(reps[0].z_score) < 3
    rep = est_volume_fraction(spec, Window((0, 0, 0), (16, 16, 16)), 15_000, 15, seed=22)
    assert abs(rep.z_score) < 3


def test_girdle_law_end_to_end():
    spec = ProcessSpec(d=3, k=1, intensity=0.1,
                       alpha=GirdleBand(Direction([0, 0, 1.0]), 0.35),
                       base=DeterministicBase(Disc(1.0)))
    w = Window((0, 0, 0), (18, 18, 18))
    vf = est_volume_fraction(spec, w, 15_000, 15, seed=23)
    assert abs(vf.z_score) < 3
    # axes concentrate near the girdle plane, so an in-plane lag stays more
    # correlated than a lag along the girdle axis
    reps = est_covariance(spec, w, [[0.0, 0.0, 2.0], [2.0, 0.0, 0.0]], 15_000, 15, seed=24)
    assert reps[1].analytic > reps[0].analytic
    for rep in reps:
        assert abs(rep.z_score) < 3
    line = est_specific_surface_linescan(spec, w, 8_000, 15, seed=25)
    assert abs(line.z_score) < 3
    # planar girdle: bands whose directions huddle around the perpendicular of e1
    flat = ProcessSpec(d=2, k=1, intensity=0.4,
                       alpha=GirdleBand(Direction([1.0, 0.0]), 0.3),
                       base=DeterministicBase(Segment(1.0)))
    reps2 = est_covariance(flat, W2, [[3.0, 0.0], [0.0, 3.0]], 15_000, 15, seed=26)
    for rep in reps2:
        assert abs(rep.z_score) < 3
    assert reps2[1].analytic > reps2[0].analytic  # lags along the bands stay correlated


def test_covderiv_small_run():
    rep = est_specific_surface_covderiv(spec3_iso(), Window((0, 0, 0), (24, 24, 24)),
                                        step=0.02, n_dirs=16, n_points=8000, n_reps=12, seed=17)
    # statistical noise plus the documented O(step) bias
    assert abs(rep.estimate - rep.analytic) < 3 * rep.std_error + 0.05 * rep.analytic
    rich = est_specific_surface_covderiv(spec3_iso(), Window((0, 0, 0), (24, 24, 24)),
                                         step=0.02, n_dirs=16, n_points=8000, n_reps=12, seed=17,
                                         richardson=True)
    assert abs(rich.estimate - rich.analytic) < 3 * rich.std_error + 0.05 * rich.analytic
    assert rich.estimate != rep.estimate


def test_report_serialization(tmp_path):
    reps = [
        EstimateReport("a", 1.0, 0.1, 100, 10, 7, analytic=1.05, z_score=-0.5),
        EstimateReport("b", 0.5, 0.0, 100, 1, 7),
    ]
    path = tmp_path / "reports.csv"
    reports_to_csv(reps, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,estimate,std_error,n_samples,n_replicates,seed,analytic,z_score"
    assert lines[1].startswith("a,1,0.1,100,10,7,1.05,-0.5")
    assert lines[2].endswith(",,")  # missing analytic and z
    doc = reports_to_json(reps)
    assert '"name": "a"' in doc and '"z_score": null' in doc


def test_report_z_score_edge_cases():
    rep = EstimateReport.from_replicates("x", [0.0, 0.0, 0.0], 10, 1, analytic=0.0)
    assert rep.z_score == 0.0
    rep = EstimateReport.from_replicates("x", [0.5, 0.5], 10, 1, analytic=0.4)
    assert rep.z_score == math.inf


def test_report_nan_difference_stays_nan():
    rep = EstimateReport.from_replicates("x", [math.nan, math.nan], 10, 1, analytic=0.4)
    assert math.isnan(rep.estimate) and math.isnan(rep.z_score)
    rep = EstimateReport.from_replicates("x", [0.5, 0.5], 10, 1, analytic=math.nan)
    assert math.isnan(rep.z_score)


def test_report_json_is_strict_for_non_finite_values():
    reps = [EstimateReport("a", math.nan, math.nan, 0, 2, 7, analytic=0.4, z_score=math.nan),
            EstimateReport("b", 0.5, 0.0, 100, 2, 7, analytic=0.4, z_score=-math.inf)]

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    doc = json.loads(reports_to_json(reps), parse_constant=reject)
    a, b = doc["reports"]
    assert a["estimate"] is None and a["std_error"] is None and a["z_score"] is None
    assert a["analytic"] == 0.4
    assert b["estimate"] == 0.5 and b["z_score"] is None


def test_shared_realization_runner_matches_single_quantity_runs():
    spec, window = spec3_iso(), Window((0, 0, 0), (12, 12, 12))
    estimators = [prepare_volume_fraction(spec, window, 500),
                  prepare_covariance(spec, window, [[1.0, 0.0, 0.0]], 500),
                  prepare_volume_fraction(spec, window, 500)]
    shared = run_estimators(spec, window, estimators, 3, seed=4)
    alone = [est_volume_fraction(spec, window, 500, 3, seed=4),
             *est_covariance(spec, window, [[1.0, 0.0, 0.0]], 500, 3, seed=4)]
    assert shared == alone + alone[:1]


def test_estimator_arguments_name_their_field():
    spec = spec3_iso()
    with pytest.raises(ArgumentError) as err:
        prepare_covariance(spec, W3, [[5.0, 0.0, 0.0]], 100)
    assert err.value.field == "lags"
    with pytest.raises(ArgumentError) as err:
        prepare_covariance(spec, W3, [[1.0, 0.0]], 100)
    assert err.value.field == "lags"
    with pytest.raises(ArgumentError) as err:
        prepare_spherical_cdf(spec, W3, [], 100)
    assert err.value.field == "radii"
    with pytest.raises(ArgumentError) as err:
        prepare_linear_cdf(spec, W3, Direction([1.0, 0.0, 0.0]), [25.0], 100)
    assert err.value.field == "radii"
    with pytest.raises(ArgumentError) as err:
        prepare_linear_cdf(spec, W3, Direction([1.0, 0.0]), [1.0], 100)
    assert err.value.field == "eta"
    with pytest.raises(ArgumentError) as err:
        prepare_covderiv(spec, W3, 6.0, 4, 100)
    assert err.value.field == "step"
    with pytest.raises(ArgumentError) as err:
        prepare_linescan(spec, W3, 100, probe_length=30.0)
    assert err.value.field == "probe_length"
