import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylproc
from cylproc.cli import main
from cylproc.model import spec_from_dict
from cylproc.sim import Window, covered_mask, import_realization_csv
from cylproc.rng import philox_stream

SPEC3 = {"d": 3, "k": 1, "lambda": 0.1,
         "alpha": {"type": "isotropic"},
         "base": {"type": "disc", "radius": 1.0}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analytic_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spec": SPEC3,
        "analytic": {"lags": [[1.0, 0.0, 0.0]], "spherical_radii": [1.0],
                     "linear_radii": [1.0], "linear_eta": [1.0, 0.0, 0.0],
                     "pore_moments": True},
    })
    rc = main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "analytic.json").read_text())
    assert doc["volume_fraction"] == pytest.approx(1 - math.exp(-0.1 * math.pi), rel=1e-10)
    assert doc["specific_surface"] == pytest.approx(0.2 * math.pi * math.exp(-0.1 * math.pi), rel=1e-8)
    assert doc["spherical_cdf[r=1]"] == pytest.approx(1 - math.exp(-0.3 * math.pi), rel=1e-10)
    assert "pore_mean" in doc
    out = capsys.readouterr().out
    assert "volume_fraction" in out


def test_zero_intensity_rejected(tmp_path, capsys):
    bad = dict(SPEC3, **{"lambda": 0.0})
    cfg = write_config(tmp_path, {"spec": bad})
    rc = main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "degenerate" in capsys.readouterr().err


def test_malformed_json_and_unknown_fields(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["analytic", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    cfg = write_config(tmp_path, {"spec": dict(SPEC3, typo=1)})
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown field 'typo'" in capsys.readouterr().err

    cfg = write_config(tmp_path, {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [9, 9, 9]},
                                  "estimate": {"quantities": ["volume_fraction"], "n_pointz": 10}})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown field 'n_pointz'" in capsys.readouterr().err


def test_simulate_round_trip_and_determinism(tmp_path):
    cfg = write_config(tmp_path, {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [12, 12, 12]}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["simulate", "--config", cfg, "--seed", "42", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "42", "--out", str(out2)]) == 0
    b1 = (out1 / "realization.csv").read_bytes()
    assert b1 == (out2 / "realization.csv").read_bytes()

    spec = spec_from_dict(SPEC3)
    window = Window((0, 0, 0), (12, 12, 12))
    real = import_realization_csv(out1 / "realization.csv", spec, window)
    from cylproc.sim import sample_realization
    direct = sample_realization(spec, window, seed=42)
    pts = window.uniform_points(philox_stream(1, 1), 10_000)
    assert np.array_equal(covered_mask(real, pts), covered_mask(direct, pts))


def test_estimate_and_compare_commands(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spec": SPEC3,
        "window": {"lo": [0, 0, 0], "hi": [15, 15, 15]},
        "estimate": {"quantities": ["volume_fraction"], "n_points": 4000, "n_replicates": 8},
    })
    out = tmp_path / "est"
    assert main(["estimate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    text = (out / "reports.csv").read_text()
    assert text.startswith("name,estimate,std_error,n_samples,n_replicates,seed,analytic,z_score")
    assert main(["compare", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    # an absurd threshold forces the statistical failure exit code
    assert main(["compare", "--config", cfg, "--seed", "5", "--out", str(out),
                 "--z-threshold", "1e-9"]) == 2


def test_compare_byte_determinism_across_workers(tmp_path):
    cfg = write_config(tmp_path, {
        "spec": SPEC3,
        "window": {"lo": [0, 0, 0], "hi": [15, 15, 15]},
        "estimate": {"quantities": ["volume_fraction"], "n_points": 3000, "n_replicates": 8},
    })
    outs = []
    for i, workers in enumerate(("1", "4")):
        out = tmp_path / f"w{i}"
        assert main(["estimate", "--config", cfg, "--seed", "5", "--workers", workers,
                     "--out", str(out)]) == 0
        outs.append((out / "reports.csv").read_bytes())
    assert outs[0] == outs[1]


def test_optimize_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"optimize": {"lambda": 0.1, "epsilon": 4.0, "r_max": 2.0,
                                               "n_verify": 200}})
    out = tmp_path / "opt"
    assert main(["optimize", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["q"] == pytest.approx(math.sqrt(4 - 1 / (0.1 * math.pi)) / 2, abs=1e-12)

    infeasible = write_config(tmp_path, {"optimize": {"lambda": 0.1, "epsilon": 0.1, "r_max": 2.0}},
                              name="bad.json")
    assert main(["optimize", "--config", infeasible, "--out", str(out)]) == 1
    assert "eps >= 1/(pi lam)" in capsys.readouterr().err


def test_missing_config_sections(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": SPEC3})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "missing required field 'window'" in capsys.readouterr().err
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "missing required field 'optimize'" in capsys.readouterr().err


ALL_QUANTITIES = ["volume_fraction", "covariance", "spherical_cdf", "linear_cdf",
                  "surface_linescan", "surface_covderiv"]
SMALL_ESTIMATE = {"quantities": ALL_QUANTITIES, "n_points": 300, "n_replicates": 3,
                  "lags": [[1.0, 0.5, 0.0]], "radii": [1.0], "eta": [0.0, 0.0, 1.0],
                  "n_lines": 500, "n_dirs": 3}


def counting_sampler(monkeypatch):
    import cylproc.estimate

    calls = []
    original = cylproc.estimate.sample_realization

    def sample(*args, **kwargs):
        calls.append(kwargs.get("stream"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cylproc.estimate, "sample_realization", sample)
    return calls


@pytest.mark.parametrize("workers", ["1", "2"])
def test_compare_shares_one_realization_per_replicate(tmp_path, monkeypatch, workers):
    calls = counting_sampler(monkeypatch)
    window = {"lo": [0, 0, 0], "hi": [12, 12, 12]}
    cfg = write_config(tmp_path, {"spec": SPEC3, "window": window, "estimate": SMALL_ESTIMATE})
    out = tmp_path / "all"
    # three replicates make no z-test; only the bytes are compared
    assert main(["compare", "--config", cfg, "--seed", "8", "--workers", workers,
                 "--z-threshold", "1e9", "--out", str(out)]) == 0
    assert sorted(calls) == [0, 2, 4]  # one realization per replicate, stream 2*rep
    shared = (out / "reports.csv").read_bytes()

    header, rows = None, b""
    for q in ALL_QUANTITIES:
        one = write_config(tmp_path, {"spec": SPEC3, "window": window,
                                      "estimate": dict(SMALL_ESTIMATE, quantities=[q])},
                           name=f"{q}.json")
        assert main(["estimate", "--config", one, "--seed", "8", "--workers", workers,
                     "--out", str(tmp_path / q)]) == 0
        head, _, body = (tmp_path / q / "reports.csv").read_bytes().partition(b"\n")
        header = header or head
        assert head == header
        rows += body
    assert shared == header + b"\n" + rows


@pytest.mark.parametrize("field, value", [
    ("lags", [[3.0, 0.0, 0.0]]),
    ("radii", [3.0]),
    ("eta", [0.0, 0.0, 0.0]),
    ("step", 3.0),
    ("probe_length", 9.0),
    ("n_points", 0),
    ("n_rays", 0),
    ("n_lines", 0),
    ("n_dirs", 0),
    ("n_replicates", 1),
    # non-finite numbers and booleans, which no estimator argument may be
    *[(field, value) for bad in (math.nan, math.inf, -math.inf)
      for field, value in (("lags", [[bad, 0.0, 0.0]]), ("radii", [bad]), ("eta", [bad, 0.0, 1.0]),
                           ("step", bad), ("probe_length", bad), ("n_points", bad), ("n_rays", bad),
                           ("n_lines", bad), ("n_dirs", bad), ("n_replicates", bad))],
    ("step", True),
    ("radii", [True]),
])
def test_estimator_argument_errors_exit_1_before_sampling(tmp_path, monkeypatch, capsys,
                                                          field, value):
    calls = counting_sampler(monkeypatch)
    cfg = write_config(tmp_path, {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [8, 8, 8]},
                                  "estimate": dict(SMALL_ESTIMATE, **{field: value})})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: estimate.{field}: ")
    assert calls == []


@pytest.mark.parametrize("field, value", [
    ("lags", 1.0),
    ("probe_length", "x"),
    ("step", "x"),
    ("radii", "x"),
])
def test_wrongly_typed_estimator_arguments_exit_1_with_their_path(tmp_path, monkeypatch, capsys,
                                                                  field, value):
    calls = counting_sampler(monkeypatch)
    cfg = write_config(tmp_path, {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [8, 8, 8]},
                                  "estimate": dict(SMALL_ESTIMATE, **{field: value})})
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: estimate.{field}: ")
    assert "quantities" not in err
    assert calls == []


@pytest.mark.parametrize("alpha, base, path", [
    ({"type": "girdle", "axis": [0, 0, 1], "delta": 5}, None, "spec.alpha.delta"),
    ({"type": "girdle", "axis": [0, 0, 0], "delta": 0.5}, None, "spec.alpha.axis"),
    (None, {"type": "disc", "radius": -1.0}, "spec.base.radius"),
    (None, {"type": "disc_radius_law", "atoms": [[1.0, 0.5]]}, "spec.base.atoms"),
    (None, {"type": "mixture", "components": [{"weight": 1.0, "shape": {"type": "disc", "radius": 0}}]},
     "spec.base.components[0].shape.radius"),
    # non-finite numbers, rejected by the constructor that holds them
    (None, {"type": "disc", "radius": math.inf}, "spec.base.radius"),
    (None, {"type": "segment", "half_length": math.inf}, "spec.base.half_length"),
    ({"type": "fixed_axes", "axes": [{"direction": [0, 0, 1], "weight": math.nan}]}, None, "spec.alpha.axes"),
    (None, {"type": "disc_radius_law", "atoms": [[math.nan, 1.0]]}, "spec.base.atoms"),
    (None, {"type": "mixture", "components": [{"weight": math.nan, "shape": {"type": "disc", "radius": 1.0}}]},
     "spec.base.components"),
    # weights that do not sum to 1, or a negative one that does
    (None, {"type": "mixture", "components": [{"weight": 0.5, "shape": {"type": "disc", "radius": 1.0}},
                                              {"weight": 0.4, "shape": {"type": "disc", "radius": 0.5}}]},
     "spec.base.components"),
    (None, {"type": "mixture", "components": [{"weight": -0.5, "shape": {"type": "disc", "radius": 1.0}},
                                              {"weight": 1.5, "shape": {"type": "disc", "radius": 0.5}}]},
     "spec.base.components"),
    (None, {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, math.inf], [0, 1]]}, "spec.base.vertices"),
    ({"type": "fixed_axes", "axes": [{"direction": [math.inf, 0, 0], "weight": 1.0}]}, None,
     "spec.alpha.axes[0].direction"),
    # booleans, read as 1 or 0 by a float conversion
    (None, {"type": "segment", "half_length": True}, "spec.base.half_length"),
    (None, {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, True], [0, 1]]}, "spec.base.vertices"),
    ({"type": "fixed_axes", "axes": [{"direction": [0, 0, 1], "weight": True}]}, None, "spec.alpha.axes"),
    (None, {"type": "disc_radius_law", "atoms": [[True, 1.0]]}, "spec.base.atoms"),
    (None, {"type": "mixture", "components": [{"weight": True, "shape": {"type": "disc", "radius": 1.0}}]},
     "spec.base.components"),
])
def test_spec_constructor_errors_name_their_field(tmp_path, capsys, alpha, base, path):
    spec = dict(SPEC3, alpha=alpha or SPEC3["alpha"], base=base or SPEC3["base"])
    cfg = write_config(tmp_path, {"spec": spec})
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    if "Infinity" in json.dumps(spec) or "NaN" in json.dumps(spec):
        assert "finite" in err  # named as what it is, not as a zero or degenerate value


def test_analytic_zero_linear_eta_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": SPEC3, "analytic": {"linear_radii": [1.0],
                                                              "linear_eta": [0, 0, 0]}})
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: analytic.linear_eta: ")


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"), ("--seed", "-1"),
                                         ("--seed", str(1 << 64)),  # the low 64 bits would give seed 0's draws
                                         ("--z-threshold", "nan"), ("--z-threshold", "-1"),
                                         ("--z-threshold", "inf")])
def test_bad_seed_and_worker_count_exit_1(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path, {"spec": SPEC3})
    assert main(["analytic", "--config", cfg, flag, value, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("field, value", [
    ("lags", [[1.0, 0.0]]),
    ("lags", 1.0),
    ("spherical_radii", ["a"]),
    ("spherical_radii", [-1.0]),
    ("linear_radii", [-1.0]),
    ("linear_eta", [1.0, 0.0]),
    *[(field, value) for bad in (math.nan, math.inf, -math.inf)
      for field, value in (("lags", [[bad, 0.0, 0.0]]), ("spherical_radii", [bad]), ("linear_radii", [bad]),
                           ("linear_eta", [bad, 0.0, 1.0]))],
    ("spherical_radii", [True]),
    ("lags", [[True, 0.0, 0.0]]),
])
def test_analytic_field_errors_exit_1_before_any_closed_form(tmp_path, monkeypatch, capsys,
                                                             field, value):
    import cylproc.analytic

    def closed_form(*args, **kwargs):
        raise AssertionError("a closed form ran before the fields were checked")

    monkeypatch.setattr(cylproc.analytic, "volume_fraction", closed_form)
    section = {"linear_radii": [1.0], "linear_eta": [1.0, 0.0, 0.0], field: value}
    cfg = write_config(tmp_path, {"spec": SPEC3, "analytic": section})
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: analytic.{field}: ")


WINDOW3 = {"lo": [0, 0, 0], "hi": [8, 8, 8]}
ESTIMATE = {"quantities": ["volume_fraction"], "n_points": 100, "n_replicates": 2}
OPTIMIZE = {"lambda": 0.1, "epsilon": 4.0, "r_max": 2.0}


@pytest.mark.parametrize("command, config, path", [
    ("simulate", {"spec": SPEC3, "window": {"lo": [0, 0], "hi": [8, 8]}}, "window"),
    ("estimate", {"spec": SPEC3, "window": {"lo": [0, 0], "hi": [8, 8]}, "estimate": ESTIMATE},
     "window"),
    ("optimize", {"optimize": dict(OPTIMIZE, n_verify="x")}, "optimize.n_verify"),
    ("estimate", {"spec": SPEC3, "window": WINDOW3,
                  "estimate": dict(ESTIMATE, quantities="volume_fraction")}, "estimate.quantities"),
    ("analytic", {"spec": dict(SPEC3, d="x")}, "spec.d"),
    ("analytic", {"spec": dict(SPEC3, k="x")}, "spec.k"),
    ("analytic", {"spec": dict(SPEC3, **{"lambda": "x"})}, "spec.lambda"),
    ("simulate", {"spec": SPEC3, "window": [0, 8]}, "window"),
    ("analytic", {"spec": SPEC3, "analytic": [1.0]}, "analytic"),
    ("estimate", {"spec": SPEC3, "window": WINDOW3, "estimate": "volume_fraction"}, "estimate"),
    ("simulate", {"spec": SPEC3, "window": WINDOW3, "simulate": 3}, "simulate"),
    ("optimize", {"optimize": [0.1, 4.0, 2.0]}, "optimize"),
    ("analytic", {"spec": dict(SPEC3, base="disc")}, "spec.base"),
    ("analytic", {"spec": dict(SPEC3, base={"type": "polygon",
                                            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}),
                  "analytic": {"linear_radii": [1.0], "linear_eta": [math.nan, 0.0, 0.0]}},
     "analytic.linear_eta"),
    # fields that parse as numbers or objects but that the process spec itself rejects
    ("analytic", {"spec": dict(SPEC3, **{"lambda": -1})}, "spec.lambda"),
    ("analytic", {"spec": dict(SPEC3, **{"lambda": math.inf})}, "spec.lambda"),
    ("analytic", {"spec": dict(SPEC3, d=4)}, "spec.d"),
    ("analytic", {"spec": dict(SPEC3, k=3)}, "spec.k"),
    ("analytic", {"spec": dict(SPEC3, k=2)}, "spec.base"),
    ("analytic", {"spec": dict(SPEC3, base={"type": "segment", "half_length": 1.0})}, "spec.base"),
    ("analytic", {"spec": dict(SPEC3, alpha={"type": "girdle", "axis": [0, 1], "delta": 0.5})}, "spec.alpha"),
    ("simulate", {"spec": dict(SPEC3, alpha={"type": "fixed_axes",
                                             "axes": [{"direction": [1, 0], "weight": 1.0}]}),
                  "window": WINDOW3}, "spec.alpha"),
    ("simulate", {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [math.inf, 10, 10]}}, "window"),
    ("estimate", {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [math.inf, 10, 10]}, "estimate": ESTIMATE},
     "window"),
    # non-finite numbers and booleans in every number field of spec, window and optimize
    *[case for bad in (math.nan, math.inf, -math.inf) for case in (
        ("analytic", {"spec": dict(SPEC3, d=bad)}, "spec.d"),
        ("analytic", {"spec": dict(SPEC3, k=bad)}, "spec.k"),
        ("analytic", {"spec": dict(SPEC3, **{"lambda": bad})}, "spec.lambda"),
        ("analytic", {"spec": dict(SPEC3, alpha={"type": "girdle", "axis": [0, 0, 1], "delta": bad})},
         "spec.alpha.delta"),
        ("analytic", {"spec": dict(SPEC3, base={"type": "disc", "radius": bad})}, "spec.base.radius"),
        ("simulate", {"spec": SPEC3, "window": {"lo": [bad, 0, 0], "hi": [10, 10, 10]}}, "window"),
        ("optimize", {"optimize": dict(OPTIMIZE, **{"lambda": bad})}, "optimize.lambda"),
        ("optimize", {"optimize": dict(OPTIMIZE, epsilon=bad)}, "optimize.epsilon"),
        ("optimize", {"optimize": dict(OPTIMIZE, r_max=bad)}, "optimize.r_max"),
        ("optimize", {"optimize": dict(OPTIMIZE, n_verify=bad)}, "optimize.n_verify"))],
    ("analytic", {"spec": dict(SPEC3, d=True)}, "spec.d"),
    ("analytic", {"spec": dict(SPEC3, **{"lambda": True})}, "spec.lambda"),
    ("analytic", {"spec": dict(SPEC3, alpha={"type": "girdle", "axis": [0, 0, 1], "delta": True})},
     "spec.alpha.delta"),
    ("optimize", {"optimize": dict(OPTIMIZE, r_max=True)}, "optimize.r_max"),
    ("analytic", {"spec": dict(SPEC3, base={"type": "disc", "radius": True})}, "spec.base.radius"),
    ("simulate", {"spec": SPEC3, "window": {"lo": [0, 0, False], "hi": [10, 10, 10]}}, "window"),
])
def test_malformed_fields_exit_1_with_their_path(tmp_path, capsys, command, config, path):
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err and "unknown quantity" not in err


SPEC2 = {"d": 2, "k": 1, "lambda": 0.1, "alpha": {"type": "isotropic"},
         "base": {"type": "segment", "half_length": 1.0}}


@pytest.mark.parametrize("command, config, message", [
    pytest.param("analytic", None, "error: cannot read config file ", id="unreadable"),
    pytest.param("analytic", "[1, 2]", "error: config root must be a JSON object", id="root_not_an_object"),
    pytest.param("analytic", {"analytic": {}}, "error: config: missing required field 'spec'", id="no_spec"),
    pytest.param("analytic", {"spec": SPEC2, "analytic": {"pore_moments": True}},
                 "error: analytic.pore_moments: pore moments apply to axial cylinders in R^3", id="planar_pores"),
    pytest.param("estimate", {"spec": SPEC3, "window": WINDOW3, "estimate": dict(ESTIMATE, quantities=["volume"])},
                 "error: estimate.quantities: unknown quantity 'volume'", id="unknown_quantity"),
    pytest.param("simulate", {"spec": SPEC3, "window": {"lo": [0, 0, 0, 0], "hi": [8, 8, 8, 8]}},
                 "error: window: window must be a box in R^2 or R^3", id="four_coordinates"),
    # both fail before anything is drawn or allocated
    pytest.param("simulate", {"spec": SPEC3, "window": {"lo": [0, 0, 0], "hi": [1e12, 4, 4]}},
                 "error: window: the window needs ", id="more_candidates_than_the_sampler_draws"),
    pytest.param("simulate", {"spec": SPEC3, "window": {"lo": [-1e308, 0, 0], "hi": [1e308, 4, 4]}},
                 "error: window: window must have a positive extent", id="extent_overflows"),
    # counts whose arrays numpy refuses before allocating anything; never a size near a machine's memory
    pytest.param("estimate", {"spec": SPEC3, "window": WINDOW3, "estimate": dict(ESTIMATE, n_points=1e15)},
                 "error: out of memory: ", id="points_beyond_memory"),
    pytest.param("estimate", {"spec": SPEC3, "window": WINDOW3,
                              "estimate": dict(ESTIMATE, quantities=["surface_linescan"], n_lines=1e15)},
                 "error: out of memory: ", id="lines_beyond_memory"),
])
def test_config_errors_exit_1_with_their_message(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


def test_importing_the_package_and_the_cli_leaves_scipy_special_unloaded():
    # scipy.special serves the pore moments alone and loads on their first call; a fresh
    # interpreter shows what an import costs, whatever this process has loaded already
    code = "import sys, cylproc, cylproc.cli; sys.exit(3 if 'scipy.special' in sys.modules else 0)"
    path = [str(Path(cylproc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


@pytest.mark.parametrize("argv, message", [
    pytest.param(["compare", "--seed", "abc", "--config", "x.json"], "argument --seed: invalid int value",
                 id="seed_not_an_integer"),
    pytest.param(["compare", "--seed", "1"], "the following arguments are required: --config", id="no_config"),
    pytest.param(["optimise", "--config", "x.json"], "argument command: invalid choice", id="unknown_command"),
    pytest.param(["analytic", "--config", "x.json", "--z-threshold", "q"], "argument --z-threshold: invalid float",
                 id="threshold_not_a_number"),
])
def test_usage_errors_exit_1_with_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0 and "usage: cylproc" in capsys.readouterr().out


def test_a_realization_covering_the_rejection_region_exits_1_naming_quantity_and_replicate(tmp_path, capsys):
    spec = dict(SPEC3, **{"lambda": 1.4})
    cfg = write_config(tmp_path, {"spec": spec, "window": {"lo": [0, 0, 0], "hi": [4, 4, 4]},
                                  "estimate": {"quantities": ["spherical_cdf"], "n_points": 200,
                                               "n_replicates": 5, "radii": [0.5]}})
    assert main(["estimate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: estimate: replicate 2: spherical_cdf: ") and err.count("\n") == 1
