"""Golden outputs: byte-pinned CLI files and bit-pinned capacity values.

The hashes fix the exact bytes `cylproc simulate` and `cylproc estimate`
write for three seeds on four process families, so any change to the
sampler's draw order, the query kernels, the interval merges or the
closed forms shows here.  A refactor must leave every entry unchanged;
an intended change of outputs re-pins them in a commit of its own.
The capacity values are bit patterns of one platform (CPython 3.11,
numpy 2 on x86-64); another interpreter or BLAS may round differently.
"""

import hashlib
import json

import pytest

from cylproc.analytic import capacity_finite
from cylproc.cli import main
from cylproc.model import spec_from_dict

ISO = {"type": "isotropic"}
SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
ALL = ["volume_fraction", "covariance", "spherical_cdf", "linear_cdf",
       "surface_linescan", "surface_covderiv"]

FAMILIES = {
    "disc3": {
        "spec": {"d": 3, "k": 1, "lambda": 0.1, "alpha": ISO,
                 "base": {"type": "disc", "radius": 1.0}},
        "window": {"lo": [0, 0, 0], "hi": [14, 14, 14]},
        "estimate": {"quantities": ALL, "lags": [[1.0, 0.5, 0.0]], "eta": [0.0, 0.0, 1.0]},
    },
    "square3": {
        "spec": {"d": 3, "k": 1, "lambda": 0.2, "alpha": ISO,
                 "base": {"type": "polygon", "vertices": SQUARE}},
        "window": {"lo": [0, 0, 0], "hi": [14, 14, 14]},
        "estimate": {"quantities": ["volume_fraction", "spherical_cdf", "surface_linescan",
                                    "surface_covderiv"]},
    },
    "slab": {
        "spec": {"d": 3, "k": 2, "lambda": 0.3, "alpha": ISO,
                 "base": {"type": "segment", "half_length": 0.5}},
        "window": {"lo": [0, 0, 0], "hi": [14, 14, 14]},
        "estimate": {"quantities": ALL, "lags": [[1.0, 0.5, 0.0]], "eta": [0.0, 0.6, 0.8]},
    },
    "band2": {
        "spec": {"d": 2, "k": 1, "lambda": 0.4, "alpha": ISO,
                 "base": {"type": "segment", "half_length": 0.5}},
        "window": {"lo": [0, 0], "hi": [16, 16]},
        "estimate": {"quantities": ALL, "lags": [[1.0, 0.5]], "eta": [0.6, 0.8]},
    },
}
COMMON = {"n_points": 2000, "n_replicates": 3, "radii": [0.5, 1.0], "n_lines": 2000,
          "n_dirs": 3}

# family -> seed -> (sha256 of realization.csv, sha256 of reports.csv)
GOLDEN = {
    "band2": {
        1: ("da084f7554a08ae80e2b09347365ba38cf2a918f8f9e1c1badcb18654c3afda3",
            "8f60ab4be20bc87442fe9786250583f444c602caa151ff826a57f4392093e6bf"),
        2: ("8c601cacab04642ae9b21fc54458226bb41d19689216987069a6b93d4c1bbf9c",
            "36a732ac2bd9136157f5ade6c5756df047e3b3b0d1c2db251f20ecf2645348e0"),
        3: ("a7e5928393ded8358e395016693966d5ed3e407bbaa9336a9d8f652354ea3675",
            "374f819555f2febe078d97ebe5618816135dac2f5d455d39a19398e86f3c1ab3"),
    },
    "disc3": {
        1: ("0b7b4788e2aa8944c87afce00f7b45bf378a355fb877cb59eaa32e248b175e32",
            "5142cc80e13239b0b8e566111dd157bf1c751c3d15b408ed901773581efa7a13"),
        2: ("25f3d0305e970772a2cff191e6611db9024b00ca951c8051a026419a69a9089f",
            "c604b1e43d1a616a827f7712aafd9fa1589386cf7bde2587ab18917eee46a6c0"),
        3: ("8235e0ea322a63af7dcd8b42c95e69acab6bb82a4804998794325587b101e88c",
            "1533616f4563c82428e9d2ccc44b58eb0217e5ed7716666d2bf34dbef2b69a58"),
    },
    "slab": {
        1: ("62ee1880bce9bc0d93eb2df33ff2ff66876149926e3f47644cde51e4853a02a2",
            "91fd4840d8c8a7f1c88fc7655b5a2744bc37fc15289f307afd38517544b014d6"),
        2: ("e243a0a20eb9b31d850dd1672b57f21083dabaaf86c7ec3a372cfed002c0f2e0",
            "05c94b4ca3a136c8335141005d13efa53f9cc9dba8400b89a0e70fd1c6b7b295"),
        3: ("33f4f1b9f368e1aa5e12c9e6215f95dd2200934ee3dad3572d3093271d552520",
            "88d06d8c6149b3c2f3ac6d4e4e520ae71a83de85cdc5f83c5b6929f2d7b171a8"),
    },
    "square3": {
        1: ("3e905c7b7f343874ddd9c764e66adbe115ab4a9e43c7c145cfd5002b7f79a5ea",
            "b56e8a83785fd65be21ffef1815934ed0d66a92746d222f263ee42edce764f07"),
        2: ("4f623dcd8cdb58498c4ef84fa97c5176613ff0154e2a1628bbb37f5da26c488a",
            "15007a686eb21d3bd691c8baf8f68255906eb1ded12adb2823238ac638e3e258"),
        3: ("f4949e5f891256b9787700c92dbbde7789f6b4eabc8ec3808f1a22a5e2812b6c",
            "1fc2c3b8d6f73560a143215ae0ec1151af0fc8d0bae2b31a40c2e488595977a5"),
    },
}

# (spec, points) -> float.hex of capacity_finite, on the paths that take
# milliseconds: fixed axes, the plane, and slabs over the hemisphere rule
FIXED3 = {"type": "fixed_axes", "axes": [{"direction": [0.0, 0.0, 1.0], "weight": 0.5},
                                         {"direction": [0.6, 0.0, 0.8], "weight": 0.3},
                                         {"direction": [0.0, 1.0, 0.0], "weight": 0.2}]}
P3 = [[0.0, 0.0, 0.0], [1.0, 0.3, 0.0], [0.4, 1.2, 0.5], [1.5, 1.5, 1.0]]
P2 = [[0.0, 0.0], [1.0, 0.3], [0.4, 1.2], [1.5, 0.2]]
CAPACITY_CASES = {
    "band2_girdle": ({"d": 2, "k": 1, "lambda": 0.4,
                      "alpha": {"type": "girdle", "axis": [0.0, 1.0], "delta": 0.4},
                      "base": {"type": "segment", "half_length": 0.5}}, P2),
    "band2_iso": ({"d": 2, "k": 1, "lambda": 0.4, "alpha": ISO,
                   "base": {"type": "segment", "half_length": 0.5}}, P2),
    "fixed_disc3": ({"d": 3, "k": 1, "lambda": 0.1, "alpha": FIXED3,
                     "base": {"type": "disc", "radius": 1.0}}, P3),
    "fixed_mixture3": ({"d": 3, "k": 1, "lambda": 0.1, "alpha": FIXED3,
                        "base": {"type": "mixture", "components": [
                            {"weight": 0.5, "shape": {"type": "disc", "radius": 0.7}},
                            {"weight": 0.5, "shape": {"type": "polygon", "vertices": SQUARE}}]}},
                       P3),
    "fixed_slab3": ({"d": 3, "k": 2, "lambda": 0.3, "alpha": FIXED3,
                     "base": {"type": "segment", "half_length": 0.5}}, P3),
    "fixed_square3": ({"d": 3, "k": 1, "lambda": 0.1, "alpha": FIXED3,
                       "base": {"type": "polygon", "vertices": SQUARE}}, P3),
    "slab_girdle": ({"d": 3, "k": 2, "lambda": 0.3,
                     "alpha": {"type": "girdle", "axis": [0.0, 0.0, 1.0], "delta": 0.5},
                     "base": {"type": "segment", "half_length": 0.5}}, P3),
    "slab_iso": ({"d": 3, "k": 2, "lambda": 0.3, "alpha": ISO,
                  "base": {"type": "segment", "half_length": 0.5}}, P3),
}
CAPACITY_GOLDEN = {
    "band2_girdle": "0x1.2e5d39e0d49b5p-1",
    "band2_iso": "0x1.388948c207d2bp-1",
    "fixed_disc3": "0x1.1e4fae24a78e8p-1",
    "fixed_mixture3": "0x1.6f7c20ad039edp-2",
    "fixed_slab3": "0x1.fd26e64bc1afcp-2",
    "fixed_square3": "0x1.3fbcaed126854p-2",
    "slab_girdle": "0x1.0a9505a21f943p-1",
    "slab_iso": "0x1.ff44329da55d2p-2",
}


def run_cli(tmp_path, family, seed, command):
    doc = dict(FAMILIES[family])
    doc["estimate"] = dict(COMMON, **doc["estimate"])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / command
    assert main([command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    name = "realization.csv" if command == "simulate" else "reports.csv"
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("family, seed", [(f, s) for f in FAMILIES for s in (1, 2, 3)])
def test_cli_outputs_are_pinned(tmp_path, capsys, family, seed):
    got = (run_cli(tmp_path, family, seed, "simulate"), run_cli(tmp_path, family, seed, "estimate"))
    assert got == GOLDEN[family][seed]


@pytest.mark.parametrize("case", sorted(CAPACITY_CASES))
def test_capacity_values_are_pinned(case):
    spec_doc, points = CAPACITY_CASES[case]
    assert capacity_finite(spec_from_dict(spec_doc), points).hex() == CAPACITY_GOLDEN[case]
