"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench/test_smoke.py -q

Takes about four minutes; it is not part of the tier-1 suite.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# printed by every untraced run but not part of the JSON result, which
# carries failures as "failed" / "attempted" and only metrics that are never 0
ALSO_PRINTED = ("job_tail_s", "failed_frac = 0 ratio", "output_digest_sha256 = ", "provenance: ")


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_and_every_check_passes(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *lines, last = out.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    text = "\n".join(lines)
    for m in declared:
        assert f"\n{m['name']} = " in text
    for needle in ALSO_PRINTED[int(trace):]:
        assert needle in text
    if trace and workload == "mc_compare":
        assert result["metrics"]["trace.layer_coverage_frac"]["value"] >= 0.9


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    out = run_bench(tmp_path, "realize_roundtrip", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
