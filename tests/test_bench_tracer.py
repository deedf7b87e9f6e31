"""The benchmark's tracer rebinds names of the package; each must exist and come back on uninstall.

``perfbench/tracing.py`` times layers by rebinding functions that
``cylproc.sim``, ``cylproc.estimate`` and ``cylproc.cli`` define or
import.  Removing or renaming one of them breaks the traced benchmark
run, so this test installs the tracer and uninstalls it again.
"""

import sys
from pathlib import Path

from cylproc import analytic, cli, estimate, sim
from cylproc.euclid import ConvexPolygon

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (analytic, cli, estimate, sim, ConvexPolygon)


def test_tracer_install_rebinds_names_and_uninstall_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache inside the benchmark's tree
    import tracing

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rebound = {(owner.__name__, name) for owner, names in zip(OWNERS, before)
                   for name, value in names.items() if vars(owner).get(name) is not value}
    finally:
        tracer.uninstall()
    assert {("cylproc.sim", "sample_realization"), ("cylproc.estimate", "est_volume_fraction"),
            ("cylproc.estimate", "analytic"), ("ConvexPolygon", "covariogram")} <= rebound
    for owner, names in zip(OWNERS, before):
        for name, value in names.items():
            assert vars(owner).get(name) is value, f"{owner.__name__}.{name} is not restored"
