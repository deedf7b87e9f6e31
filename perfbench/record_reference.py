#!/usr/bin/env python3
"""Record the analytic_quad reference values at the current commit.

    python3 perfbench/record_reference.py

Evaluates every (spec family, function, input variant) cell of the
analytic_quad workload once and writes ``perfbench/analytic_reference.json``.
Run it only when a change to the analytic values is intended, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cylproc import analytic  # noqa: E402
from cylproc.model import spec_from_dict  # noqa: E402

from workloads import (  # noqa: E402
    ANALYTIC_SPECS, FUNCS, POINT_SETS, REFERENCE_PATH, analytic_inputs, reference_key,
)


def main():
    values = {}
    for fam, doc in ANALYTIC_SPECS.items():
        spec = spec_from_dict(doc)
        for fn in FUNCS:
            for variant in range(len(POINT_SETS)):
                key = reference_key(fam, fn, variant)
                if key not in values:
                    values[key] = getattr(analytic, fn)(spec, *analytic_inputs(fn, variant))
                    print(f"{key} = {values[key]!r}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
