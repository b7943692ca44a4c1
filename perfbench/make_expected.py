"""Regenerate ``expected.json`` from the registered experiments' own outputs.

    python3 perfbench/make_expected.py

* ``kv_replay``: the ``kvtrace`` experiment's full-size data (trace seed 7);
* ``cnn_2lm``: the ``ablation`` experiment's quick data;
* ``cnn_autotm``: the AutoTM side of each ``table2`` quick grid point.

Run it only when a change is meant to alter simulated results; the
benchmark compares every cell against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.exec import run_sweep  # noqa: E402
from repro.experiments import ablation, kvtrace, table2  # noqa: E402


def main() -> int:
    kv = kvtrace.run(quick=False).data
    points = run_sweep(table2.sweep_spec(quick=True), jobs=1)
    expected = {
        "kv_replay": {
            "source": f"kvtrace full data, trace seed {kvtrace.TRACE_SEED}",
            "cells": {
                f"{trace}/{model}": row
                for trace, models in kv.items()
                for model, row in models.items()
                if not model.startswith("_")
            },
        },
        "cnn_2lm": {
            "source": "ablation quick data",
            "cells": dict(ablation.run(quick=True).data),
        },
        "cnn_autotm": {
            "source": "table2 quick grid points, AutoTM side",
            "cells": {
                network: point["autotm"]
                for network, point in zip(table2.NETWORKS, points)
            },
        },
    }
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
