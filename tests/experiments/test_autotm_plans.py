"""AutoTM's quick plans, pinned exactly to the host-time benchmark's cells.

``perfbench/expected.json`` records the AutoTM side of every quick
``table2`` grid point.  Any change to the placement model, the ILP or
the first-fit pools that moves a plan moves these traffic counts or
seconds; inception_v4's entry also pins the budget back-off path (its
first plan overflows the DRAM pool and is re-solved at a lower budget).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.autotm_common import run_autotm

EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected.json"


@pytest.mark.parametrize("network", ["densenet264", "resnet200", "inception_v4"])
def test_quick_run_equals_the_benchmark_cell(network):
    cell = json.loads(EXPECTED.read_text())["cnn_autotm"]["cells"][network]
    # Positional arguments share table2's memoised run.
    result = run_autotm(network, True)
    traffic = result.traffic
    assert {
        "dram_reads": traffic.dram_reads,
        "dram_writes": traffic.dram_writes,
        "nvram_reads": traffic.nvram_reads,
        "nvram_writes": traffic.nvram_writes,
        "seconds": result.seconds,
    } == cell
