"""kvtrace's full log-append replay, pinned exactly to the host-time benchmark's cells.

``perfbench/expected.json`` records every full-size ``kvtrace`` cell at
trace seed 7.  The log-append trace is the shape whose windows the cache
engine splits: on its direct-mapped geometry about 97 % of each write
window's sets occur once, so five of the eight configurations group
most of every window without a sort and sort only the repeated sets.
Any change to that split, to a closed form it dispatches, or to the
replay loop that moves a count or a second fails here.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import kvtrace
from repro.traces import ALL_MODELS

EXPECTED = Path(__file__).resolve().parents[2] / "perfbench" / "expected.json"


@pytest.mark.parametrize("model", ALL_MODELS)
def test_full_logappend_replay_equals_the_benchmark_cell(model):
    cell = json.loads(EXPECTED.read_text())["kv_replay"]["cells"][f"logappend/{model}"]
    row = kvtrace.replay_point("logappend", model, False)
    assert row.pop("trace") == "logappend"
    assert row == cell
