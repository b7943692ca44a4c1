"""The heap policy that importing ``repro`` sets: window-sized numpy
temporaries are served from pages the process keeps, not faulted in
afresh for every window."""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

#: One warm-up, then 50 "windows" of four BATCH_LINES-line int64
#: temporaries; prints the minor faults the 50 windows took.
WINDOWS = """
import resource
import numpy as np
from repro.config import BATCH_LINES

def window():
    lines = np.arange(BATCH_LINES, dtype=np.int64)
    scaled = lines * 7
    index = scaled // 5
    return int(np.sort(index)[-1])

for _ in range(5):
    window()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    window()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt")
def test_window_temporaries_take_no_page_faults():
    # Without the policy the 50 windows take about 100,000 minor faults.
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"
    }
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", WINDOWS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert int(out.stdout) < 100


def test_missing_or_refusing_mallopt_changes_nothing():
    repro._set_heap_policy(types.SimpleNamespace())  # no mallopt symbol
    calls = []

    def refusing(param, value):
        calls.append((param, value))
        return 0

    repro._set_heap_policy(types.SimpleNamespace(mallopt=refusing))
    assert calls == [(-3, repro.MMAP_THRESHOLD), (-1, repro.TRIM_THRESHOLD)]
