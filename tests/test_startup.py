"""What start-up loads: scipy waits for the first ILP solve.

Only AutoTM's placement solves an ILP, so the entry points that never
place a tensor (the CLIs, the service, trace replay) must not pay
scipy's import, about 0.2 s and 40 MB.  A service pays it when it
starts, before its workers fork the job children that solve.  Each
check runs in a fresh interpreter, since this one has long since
loaded scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ENTRY_POINTS = (
    "repro.experiments.cli",
    "repro.report.cli",
    "repro.analysis.cli",
    "repro.service",
    "repro.traces",
    "repro.experiments",
)

#: Defines ``scipy_modules()``, the number of scipy modules loaded.
PRELUDE = """
import sys

def scipy_modules():
    return sum(name.partition(".")[0] == "scipy" for name in sys.modules)
"""

FIRST_SOLVE = PRELUDE + """
from repro.autotm import PlacementProblem
from repro.autotm.ilp import ilp_solution
from repro.config import default_platform
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder

b = GraphBuilder("t", batch=1, weight_scale=1024)
x = b.input(3, 32, 32)
for _ in range(4):
    x = b.conv_bn_relu(x, 8, kernel=3)
b.softmax_loss(b.matmul(x, 10))
platform = default_platform(4096)
budget = int(platform.socket.dram_capacity * 0.0004)
problem = PlacementProblem.build(build_training_graph(b.graph), platform, budget)
before = scipy_modules()
solution = ilp_solution(problem)
print(before, scipy_modules() > 0, solution.success)
"""

RELEASE = PRELUDE + """
from repro.autotm.ilp import release_threads

before = scipy_modules()
released = release_threads()
print(before, released, "scipy.optimize" in sys.modules)
"""

SERVICE = PRELUDE + """
import tempfile

from repro.service import ResultStore, SimulationService

with tempfile.TemporaryDirectory() as root:
    service = SimulationService(ResultStore(root), workers=1)
    before = scipy_modules()
    service.start()
    print(before, "scipy.optimize" in sys.modules)
    service.shutdown(drain=False, timeout=10.0)
"""


def run_fresh(script):
    """``script``'s stdout words, run in a new interpreter on this ``src``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.split()


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_importing_an_entry_point_loads_no_scipy(module):
    assert run_fresh(f"{PRELUDE}import {module}\nprint(scipy_modules())") == ["0"]


def test_the_first_solve_loads_scipy():
    # Building the problem loads nothing of scipy; the solve does.
    assert run_fresh(FIRST_SOLVE) == ["0", "True", "True"]


def test_release_threads_loads_scipy_before_a_fork():
    before, released, loaded = run_fresh(RELEASE)
    if released != "True":
        pytest.skip("scipy exposes no HiGHS binding")
    # A child forked now inherits the solver instead of importing it.
    assert (before, loaded) == ("0", "True")


def test_a_started_service_loads_the_solver_before_its_workers_fork():
    # Each job's child then inherits scipy instead of importing it.
    assert run_fresh(SERVICE) == ["0", "True"]
