"""AutoTM's budget ladder, solving one budget ahead in a forked child.

Speculation must change wall-clock only: every plan is the one the
serial ladder makes, nothing is solved twice, and no child outlives the
ladder that started it.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.autotm.ilp import IlpSolution
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.exec import forkcall
from repro.experiments import autotm_common
from repro.experiments.autotm_common import run_autotm, run_ladder
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no os.fork")


def highs_binding():
    """Whether scipy binds HiGHS through highspy (scipy >= 1.15), so that
    its worker threads can be stopped."""
    try:
        from scipy.optimize._highspy._core import _Highs  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.fixture
def forks(monkeypatch):
    """Every call the ladder starts, with the pid it had when started."""
    started = []
    real = forkcall.start

    def spy(fn, *args):
        call = real(fn, *args)
        started.append((call, call.pid))
        return call

    monkeypatch.setattr(forkcall, "start", spy)
    return started


@pytest.fixture
def calls(monkeypatch):
    """How often the ladder solved in-process and decoded a child's solve."""
    counts = {"solve_ilp": 0, "decode": 0}
    for name in counts:
        real = getattr(autotm_common, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(autotm_common, name, counted)
    return counts


def assert_reaped(started):
    assert started and all(call.started for call, _ in started)
    for call, pid in started:
        assert call.pid is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def no_fork():
    raise AssertionError("the serial ladder forked")


def facts(result):
    """Everything a run decides: each tensor's placement, the plan's
    solver statistics, and the simulated traffic and time."""
    plan = result.plan
    placements = {
        tensor.name: (p.mode, p.stash_after, p.restore_before)
        for tensor, p in plan.placements.items()
    }
    assert len(placements) == len(plan.placements)  # names are unique
    solve = (
        plan.solver, plan.budget_bytes, plan.objective_seconds,
        plan.mip_gap, plan.mip_dual_bound, plan.mip_node_count,
    )
    return placements, solve, result.traffic, result.seconds


def tiny():
    b = GraphBuilder("t", batch=1, weight_scale=1024)
    x = b.input(3, 32, 32)
    for _ in range(4):
        x = b.conv_bn_relu(x, 8, kernel=3)
    b.softmax_loss(b.matmul(x, 10))
    return build_training_graph(b.graph), default_platform(4096)


@needs_fork
def test_look_ahead_gives_the_serial_results(monkeypatch, two_cpus, calls):
    # inception_v4's 0.8 plan overflows the pools; its 0.65 plan fits.
    ahead = run_autotm.__wrapped__("inception_v4", True)
    assert calls == {"solve_ilp": 1, "decode": 1}  # 0.65 decoded from a child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    serial = run_autotm.__wrapped__("inception_v4", True)
    assert calls == {"solve_ilp": 3, "decode": 1}
    assert facts(ahead) == facts(serial)


@needs_fork
def test_no_child_outlives_a_ladder_whose_first_plan_fits(two_cpus, forks, calls):
    run_autotm.__wrapped__("densenet264", True)
    assert len(forks) == 1 and calls == {"solve_ilp": 1, "decode": 0}
    assert_reaped(forks)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_no_child_outlives_a_ladder_that_raises(monkeypatch, two_cpus, forks, error):
    def explode(*args, **kwargs):
        raise error("simulation failed")

    monkeypatch.setattr(autotm_common, "execute_autotm", explode)
    training, platform = tiny()
    with pytest.raises(error):
        run_ladder("tiny", training, platform, (0.8, 0.65, 0.5), True)
    assert len(forks) == 1
    assert_reaped(forks)


@needs_fork
def test_an_exhausted_ladder_solves_each_budget_once(monkeypatch, two_cpus, forks, calls):
    def overflow(*args, **kwargs):
        raise ConfigurationError("pool overflow")

    monkeypatch.setattr(autotm_common, "execute_autotm", overflow)
    training, platform = tiny()
    with pytest.raises(ConfigurationError, match="could not fit tiny"):
        run_ladder("tiny", training, platform, (0.8, 0.65, 0.5), True)
    assert calls == {"solve_ilp": 1, "decode": 2}
    assert len(forks) == 2
    assert_reaped(forks)


@needs_fork
def test_a_failed_look_ahead_solve_falls_back_to_greedy(monkeypatch, two_cpus):
    failed = IlpSolution(
        success=False, message="Time limit reached", x=None, fun=None,
        mip_gap=None, mip_dual_bound=None, mip_node_count=None,
    )
    monkeypatch.setattr(autotm_common, "ilp_solution", lambda problem, time_limit: failed)
    solvers = []
    real = autotm_common.execute_autotm

    def first_overflows(training, plan, platform, **kwargs):
        solvers.append(plan.solver)
        if len(solvers) == 1:
            raise ConfigurationError("pool overflow")
        return real(training, plan, platform, **kwargs)

    monkeypatch.setattr(autotm_common, "execute_autotm", first_overflows)
    training, platform = tiny()
    result = run_ladder("tiny", training, platform, (0.8, 0.65), True)
    assert solvers == ["ilp", "greedy"]
    assert result.plan.solver == "greedy"


def test_the_greedy_ladder_solves_in_process(two_cpus, forks):
    training, platform = tiny()
    result = run_ladder("tiny", training, platform, (0.8, 0.65), True, solver="greedy")
    assert result.plan.solver == "greedy"
    assert forks == []
    with pytest.raises(KeyError, match="unknown solver"):
        run_ladder("tiny", training, platform, (0.8,), True, solver="magic")



# HiGHS runs half the host's hardware threads, so only hosts with more
# than two keep worker threads between solves.  The script forces two
# threads through scipy's private wrapper, as such a host would run.
# Without release_threads() the child's solve of this problem (one MIP
# node) waits forever on a worker it does not have, so the script runs
# in its own session, killed as a group if it does not finish.
WORKER_THREADS_SCRIPT = """
import os
import scipy.optimize._milp as milp
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.experiments import autotm_common
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder

os.sched_getaffinity = lambda pid: {0, 1}
real = milp._highs_wrapper
milp._highs_wrapper = lambda *args: real(*args[:-1], {**args[-1], "threads": 2})
b = GraphBuilder("t", batch=1, weight_scale=1024)
x = b.input(3, 32, 32)
for _ in range(12):
    x = b.conv_bn_relu(x, 8, kernel=3)
b.softmax_loss(b.matmul(x, 10))
training, platform = build_training_graph(b.graph), default_platform(4096)
budget = int(platform.socket.dram_capacity * 0.002)
plan = autotm_common.solve_ilp(autotm_common._problem(training, platform, budget))
assert plan.mip_node_count == 1  # and this process keeps a HiGHS worker thread
executed = []
real_execute = autotm_common.execute_autotm

def first_overflows(*args, **kwargs):
    executed.append(1)
    if len(executed) == 1:
        raise ConfigurationError("pool overflow")
    return real_execute(*args, **kwargs)

autotm_common.execute_autotm = first_overflows
autotm_common.run_ladder("tiny", training, platform, (0.002, 0.002, 0.002), True)
print("executed", len(executed))
"""


@needs_fork
@pytest.mark.skipif(not highs_binding(), reason="scipy exposes no HiGHS binding")
def test_a_look_ahead_survives_highs_worker_threads():
    proc = subprocess.Popen(
        [sys.executable, "-c", WORKER_THREADS_SCRIPT],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a forked HiGHS solve hung on the parent's worker threads")
    assert proc.returncode == 0, err
    assert out.strip() == "executed 2"
