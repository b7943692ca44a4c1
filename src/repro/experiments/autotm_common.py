"""Shared (cached) CNN runs for the AutoTM experiments (Fig. 10, Table II).

:func:`run_ladder` is AutoTM's budget back-off, which :func:`run_autotm`
and the ``gpt`` extension share.  It calls ``PlacementProblem.build``,
``solve_ilp``, ``solve_greedy`` and ``execute_autotm`` through this
module's globals, so instrumentation patched onto those names sees every
call the ladder makes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.autotm import PlacementProblem, execute_autotm, solve_greedy, solve_ilp
from repro.autotm.executor import AutoTMResult
from repro.autotm.ilp import IlpSolution, decode, ilp_solution, release_threads
from repro.autotm.model import PlacementPlan
from repro.cache import DirectMappedCache
from repro.config import PlatformConfig
from repro.errors import ConfigurationError, SolverError
from repro.exec import forkcall
from repro.experiments.platform import CNN_STRIDE, cnn_platform_for, training_setup
from repro.memsys import CachedBackend
from repro.nn import execute_iteration
from repro.nn.autodiff import TrainingGraph
from repro.nn.executor import ExecutionResult

#: Fractions of the socket's DRAM handed to AutoTM on the CNNs, tried in
#: order: the first leaves headroom for first-fit fragmentation, as in
#: real AutoTM budgets, and each next one is the back-off when the
#: physical pools still overflow.
BUDGET_FRACTIONS = (0.8, 0.65, 0.5, 0.35)
#: The first rung of :data:`BUDGET_FRACTIONS`.
AUTOTM_BUDGET_FRACTION = BUDGET_FRACTIONS[0]


@lru_cache(maxsize=8)
def run_2lm(network: str, quick: bool = False) -> ExecutionResult:
    """One measured 2LM training iteration (after one warm-up)."""
    platform = cnn_platform_for(quick)
    training, plan = training_setup(network, quick)
    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    execute_iteration(plan, backend, sample_stride=CNN_STRIDE)  # warm-up
    return execute_iteration(plan, backend, sample_stride=CNN_STRIDE)


def _problem(training: TrainingGraph, platform: PlatformConfig, budget: int) -> PlacementProblem:
    return PlacementProblem.build(training, platform, budget, capacity_stride=4)


def _solution(
    training: TrainingGraph, platform: PlatformConfig, budget: int, time_limit: float
) -> IlpSolution:
    """A look-ahead child's work: build the budget's problem and run HiGHS."""
    return ilp_solution(_problem(training, platform, budget), time_limit)


def _plan(
    problem: PlacementProblem,
    solver: str,
    time_limit: float,
    solved: Optional[forkcall.ForkedCall],
) -> PlacementPlan:
    """The budget's plan: decoded from a child's solve, or solved here."""
    if solver == "greedy":
        return solve_greedy(problem)
    try:
        if solved is not None and solved.started:
            return decode(problem, solved.result())
        return solve_ilp(problem, time_limit=time_limit)
    except SolverError:
        return solve_greedy(problem)


def run_ladder(
    name: str,
    training: TrainingGraph,
    platform: PlatformConfig,
    fractions: Sequence[float],
    quick: bool,
    solver: str = "ilp",
) -> AutoTMResult:
    """Place and run ``training`` at the first budget whose plan fits.

    Each budget is a fraction of the socket's DRAM.  A plan whose
    tensors the first-fit pools cannot hold raises
    :class:`ConfigurationError` in ``execute_autotm``, and the ladder
    backs off to the next budget, the same outer loop a practitioner
    runs.  An ILP that HiGHS cannot solve falls back to the greedy plan
    for that budget.

    The ILP ladder solves one budget ahead.  While budget *i* is solved
    in-process, budget *i+1* is solved in a child forked by
    :func:`repro.exec.forkcall.start`, which builds that budget's problem
    itself.  If budget *i*'s plan does not fit, budget *i+1*'s plan is
    decoded in this process from the child's HiGHS outputs (a plan names
    this process's tensors, so only the numbers cross), and nothing is
    solved twice.  It speculates only where the host has a CPU to spare
    and HiGHS's worker threads can be stopped before the fork
    (:func:`repro.autotm.ilp.release_threads`); otherwise each solve
    runs here when it is needed.  Every plan is the one the serial
    ladder makes.  The child is not niced: HiGHS's time limit is wall
    time, and a starved child that hit it would fall back to the greedy
    plan.  A child still solving is killed when this call returns or
    raises; only if this whole process is killed does it run on, until
    its solve ends, which the time limit bounds.  The greedy ladder
    solves in-process (a greedy solve is cheap), and the simulation
    always runs here.
    """
    if solver not in ("ilp", "greedy"):
        raise KeyError(f"unknown solver {solver!r}")
    time_limit = 30.0 if quick else 120.0
    budgets = [int(platform.socket.dram_capacity * fraction) for fraction in fractions]
    solved: Optional[forkcall.ForkedCall] = None  # budgets[i]'s, begun a rung early
    ahead: Optional[forkcall.ForkedCall] = None  # budgets[i + 1]'s
    last_error: Exception | None = None
    try:
        for i, budget in enumerate(budgets):
            solved, ahead = ahead, None
            if solver == "ilp" and i + 1 < len(budgets) and release_threads():
                ahead = forkcall.start(_solution, training, platform, budgets[i + 1], time_limit)
            plan = _plan(_problem(training, platform, budget), solver, time_limit, solved)
            try:
                return execute_autotm(training, plan, platform, sample_stride=CNN_STRIDE)
            except ConfigurationError as error:
                last_error = error
    finally:
        for call in (solved, ahead):
            if call is not None:
                call.cancel()
    raise ConfigurationError(
        f"AutoTM could not fit {name} in DRAM at any budget"
    ) from last_error


@lru_cache(maxsize=8)
def run_autotm(network: str, quick: bool = False, solver: str = "ilp") -> AutoTMResult:
    """One AutoTM training iteration of a CNN using the chosen solver.

    The budget steps down :data:`BUDGET_FRACTIONS` until the first-fit
    pools hold the plan (:func:`run_ladder`).  With the ILP, the next
    budget is solved in a forked child beside the current one, where
    ``os.fork`` exists and a second CPU is usable.  The child is not
    niced, since HiGHS's time limit is wall time; a child orphaned by a
    killed process ends with its solve, within that limit.  Every plan
    is the serial ladder's.
    """
    platform = cnn_platform_for(quick)
    training, _ = training_setup(network, quick)
    return run_ladder(network, training, platform, BUDGET_FRACTIONS, quick, solver)
