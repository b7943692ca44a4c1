"""Exact placement via integer linear programming (scipy / HiGHS).

Mirrors AutoTM's formulation at tensor granularity: one binary variable
per (tensor, mode), a one-hot constraint per tensor, and a DRAM
capacity constraint per schedule checkpoint.  Solved with
``scipy.optimize.milp`` (the HiGHS branch-and-bound solver), with every
option that shapes the returned plan passed explicitly: at a nonzero
gap the plan is whichever solution HiGHS's search path reaches first,
so a changed library default must not be able to move it.

A solve is two steps: :func:`ilp_solution` runs HiGHS and returns its
outputs as plain data, and :func:`decode` reads a plan out of them.
Between the two, the outputs can cross a process boundary, which a plan
cannot; :func:`release_threads` makes a process safe to fork for that.

scipy is imported by the two functions that use it, not with this
module: only AutoTM's placement solves an ILP, and every other process
that imports the package (trace replay, the cache studies, the CLIs,
the service) would pay the import and its memory for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autotm.model import (
    MODE_INDEX,
    CandidateTensor,
    PlacementMode,
    PlacementPlan,
    PlacementProblem,
)
from repro.errors import InvariantError, SolverError
from repro.nn.ir import Tensor

#: Wall-clock cap on one solve, in seconds.
TIME_LIMIT_S = 120.0
#: Relative primal-dual gap at which HiGHS stops (its own default).
MIP_REL_GAP = 1e-4
#: Run HiGHS's presolve.
PRESOLVE = True


def release_threads() -> bool:
    """Stop HiGHS's worker threads, so that this process may fork a solve.

    HiGHS keeps its task scheduler between solves, and on a host with
    more than two hardware threads the scheduler has worker threads
    (HiGHS uses half of the hardware threads).  A forked child inherits
    the scheduler but not its workers, so the child's first parallel
    task waits forever on a worker that does not exist.  After this call
    the next solve, here or in a child, starts a scheduler of its own.
    Returns False where scipy offers no way to do this; then no solve
    may be forked.

    Either way it loads ``scipy.optimize``, so a child forked after it
    inherits the solver instead of importing it again.
    """
    try:  # scipy >= 1.15 binds HiGHS through highspy
        from scipy.optimize._highspy._core import _Highs
    except ImportError:  # older scipy: no handle on HiGHS's threads
        return False
    _Highs.resetGlobalScheduler(True)  # blocking: returns once the workers have exited
    return True


def _variables(problem: PlacementProblem) -> List[Tuple[CandidateTensor, PlacementMode]]:
    variables: List[Tuple[CandidateTensor, PlacementMode]] = []
    for candidate in problem.candidates:
        variables.append((candidate, PlacementMode.DRAM))
        variables.append((candidate, PlacementMode.NVRAM))
        if candidate.stash_eligible:
            variables.append((candidate, PlacementMode.STASH))
    return variables


@dataclass(frozen=True)
class IlpSolution:
    """HiGHS's outputs for one placement ILP, and nothing else.

    A :class:`PlacementPlan` keys its placements by :class:`Tensor`,
    which hashes by identity, so a plan cannot leave the process whose
    graph it names.  This record holds only numbers and a message: a
    solve can run in another process, and :func:`decode` turns its
    record into a plan against this process's problem, built the same
    way.
    """

    success: bool
    message: str
    #: One value per variable, in :func:`_variables` order (``None``
    #: when HiGHS found no solution).
    x: Optional[np.ndarray]
    fun: Optional[float]
    mip_gap: Optional[float]
    mip_dual_bound: Optional[float]
    mip_node_count: Optional[int]


def ilp_solution(problem: PlacementProblem, time_limit: float = TIME_LIMIT_S) -> IlpSolution:
    """Build the placement ILP and run HiGHS on it (the first call loads scipy)."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    variables = _variables(problem)
    n = len(variables)
    if not n:
        return IlpSolution(
            success=True, message="no candidates", x=np.zeros(0), fun=0.0,
            mip_gap=None, mip_dual_bound=None, mip_node_count=None,
        )

    cost = np.zeros(n)
    for j, (candidate, mode) in enumerate(variables):
        if mode is PlacementMode.NVRAM:
            cost[j] = candidate.nvram_cost
        elif mode is PlacementMode.STASH:
            cost[j] = candidate.stash_cost or 0.0

    constraints = []

    # One-hot: each tensor picks exactly one mode.
    tensor_index = {c.tensor: i for i, c in enumerate(problem.candidates)}
    rows = np.array([tensor_index[c.tensor] for c, _ in variables], dtype=np.intp)
    onehot = sparse.csr_matrix(
        (np.ones(n), (rows, np.arange(n))), shape=(len(problem.candidates), n)
    )
    ones = np.ones(len(problem.candidates))
    constraints.append(LinearConstraint(onehot, ones, ones))

    # Capacity at every checkpoint: each variable's column of DRAM
    # occupancy, one row per checkpoint, entries in row-major order.
    checkpoints = problem.capacity_checkpoints()
    modes = np.array([MODE_INDEX[mode] for _, mode in variables], dtype=np.intp)
    occupied = problem.dram_occupancy()[modes, :, rows]
    cap_rows, cap_cols = np.nonzero(occupied.T)
    if cap_rows.size:
        sizes = problem.candidate_bytes().astype(np.float64)
        capacity = sparse.csr_matrix(
            (sizes[rows[cap_cols]], (cap_rows, cap_cols)), shape=(len(checkpoints), n)
        )
        upper = np.full(len(checkpoints), float(problem.budget_bytes - problem.pinned_bytes))
        constraints.append(
            LinearConstraint(capacity, np.full(len(checkpoints), -np.inf), upper)
        )

    result = milp(
        c=cost,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={
            "time_limit": time_limit,
            "mip_rel_gap": MIP_REL_GAP,
            "presolve": PRESOLVE,
        },
    )
    return IlpSolution(
        success=bool(result.success),
        message=str(result.message),
        x=result.x,
        fun=result.fun,
        mip_gap=result.get("mip_gap"),
        mip_dual_bound=result.get("mip_dual_bound"),
        mip_node_count=result.get("mip_node_count"),
    )


def decode(problem: PlacementProblem, solution: IlpSolution) -> PlacementPlan:
    """The plan ``solution`` encodes for ``problem``.

    Raises :class:`SolverError` when HiGHS found no solution or a
    tensor received no placement.
    """
    if not solution.success or solution.x is None:
        raise SolverError(f"HiGHS failed to solve the placement ILP: {solution.message}")
    variables = _variables(problem)
    if len(solution.x) != len(variables):
        raise InvariantError(
            f"a solution over {len(solution.x)} variables decoded against "
            f"a problem with {len(variables)}"
        )

    placements: Dict[Tensor, object] = {}
    for j, (candidate, mode) in enumerate(variables):
        if solution.x[j] > 0.5:
            placements[candidate.tensor] = problem.placement_for(candidate, mode)
    missing = [c for c in problem.candidates if c.tensor not in placements]
    if missing:
        raise SolverError(f"{len(missing)} tensors received no placement")

    return PlacementPlan(
        placements=placements,  # type: ignore[arg-type]
        objective_seconds=float(solution.fun),
        budget_bytes=problem.budget_bytes,
        solver="ilp",
        mip_gap=solution.mip_gap,
        mip_dual_bound=solution.mip_dual_bound,
        mip_node_count=solution.mip_node_count,
    )


def solve_ilp(problem: PlacementProblem, time_limit: float = TIME_LIMIT_S) -> PlacementPlan:
    """Solve the placement ILP; raises :class:`SolverError` on failure."""
    return decode(problem, ilp_solution(problem, time_limit))
