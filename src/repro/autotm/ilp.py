"""Exact placement via integer linear programming (scipy / HiGHS).

Mirrors AutoTM's formulation at tensor granularity: one binary variable
per (tensor, mode), a one-hot constraint per tensor, and a DRAM
capacity constraint per schedule checkpoint.  Solved with
``scipy.optimize.milp`` (the HiGHS branch-and-bound solver), with every
option that shapes the returned plan passed explicitly: at a nonzero
gap the plan is whichever solution HiGHS's search path reaches first,
so a changed library default must not be able to move it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.autotm.model import (
    MODE_INDEX,
    CandidateTensor,
    PlacementMode,
    PlacementPlan,
    PlacementProblem,
)
from repro.errors import SolverError
from repro.nn.ir import Tensor

#: Wall-clock cap on one solve, in seconds.
TIME_LIMIT_S = 120.0
#: Relative primal-dual gap at which HiGHS stops (its own default).
MIP_REL_GAP = 1e-4
#: Run HiGHS's presolve.
PRESOLVE = True


def _variables(problem: PlacementProblem) -> List[Tuple[CandidateTensor, PlacementMode]]:
    variables: List[Tuple[CandidateTensor, PlacementMode]] = []
    for candidate in problem.candidates:
        variables.append((candidate, PlacementMode.DRAM))
        variables.append((candidate, PlacementMode.NVRAM))
        if candidate.stash_eligible:
            variables.append((candidate, PlacementMode.STASH))
    return variables


def solve_ilp(problem: PlacementProblem, time_limit: float = TIME_LIMIT_S) -> PlacementPlan:
    """Solve the placement ILP; raises :class:`SolverError` on failure."""
    variables = _variables(problem)
    n = len(variables)
    if not n:
        return PlacementPlan(
            placements={}, objective_seconds=0.0, budget_bytes=problem.budget_bytes,
            solver="ilp",
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
    if not result.success or result.x is None:
        raise SolverError(f"HiGHS failed to solve the placement ILP: {result.message}")

    placements: Dict[Tensor, object] = {}
    for j, (candidate, mode) in enumerate(variables):
        if result.x[j] > 0.5:
            placements[candidate.tensor] = problem.placement_for(candidate, mode)
    missing = [c for c in problem.candidates if c.tensor not in placements]
    if missing:
        raise SolverError(f"{len(missing)} tensors received no placement")

    return PlacementPlan(
        placements=placements,  # type: ignore[arg-type]
        objective_seconds=float(result.fun),
        budget_bytes=problem.budget_bytes,
        solver="ilp",
        mip_gap=result.mip_gap,
        mip_dual_bound=result.mip_dual_bound,
        mip_node_count=result.mip_node_count,
    )
