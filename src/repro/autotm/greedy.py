"""Greedy placement baseline.

Start with everything in DRAM and, while any schedule checkpoint
exceeds the budget, demote the tensor with the lowest overhead per byte
of relief — preferring the stash mode when eligible.  Much faster than
the ILP and usually within a few percent of it; also serves as the
fallback when the ILP hits its time limit.
"""

from __future__ import annotations

from typing import Dict

from repro.autotm.model import (
    CandidateTensor,
    PlacementMode,
    PlacementPlan,
    PlacementProblem,
)
from repro.errors import SolverError
from repro.nn.ir import Tensor


def _cheapest_demotion(candidate: CandidateTensor) -> PlacementMode:
    if candidate.stash_eligible and (candidate.stash_cost or 0.0) <= candidate.nvram_cost:
        return PlacementMode.STASH
    return PlacementMode.NVRAM


def solve_greedy(problem: PlacementProblem) -> PlacementPlan:
    """Greedy demotion until every capacity checkpoint is satisfied."""
    candidates = problem.candidates
    n = len(candidates)

    # [i, j]: candidate i holds DRAM at checkpoint j, resident or demoted.
    demotion_modes = [_cheapest_demotion(c) for c in candidates]
    dram_occ = problem.dram_held([PlacementMode.DRAM] * n)
    demoted_occ = problem.dram_held(demotion_modes)

    sizes = problem.candidate_bytes()
    usage = problem.pinned_bytes + sizes @ dram_occ
    budget = problem.budget_bytes

    def demotion_cost_per_byte(i: int) -> float:
        candidate = candidates[i]
        cost = (
            candidate.stash_cost
            if demotion_modes[i] is PlacementMode.STASH
            else candidate.nvram_cost
        )
        return (cost or 0.0) / candidate.tensor.size_bytes

    order = sorted(range(n), key=demotion_cost_per_byte)
    modes: Dict[Tensor, PlacementMode] = {
        c.tensor: PlacementMode.DRAM for c in candidates
    }

    cursor = 0
    while (usage > budget).any() and cursor < len(order):
        i = order[cursor]
        cursor += 1
        relief = dram_occ[i] & ~demoted_occ[i]
        if not (relief & (usage > budget)).any():
            continue
        usage = usage - sizes[i] * relief
        modes[candidates[i].tensor] = demotion_modes[i]

    # Second phase: stashed tensors still hold DRAM at their endpoints;
    # if that alone breaks the budget, push them all the way to NVRAM.
    cursor = 0
    while (usage > budget).any() and cursor < len(order):
        i = order[cursor]
        cursor += 1
        current = modes[candidates[i].tensor]
        if current is PlacementMode.NVRAM:
            continue
        current_occ = demoted_occ[i] if current is not PlacementMode.DRAM else dram_occ[i]
        relief = current_occ  # NVRAM occupies nothing
        if not (relief & (usage > budget)).any():
            continue
        usage = usage - sizes[i] * relief
        modes[candidates[i].tensor] = PlacementMode.NVRAM

    if (usage > budget).any():
        raise SolverError(
            "greedy placement cannot satisfy the DRAM budget: "
            f"{int((usage > budget).sum())} checkpoints remain over budget "
            "even with every candidate in NVRAM (pinned data exceeds budget)"
        )

    placements = {
        c.tensor: problem.placement_for(c, modes[c.tensor]) for c in candidates
    }
    plan = PlacementPlan(
        placements=placements,
        objective_seconds=0.0,
        budget_bytes=problem.budget_bytes,
        solver="greedy",
    )
    plan.objective_seconds = problem.evaluate(plan)
    return plan
