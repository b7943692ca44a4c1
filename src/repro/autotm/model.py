"""The AutoTM placement problem.

For each transient tensor the optimizer chooses one of three modes:

* ``DRAM`` — resident in DRAM for its whole life (fast, costs capacity).
* ``NVRAM`` — resident in NVRAM; every kernel touching it pays the
  bandwidth difference.
* ``STASH`` — DRAM while hot, written to NVRAM after its last forward
  use, prefetched back to DRAM just before its first backward use.
  Costs two synchronous copies; frees DRAM across the gap.  This mode
  produces Figure 10's signature: NVRAM writes only during the forward
  pass, NVRAM reads only during the backward pass.

The objective is total execution-time overhead (profile-derived, like
AutoTM's kernel profiles); the constraints cap live DRAM bytes at every
point in the schedule.  Which tensors hold DRAM at each capacity
checkpoint, under each mode, is one boolean array
(:meth:`PlacementProblem.dram_occupancy`) that the ILP's capacity rows,
the greedy solver and :meth:`PlacementProblem.is_feasible` all read;
:meth:`PlacementProblem.occupies_dram` is its scalar statement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import PlatformConfig
from repro.errors import ConfigurationError, InvariantError
from repro.nn.autodiff import TrainingGraph
from repro.nn.ir import Tensor
from repro.nn.liveness import TensorLife, analyze_liveness


class PlacementMode(enum.Enum):
    DRAM = "dram"
    NVRAM = "nvram"
    STASH = "stash"


#: Position of each mode along :meth:`PlacementProblem.dram_occupancy`'s
#: first axis.
MODE_INDEX = {mode: index for index, mode in enumerate(PlacementMode)}


@dataclass(frozen=True)
class CandidateTensor:
    """One transient tensor with its placement-relevant facts."""

    tensor: Tensor
    life: TensorLife
    #: Extra seconds if resident in NVRAM (all uses pay bandwidth delta).
    nvram_cost: float
    #: Seconds for the stash + restore copies (None = not eligible).
    stash_cost: Optional[float]
    #: Last op index that touches the tensor in the forward pass.
    last_forward_use: Optional[int]
    #: First op index that touches the tensor in the backward pass.
    first_backward_use: Optional[int]

    @property
    def stash_eligible(self) -> bool:
        return self.stash_cost is not None


@dataclass(frozen=True)
class TensorPlacement:
    """The chosen mode for one tensor."""

    tensor: Tensor
    mode: PlacementMode
    #: For STASH: write to NVRAM after this op index.
    stash_after: Optional[int] = None
    #: For STASH: read back to DRAM before this op index.
    restore_before: Optional[int] = None


@dataclass
class PlacementPlan:
    """Solver output: a placement per transient tensor."""

    placements: Dict[Tensor, TensorPlacement]
    objective_seconds: float
    budget_bytes: int
    solver: str
    #: HiGHS's relative gap, dual bound and branch-and-bound node count
    #: for the returned solution (``None`` when no MIP was solved).
    mip_gap: Optional[float] = None
    mip_dual_bound: Optional[float] = None
    mip_node_count: Optional[int] = None

    def count(self, mode: PlacementMode) -> int:
        return sum(1 for p in self.placements.values() if p.mode is mode)


@dataclass
class PlacementProblem:
    """Inputs to the placement solvers."""

    training: TrainingGraph
    budget_bytes: int
    candidates: List[CandidateTensor]
    #: DRAM bytes pinned at every op (weights + small tensors).
    pinned_bytes: int
    num_ops: int
    #: Capacity constraints are enforced at every N-th op.
    capacity_stride: int = 8

    @classmethod
    def build(
        cls,
        training: TrainingGraph,
        platform: PlatformConfig,
        budget_bytes: int,
        *,
        min_candidate_bytes: Optional[int] = None,
        min_stash_gap: int = 8,
        capacity_stride: int = 8,
    ) -> "PlacementProblem":
        """Derive the problem from a training graph and a platform.

        Tensors smaller than ``min_candidate_bytes`` are pinned to DRAM
        (their total is charged as a constant), mirroring AutoTM's
        restriction to profitable tensors.
        """
        if budget_bytes <= 0:
            raise ConfigurationError("DRAM budget must be positive")
        graph = training.graph
        socket = platform.socket
        if min_candidate_bytes is None:
            min_candidate_bytes = max(platform.line_size, budget_bytes // 10_000)

        dram_bw = socket.dram_bandwidth
        nvram_read_bw = socket.nvram_read_bandwidth
        nvram_write_bw = socket.nvram_write_bandwidth
        read_penalty = 1.0 / nvram_read_bw - 1.0 / dram_bw
        write_penalty = 1.0 / nvram_write_bw - 1.0 / dram_bw

        lives = analyze_liveness(graph)
        life_of = {life.tensor: life for life in lives}

        reads: Dict[Tensor, List[int]] = {}
        writes: Dict[Tensor, List[int]] = {}
        for index, op in enumerate(graph.ops):
            for tensor in op.inputs:
                if not tensor.weight:
                    reads.setdefault(tensor, []).append(index)
            for tensor in op.outputs:
                if not tensor.weight:
                    writes.setdefault(tensor, []).append(index)

        pinned = sum(t.size_bytes for t in graph.weights)
        candidates: List[CandidateTensor] = []
        for tensor, life in life_of.items():
            if tensor.size_bytes < min_candidate_bytes:
                pinned += tensor.size_bytes
                continue
            size = tensor.size_bytes
            n_reads = len(reads.get(tensor, ()))
            n_writes = len(writes.get(tensor, ()))
            # Kernel writes use write-allocating stores: an ownership
            # read plus the write itself.
            nvram_cost = size * (
                n_reads * read_penalty + n_writes * (write_penalty + read_penalty)
            )

            uses = sorted(reads.get(tensor, []) + writes.get(tensor, []))
            fwd_uses = [u for u in uses if u < training.backward_start]
            bwd_uses = [u for u in uses if u >= training.backward_start]
            last_fwd = fwd_uses[-1] if fwd_uses else None
            first_bwd = bwd_uses[0] if bwd_uses else None
            stash_cost = None
            if (
                last_fwd is not None
                and first_bwd is not None
                and first_bwd - last_fwd >= min_stash_gap
            ):
                # Synchronous copy out (NT stores) and prefetch back.
                stash_cost = size / nvram_write_bw + size / nvram_read_bw
            candidates.append(
                CandidateTensor(
                    tensor=tensor,
                    life=life,
                    nvram_cost=nvram_cost,
                    stash_cost=stash_cost,
                    last_forward_use=last_fwd,
                    first_backward_use=first_bwd,
                )
            )

        return cls(
            training=training,
            budget_bytes=budget_bytes,
            candidates=candidates,
            pinned_bytes=pinned,
            num_ops=len(graph.ops),
            capacity_stride=capacity_stride,
        )

    def capacity_checkpoints(self) -> List[int]:
        """Op indices where the DRAM capacity constraint is enforced."""
        points = list(range(0, self.num_ops, self.capacity_stride))
        if points[-1] != self.num_ops - 1:
            points.append(self.num_ops - 1)
        return points

    def occupies_dram(
        self, candidate: CandidateTensor, mode: PlacementMode, op_index: int
    ) -> bool:
        """Does the tensor hold DRAM at ``op_index`` under ``mode``?"""
        life = candidate.life
        if not life.live_at(op_index):
            return False
        if mode is PlacementMode.DRAM:
            return True
        if mode is PlacementMode.NVRAM:
            return False
        if candidate.stash_cost is None:
            raise ConfigurationError(
                f"tensor {candidate.tensor.name!r} is not stash-eligible"
            )
        if candidate.last_forward_use is None or candidate.first_backward_use is None:
            raise InvariantError(
                f"stash-eligible tensor {candidate.tensor.name!r} lacks a "
                "forward/backward use boundary"
            )
        return (
            op_index <= candidate.last_forward_use
            or op_index >= candidate.first_backward_use
        )

    def dram_occupancy(self) -> np.ndarray:
        """:meth:`occupies_dram` at every (mode, checkpoint, candidate).

        A boolean array of shape ``(len(PlacementMode), checkpoints,
        candidates)``, indexed by :data:`MODE_INDEX`: a candidate holds
        DRAM in resident (``DRAM``) mode wherever it is live, in stash
        mode wherever it is live up to its last forward use or from its
        first backward use on, and in NVRAM mode nowhere.  Candidates
        that are not stash-eligible never hold DRAM in stash mode.
        """
        points = np.asarray(self.capacity_checkpoints())[:, None]
        candidates = self.candidates
        starts = np.array([c.life.start for c in candidates], dtype=np.int64)
        ends = np.array([c.life.end for c in candidates], dtype=np.int64)
        # Ineligible candidates get boundaries no checkpoint reaches.
        hot_until = np.array(
            [c.last_forward_use if c.stash_eligible else -1 for c in candidates],
            dtype=np.int64,
        )
        hot_from = np.array(
            [c.first_backward_use if c.stash_eligible else self.num_ops for c in candidates],
            dtype=np.int64,
        )
        live = (starts <= points) & (points <= ends)
        occupancy = np.zeros((len(MODE_INDEX),) + live.shape, dtype=bool)
        occupancy[MODE_INDEX[PlacementMode.DRAM]] = live
        occupancy[MODE_INDEX[PlacementMode.STASH]] = live & (
            (points <= hot_until) | (points >= hot_from)
        )
        return occupancy

    def dram_held(self, modes: Sequence[PlacementMode]) -> np.ndarray:
        """Candidate × checkpoint DRAM occupancy, candidate ``i`` in ``modes[i]``."""
        for candidate, mode in zip(self.candidates, modes):
            if mode is PlacementMode.STASH and not candidate.stash_eligible:
                raise ConfigurationError(
                    f"tensor {candidate.tensor.name!r} is not stash-eligible"
                )
        index = np.array([MODE_INDEX[mode] for mode in modes], dtype=np.intp)
        return self.dram_occupancy()[index, :, np.arange(index.size)]

    def candidate_bytes(self) -> np.ndarray:
        """Each candidate's size, in candidate order."""
        return np.array([c.tensor.size_bytes for c in self.candidates], dtype=np.int64)

    def placement_for(
        self, candidate: CandidateTensor, mode: PlacementMode
    ) -> TensorPlacement:
        if mode is PlacementMode.STASH:
            return TensorPlacement(
                tensor=candidate.tensor,
                mode=mode,
                stash_after=candidate.last_forward_use,
                restore_before=candidate.first_backward_use,
            )
        return TensorPlacement(tensor=candidate.tensor, mode=mode)

    def evaluate(self, plan: PlacementPlan) -> float:
        """Total modelled overhead (seconds) of a placement plan."""
        total = 0.0
        by_tensor = plan.placements
        for candidate in self.candidates:
            placement = by_tensor[candidate.tensor]
            if placement.mode is PlacementMode.NVRAM:
                total += candidate.nvram_cost
            elif placement.mode is PlacementMode.STASH:
                total += candidate.stash_cost or 0.0
        return total

    def is_feasible(self, plan: PlacementPlan) -> bool:
        """Does the plan respect the DRAM budget at every checkpoint?"""
        held = self.dram_held(
            [plan.placements[c.tensor].mode for c in self.candidates]
        )
        used = self.pinned_bytes + self.candidate_bytes() @ held
        return bool((used <= self.budget_bytes).all())
