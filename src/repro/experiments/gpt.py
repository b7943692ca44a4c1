"""Extension case study: transformer (GPT-style) training.

The paper's first sentence motivates NVRAM with NLP models "such as
GPT3"; this experiment applies the paper's CNN methodology to a
decoder-only transformer whose saved attention activations exceed the
DRAM cache, comparing 2LM against AutoTM placement.

The two placement modes are independent given the shared training
graph, so they are declared as a two-point
:class:`~repro.exec.SweepSpec`; the graph/plan setup is memoized at
module scope and pre-warmed before the sweep so forked workers inherit
it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from repro.cache import DirectMappedCache
from repro.errors import InvariantError
from repro.exec import SweepSpec, run_sweep
from repro.experiments.autotm_common import run_ladder
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import CNN_STRIDE, PlatformConfig, cnn_platform_for
from repro.memsys import CachedBackend
from repro.nn import build_training_graph, execute_iteration, plan_memory
from repro.nn.autodiff import TrainingGraph
from repro.nn.ir import Graph
from repro.nn.networks.transformer import gpt_like
from repro.nn.planner import MemoryPlan
from repro.perf.report import render_table
from repro.units import CACHE_LINE, GB, format_bytes

MODES = ("2lm", "autotm")
#: AutoTM's DRAM budgets, as fractions of the socket's DRAM, in the
#: order :func:`~repro.experiments.autotm_common.run_ladder` tries them.
AUTOTM_FRACTIONS = (0.8, 0.65, 0.5)


@lru_cache(maxsize=None)
def _setup(
    quick: bool,
) -> Tuple[PlatformConfig, Graph, TrainingGraph, MemoryPlan]:
    """Shared fixtures: platform, forward graph, training graph, plan."""
    platform = cnn_platform_for(quick)
    if quick:
        graph = gpt_like(batch=1, seq_len=128, layers=12)
    else:
        graph = gpt_like(batch=2, seq_len=256, layers=24)
    training = build_training_graph(graph)
    plan = plan_memory(graph, alignment=CNN_STRIDE * CACHE_LINE)
    return platform, graph, training, plan


def mode_point(mode: str, quick: bool) -> Dict[str, float]:
    """One grid point: traffic and runtime for one placement mode."""
    platform, _, training, plan = _setup(quick)
    if mode == "2lm":
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
        cached = execute_iteration(plan, backend, sample_stride=CNN_STRIDE)
        traffic, seconds = cached.traffic, cached.seconds
        extra = {
            "hit_rate": cached.tags.hit_rate,
            "dirty_misses": cached.tags.dirty_misses,
            "clean_misses": cached.tags.clean_misses,
        }
    elif mode == "autotm":
        autotm = run_ladder("gpt", training, platform, AUTOTM_FRACTIONS, quick)
        traffic, seconds = autotm.traffic, autotm.seconds
        extra = {}
    else:
        raise InvariantError(f"unknown gpt mode {mode!r}")
    return {
        "dram_reads": traffic.dram_reads,
        "dram_writes": traffic.dram_writes,
        "nvram_reads": traffic.nvram_reads,
        "nvram_writes": traffic.nvram_writes,
        "seconds": seconds,
        **extra,
    }


def sweep_spec(quick: bool = False) -> SweepSpec:
    """One point per placement mode (2LM, AutoTM)."""
    return SweepSpec.grid(
        "gpt",
        mode_point,
        axes={"mode": MODES},
        common=dict(quick=quick),
    )


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    # Pre-warm the shared graph so forked sweep workers inherit it and
    # the header line below doesn't pay for a second build.
    platform, graph, _, plan = _setup(quick)
    spec = sweep_spec(quick)
    values = run_sweep(spec, jobs=jobs)
    modes = {point["mode"]: metrics for point, metrics in zip(spec.points, values)}
    t2, ta = modes["2lm"], modes["autotm"]

    scale = platform.scale_factor

    def gb(lines: int) -> str:
        return f"{lines * CACHE_LINE * scale / GB:.0f}"

    result = ExperimentResult(
        name="gpt", title="Transformer training: 2LM vs AutoTM (extension)"
    )
    result.add(
        f"footprint {format_bytes(plan.total_bytes)} vs "
        f"{format_bytes(platform.socket.dram_capacity)} DRAM cache; "
        f"{len(graph.ops)} kernels per iteration"
    )
    result.add(
        render_table(
            ["mode", "DRAM rd", "DRAM wr", "NVRAM rd", "NVRAM wr", "runtime s"],
            [
                ["2LM", gb(t2["dram_reads"]), gb(t2["dram_writes"]),
                 gb(t2["nvram_reads"]), gb(t2["nvram_writes"]),
                 f"{t2['seconds']:.0f}"],
                ["AutoTM", gb(ta["dram_reads"]), gb(ta["dram_writes"]),
                 gb(ta["nvram_reads"]), gb(ta["nvram_writes"]),
                 f"{ta['seconds']:.0f}"],
            ],
            title="GB moved (hardware-equivalent) per training iteration",
        )
    )
    speedup = t2["seconds"] / ta["seconds"] if ta["seconds"] else 0.0
    result.add(f"AutoTM speedup: {speedup:.2f}x")
    result.data = {
        "2lm_seconds": t2["seconds"],
        "autotm_seconds": ta["seconds"],
        "speedup": speedup,
        "hit_rate": t2["hit_rate"],
        "dirty_misses": t2["dirty_misses"],
        "clean_misses": t2["clean_misses"],
        "footprint_bytes": plan.total_bytes,
        "cache_bytes": platform.socket.dram_capacity,
        "nvram_ratio": (
            (ta["nvram_reads"] + ta["nvram_writes"])
            / max(1, t2["nvram_reads"] + t2["nvram_writes"])
        ),
    }
    return result
