"""Case study 1: CNN training — hardware cache vs software management.

Trains one iteration of a (scaled) DenseNet 264 whose footprint exceeds
the DRAM cache, first in 2LM and then under AutoTM's ILP-optimized
tensor placement, and compares runtime and per-device traffic — the
paper's Table II and Figure 10 in one script.

Run:  python examples/cnn_training_2lm_vs_autotm.py [--network resnet200]
"""

import argparse

from repro.autotm import PlacementMode, PlacementProblem, execute_autotm, solve_ilp
from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.memsys import CachedBackend
from repro.nn import build_training_graph, execute_iteration, plan_memory
from repro.nn.networks import densenet264, inception_v4, resnet200
from repro.perf.report import render_table
from repro.units import format_bytes

BUILDERS = {
    "densenet264": lambda: densenet264(3),
    "resnet200": lambda: resnet200(3),
    "inception_v4": lambda: inception_v4(3),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--network", choices=sorted(BUILDERS), default="densenet264")
    args = parser.parse_args()

    platform = default_platform()
    scale = platform.scale_factor

    print(f"Building {args.network} (batch standing in for the paper's 3072)...")
    graph = BUILDERS[args.network]()
    training = build_training_graph(graph)
    plan = plan_memory(graph, alignment=1024)
    print(
        f"  {len(graph.ops)} kernels, footprint {format_bytes(plan.total_bytes)} "
        f"vs {format_bytes(platform.socket.dram_capacity)} DRAM cache"
    )

    print("Running one iteration in 2LM (after a warm-up iteration)...")
    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    cached = execute_iteration(plan, backend)

    print("Solving AutoTM placement (scipy/HiGHS ILP) and re-running in 1LM...")
    budget = int(platform.socket.dram_capacity * 0.8)
    problem = PlacementProblem.build(training, platform, budget, capacity_stride=4)
    placement = solve_ilp(problem)
    print(
        f"  placements: {placement.count(PlacementMode.DRAM)} DRAM, "
        f"{placement.count(PlacementMode.STASH)} stashed, "
        f"{placement.count(PlacementMode.NVRAM)} NVRAM"
    )
    autotm = execute_autotm(training, placement, platform)

    def gb(lines: int) -> str:
        return f"{lines * 64 * scale / 1e9:.0f}"

    t2, ta = cached.traffic, autotm.traffic
    print()
    print(
        render_table(
            ["mode", "DRAM rd", "DRAM wr", "NVRAM rd", "NVRAM wr", "runtime s"],
            [
                ["2LM", gb(t2.dram_reads), gb(t2.dram_writes), gb(t2.nvram_reads),
                 gb(t2.nvram_writes), f"{cached.seconds:.0f}"],
                ["AutoTM", gb(ta.dram_reads), gb(ta.dram_writes), gb(ta.nvram_reads),
                 gb(ta.nvram_writes), f"{autotm.seconds:.0f}"],
            ],
            title=f"{args.network}: GB moved (hardware-equivalent) per iteration",
        )
    )
    print(f"\nAutoTM speedup: {cached.seconds / autotm.seconds:.2f}x")
    print(
        f"NVRAM traffic ratio (AutoTM / 2LM): "
        f"{(ta.nvram_reads + ta.nvram_writes) / (t2.nvram_reads + t2.nvram_writes):.2f} "
        "(the paper reports 50-60%)"
    )


if __name__ == "__main__":
    main()
