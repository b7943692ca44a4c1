"""Table II: data moved and runtime, 2LM vs AutoTM, three CNNs.

The paper's headline mitigation result: AutoTM moves only 50-60 % of
2LM's NVRAM traffic and achieves 1.8x / 2.2x / 3.1x speedups for
Inception v4, ResNet 200 and DenseNet 264 (Section VII-A1).

Each network row is independent (its own graph, cache, and placement),
so the table is declared as a :class:`~repro.exec.SweepSpec` over the
network axis — ``--jobs 3`` runs the three CNNs concurrently and the
service layer can schedule the table like any figure.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exec import SweepSpec, run_sweep
from repro.experiments.autotm_common import run_2lm, run_autotm
from repro.experiments.base import ExperimentResult
from repro.experiments.platform import PAPER_TABLE2, cnn_platform_for
from repro.perf.counters import Traffic
from repro.perf.report import render_table
from repro.units import CACHE_LINE, GB

NETWORKS = ("inception_v4", "resnet200", "densenet264")
#: The chosen AutoTM plan's solver statistics that each row carries:
#: the ILP objective and HiGHS's gap, dual bound and node count
#: (``None`` where the plan is greedy).
PLAN_STATS = ("objective_seconds", "mip_gap", "mip_dual_bound", "mip_node_count")


def _gb(lines: int, scale: float) -> float:
    """Hardware-equivalent decimal GB from a 64 B line count."""
    return lines * CACHE_LINE * scale / GB


def _counts(traffic: Traffic) -> Dict[str, int]:
    return {
        "dram_reads": traffic.dram_reads,
        "dram_writes": traffic.dram_writes,
        "nvram_reads": traffic.nvram_reads,
        "nvram_writes": traffic.nvram_writes,
    }


def network_point(network: str, quick: bool) -> Dict[str, Dict[str, Optional[float]]]:
    """One grid point: 2LM and AutoTM line counts + runtime for one CNN,
    and the AutoTM plan's solver statistics."""
    cached = run_2lm(network, quick)
    autotm = run_autotm(network, quick)
    return {
        "2lm": {**_counts(cached.traffic), "seconds": cached.seconds},
        "autotm": {**_counts(autotm.traffic), "seconds": autotm.seconds},
        "plan": {name: getattr(autotm.plan, name) for name in PLAN_STATS},
    }


def sweep_spec(quick: bool = False) -> SweepSpec:
    """One point per CNN, in the paper's row order."""
    return SweepSpec.grid(
        "table2",
        network_point,
        axes={"network": NETWORKS},
        common=dict(quick=quick),
    )


def run(quick: bool = False, jobs: int = 1) -> ExperimentResult:
    spec = sweep_spec(quick)
    values = run_sweep(spec, jobs=jobs)

    result = ExperimentResult(
        name="table2", title="Data moved and runtime: 2LM vs AutoTM"
    )
    rows = []
    scale = cnn_platform_for(quick).scale_factor
    data: Dict[str, Dict[str, Optional[float]]] = {}
    for point, modes in zip(spec.points, values):
        network = point["network"]
        t2, ta = modes["2lm"], modes["autotm"]
        speedup = t2["seconds"] / ta["seconds"] if ta["seconds"] else 0.0
        t2_nvram = t2["nvram_reads"] + t2["nvram_writes"]
        ta_nvram = ta["nvram_reads"] + ta["nvram_writes"]
        nvram_ratio = ta_nvram / t2_nvram if t2_nvram else 0.0
        rows.append(
            [
                network,
                f"{_gb(t2['dram_reads'], scale):.0f}",
                f"{_gb(t2['dram_writes'], scale):.0f}",
                f"{_gb(t2['nvram_reads'], scale):.0f}",
                f"{_gb(t2['nvram_writes'], scale):.0f}",
                f"{t2['seconds']:.0f}",
                f"{_gb(ta['dram_reads'], scale):.0f}",
                f"{_gb(ta['dram_writes'], scale):.0f}",
                f"{_gb(ta['nvram_reads'], scale):.0f}",
                f"{_gb(ta['nvram_writes'], scale):.0f}",
                f"{ta['seconds']:.0f}",
                f"{speedup:.2f}x",
                f"{PAPER_TABLE2[network]['speedup']:.1f}x",
            ]
        )
        data[network] = {
            "2lm_seconds": t2["seconds"],
            "autotm_seconds": ta["seconds"],
            "speedup": speedup,
            "nvram_traffic_ratio": nvram_ratio,
            "2lm_nvram_gb": _gb(t2_nvram, scale),
            "autotm_nvram_gb": _gb(ta_nvram, scale),
            "2lm_dram_gb": _gb(t2["dram_reads"] + t2["dram_writes"], scale),
            "autotm_dram_gb": _gb(ta["dram_reads"] + ta["dram_writes"], scale),
            "paper_speedup": PAPER_TABLE2[network]["speedup"],
            **modes["plan"],
        }

    result.add(
        render_table(
            [
                "network",
                "2LM Drd",
                "2LM Dwr",
                "2LM Nrd",
                "2LM Nwr",
                "2LM s",
                "ATM Drd",
                "ATM Dwr",
                "ATM Nrd",
                "ATM Nwr",
                "ATM s",
                "speedup",
                "paper",
            ],
            rows,
            title="Table II — GB moved (hardware-equivalent) and virtual runtime",
        )
    )
    result.data = data
    return result
