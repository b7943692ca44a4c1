"""Canonical experiment platforms and cached workload construction.

CNN experiments run at 1/1024 of the hardware (192 MiB DRAM cache per
socket, batch 3 standing in for the paper's 3072).  Graph experiments
run at 1/16384 so that full pagerank traces over the wdc-like input stay
affordable; the kron input fits its scaled cache and the web input
exceeds it, preserving the paper's contrast.  Heavy artefacts (graphs,
training graphs, memory plans) are cached per process so benchmarks can
re-run experiments without rebuilding them.  The graph generators and
each network's builder are imported when first called, so a process
that runs no graph study (or only one network) never loads the others.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

from repro.config import PAPER_PLATFORM, PlatformConfig
from repro.nn import build_training_graph, plan_memory
from repro.nn.autodiff import TrainingGraph
from repro.nn.planner import MemoryPlan
from repro.units import CACHE_LINE

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph

#: Scale for the microbenchmark and CNN studies.
CNN_SCALE = 1024.0
#: Scale for the graph studies.
GRAPH_SCALE = 16384.0

#: Batch sizes standing in for the paper's (batch / CNN_SCALE).
CNN_BATCH = 3
#: Sampling stride for CNN tensor streams.
CNN_STRIDE = 16

#: Each CNN's builder, as (module, function).
_BUILDERS = {
    "inception_v4": ("repro.nn.networks.inception", "inception_v4"),
    "resnet200": ("repro.nn.networks.resnet", "resnet200"),
    "densenet264": ("repro.nn.networks.densenet", "densenet264"),
}

#: Paper Table II reference values (GB moved and seconds, full scale).
PAPER_TABLE2 = {
    "inception_v4": {"2lm_runtime": 572, "autotm_runtime": 304, "speedup": 1.8},
    "resnet200": {"2lm_runtime": 514, "autotm_runtime": 229, "speedup": 2.2},
    "densenet264": {"2lm_runtime": 524, "autotm_runtime": 169, "speedup": 3.1},
}


@lru_cache(maxsize=4)
def cnn_platform(scale: float = CNN_SCALE) -> PlatformConfig:
    return PAPER_PLATFORM.scaled(scale)


def cnn_platform_for(quick: bool) -> PlatformConfig:
    """CNN-study platform; quick mode scales 4x further so the shrunken
    quick workloads still exceed the DRAM cache."""
    return cnn_platform(CNN_SCALE * 4 if quick else CNN_SCALE)


@lru_cache(maxsize=4)
def graph_platform(scale: float = GRAPH_SCALE) -> PlatformConfig:
    return PAPER_PLATFORM.scaled(scale)


def graph_platform_for(quick: bool) -> PlatformConfig:
    """Graph-study platform; quick mode scales 16x further so the small
    quick inputs keep the fits/exceeds contrast."""
    return graph_platform(GRAPH_SCALE * 16 if quick else GRAPH_SCALE)


@lru_cache(maxsize=8)
def training_setup(network: str, quick: bool = False) -> Tuple[TrainingGraph, MemoryPlan]:
    """Build (training graph, memory plan) for one of the paper's CNNs."""
    if network not in _BUILDERS:
        raise KeyError(f"unknown network {network!r}; pick from {sorted(_BUILDERS)}")
    module, builder = _BUILDERS[network]
    build = getattr(importlib.import_module(module), builder)
    if quick and network == "densenet264":
        graph = build(2, block_config=(3, 6, 24, 16))
    elif quick:
        graph = build(2)
    else:
        graph = build(CNN_BATCH)
    training = build_training_graph(graph)
    plan = plan_memory(graph, alignment=CNN_STRIDE * CACHE_LINE)
    return training, plan


@lru_cache(maxsize=4)
def kron_graph(quick: bool = False) -> CSRGraph:
    """The cache-resident input (kron30 stand-in)."""
    from repro.graphs.generators import kronecker

    return kronecker(13 if quick else 16, edge_factor=16, seed=7)


@lru_cache(maxsize=4)
def wdc_graph(quick: bool = False) -> CSRGraph:
    """The cache-exceeding input (wdc12 stand-in).

    Sized ~1.4x the two-socket scaled DRAM cache, matching the paper's
    507 GB binary against a 384 GB cache.
    """
    from repro.graphs.generators import web_graph

    return web_graph((1 << 15) if quick else (1 << 18), avg_degree=30, seed=11)
