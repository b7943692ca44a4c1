"""The benchmark's workloads: inputs, cells, and the checks on their output.

A workload builds its inputs once (:meth:`setup`); one pass then runs
every cell once, in order.  A cell is one trace × model, one cache
design, or one network, and returns its simulated statistics as a row:
``result`` is what the registered experiment reports for that cell, and
``sim`` totals the counters of every backend the cell built (stride
weights included).  Every call goes through the simulator's public entry
points, looked up at call time so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

import repro.traces as traces
from repro.autotm import executor as autotm_executor
from repro.cache.amplification import EXPECTED_AMPLIFICATION
from repro.experiments import ablation, autotm_common, kvtrace
from repro.experiments.platform import training_setup
from repro.traces import ALL_MODELS, OP_APPEND, OP_GET, SOFTWARE_MODEL
from repro.traces import replay as replay_module
from repro.traces.replay import platform_for

#: Table I: no request costs more than this many device accesses.
MAX_AMPLIFICATION = max(EXPECTED_AMPLIFICATION.values())

#: Every cache model a workload runs, by the name its metrics carry.
CACHE_MODELS = (
    "bypass",
    "direct_mapped",
    "miss_predictor",
    "no_ddo",
    "prefetch",
    "sector",
    "setassoc_lru",
    "write_around",
)

Row = Dict[str, Dict[str, object]]


@dataclass(frozen=True)
class Cell:
    key: str  #: the cell's key in ``expected.json``
    model: str  #: cache model it runs ("none" without a cache)
    run: Callable[[], Row]


@contextlib.contextmanager
def captured(owner: object, attr: str) -> Iterator[list]:
    """Collect every backend built through ``owner.attr`` (its lookup site)."""
    original = getattr(owner, attr)
    made: list = []

    def build(*args, **kwargs):
        backend = original(*args, **kwargs)
        made.append(backend)
        return backend

    setattr(owner, attr, build)
    try:
        yield made
    finally:
        setattr(owner, attr, original)


def backend_totals(backends: list) -> Dict[str, object]:
    """Simulated totals over a cell's backends."""
    totals = dict.fromkeys(
        ("demand_reads", "demand_writes", "device_accesses", "tag_checks", "tag_hits"), 0
    )
    sim_s = 0.0
    for backend in backends:
        counters = backend.counters
        totals["demand_reads"] += counters.traffic.demand_reads
        totals["demand_writes"] += counters.traffic.demand_writes
        totals["device_accesses"] += counters.traffic.total_accesses
        totals["tag_checks"] += counters.tags.checks
        totals["tag_hits"] += counters.tags.hits
        sim_s += counters.time
    totals["sim_s"] = sim_s
    return totals


def _common_problems(row: Row) -> List[str]:
    problems = []
    hit_rate = row["result"].get("hit_rate")
    if hit_rate is not None and not 0.0 <= hit_rate <= 1.0:
        problems.append(f"hit rate {hit_rate} outside [0, 1]")
    sim = row["sim"]
    if not sim["demand_reads"] + sim["demand_writes"]:
        problems.append("no demand traffic")
    return problems


def _expected_problems(row: Row, expected: Optional[dict], source: str) -> List[str]:
    if expected is None:
        return [f"no expected {source} value"]
    if row["result"] != expected:
        diff = sorted(
            k for k in set(row["result"]) | set(expected)
            if row["result"].get(k) != expected.get(k)
        )
        return [f"differs from {source} in {', '.join(diff)}"]
    return []


class KvReplay:
    """Four full-size storage/KV traces through all eight configurations.

    Large zipfian windows with same-set collisions: most host time is in
    the cache engine and its argsort, and each trace has its own
    read/write mix (ycsb_c reads only, logappend mostly appends).
    """

    name = "kv_replay"
    #: The kvtrace experiment's seed; only there do rows equal its data.
    expected_seed = kvtrace.TRACE_SEED
    backend_site = (replay_module, "make_backend")
    #: Lookup sites where the worker's clock also reads the host-speed
    #: probe inside a cell, so no interval it scales lasts long; these
    #: cells take a fraction of a second and need none.
    split_sites = ()
    #: One trace per access shape plus the read-only mix; kvtrace's
    #: ycsb_b and ycsb_a_flat are left out so three passes fit one run.
    traces_full = ("ycsb_a", "ycsb_c", "btree", "logappend")

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        names = self.traces_full if size == "full" else ("ycsb_a", "logappend")
        variant = "full" if size == "full" else "quick"
        self.specs = {
            name: (kvtrace.TRACE_SPECS[name]["family"], kvtrace.TRACE_SPECS[name][variant])
            for name in names
        }
        self.traces: Dict[str, traces.Trace] = {}

    def setup(self) -> None:
        for name, (family, params) in self.specs.items():
            self.traces[name] = traces.generate(family, seed=self.seed, **params)
        self.platforms = {name: platform_for(t) for name, t in self.traces.items()}
        self.demand = {}
        for name, trace in self.traces.items():
            sizes = trace.sizes
            self.demand[name] = (
                int(sizes[trace.ops != OP_APPEND].sum()),  # gets + put fetches
                int(sizes[trace.ops != OP_GET].sum()),  # puts + appends
            )

    @property
    def trace_lines(self) -> int:
        return sum(t.total_lines for t in self.traces.values())

    def cells(self) -> List[Cell]:
        return [
            Cell(f"{name}/{model}", model, partial(self._replay, name, model))
            for name in self.traces
            for model in ALL_MODELS
        ]

    def _replay(self, name: str, model: str) -> Row:
        with captured(*self.backend_site) as made:
            result = traces.replay_trace(
                self.traces[name], model, platform=self.platforms[name]
            )
        return {"result": result.to_row(), "sim": backend_totals(made)}

    def check(self, key: str, row: Row, expected: Optional[dict]) -> List[str]:
        problems = _common_problems(row)
        if self.seed == self.expected_seed and self.size == "full":
            problems += _expected_problems(row, expected, "kvtrace")
        name, model = key.split("/")
        result, sim = row["result"], row["sim"]
        reads, writes = self.demand[name]
        for side in (result, sim):
            if (side["demand_reads"], side["demand_writes"]) != (reads, writes):
                problems.append(
                    f"demand {side['demand_reads']}/{side['demand_writes']} != "
                    f"trace lines {reads}/{writes}"
                )
        if model == SOFTWARE_MODEL and sim["tag_checks"]:
            problems.append(f"software cell made {sim['tag_checks']} tag checks")
        if model == "direct_mapped" and sim["device_accesses"] > MAX_AMPLIFICATION * (
            reads + writes
        ):
            problems.append("direct-mapped exceeds Table I's accesses per request")
        return problems


class Cnn2lm:
    """Five ablation cache designs over the quick DenseNet graph.

    Many small, mostly collision-free batches (an RFO then a write-back
    per output tensor), so memsys accounting and per-call segmentation
    are a large share.  The designs are the ablation's three design
    choices (DDO, insert on write miss, associativity) around the
    baseline, plus the unsampled prefetch design.  The sector, miss
    predictor and bypass designs are left out so three passes fit one
    run; kv_replay still runs all three.
    """

    name = "cnn_2lm"
    network = "densenet264"
    backend_site = (ablation, "CachedBackend")
    split_sites = ((ablation, "execute_iteration"),)  # warm-up, then measured
    #: ablation.VARIANTS key -> the cache-model name its metrics carry.
    models = {
        "baseline (direct-mapped, DDO, insert-on-miss)": "direct_mapped",
        "no DDO": "no_ddo",
        "write-around (no insert on write miss)": "write_around",
        "8-way LRU": "setassoc_lru",
        "miss predictor (MissMap-style, 95%)": "miss_predictor",
        "bandwidth-aware bypass (BEAR-style, 10% insert)": "bypass",
        "next-line prefetch in the miss handler": "prefetch",
        "sector cache (2 KiB sectors, footprint 4)": "sector",
    }
    direct_mapped = ("direct_mapped", "no_ddo", "write_around")
    designs_full = direct_mapped + ("setassoc_lru", "prefetch")
    trace_lines = 0

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed  # unused: the graph and the designs' seeds are fixed
        self.variants = (
            [v for v in ablation.VARIANTS if self.models[v] in self.designs_full]
            if size == "full"
            else ["baseline (direct-mapped, DDO, insert-on-miss)", "8-way LRU"]
        )

    def setup(self) -> None:
        training_setup(self.network, quick=True)

    def cells(self) -> List[Cell]:
        return [
            Cell(variant, self.models[variant], partial(self._variant, variant))
            for variant in self.variants
        ]

    def _variant(self, variant: str) -> Row:
        with captured(*self.backend_site) as made:
            result = ablation.run_variant(variant, True)
        return {"result": result, "sim": backend_totals(made)}

    def check(self, key: str, row: Row, expected: Optional[dict]) -> List[str]:
        problems = _common_problems(row) + _expected_problems(row, expected, "ablation")
        amplification = row["result"]["amplification"]
        if self.models[key] in self.direct_mapped and amplification > MAX_AMPLIFICATION:
            problems.append(f"direct-mapped amplification {amplification} above Table I")
        return problems


class CnnAutotm:
    """AutoTM on the quick Inception v4: ILP placement, then a flat run.

    No cache model runs here, so a cache-engine change should leave it
    unchanged; the ILP build/solve and the first-fit addresser dominate.
    """

    name = "cnn_autotm"
    backend_site = (autotm_executor, "FlatBackend")
    #: Each ILP solve and each execution, at every budget tried.
    split_sites = ((autotm_common, "solve_ilp"), (autotm_common, "execute_autotm"))

    #: The costliest of table2's three networks, and the one that needs a
    #: budget back-off (two ILP solves); the others are left out so three
    #: passes fit one run.
    networks_full = ("inception_v4",)
    trace_lines = 0

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed  # unused: graphs and plans are fixed
        self.networks = list(self.networks_full) if size == "full" else ["densenet264"]

    def setup(self) -> None:
        for network in self.networks:
            training_setup(network, quick=True)

    def cells(self) -> List[Cell]:
        return [
            Cell(network, "none", partial(self._network, network))
            for network in self.networks
        ]

    def _network(self, network: str) -> Row:
        with captured(*self.backend_site) as made:
            # Bypass the per-process memo so every pass simulates.
            result = autotm_common.run_autotm.__wrapped__(network, True)
        traffic = result.traffic
        return {
            "result": {  # table2's AutoTM side
                "dram_reads": traffic.dram_reads,
                "dram_writes": traffic.dram_writes,
                "nvram_reads": traffic.nvram_reads,
                "nvram_writes": traffic.nvram_writes,
                "seconds": result.seconds,
            },
            "sim": backend_totals(made),
        }

    def check(self, key: str, row: Row, expected: Optional[dict]) -> List[str]:
        problems = _common_problems(row) + _expected_problems(row, expected, "table2")
        if row["sim"]["tag_checks"]:
            problems.append("AutoTM's flat backend made tag checks")
        return problems


WORKLOADS = {w.name: w for w in (KvReplay, Cnn2lm, CnnAutotm)}


def model_hit_rates(cells: List[Cell], rows: Dict[str, Row]) -> Dict[str, float]:
    """Modelled hit rate per cache model over the workload's cells."""
    hits: Dict[str, int] = {}
    checks: Dict[str, int] = {}
    for cell in cells:
        if cell.key not in rows:  # the cell raised
            continue
        sim = rows[cell.key]["sim"]
        hits[cell.model] = hits.get(cell.model, 0) + sim["tag_hits"]
        checks[cell.model] = checks.get(cell.model, 0) + sim["tag_checks"]
    return {
        model: (hits[model] / checks[model] if checks.get(model) else 0.0)
        for model in CACHE_MODELS
        if model in checks
    }
