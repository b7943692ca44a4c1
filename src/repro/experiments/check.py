"""The paper's shape claims, declared once: does the simulator still reproduce it?

:data:`CLAIMS` is the one table of what this reproduction must show.
Each row bounds one :func:`~repro.experiments.headline.headline_metrics`
key of one experiment's run and cites the paper; rows whose number the
paper publishes also carry it as ``paper``.  Everything else derives
from the table:

* ``repro-experiment check`` runs each claimed experiment once (under
  ``all``, it judges the runs ``all`` already made) and prints one
  PASS/FAIL row per claim, with its :func:`slack`, so the tightest rows
  show; the CLI exits 1 if one fails;
* the report's paper-vs-repro deltas and bar-chart ticks
  (:func:`paper_values`);
* the claim tests, one parametrized case per row.

A claim whose metric (or bound metric) is missing from a run fails; it
is never skipped.  Every row holds on quick and on full-size runs, and
CI checks both.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments import registry
from repro.experiments.base import ExperimentResult
from repro.experiments.headline import headline_metrics
from repro.experiments.kvtrace import QUICK_TRACES
from repro.experiments.platform import PAPER_TABLE2
from repro.perf.export import to_jsonable
from repro.perf.report import render_table

#: A number, a ``(low, high)`` interval, or another headline metric
#: named ``"experiment.metric"``.
Bound = Union[float, Tuple[float, float], str]

#: ``relation -> test(value, bound)``; ``in[]`` is closed, ``in()`` open.
RELATIONS: Dict[str, Callable[[float, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in[]": lambda value, bound: bound[0] <= value <= bound[1],
    "in()": lambda value, bound: bound[0] < value < bound[1],
}


@dataclass(frozen=True)
class Claim:
    """``metric relation bound`` over one experiment's headline metrics."""

    experiment: str
    metric: str
    relation: str
    bound: Bound
    citation: str
    paper: Optional[float] = None  # the paper's published value of ``metric``

    def __str__(self) -> str:
        if self.relation in ("in[]", "in()"):
            (low, high), (left, right) = self.bound, self.relation[2:]
            return f"{self.metric} in {left}{low:.10g}, {high:.10g}{right}"
        bound = self.bound if isinstance(self.bound, str) else f"{self.bound:.10g}"
        return f"{self.metric} {self.relation} {bound}"


CLAIMS: List[Claim] = [
    Claim("fig2", "peak_read", "in[]", (30, 33), "Sec. III-C: reads peak just over 30 GB/s",
          paper=31.0),
    Claim("fig2", "peak_write", "in[]", (10, 12), "Fig. 2b: writes peak near 11 GB/s",
          paper=11.0),
    Claim("fig2", "seq_read_8t_over_24t", "in[]", (0.95, 1.05),
          "Fig. 2a: reads saturate by 8 threads"),
    Claim("fig2", "seq_write_4t_gbps", ">", "fig2.seq_write_24t_gbps",
          "Fig. 2b: writes peak at 4 threads"),
    Claim("fig2", "random64_over_seq_write_4t", "<", 0.35,
          "Sec. III-C: random 64 B writes collapse"),
    Claim("fig2", "random256_over_seq_write_4t", "in[]", (0.95, 1.05),
          "Fig. 2b: random 256 B writes match sequential"),
    Claim("table1", "matches_paper", "==", 1, "Table I: access counts match exactly",
          paper=1.0),
    Claim("table1", "max_amplification", "==", 5, "Table I: up to 5 accesses per request"),
    Claim("table1", "min_amplification", "==", 1, "Table I: a hit costs 1 access"),
    Claim("fig4", "read_clean_miss_amp", "in()", (2.95, 3.05),
          "Fig. 4a: a clean read miss costs 3 accesses", paper=3.0),
    Claim("fig4", "read_clean_miss_hit_rate", "<", 0.01, "Fig. 4a: 100 % miss rate"),
    Claim("fig4", "read_clean_miss_nvram_gbps", "in[]", (20, 26),
          "Fig. 4a: ~23 GB/s NVRAM read", paper=23.0),
    Claim("fig4", "read_clean_miss_effective_gbps", "<", "fig2.seq_read_24t_gbps",
          "Fig. 4a: 2LM reads slower than raw 1LM"),
    Claim("fig4", "write_dirty_miss_amp", "in()", (4.95, 5.05),
          "Fig. 4b: a dirty write miss costs 5 accesses", paper=5.0),
    Claim("fig4", "write_dirty_miss_dram_over_nvram_write", "in[]", (1.9, 2.1),
          "Sec. IV-B: 2x amplification in DRAM writes alone"),
    Claim("fig4", "rmw_ddo_fraction", ">", 0.95, "Fig. 4c: RMW write-backs use the DDO",
          paper=1.0),
    Claim("fig4", "rmw_amp", "in[]", (2.4, 2.6), "Fig. 4c: RMW costs 2.5 accesses"),
    Claim("fig5", "dirty_over_clean_misses", ">", 3, "Fig. 5b: dirty misses dominate"),
    Claim("fig5", "peak_live_bytes", ">", "fig5.cache_bytes",
          "Fig. 5d: the live set outgrows the cache"),
    Claim("fig5", "buffer_bytes", ">", "fig5.cache_bytes",
          "Sec. V-A: the footprint exceeds the cache"),
    Claim("fig5", "hit_burst_ratio", ">", 3, "Sec. V-B (3): tag-hit bursts"),
    Claim("fig5", "hit_dirty_corr", "<", -0.5,
          "Sec. V-B (3): hit bursts displace dirty misses"),
    Claim("fig5", "dirty_phase_dram_ratio", "<", 1,
          "Sec. V-B: DRAM bandwidth drops in dirty-miss phases"),
    Claim("fig6", "concat_memory_bound", "==", 1, "Fig. 6: Concat is memory-bound"),
    Claim("fig6", "batch_norm_memory_bound", "==", 1, "Fig. 6: BatchNorm is memory-bound"),
    Claim("fig6", "conv_memory_bound", "==", 0, "Fig. 6: convolution is compute-bound"),
    Claim("fig6", "concat_bandwidth_gbps", "<", 60,
          "Fig. 6: Concat runs well below the ~112 GB/s DRAM peak"),
    Claim("fig7", "kron_binary_bytes", "<", "fig7.cache_bytes", "Fig. 7: kron fits the cache"),
    Claim("fig7", "wdc_binary_bytes", ">", "fig7.cache_bytes", "Fig. 7: wdc exceeds the cache"),
    *(
        Claim("fig7", f"wdc_{kernel}_hit_rate", "<", f"fig7.kron_{kernel}_hit_rate",
              "Fig. 7: the hit rate drops on wdc")
        for kernel in ("cc", "pr")
    ),
    *(
        Claim("fig7", f"wdc_over_kron_{kernel}_dram", "<", 0.7,
              "Fig. 7: DRAM bandwidth collapses on wdc")
        for kernel in ("cc", "pr")
    ),
    Claim("fig8", "min_amplification", ">", 1.1, "Fig. 8: 2LM amplifies every kernel"),
    Claim("fig8", "max_amplification", ">", 1.7, "Fig. 8: amplification is significant"),
    Claim("fig9", "kron_dram_read_cv", "<", 0.2, "Fig. 9a: kron's DRAM bandwidth is stable"),
    Claim("fig9", "wdc_min_round_nvram_read_gbps", ">", 0,
          "Fig. 9b: wdc keeps NVRAM busy every round"),
    Claim("fig9", "wdc_dram_gbps", "<", "fig9.kron_dram_gbps",
          "Fig. 9b: wdc runs below kron's bandwidth"),
    Claim("fig9", "wdc_clean_misses", ">", 0, "Fig. 9c: wdc shows clean misses"),
    Claim("fig9", "wdc_dirty_misses", ">", 0, "Fig. 9c: wdc shows dirty misses"),
    Claim("fig10", "write_forward_over_backward", ">", 100,
          "Fig. 10: AutoTM's NVRAM writes are forward-only"),
    Claim("fig10", "read_backward_over_forward", ">", 100,
          "Fig. 10: AutoTM's NVRAM reads are backward-only"),
    Claim("fig10", "stash_bytes", "==", "fig10.restore_bytes",
          "Fig. 10: every stashed byte is restored"),
    *(
        Claim("table2", f"{network}_speedup", ">", 1.1, "Table II: AutoTM beats 2LM",
              paper=row["speedup"])
        for network, row in PAPER_TABLE2.items()
    ),
    Claim("table2", "densenet264_over_inception_v4_speedup", ">", 1,
          "Table II: DenseNet gains more than Inception"),
    *(
        Claim("table2", f"{network}_nvram_traffic_ratio", "in()", (0.3, 0.7),
              "Table II: AutoTM moves 50-60 % of 2LM's NVRAM traffic")
        for network in PAPER_TABLE2
    ),
    *(
        Claim("table2", f"{network}_dram_ratio", "in()", (0.7, 1.3),
              "Table II: similar DRAM traffic")
        for network in PAPER_TABLE2
    ),
    Claim("dma", "async_over_sync", ">", 1,
          "Sec. VII-B: asynchronous DMA movement beats synchronous copies"),
    Claim("dma", "async_over_2lm", ">", 1.5,
          "Sec. VII-B: DMA-overlapped AutoTM beats 2LM by more"),
    Claim("dma", "move_traffic_nvram", ">", 0,
          "Sec. VII-B: the DMA engine's copies are accounted as NVRAM traffic"),
    Claim("dma", "stall_seconds", "<=", "dma.dma_busy_seconds",
          "Sec. VII-B: kernels wait on a restore only while the engine is busy"),
    Claim("ablation", "lru8_nvram_read_gb", "<=", "ablation.baseline_nvram_read_gb",
          "Sec. VII: associativity cuts NVRAM reads"),
    Claim("ablation", "baseline_ddo_writes", ">", 0, "Sec. IV: the DDO elides tag checks"),
    Claim("ablation", "no_ddo_ddo_writes", "==", 0, "Sec. IV: no DDO, no elided checks"),
    Claim("ablation", "no_ddo_seconds", ">=", "ablation.baseline_seconds",
          "Sec. IV: dropping the DDO costs time"),
    # The extension studies' rows cite their EXPERIMENTS.md bullets.
    Claim("mix", "min_1lm_over_2lm", ">", 1,
          "EXPERIMENTS.md (mix): 1LM beats 2LM at every load:store ratio"),
    *(
        Claim("mix", f"{mode}_read_over_write", ">", 1,
              "EXPERIMENTS.md (mix): all loads outrun all stores")
        for mode in ("1lm", "2lm")
    ),
    Claim("dlrm", "inference_bandana_speedup", ">", 1.2,
          "EXPERIMENTS.md (dlrm): Bandana placement beats 2LM for inference"),
    Claim("dlrm", "inference_bandana_hit_fraction", ">", "dlrm.inference_2lm_hit_fraction",
          "EXPERIMENTS.md (dlrm): placement out-hits the direct-mapped cache"),
    Claim("dlrm", "inference_2lm_amplification", ">", 1.5,
          "EXPERIMENTS.md (dlrm): the 2LM cache amplifies NVRAM traffic"),
    *(
        Claim("dlrm", f"{phase}_bandana_amplification", "==", 1,
              "EXPERIMENTS.md (dlrm): software placement never amplifies")
        for phase in ("inference", "training")
    ),
    Claim("dlrm", "inference_nvram_writes", "==", 0,
          "EXPERIMENTS.md (dlrm): inference writes nothing to NVRAM"),
    Claim("gpt", "footprint_bytes", ">", "gpt.cache_bytes",
          "EXPERIMENTS.md (gpt): saved activations exceed the cache"),
    Claim("gpt", "speedup", ">", 1.05, "EXPERIMENTS.md (gpt): AutoTM beats 2LM"),
    Claim("gpt", "nvram_ratio", "<", 0.8, "EXPERIMENTS.md (gpt): AutoTM cuts NVRAM traffic"),
    Claim("gpt", "dirty_misses", ">", 0, "EXPERIMENTS.md (gpt): 2LM is dirty-miss-bound"),
    # Software placement beats the direct-mapped cache's bandwidth on
    # each quick KV trace shape.
    *(
        Claim("kvtrace", f"{trace}_case_holds", "==", 1,
              "Sec. VII: software management beats the 2LM cache")
        for trace in QUICK_TRACES
    ),
    # Evaluated by check itself: every other row holds.
    Claim("check", "all_pass", "==", 1, "EXPERIMENTS.md: every claim holds", paper=1.0),
]

#: ``experiment -> headline metrics`` of one run.
Lookup = Callable[[str], Mapping[str, float]]


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    value: Optional[float]
    ok: bool
    slack: Optional[float] = None  # see :func:`slack`; None for ``==`` or a missing metric


def slack(
    relation: str, value: float, bound: Union[float, Tuple[float, float]]
) -> Optional[float]:
    """How far ``value`` sits inside its bound, relative to the bound.

    ``(v - b) / |b|`` for ``>`` and ``>=``, ``(b - v) / |b|`` for ``<`` and
    ``<=``, and the plain difference when ``b`` is 0; for an interval, the
    distance to the nearer edge over the interval's width.  It is negative
    exactly when the value lies outside the bound, and a strict relation
    also fails at 0.  ``==`` has none.
    """
    if relation == "==":
        return None
    if relation in ("in[]", "in()"):
        low, high = bound
        return min(value - low, high - value) / (high - low)
    margin = value - bound if relation in (">", ">=") else bound - value
    return margin / abs(bound) if bound else margin


def evaluate(claims: Sequence[Claim], lookup: Lookup) -> List[Verdict]:
    """Judge each claim; a missing metric or bound metric is a FAIL."""
    verdicts = []
    for claim in claims:
        value = lookup(claim.experiment).get(claim.metric)
        bound = claim.bound
        if isinstance(bound, str):
            experiment, metric = bound.split(".")
            bound = lookup(experiment).get(metric)
        if value is None or bound is None:
            verdicts.append(Verdict(claim, value, False))
            continue
        ok = bool(RELATIONS[claim.relation](value, bound))
        verdicts.append(Verdict(claim, value, ok, slack(claim.relation, value, bound)))
    return verdicts


def paper_values(experiment: str) -> Dict[str, float]:
    """The paper's published value per claimed metric of ``experiment``."""
    return {
        claim.metric: claim.paper
        for claim in CLAIMS
        if claim.experiment == experiment and claim.paper is not None
    }


def headlines(quick: bool, results: Optional[Mapping[str, ExperimentResult]] = None) -> Lookup:
    """A memo of headline metrics that runs each experiment at most once.

    Each run's ``data`` is judged in the form the result store keeps and
    the catalog indexes, after its JSON round trip, so a claim reads the
    same headline a report charts.  ``results`` seeds the memo with runs
    already made, which are judged as they are and never re-run.
    ``check`` is answered from the same memo, so judging the table's own
    row re-runs nothing.
    """
    memo: Dict[str, Mapping[str, float]] = {}

    def remember(name: str, result: ExperimentResult) -> None:
        stored = json.loads(json.dumps(to_jsonable(result.data), sort_keys=True))
        memo[name] = headline_metrics(name, stored)

    def lookup(name: str) -> Mapping[str, float]:
        if name == "check" and name not in memo:
            remember(name, _check(lookup))
        elif name not in memo:
            remember(name, registry.run_experiment(name, quick=quick))
        return memo[name]

    for name, result in (results or {}).items():
        remember(name, result)
    return lookup


def _check(lookup: Lookup) -> ExperimentResult:
    verdicts = evaluate([c for c in CLAIMS if c.experiment != "check"], lookup)
    # check's own rows read this run's summary; looking ``check`` up would recurse.
    summary = {"all_pass": float(all(v.ok for v in verdicts))}
    verdicts += evaluate([c for c in CLAIMS if c.experiment == "check"], lambda _: summary)
    passed = sum(v.ok for v in verdicts)
    rows = [
        [v.claim.experiment, str(v.claim), "-" if v.value is None else f"{v.value:.4g}",
         "-" if v.slack is None else f"{v.slack:+.3g}", v.claim.citation,
         "PASS" if v.ok else "FAIL"]
        for v in verdicts
    ]
    result = ExperimentResult(name="check", title="Executable paper-claim verification")
    result.add(
        render_table(["experiment", "claim", "value", "slack", "citation", "verdict"], rows)
    )
    result.add(f"{passed}/{len(verdicts)} claims hold")
    result.data = {"passed": passed, "total": len(verdicts), "all_pass": passed == len(verdicts)}
    return result


def run(
    quick: bool = True, results: Optional[Mapping[str, ExperimentResult]] = None
) -> ExperimentResult:
    """Evaluate every claim; quick mode is the default (and recommended).

    ``results`` are runs already made, as ``repro-experiment all`` hands
    them over; only the experiments they leave out are run.
    """
    return _check(headlines(quick, results))
