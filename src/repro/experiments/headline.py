"""Headline metrics: the few numbers that summarize each experiment.

``ExperimentResult.data`` is deliberately rich — full grids, traces,
per-series arrays.  The results catalog (:mod:`repro.service.catalog`)
and the report renderer (:mod:`repro.report`) need the opposite: a
small, flat ``{metric: number}`` view per run, stable enough to chart
across commits.  This module is that projection.

Every registered experiment has an entry in :data:`HEADLINES` (REG001
enforces coverage): a hook that digs its headline numbers out of the
experiment's ``data`` dict.  Hooks are defensive — a metric that is
missing (quick-mode grids can differ) is silently dropped rather than
crashing the result store, which computes each run's headline once when
it stores the run and again when it re-derives an index line from an
old payload.  Hooks read ``data`` in its stored form, the JSON round
trip of :func:`~repro.perf.export.to_jsonable`: numpy arrays are lists,
and dict keys are strings (tuple keys joined as ``"a/b/c"``, float
keys as ``"0.5"``).  The claim checker judges that same form.

Besides the numbers worth charting, hooks expose the derived ratios
and extremes that the paper-claim table (:data:`repro.experiments.check.CLAIMS`)
bounds, so every claim is a comparison over headline metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

import numpy as np

Extractor = Callable[[Mapping[str, Any]], Dict[str, float]]


def _leaf(data: Any, *path: Any) -> Any:
    """Walk nested dicts; ``None`` where the path breaks off."""
    node = data
    for part in path:
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _num(data: Any, *path: Any) -> Optional[float]:
    """A numeric leaf as ``float``, else ``None``."""
    node = _leaf(data, *path)
    if isinstance(node, bool):
        return 1.0 if node else 0.0
    if isinstance(node, (int, float)):
        return float(node)
    return None


def _pick(data: Mapping[str, Any], *names: str) -> Dict[str, float]:
    """The named top-level scalars of ``data`` that exist and are numeric."""
    out: Dict[str, float] = {}
    for name in names:
        value = _num(data, name)
        if value is not None:
            out[name] = value
    return out


def _collect(pairs: Iterable[tuple]) -> Dict[str, float]:
    return {name: value for name, value in pairs if value is not None}


def _numbers(data: Any, *path: str) -> Dict[str, float]:
    """The numeric entries of the dict at ``path``, by key; empty if there is none."""
    node = _leaf(data, *path)
    if not isinstance(node, Mapping):
        return {}
    return _collect((key, _num(node, key)) for key in node)


def _spread(data: Mapping[str, Any], field: str) -> Dict[str, float]:
    """``{f"{row}_{field}": row[field]}`` over a dict-of-rows table."""
    out: Dict[str, float] = {}
    for name in sorted(data):
        value = _num(data, name, field)
        if value is not None:
            out[f"{name}_{field}"] = value
    return out


def _extremes(data: Any, field: str) -> Dict[str, float]:
    """``min_<field>`` and ``max_<field>`` over a dict-of-rows table."""
    if not isinstance(data, Mapping):
        return {}
    values = [v for v in (_num(data, name, field) for name in data) if v is not None]
    if not values:
        return {}
    return {f"min_{field}": min(values), f"max_{field}": max(values)}


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _series(data: Any, *path: str) -> Optional[np.ndarray]:
    """A non-empty 1-D numeric series (a list once stored) as an array."""
    node = _leaf(data, *path)
    if not isinstance(node, list):
        return None
    array = np.asarray(node, dtype=float)
    return array if array.ndim == 1 and array.size else None


# -- per-experiment hooks -------------------------------------------------


def _fig2(data: Mapping[str, Any]) -> Dict[str, float]:
    def gbps(side: str, pattern: str, granularity: int, threads: int) -> Optional[float]:
        return _num(data, "bandwidth", side, f"{pattern}/{granularity}/{threads}")

    read_24t = gbps("read", "sequential", 64, 24)
    write_4t = gbps("write", "sequential", 64, 4)
    return _collect(
        [
            *_pick(data, "peak_read", "peak_write").items(),
            ("seq_read_24t_gbps", read_24t),
            ("seq_read_8t_over_24t", _ratio(gbps("read", "sequential", 64, 8), read_24t)),
            ("seq_write_4t_gbps", write_4t),
            ("seq_write_24t_gbps", gbps("write", "sequential", 64, 24)),
            ("random64_over_seq_write_4t", _ratio(gbps("write", "random", 64, 4), write_4t)),
            ("random256_over_seq_write_4t", _ratio(gbps("write", "random", 256, 4), write_4t)),
        ]
    )


def _fig4(data: Mapping[str, Any]) -> Dict[str, float]:
    read = ("4a_read_clean_miss", "sequential_64")
    write = ("4b_write_dirty_miss", "sequential_64")
    rmw = ("4c_rmw_ddo", "sequential_64")
    return _collect(
        [
            ("read_clean_miss_amp", _num(data, *read, "amplification")),
            ("read_clean_miss_nvram_gbps", _num(data, *read, "nvram_read")),
            ("read_clean_miss_hit_rate", _num(data, *read, "hit_rate")),
            ("read_clean_miss_effective_gbps", _num(data, *read, "effective")),
            ("write_dirty_miss_amp", _num(data, *write, "amplification")),
            (
                "write_dirty_miss_dram_over_nvram_write",
                _ratio(_num(data, *write, "dram_write"), _num(data, *write, "nvram_write")),
            ),
            ("rmw_ddo_fraction", _num(data, *rmw, "ddo_fraction")),
            ("rmw_amp", _num(data, *rmw, "amplification")),
        ]
    )


def _fig5(data: Mapping[str, Any]) -> Dict[str, float]:
    out = _pick(data, "iteration_seconds", "hit_rate", "clean_misses", "dirty_misses",
                "peak_live_bytes", "buffer_bytes", "cache_bytes")
    ratio = _ratio(out.get("dirty_misses"), out.get("clean_misses"))
    return {**out, **_collect([("dirty_over_clean_misses", ratio), *_fig5_phases(data)])}


def _fig5_phases(data: Mapping[str, Any]) -> Iterable[tuple]:
    """Section V-B's per-window observations over the tag/bandwidth series."""
    names = ("hits_rate", "dirty_rate", "clean_rate", "dram_read")
    series = [_series(data, f"{name}_series") for name in names]
    if any(s is None for s in series) or len({s.size for s in series}) != 1:
        return
    hits, dirty, clean, dram = series
    yield "hit_burst_ratio", float(np.percentile(hits, 90) / max(np.percentile(hits, 10), 1))
    total = hits + dirty + clean
    seen = total > 0
    hit_frac, dirty_frac = hits[seen] / total[seen], dirty[seen] / total[seen]
    if hit_frac.size > 1 and hit_frac.std() and dirty_frac.std():
        yield "hit_dirty_corr", float(np.corrcoef(hit_frac, dirty_frac)[0, 1])
    # Low-dirty windows include the dirty-free ones, so ``low`` is never empty.
    high = dirty > np.percentile(dirty, 80)
    low = dirty <= np.percentile(dirty, 20)
    if high.any():
        yield "dirty_phase_dram_ratio", _ratio(float(dram[high].mean()), float(dram[low].mean()))


def _fig6(data: Mapping[str, Any]) -> Dict[str, float]:
    seconds = [_num(data, kind, "seconds") for kind in data]
    bandwidth = [_num(data, kind, "bandwidth_gbps") for kind in data]
    return _collect(
        [
            ("total_seconds", sum(s for s in seconds if s is not None)),
            (
                "peak_bandwidth_gbps",
                max((b for b in bandwidth if b is not None), default=None),
            ),
            ("concat_bandwidth_gbps", _num(data, "concat", "bandwidth_gbps")),
            *(
                (f"{kind}_memory_bound", _num(data, kind, "memory_bound"))
                for kind in ("concat", "batch_norm", "conv")
            ),
        ]
    )


def _fig7(data: Mapping[str, Any]) -> Dict[str, float]:
    def kernel(label: str, name: str, field: str) -> Optional[float]:
        return _num(data, label, "kernels", name, field)

    pairs = []
    for label in sorted(data):
        pairs.append((f"{label}_pr_dram_gbps", kernel(label, "pr", "dram_gbps")))
        pairs.append((f"{label}_binary_bytes", _num(data, label, "binary_bytes")))
        pairs += [(f"{label}_{k}_hit_rate", kernel(label, k, "hit_rate")) for k in ("cc", "pr")]
    for k in ("cc", "pr"):
        ratio = _ratio(kernel("wdc", k, "dram_gbps"), kernel("kron", k, "dram_gbps"))
        pairs.append((f"wdc_over_kron_{k}_dram", ratio))
    return _collect(pairs)


def _fig8(data: Mapping[str, Any]) -> Dict[str, float]:
    # "<kernel>_amplification", plus its min/max over the kernels
    return {**_spread(data, "amplification"), **_extremes(data, "amplification")}


def _fig9(data: Mapping[str, Any]) -> Dict[str, float]:
    kron_dram = _series(data, "kron", "series", "dram_read")
    wdc_nvram = _series(data, "wdc", "series", "nvram_read")
    pairs = [
        ("wdc_clean_misses", _num(data, "wdc", "clean_misses")),
        ("wdc_dirty_misses", _num(data, "wdc", "dirty_misses")),
    ]
    # Round 0 is the cold start: per-round shapes start after it (a spread needs two rounds).
    if kron_dram is not None and kron_dram.size > 2:
        warm = kron_dram[1:]
        pairs.append(("kron_dram_read_cv", _ratio(float(warm.std()), float(warm.mean()))))
    if wdc_nvram is not None and wdc_nvram.size > 1:
        pairs.append(("wdc_min_round_nvram_read_gbps", float(wdc_nvram[1:].min())))
    return {
        **_spread(data, "hit_rate"),
        **_spread(data, "nvram_gbps"),
        **_spread(data, "dram_gbps"),
        **_collect(pairs),
    }


def _fig10(data: Mapping[str, Any]) -> Dict[str, float]:
    out = _pick(
        data,
        "iteration_seconds",
        "nvram_writes_forward",
        "nvram_writes_backward",
        "nvram_reads_forward",
        "nvram_reads_backward",
        "stash_bytes",
        "restore_bytes",
    )

    def one_way(side: str, other: str) -> Optional[float]:
        """NVRAM lines on ``side`` per line on ``other`` (floored at one line)."""
        lines = out.get(f"nvram_{other}")
        return None if lines is None else _ratio(out.get(f"nvram_{side}"), max(lines, 1.0))

    return {
        **out,
        **_collect(
            [
                ("write_forward_over_backward", one_way("writes_forward", "writes_backward")),
                ("read_backward_over_forward", one_way("reads_backward", "reads_forward")),
            ]
        ),
    }


def _table1(data: Mapping[str, Any]) -> Dict[str, float]:
    return {**_pick(data, "matches_paper"), **_extremes(data.get("measured"), "amplification")}


def _table2(data: Mapping[str, Any]) -> Dict[str, float]:
    dram = [
        (f"{n}_dram_ratio", _ratio(_num(data, n, "autotm_dram_gb"), _num(data, n, "2lm_dram_gb")))
        for n in sorted(data)
    ]
    speedups = _spread(data, "speedup")  # "<network>_speedup"
    ordering = _ratio(speedups.get("densenet264_speedup"), speedups.get("inception_v4_speedup"))
    return {
        **speedups,
        **_spread(data, "nvram_traffic_ratio"),
        **_collect([*dram, ("densenet264_over_inception_v4_speedup", ordering)]),
    }


def _ablation(data: Mapping[str, Any]) -> Dict[str, float]:
    baseline = "baseline (direct-mapped, DDO, insert-on-miss)"
    return {
        "variants": float(len(data)),
        **_extremes(data, "amplification"),
        **_collect(
            [
                ("baseline_seconds", _num(data, baseline, "seconds")),
                ("baseline_nvram_read_gb", _num(data, baseline, "nvram_read_gb")),
                ("baseline_ddo_writes", _num(data, baseline, "ddo_writes")),
                ("no_ddo_seconds", _num(data, "no DDO", "seconds")),
                ("no_ddo_ddo_writes", _num(data, "no DDO", "ddo_writes")),
                ("lru8_nvram_read_gb", _num(data, "8-way LRU", "nvram_read_gb")),
            ]
        ),
    }


def _dma(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(
        data, "async_over_sync", "async_over_2lm", "2lm_seconds",
        "move_traffic_nvram", "stall_seconds", "dma_busy_seconds",
    )


def _mix(data: Mapping[str, Any]) -> Dict[str, float]:
    # Each mode maps a read fraction, "0.0" (all stores) to "1.0" (all loads), to GB/s.
    curves = {mode: _numbers(data, mode) for mode in ("1lm", "2lm")}
    pairs = []
    for mode, curve in curves.items():
        pairs.append((f"peak_{mode}_gbps", max(curve.values(), default=None)))
        pairs.append((f"{mode}_read_over_write", _ratio(curve.get("1.0"), curve.get("0.0"))))
    ratios = _collect(
        (fraction, _ratio(gbps, curves["2lm"].get(fraction)))
        for fraction, gbps in curves["1lm"].items()
    )
    pairs.append(("min_1lm_over_2lm", min(ratios.values(), default=None)))
    return _collect(pairs)


def _dlrm(data: Mapping[str, Any]) -> Dict[str, float]:
    pairs = [
        (f"{phase}_bandana_speedup", _num(data, phase, "bandana_speedup_over_2lm"))
        for phase in sorted(data)
    ]
    for phase in ("inference", "training"):
        pairs.append(
            (f"{phase}_bandana_amplification", _num(data, phase, "bandana", "amplification"))
        )
    pairs += [
        ("inference_2lm_amplification", _num(data, "inference", "2lm", "amplification")),
        ("inference_2lm_hit_fraction", _num(data, "inference", "2lm", "hit_fraction")),
        ("inference_bandana_hit_fraction", _num(data, "inference", "bandana", "hit_fraction")),
    ]
    writes = [_num(data, "inference", mode, "nvram_writes") for mode in ("2lm", "bandana", "nvram")]
    if None not in writes:
        pairs.append(("inference_nvram_writes", sum(writes)))
    return _collect(pairs)


def _gpt(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(
        data, "speedup", "hit_rate", "nvram_ratio", "dirty_misses",
        "footprint_bytes", "cache_bytes",
    )


#: Per-trace verdict metrics the kvtrace hook flattens into the
#: catalog; the report's hardware-vs-software section is rebuilt from
#: exactly these, so they must stay derivable from headline rows alone.
KVTRACE_VERDICT_METRICS = (
    "hw_gbps",
    "sw_gbps",
    "best_hw_gbps",
    "hw_nvram_writes",
    "sw_nvram_writes",
    "hw_hit_rate",
    "case_holds",
)


def _kvtrace(data: Mapping[str, Any]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for trace in sorted(data):
        node = data.get(trace)
        if not isinstance(node, Mapping) or "_verdict" not in node:
            continue  # e.g. the attached "telemetry" payload
        for metric in KVTRACE_VERDICT_METRICS:
            value = _num(node, "_verdict", metric)
            if value is not None:
                out[f"{trace}_{metric}"] = value
    return out


def _check(data: Mapping[str, Any]) -> Dict[str, float]:
    return _pick(data, "passed", "total", "all_pass")


#: Per-experiment headline hooks; keys mirror the CLI registry exactly
#: (REG001 flags any registered experiment missing here).
HEADLINES: Dict[str, Extractor] = {
    "fig2": _fig2,
    "table1": _table1,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table2": _table2,
    "ablation": _ablation,
    "dma": _dma,
    "mix": _mix,
    "dlrm": _dlrm,
    "gpt": _gpt,
    "kvtrace": _kvtrace,
    "check": _check,
}

def headline_metrics(experiment: str, data: Mapping[str, Any]) -> Dict[str, float]:
    """The flat headline view of one run's ``data``.

    Unregistered experiment names (service stubs, retired experiments
    still present in an old store) fall back to the generic projection:
    every numeric top-level scalar of ``data``.
    """
    hook = HEADLINES.get(experiment)
    if hook is None:
        return {
            name: _num(data, name)
            for name in sorted(data)
            if _num(data, name) is not None
        }
    if not isinstance(data, Mapping):
        return {}
    return hook(data)
