"""Micro-benchmark: the closed-form cache engine's cost contract.

The engine resolves duplicate set occurrences from at most one grouping
sort per batch, and the duplicate probe skips even that sort on
collision-free batches, so a batch that piles onto a few sets must cost
about as much per line as one that spreads over all of them.  That is
the high-miss, high-reuse regime (small-capacity ablations, graph
gathers) the paper's argument lives in, and an engine that loops once
per collision round degrades toward serial cost there.

Each cache model's closed form is timed on a shared workload family and
the timings are exported to ``benchmarks/out/BENCH_cache.json``, which
git ignores; the committed ``BENCH_cache.json`` at the repository root
is the trajectory point, and a change that means to move it copies the
new rows over it.  Every row records
its per-line seconds over the same model's ``uniform`` row's, timed in
the same run, as ``per_line_vs_uniform``: wall seconds follow
the host's speed, and unchanged code read 1.5-2x apart between runs
minutes apart, so that ratio is the trajectory worth drawing.  The
gates bound the same ratio, so they need neither absolute seconds nor
a host-speed probe:

* ``uniform`` — every request maps to a distinct set: the common
  streaming case, and the base of every gate.
* ``zipfian`` — multiplicity ~ 1/rank with a bounded head, mixing hot
  segments into a long singleton tail.  Trajectory only.
* ``same_set_mix`` — a hot set absorbing hundreds of aliasing requests
  inside an otherwise uniform batch: the adversarial LRU case.  Its 512
  requests spread over 64 aliases, so they rarely repeat a line back to
  back and the LRU engine runs about 500 rounds.  Trajectory only.
* ``high_collision`` (direct-mapped and sector) — ~100k requests over
  256 sets, the adversarial extreme.  Gate: at most 8x the uniform
  row's per-line cost.
* ``small_ordered`` (direct-mapped only) — cnn_2lm's shape: 256
  batches of a tensor's sampled lines, 137 lines 16 apart and ascending,
  on the quick CNN platform's 786,432 sets.  Each batch is far too small
  for the duplicate probe's scratch over that many sets, so only its
  order proves it collision-free.  Trajectory only.
* ``contiguous`` (direct-mapped only) — the prefetch design's shape on
  the same platform: 256 batches of 2,400 consecutive lines, none
  wrapping past the last set.  Each batch's sets are one range, so the
  segmenter skips the set-index pass and the probe, and the closed
  forms index state by slice.  Trajectory only.
* ``btree_window`` (direct-mapped only) — kv_replay's B-tree shape: the
  read pass of the first 262,144-line window of kvtrace's full B-tree
  trace at seed 7, on that trace's replay cache (66,560 sets).  Its set
  indices descend about n/160 times, between n/256 and n/64, so the
  grouping takes the packed sort, not timsort.  Trajectory only.
* ``logappend_window`` (direct-mapped only) — kv_replay's log-append
  shape: the first write window of kvtrace's full log-append trace at
  seed 7, on that trace's replay cache (524,256 sets).  At least 95 %
  of its positions hold a set that occurs once in the window, so the
  segmenter splits it: the singletons take the collision-free closed
  form with no sort, and only the positions whose set repeats are
  sorted and take the general one.  Trajectory only: its ratio to the
  uniform row read 0.8-1.2 over five runs, against 2.0-2.9 over three
  when the whole window was sorted as one grouping.
* ``trace_zipfian`` (set-associative only) — a real YCSB-style trace
  from :mod:`repro.traces` expanded to line addresses.  A hot key
  re-touches its whole multi-line object, so one set sees the same line
  hundreds of times (largest multiplicity 931).  Grouped by set, ~70 %
  of the occurrences repeat their predecessor's line and fold into run
  heads, so the LRU engine runs 20 rounds instead of 931.  Gate: at
  most 1.5x the uniform row's per-line cost; an LRU engine without run
  folding reads 2.1-2.7x here.

Batches are frozen read-only so the read pass and the write pass of
each iteration share one ``SegmentedBatch`` — the fused one-sort
lifecycle the production flow (memoized access streams) exercises.

Every model is property-tested bit-for-bit against its scalar oracle in
:mod:`repro.cache.flow` (``tests/cache/test_engine_property.py``), so
this measures cost only.
"""

import json
import time
import timeit
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.cache import DirectMappedCache, SectorCache, SetAssociativeCache
from repro.experiments.kvtrace import TRACE_SPECS
from repro.traces import generate
from repro.traces.format import OP_APPEND, OP_GET
from repro.traces.replay import (
    _cache_capacity,
    _expand_lines,
    identity_placement,
    platform_for,
)

REPEATS = 5
BENCH_PATH = Path(__file__).resolve().parent / "out" / "BENCH_cache.json"

DM_SETS = 1 << 18
SECTOR_SETS = 1 << 14
SECTOR_LINES = 32
SA_SETS = 1 << 15
SA_WAYS = 8

#: cnn_2lm's direct-mapped geometry and batch shape: the quick CNN
#: platform's 48 MiB cache, and each tensor's sampled lines.
CNN_SETS = 786_432
SMALL_ORDERED_LINES = 137
SMALL_ORDERED_STRIDE = 16
SMALL_ORDERED_BATCHES = 256

#: The same geometry, fed whole tensors: runs of consecutive lines.
CONTIGUOUS_LINES = 2_400
CONTIGUOUS_BATCHES = 256

#: Cost-contract bounds: a row's per-line seconds over its model's
#: ``uniform`` row's, both from this run.
GATES = {
    "direct_mapped/high_collision": 8.0,
    "sector/high_collision": 8.0,
    "set_associative/trace_zipfian": 1.5,
}


def _freeze(lines):
    """Freeze a batch so read + write passes share one SegmentedBatch."""
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    lines.flags.writeable = False
    return lines


class ModelSpec(NamedTuple):
    """One cache model: its constructor and set-addressing scheme."""

    name: str
    num_sets: int
    make: Callable[[], object]
    to_lines: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _dm_lines(sets, alias):
    return sets + alias * DM_SETS


def _sector_lines(sets, alias):
    # Distinct sectors per (set, alias); offsets vary so sector reads
    # exercise the footprint-fill resolution, not just bit tests.
    sector = sets + alias * SECTOR_SETS
    return sector * SECTOR_LINES + (sets ^ alias) % SECTOR_LINES


def _sa_lines(sets, alias):
    return sets + alias * SA_SETS


MODELS = [
    ModelSpec(
        "direct_mapped",
        DM_SETS,
        lambda: DirectMappedCache(DM_SETS * 64),
        _dm_lines,
    ),
    ModelSpec(
        "sector",
        SECTOR_SETS,
        lambda: SectorCache(
            SECTOR_SETS * SECTOR_LINES * 64,
            sector_lines=SECTOR_LINES,
            footprint=4,
        ),
        _sector_lines,
    ),
    ModelSpec(
        "set_associative",
        SA_SETS,
        lambda: SetAssociativeCache(SA_SETS * SA_WAYS * 64, ways=SA_WAYS),
        _sa_lines,
    ),
]


def _uniform_batch(spec, rng):
    """One request per set: collision-free, the common streaming case."""
    sets = rng.permutation(spec.num_sets)
    return _freeze(spec.to_lines(sets, np.zeros(spec.num_sets, dtype=np.int64)))


def _zipfian_batch(spec, rng, n=65_536, max_mult=256):
    """Multiplicity ~ max_mult/rank, capped head, long singleton tail."""
    counts = []
    total = 0
    while total < n:
        count = max(1, max_mult // (len(counts) + 1))
        counts.append(min(count, n - total))
        total += counts[-1]
    counts = np.array(counts, dtype=np.int64)
    sets = np.repeat(rng.integers(0, spec.num_sets, size=counts.size), counts)
    alias = rng.integers(0, 8, size=n)
    perm = rng.permutation(n)
    return _freeze(spec.to_lines(sets[perm], alias[perm]))


def _same_set_mix_batch(spec, rng, n=16_384, hot=512):
    """A hot set soaking up aliasing requests inside a uniform batch."""
    cold = n - hot
    sets = np.concatenate(
        [rng.integers(1, spec.num_sets, size=cold), np.zeros(hot, dtype=np.int64)]
    )
    alias = np.concatenate(
        [np.zeros(cold, dtype=np.int64), rng.integers(0, 64, size=hot)]
    )
    perm = rng.permutation(n)
    return _freeze(spec.to_lines(sets[perm], alias[perm]))


def _high_collision_batch(spec, rng, n=100_000):
    """~100k requests aliasing 256 sets: the adversarial extreme."""
    sets = rng.integers(0, 256, size=n)
    alias = rng.integers(0, 64, size=n)
    return _freeze(spec.to_lines(sets, alias))


def _small_ordered_batches():
    """Tensors laid end to end, each ``first + arange(0, 137 * 16, 16)``;
    the 256 of them span 561,152 lines, so none wraps past the last set."""
    span = SMALL_ORDERED_LINES * SMALL_ORDERED_STRIDE
    assert SMALL_ORDERED_BATCHES * span <= CNN_SETS
    return [
        _freeze(first + np.arange(0, span, SMALL_ORDERED_STRIDE))
        for first in range(0, SMALL_ORDERED_BATCHES * span, span)
    ]


def _contiguous_batches():
    """Tensors laid end to end, each ``first + arange(2400)``; the 256 of
    them span 614,400 lines, so none wraps past the last set."""
    assert CONTIGUOUS_BATCHES * CONTIGUOUS_LINES <= CNN_SETS
    return [
        _freeze(first + np.arange(CONTIGUOUS_LINES))
        for first in range(0, CONTIGUOUS_BATCHES * CONTIGUOUS_LINES, CONTIGUOUS_LINES)
    ]


def _trace_zipfian_batch():
    """A real YCSB-style KV trace, expanded to line addresses.

    Unlike the synthetic ``zipfian`` batch, the hot keys here are
    multi-line *objects* (values spanning several cache lines) that
    recur whole, so a hot set sees the same line over and over — the
    request shape ``repro.traces`` replays.
    """
    trace = generate(
        "ycsb", num_ops=6_000, key_space=8_192, read_fraction=0.5,
        skew=1.1, seed=0xCA5E,
    )
    return _expand_lines(trace.keys, trace.sizes, identity_placement(trace))


def _btree_window():
    """kv_replay's first B-tree read window and its cache's set count."""
    trace = generate("btree", seed=7, **TRACE_SPECS["btree"]["full"])
    ops, keys, sizes = next(trace.batches())
    fetch = ops != OP_APPEND
    lines = _expand_lines(keys[fetch], sizes[fetch], identity_placement(trace))
    num_sets = _cache_capacity(platform_for(trace)) // 64
    sets = lines % num_sets
    descents = np.count_nonzero(sets[1:] < sets[:-1])
    assert lines.size / 256 < descents <= lines.size / 64
    return lines, num_sets


def _logappend_window():
    """kv_replay's first log-append write window and its cache's set count."""
    trace = generate("logappend", seed=7, **TRACE_SPECS["logappend"]["full"])
    ops, keys, sizes = next(trace.batches())
    writes = ops != OP_GET
    lines = _expand_lines(keys[writes], sizes[writes], identity_placement(trace))
    num_sets = _cache_capacity(platform_for(trace)) // 64
    sets = lines % num_sets
    singletons = np.count_nonzero(np.bincount(sets, minlength=num_sets)[sets] == 1)
    assert singletons >= 0.95 * lines.size
    return lines, num_sets


def _time(make_cache, batches):
    """Best-of-N seconds for a read pass plus a write pass over each batch."""

    def run():
        cache = make_cache()
        for batch in batches:
            cache.llc_read(batch)
            cache.llc_write(batch)

    run()  # warm numpy / allocator
    return min(timeit.repeat(run, number=1, repeat=REPEATS, timer=time.perf_counter))


def test_closed_form_engine_cost_contract():
    rng = np.random.default_rng(0xCA5E)
    results = {}
    for spec in MODELS:
        workloads = [
            ("uniform", _uniform_batch(spec, rng)),
            ("zipfian", _zipfian_batch(spec, rng)),
            ("same_set_mix", _same_set_mix_batch(spec, rng)),
        ]
        if spec.name == "set_associative":
            workloads.append(("trace_zipfian", _trace_zipfian_batch()))
        else:
            workloads.append(("high_collision", _high_collision_batch(spec, rng)))
        for workload, batch in workloads:
            seconds = _time(spec.make, [batch])
            results[f"{spec.name}/{workload}"] = {
                "batch_lines": int(batch.size),
                "closed_form_s": seconds,
                "per_line_s": seconds / batch.size,
            }

    for workload, batches in (
        ("small_ordered", _small_ordered_batches()),
        ("contiguous", _contiguous_batches()),
    ):
        seconds = _time(lambda: DirectMappedCache(CNN_SETS * 64), batches)
        results[f"direct_mapped/{workload}"] = {
            "batch_lines": int(batches[0].size),
            "batches": len(batches),
            "closed_form_s": seconds,
            "per_line_s": seconds / sum(batch.size for batch in batches),
        }

    windows = {}
    for workload, (window, num_sets) in (
        ("btree_window", _btree_window()),
        ("logappend_window", _logappend_window()),
    ):
        seconds = _time(partial(DirectMappedCache, num_sets * 64), [window])
        results[f"direct_mapped/{workload}"] = {
            "batch_lines": int(window.size),
            "closed_form_s": seconds,
            "per_line_s": seconds / window.size,
        }
        windows[f"direct_mapped/{workload}"] = {"num_sets": num_sets}

    for name, row in results.items():
        uniform = results[name.split("/")[0] + "/uniform"]
        row["per_line_vs_uniform"] = row["per_line_s"] / uniform["per_line_s"]

    results["metadata"] = {
        "models": {
            "direct_mapped": {"num_sets": DM_SETS},
            "sector": {"num_sets": SECTOR_SETS, "sector_lines": SECTOR_LINES},
            "set_associative": {"num_sets": SA_SETS, "ways": SA_WAYS},
            "direct_mapped/small_ordered": {
                "num_sets": CNN_SETS,
                "stride": SMALL_ORDERED_STRIDE,
            },
            "direct_mapped/contiguous": {"num_sets": CNN_SETS},
            **windows,
        },
        "repeats": REPEATS,
        "timer": "perf_counter, best-of-N, read pass + write pass",
    }
    BENCH_PATH.parent.mkdir(exist_ok=True)
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    ratios = {name: results[name]["per_line_vs_uniform"] for name in GATES}
    broken = {name: ratio for name, ratio in ratios.items() if ratio > GATES[name]}
    assert not broken, (broken, ratios)
