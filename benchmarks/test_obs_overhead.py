"""Micro-benchmark: disabled telemetry must be ~free on the fig2 path.

The telemetry layer promises *zero overhead when disabled*: every
instrumented hot path guards on ``obs.get().enabled`` — one global read
plus one attribute lookup — and constructs nothing.  This benchmark
holds that promise to < 5 % of the fig2 kernel path (the raw NVRAM
bandwidth sweep, the simulator's tightest loop):

1. time the kernel path as shipped (telemetry disabled);
2. count exactly how many guard evaluations the run performs, by
   swapping in a counting ``obs.get``;
3. time the guard primitive itself in isolation;
4. assert ``guards * cost_per_guard`` stays under 5 % of the run.

This bounds the *instrumentation* cost rather than differencing two
noisy end-to-end timings, so the check is stable on loaded CI machines.
"""

import time
import timeit

from repro import obs
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, FlatBackend
from repro.perf.counters import Pattern

#: A 64 MiB buffer: enough batches to be representative.
NUM_LINES = 1 << 20  # repro-lint: disable=UNIT001 (a line count, not bytes)


def _fig2_kernel_path():
    """The figure-2 measurement path: raw NVRAM, sequential read scan."""
    platform = default_platform()
    backend = FlatBackend(platform, AddressMap.nvram_only(NUM_LINES))
    spec = KernelSpec(Kernel.READ_ONLY, pattern=Pattern.SEQUENTIAL, threads=24)
    return run_kernel(backend, spec, NUM_LINES)


def test_disabled_telemetry_overhead_under_5_percent():
    assert obs.get() is obs.NULL_TELEMETRY, "benchmark requires disabled telemetry"

    # 1. Time the instrumented-but-disabled path (best of 3 to shed noise).
    _fig2_kernel_path()  # warm numpy / allocator
    t_disabled = min(
        timeit.repeat(_fig2_kernel_path, number=1, repeat=3, timer=time.perf_counter)
    )

    # 2. Count guard evaluations: every instrumented site calls obs.get()
    #    exactly once, so a counting stand-in measures the real site count.
    calls = [0]
    real_get = obs.get

    def counting_get():
        calls[0] += 1
        return obs.NULL_TELEMETRY

    obs.get = counting_get
    try:
        _fig2_kernel_path()
    finally:
        obs.get = real_get
    guard_count = calls[0]
    assert guard_count > 0, "the fig2 path must actually hit instrumented sites"

    # 3. Cost of one disabled guard: global read + attribute lookup.
    reps = 100_000
    per_guard = (
        timeit.timeit("get().enabled", globals={"get": obs.get}, number=reps) / reps
    )

    # 4. The disabled instrumentation budget.
    overhead = guard_count * per_guard
    fraction = overhead / t_disabled
    ns_per_guard = per_guard * 1e9  # repro-lint: disable=UNIT001 (s to ns, not bytes)
    print(
        f"\nfig2 path: {t_disabled * 1e3:.1f} ms, {guard_count} guards, "
        f"{ns_per_guard:.0f} ns/guard -> {fraction * 100:.3f}% overhead"
    )
    assert fraction < 0.05


def test_enabled_telemetry_still_exact():
    """Enabling telemetry must not perturb the simulated outcome."""
    baseline = _fig2_kernel_path()
    with obs.session() as tele:
        observed = _fig2_kernel_path()
    assert observed.traffic == baseline.traffic
    assert observed.seconds == baseline.seconds
    assert len(tele.tracer) > 0
