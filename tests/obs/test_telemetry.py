"""Tests for the global telemetry handle and the instrumented hot paths."""

import logging

import numpy as np
import pytest

from repro import obs
from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, CachedBackend, FlatBackend
from repro.perf.counters import AccessContext, AccessKind


@pytest.fixture(autouse=True)
def _restore_global_telemetry():
    previous = obs.get()
    yield
    obs.set_telemetry(previous)


@pytest.fixture(scope="module")
def platform():
    return default_platform(8192)


class TestDisabledNoOp:
    def test_default_handle_is_null(self):
        assert obs.get() is obs.NULL_TELEMETRY
        assert not obs.get().enabled

    def test_null_span_is_shared_and_inert(self):
        tele = obs.NULL_TELEMETRY
        # Opened without ``with`` on purpose: the test compares the span
        # objects themselves before entering one.
        first = tele.span("a", cat="x", whatever=1)  # repro-lint: disable=TEL001
        second = tele.span("b")  # repro-lint: disable=TEL001
        assert first is second  # no allocation per span
        with first as span:
            span.set(key="value")  # absorbed

    def test_null_instruments_absorb_everything(self):
        tele = obs.NULL_TELEMETRY
        tele.counter("c").inc(5)
        tele.gauge("g").set(1.0)
        tele.histogram("h").observe(2.0)
        assert tele.counter("c") is tele.counter("other")

    def test_disabled_run_records_nothing(self, platform):
        backend = FlatBackend(platform, AddressMap.nvram_only(10_000))
        run_kernel(backend, KernelSpec(Kernel.READ_ONLY), 5_000)
        # Still the null handle; nothing leaked into a tracer/registry.
        assert obs.get() is obs.NULL_TELEMETRY


class TestSessionScoping:
    def test_session_installs_and_restores(self):
        before = obs.get()
        with obs.session() as tele:
            assert obs.get() is tele
            assert tele.enabled
        assert obs.get() is before

    def test_session_restores_on_error(self):
        before = obs.get()
        with pytest.raises(RuntimeError):
            with obs.session():
                raise RuntimeError("boom")
        assert obs.get() is before

    def test_enable_disable(self):
        tele = obs.enable()
        assert obs.get() is tele
        obs.disable()
        assert obs.get() is obs.NULL_TELEMETRY


class TestInstrumentedHotPaths:
    def test_flat_backend_emits_spans_and_counters(self, platform):
        with obs.session() as tele:
            backend = FlatBackend(platform, AddressMap.nvram_only(10_000))
            ctx = AccessContext(threads=4)
            with backend.epoch(ctx):
                backend.access(np.arange(1000), AccessKind.LLC_READ)
        names = [r.name for r in tele.tracer.records]
        assert "memsys.epoch" in names
        assert "memsys.access" in names
        snapshot = tele.metrics.snapshot()
        assert snapshot.counters["repro_nvram_reads_total"] == 1000
        assert snapshot.counters["repro_demand_reads_total"] == 1000

    def test_access_span_nests_inside_epoch(self, platform):
        with obs.session() as tele:
            backend = FlatBackend(platform, AddressMap.nvram_only(10_000))
            ctx = AccessContext(threads=4)
            with backend.epoch(ctx):
                backend.access(np.arange(100), AccessKind.LLC_READ)
        by_name = {r.name: r for r in tele.tracer.records}
        assert by_name["memsys.access"].depth == by_name["memsys.epoch"].depth + 1

    def test_epoch_span_carries_sim_time(self, platform):
        with obs.session() as tele:
            backend = FlatBackend(platform, AddressMap.nvram_only(10_000))
            ctx = AccessContext(threads=4)
            with backend.epoch(ctx):
                backend.access(np.arange(1000), AccessKind.LLC_READ)
        epoch_span = [r for r in tele.tracer.records if r.name == "memsys.epoch"][0]
        assert epoch_span.sim_duration is not None
        assert epoch_span.sim_duration > 0
        assert epoch_span.args["accesses"] == 1000

    def test_cached_backend_reports_cache_metrics(self, platform):
        with obs.session() as tele:
            cache = DirectMappedCache(platform.socket.dram_capacity)
            backend = CachedBackend(platform, cache)
            run_kernel(backend, KernelSpec(Kernel.READ_ONLY, threads=8), 20_000)
        snapshot = tele.metrics.snapshot()
        counters = snapshot.counters
        assert counters["repro_dram_reads_total"] > 0
        assert counters["repro_nvram_reads_total"] > 0
        assert any(
            name.startswith("repro_cache_direct_mapped_tag_") for name in counters
        )
        assert "repro_tag_hit_rate" in snapshot.gauges
        hist_names = {h.name for h in snapshot.histograms}
        assert "repro_epoch_amplification" in hist_names
        assert "repro_cache_direct_mapped_dirty_writeback_lines" in hist_names

    def test_telemetry_does_not_change_simulation(self, platform):
        def run():
            cache = DirectMappedCache(platform.socket.dram_capacity)
            backend = CachedBackend(platform, cache)
            return run_kernel(backend, KernelSpec(Kernel.READ_ONLY, threads=8), 20_000)

        obs.disable()
        baseline = run()
        with obs.session():
            observed = run()
        assert observed.traffic == baseline.traffic
        assert observed.tags == baseline.tags
        assert observed.seconds == baseline.seconds


class TestExperimentIntegration:
    def test_experiment_root_span_and_embedding(self):
        from repro.experiments.registry import run_experiment
        from repro.perf.export import to_jsonable

        with obs.session() as tele:
            result = run_experiment("fig2", quick=True)
        roots = [r for r in tele.tracer.records if r.name == "experiment:fig2"]
        assert len(roots) == 1
        assert roots[0].depth == 0
        assert "telemetry" in result.data
        payload = to_jsonable(result.data["telemetry"])
        assert payload["metrics"]["counters"]["repro_nvram_reads_total"] > 0
        assert any(s["name"] == "experiment:fig2" for s in payload["spans"])


class TestLogging:
    def test_configure_idempotent(self):
        logger = obs.configure_logging("debug")
        handlers_first = list(logger.handlers)
        logger = obs.configure_logging("info")
        assert len(logger.handlers) == len(handlers_first)
        assert logger.level == logging.INFO

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging("chatty")

    def test_get_logger_prefixes(self):
        assert obs.get_logger("memsys").name == "repro.memsys"
        assert obs.get_logger("repro.cache").name == "repro.cache"
