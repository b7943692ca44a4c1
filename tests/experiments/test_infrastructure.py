"""Tests for experiment infrastructure: results, graph-run math, CLI plumbing."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.graphcommon import GraphRun, run_graph_kernel
from repro.experiments.platform import (
    cnn_platform_for,
    graph_platform_for,
    kron_graph,
    training_setup,
    wdc_graph,
)
from repro.perf.counters import TagStats, Traffic
from repro.perf.trace import Trace
from repro.units import GB


class TestExperimentResult:
    def test_render_order(self):
        result = ExperimentResult(name="x", title="T")
        result.add("first")
        result.add("second")
        text = result.render()
        assert text.index("first") < text.index("second")
        assert text.startswith("=== x: T ===")


class TestGraphRun:
    def make(self, seconds=2.0, scale=100.0):
        return GraphRun(
            kernel="pr",
            mode="2lm",
            seconds=seconds,
            traffic=Traffic(
                dram_reads=1000, nvram_reads=500, demand_reads=1500
            ),
            tags=TagStats(hits=10),
            trace=Trace([]),
            rounds=3,
            scale=scale,
        )

    def test_bandwidth_scaling(self):
        run = self.make()
        # 1000 lines * 64 B / 2 s * scale 100 / GB.
        assert run.bandwidth_gbps("dram_reads") == pytest.approx(
            1000 * 64 / 2.0 * 100 / GB
        )

    def test_zero_seconds(self):
        run = self.make(seconds=0.0)
        assert run.bandwidth_gbps("dram_reads") == 0.0

    def test_total_moved(self):
        run = self.make()
        assert run.total_moved_gb == pytest.approx(1500 * 64 * 100 / GB)

    def test_demand_gb(self):
        run = self.make()
        assert run.demand_gb == pytest.approx(1500 * 64 * 100 / GB)


class TestPlatformCaches:
    def test_quick_platforms_are_smaller(self):
        assert (
            cnn_platform_for(True).socket.dram_capacity
            < cnn_platform_for(False).socket.dram_capacity
        )
        assert (
            graph_platform_for(True).socket.dram_capacity
            < graph_platform_for(False).socket.dram_capacity
        )

    def test_training_setup_cached(self):
        a = training_setup("resnet200", True)
        b = training_setup("resnet200", True)
        assert a[0] is b[0]

    def test_training_setup_rejects_unknown(self):
        with pytest.raises(KeyError):
            training_setup("alexnet", True)

    def test_graphs_cached_and_sized(self):
        assert kron_graph(True) is kron_graph(True)
        quick_platform = graph_platform_for(True)
        cache_bytes = 2 * quick_platform.socket.dram_capacity
        assert kron_graph(True).binary_bytes < cache_bytes
        assert wdc_graph(True).binary_bytes > cache_bytes


class TestRunGraphKernelValidation:
    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            run_graph_kernel("sssp", kron_graph(True), quick=True)

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            run_graph_kernel("bfs", kron_graph(True), mode="3lm", quick=True)
