"""Tests for the asynchronous DMA movement executor."""

import pytest

from repro.autotm import PlacementMode, PlacementProblem, execute_autotm, solve_ilp
from repro.autotm.dma import DMAEngineConfig, execute_autotm_async
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


@pytest.fixture(scope="module")
def setup(platform):
    b = GraphBuilder("t", batch=1, weight_scale=1024)
    x = b.input(3, 32, 32)
    for _ in range(6):
        x = b.conv_bn_relu(x, 8, kernel=3)
    y = b.matmul(x, 10)
    b.softmax_loss(y)
    training = build_training_graph(b.graph)
    budget = int(platform.socket.dram_capacity * 0.002)
    problem = PlacementProblem.build(
        training, platform, budget, capacity_stride=1, min_stash_gap=2
    )
    plan = solve_ilp(problem)
    assert plan.count(PlacementMode.STASH) > 0
    return training, plan


class TestAsyncExecution:
    def test_async_not_slower_than_sync(self, platform, setup):
        training, plan = setup
        sync = execute_autotm(training, plan, platform, sample_stride=16)
        asynchronous = execute_autotm_async(
            training, plan, platform, sample_stride=16
        )
        assert asynchronous.seconds <= sync.seconds + 1e-9

    def test_moves_accounted_in_traffic(self, platform, setup):
        training, plan = setup
        result = execute_autotm_async(training, plan, platform, sample_stride=16)
        assert result.move_traffic.nvram_writes > 0
        assert result.move_traffic.nvram_reads > 0
        assert result.traffic.nvram_reads >= result.move_traffic.nvram_reads

    def test_move_traffic_is_what_the_moves_charged(self, platform, setup, monkeypatch):
        """Moves run between kernels, outside any epoch, so each charges
        the counter bank at once and no time: the bank ends holding the
        kernels' epochs plus exactly the move traffic the result reports,
        and the clock the kernels' epochs plus the stalls."""
        from repro.autotm import dma

        made = []
        real = dma.FlatBackend

        def build(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(dma, "FlatBackend", build)
        training, plan = setup
        result = execute_autotm_async(training, plan, platform, sample_stride=16)
        (backend,) = made
        assert result.move_traffic.demand_accesses > 0
        assert backend.counters.traffic == result.traffic
        assert backend.counters.time == pytest.approx(result.seconds)

    def test_stash_restore_balanced(self, platform, setup):
        training, plan = setup
        result = execute_autotm_async(training, plan, platform, sample_stride=16)
        assert result.stash_bytes == result.restore_bytes > 0

    def test_dma_busy_time_positive(self, platform, setup):
        training, plan = setup
        result = execute_autotm_async(training, plan, platform, sample_stride=16)
        assert result.dma_busy_seconds > 0

    def test_tiny_lookahead_stalls_more(self, platform, setup):
        training, plan = setup
        eager = execute_autotm_async(
            training, plan, platform,
            engine=DMAEngineConfig(lookahead=32), sample_stride=16,
        )
        lazy = execute_autotm_async(
            training, plan, platform,
            engine=DMAEngineConfig(lookahead=1), sample_stride=16,
        )
        assert lazy.stall_seconds >= eager.stall_seconds

    def test_slow_engine_approaches_sync(self, platform, setup):
        training, plan = setup
        sync = execute_autotm(training, plan, platform, sample_stride=16)
        crippled = execute_autotm_async(
            training, plan, platform,
            engine=DMAEngineConfig(bandwidth=1e6), sample_stride=16,
        )
        fast = execute_autotm_async(training, plan, platform, sample_stride=16)
        assert crippled.seconds > fast.seconds
        assert crippled.stall_seconds > fast.stall_seconds

    def test_rejects_bad_lookahead(self, platform, setup):
        training, plan = setup
        with pytest.raises(ConfigurationError):
            execute_autotm_async(
                training, plan, platform, engine=DMAEngineConfig(lookahead=0)
            )
