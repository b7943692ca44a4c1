"""Tests for the training-iteration executor."""

import numpy as np
import pytest

from repro.cache import DirectMappedCache
from repro.config import default_platform
from repro.errors import ConfigurationError
from repro.memsys import CachedBackend
from repro.nn import build_training_graph, execute_iteration, plan_memory
from repro.nn.executor import TensorAddresser, compute_time
from repro.nn.ir import OpKind
from repro.nn.ops import GraphBuilder
from repro.perf import CounterSampler
from repro.perf.counters import TagStats, Traffic


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


def small_training_setup():
    b = GraphBuilder("small", batch=1, weight_scale=1024)
    x = b.input(3, 32, 32)
    y = b.conv_bn_relu(x, 8, kernel=3)
    y = b.matmul(y, 10)
    b.softmax_loss(y)
    training = build_training_graph(b.graph)
    plan = plan_memory(b.graph, alignment=1024)
    return training, plan


def run_once(platform, sample_stride=16):
    training, plan = small_training_setup()
    cache = DirectMappedCache(platform.socket.dram_capacity)
    backend = CachedBackend(platform, cache)
    return execute_iteration(plan, backend, sample_stride=sample_stride), training, plan


class TestExecution:
    def test_one_record_per_op(self, platform):
        result, training, plan = run_once(platform)
        assert len(result.records) == len(plan.graph.ops)

    def test_time_advances_monotonically(self, platform):
        result, _, _ = run_once(platform)
        for earlier, later in zip(result.records, result.records[1:]):
            assert later.start >= earlier.start
            assert later.end >= later.start

    def test_parameter_ops_produce_no_traffic(self, platform):
        result, _, _ = run_once(platform)
        for record in result.records:
            if record.op.kind is OpKind.PARAMETER:
                assert record.traffic.total_accesses == 0

    def test_demand_traffic_covers_tensors(self, platform):
        result, _, plan = run_once(platform, sample_stride=1)
        relu = [r for r in result.records if r.op.kind is OpKind.RELU][0]
        expected_lines = sum(
            -(-t.size_bytes // 64) for t in relu.op.inputs
        ) + 2 * sum(-(-t.size_bytes // 64) for t in relu.op.outputs)
        assert relu.traffic.demand_accesses == expected_lines

    def test_sgd_writes_weights(self, platform):
        result, _, _ = run_once(platform)
        sgd = [r for r in result.records if r.op.kind is OpKind.SGD_UPDATE][0]
        assert sgd.traffic.demand_writes > 0

    def test_sampler_sees_only_the_measured_iteration(self, platform):
        _, plan = small_training_setup()
        backend = CachedBackend(platform, DirectMappedCache(platform.socket.dram_capacity))
        sampler = CounterSampler(backend.counters)
        result = execute_iteration(plan, backend, sampler=sampler)
        points = sampler.trace().points
        assert [p.label for p in points] == [op.name for op in plan.graph.ops]
        # The warm-up ran first, but none of its traffic is in a point.
        assert points[0].start == result.records[0].start > 0
        traffic, tags = Traffic(), TagStats()
        for point in points:
            traffic += point.traffic
            tags += point.tags
        assert traffic == result.traffic
        assert tags == result.tags


class TestStrideSampling:
    def test_weighted_traffic_close_to_exact(self, platform):
        exact, _, _ = run_once(platform, sample_stride=1)
        sampled, _, _ = run_once(platform, sample_stride=16)
        t_exact, t_sampled = exact.traffic, sampled.traffic
        # Totals agree within a few percent (rounding on tensor tails).
        assert t_sampled.demand_accesses == pytest.approx(
            t_exact.demand_accesses, rel=0.05
        )
        assert t_sampled.total_accesses == pytest.approx(
            t_exact.total_accesses, rel=0.10
        )

    def test_rejects_misaligned_stride(self, platform):
        training, plan = small_training_setup()  # alignment 1024 = 16 lines
        cache = DirectMappedCache(platform.socket.dram_capacity)
        backend = CachedBackend(platform, cache)
        with pytest.raises(ConfigurationError):
            execute_iteration(plan, backend, sample_stride=32)


class TestComputeTime:
    def test_zero_flops_zero_time(self):
        b = GraphBuilder("t", batch=1)
        x = b.input(1, 8, 8)
        y = b.concat([x])
        assert compute_time(y.producer, 1e12) == 0.0  # repro-lint: disable=UNIT001 (FLOP/s)

    def test_compute_bound_kinds_more_efficient(self):
        b = GraphBuilder("t", batch=1, weight_scale=1)
        x = b.input(3, 16, 16)
        conv_out = b.conv(x, 4, kernel=3)
        bn_out = b.batch_norm(conv_out)
        conv, bn = conv_out.producer, bn_out.producer
        # Same flops would take longer on a memory-bound kernel.
        conv_time = compute_time(conv, 1e12)  # repro-lint: disable=UNIT001 (FLOP/s, not bytes)
        bn_time = compute_time(bn, 1e12)  # repro-lint: disable=UNIT001 (FLOP/s, not bytes)
        assert conv_time / conv.flops < bn_time / bn.flops


class TestTensorAddresser:
    def test_lines_cover_tensor(self, platform):
        _, plan = small_training_setup()
        addresser = TensorAddresser(plan, sample_stride=1)
        tensor = plan.graph.activations[0]
        lines = addresser.lines(tensor)
        assert lines.size == -(-tensor.size_bytes // 64)
        assert (np.diff(lines) == 1).all()

    def test_disjoint_concurrent_tensors_have_disjoint_lines(self, platform):
        _, plan = small_training_setup()
        addresser = TensorAddresser(plan, sample_stride=1)
        lives = plan.lives
        for i, a in enumerate(lives):
            for other in lives[i + 1 :]:
                if a.overlaps(other):
                    la = set(addresser.lines(a.tensor).tolist())
                    lb = set(addresser.lines(other.tensor).tolist())
                    assert not (la & lb)
