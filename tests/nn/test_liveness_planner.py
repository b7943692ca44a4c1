"""Tests for liveness analysis and the memory planner."""

import pytest

from repro.errors import ConfigurationError
from repro.nn.autodiff import build_training_graph
from repro.nn.liveness import analyze_liveness, live_bytes_series
from repro.nn.ops import GraphBuilder
from repro.nn.planner import FirstFitArena, plan_memory


def chain_graph():
    """x -> relu -> relu -> relu; each intermediate dies quickly."""
    b = GraphBuilder("chain", batch=1, weight_scale=1)
    x = b.input(1, 16, 16)
    for _ in range(3):
        x = b.relu(x)
    return b.graph


class TestLiveness:
    def test_interval_endpoints(self):
        g = chain_graph()
        lives = {life.tensor.name: life for life in analyze_liveness(g)}
        # Input produced by op 0, consumed by op 1.
        first = [t for t in g.tensors if t.name.startswith("input")][0]
        assert lives[first.name].start == 0
        assert lives[first.name].end == 1

    def test_weights_excluded(self):
        b = GraphBuilder("w", batch=1, weight_scale=1)
        x = b.input(1, 8, 8)
        b.conv(x, 2, kernel=1)
        lives = analyze_liveness(b.graph)
        assert all(not life.tensor.weight for life in lives)

    def test_unused_output_lives_one_op(self):
        g = chain_graph()
        lives = {life.tensor.name: life for life in analyze_liveness(g)}
        last = g.ops[-1].outputs[0]
        assert lives[last.name].start == lives[last.name].end

    def test_overlap(self):
        g = chain_graph()
        lives = analyze_liveness(g)
        by_start = sorted(lives, key=lambda life: life.start)
        assert by_start[0].overlaps(by_start[1])

    def test_live_bytes_series_rises_and_falls(self):
        b = GraphBuilder("net", batch=1, weight_scale=1)
        x = b.input(3, 16, 16)
        y = b.conv_bn_relu(x, 8, kernel=3)
        y = b.matmul(y, 4)
        b.softmax_loss(y)
        training = build_training_graph(b.graph)
        series = live_bytes_series(analyze_liveness(b.graph), len(b.graph.ops))
        peak_index = series.index(max(series))
        assert series[0] < max(series)
        assert series[-1] < max(series)
        assert 0 < peak_index < len(series) - 1


class TestFirstFitArena:
    def test_disjoint_lifetimes_share_space(self):
        arena = FirstFitArena(alignment=64)
        a = arena.allocate(128, 0, 5)
        c = arena.allocate(128, 6, 10)  # disjoint: reuses offset 0
        assert a == c == 0

    def test_overlapping_lifetimes_get_disjoint_ranges(self):
        arena = FirstFitArena(alignment=64)
        a = arena.allocate(128, 0, 5)
        d = arena.allocate(128, 3, 8)
        assert d >= a + 128 or a >= d + 128

    def test_alignment(self):
        arena = FirstFitArena(alignment=256)
        arena.allocate(100, 0, 5)
        second = arena.allocate(100, 0, 5)
        assert second % 256 == 0

    def test_gap_reuse(self):
        arena = FirstFitArena(alignment=64)
        arena.allocate(64, 0, 10)
        middle = arena.allocate(64, 0, 2)
        arena.allocate(64, 0, 10)
        # After `middle` dies, a new tensor fits in its gap.
        reused = arena.allocate(64, 5, 10)
        assert reused == middle

    def test_rejects_bad_inputs(self):
        arena = FirstFitArena()
        with pytest.raises(ConfigurationError):
            arena.allocate(0, 0, 1)
        with pytest.raises(ConfigurationError):
            arena.allocate(64, 5, 1)
        with pytest.raises(ConfigurationError):
            FirstFitArena(alignment=3)


class TestPlanMemory:
    def test_no_live_overlap_in_address_space(self):
        b = GraphBuilder("net", batch=1, weight_scale=1)
        x = b.input(3, 16, 16)
        y = b.conv_bn_relu(x, 8, kernel=3)
        y = b.matmul(y, 4)
        b.softmax_loss(y)
        build_training_graph(b.graph)
        plan = plan_memory(b.graph)
        lives = plan.lives
        for i, a in enumerate(lives):
            ra = plan.extent_of(a.tensor)
            for other in lives[i + 1 :]:
                if not a.overlaps(other):
                    continue
                rb = plan.extent_of(other.tensor)
                assert ra[1] <= rb[0] or rb[1] <= ra[0], (
                    f"{a.tensor.name} and {other.tensor.name} overlap in "
                    f"time and space: {ra} vs {rb}"
                )

    def test_buffer_smaller_than_sum_of_tensors(self):
        """Memory reuse: the folded buffer beats naive allocation."""
        b = GraphBuilder("chain", batch=1, weight_scale=1)
        x = b.input(1, 64, 64)
        for _ in range(10):
            x = b.relu(x)
        plan = plan_memory(b.graph)
        total = sum(t.size_bytes for t in b.graph.activations)
        assert plan.buffer_bytes < total

    def test_weights_in_separate_region(self):
        b = GraphBuilder("net", batch=1, weight_scale=1)
        x = b.input(3, 8, 8)
        b.conv(x, 4, kernel=3)
        plan = plan_memory(b.graph)
        for w in b.graph.weights:
            start, end = plan.extent_of(w)
            assert start >= plan.buffer_bytes

    def test_alignment_respected(self):
        g = chain_graph()
        plan = plan_memory(g, alignment=1024)
        for tensor in g.activations:
            assert plan.offset_of(tensor) % 1024 == 0

    def test_total_bytes(self):
        g = chain_graph()
        plan = plan_memory(g)
        assert plan.total_bytes == plan.buffer_bytes + plan.weight_bytes
