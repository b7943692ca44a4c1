"""Tests for the transformer builder and attention autodiff."""

import pytest

from repro.errors import ConfigurationError
from repro.nn import build_training_graph, plan_memory
from repro.nn.ir import OpKind
from repro.nn.networks.transformer import gpt_like


@pytest.fixture(scope="module")
def tiny():
    return gpt_like(batch=1, seq_len=32, layers=2, d_model=64, heads=4, vocab=128)


@pytest.fixture(scope="module")
def trained():
    graph = gpt_like(batch=1, seq_len=32, layers=2, d_model=64, heads=4, vocab=128)
    return build_training_graph(graph)


class TestStructure:
    def test_two_attention_matmuls_per_layer(self, tiny):
        attention = [op for op in tiny.ops if op.kind is OpKind.ATTENTION]
        assert len(attention) == 2 * 2

    def test_scores_shape_is_quadratic_in_seq(self, tiny):
        scores = [
            op for op in tiny.ops if op.kind is OpKind.ATTENTION
        ][0].outputs[0]
        assert scores.shape == (1, 4, 32, 32)

    def test_two_residual_adds_per_layer(self, tiny):
        adds = [op for op in tiny.ops if op.kind is OpKind.ADD]
        assert len(adds) == 2 * 2

    def test_ends_with_loss(self, tiny):
        assert tiny.ops[-1].kind is OpKind.SOFTMAX_LOSS

    def test_rejects_bad_heads(self):
        with pytest.raises(ConfigurationError):
            gpt_like(batch=1, seq_len=8, layers=1, d_model=10, heads=3)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            gpt_like(batch=0)


class TestAttentionAutodiff:
    def test_attention_backprop_emitted(self, trained):
        backprops = [
            op for op in trained.backward_ops
            if op.kind is OpKind.ATTENTION_BACKPROP
        ]
        assert len(backprops) == 4

    def test_rebuilding_rejected(self, trained):
        with pytest.raises(ConfigurationError):
            build_training_graph(trained.graph)

    def test_attention_backprop_reads_both_operands(self, trained):
        bwd = [
            op for op in trained.backward_ops
            if op.kind is OpKind.ATTENTION_BACKPROP
        ][0]
        fwd = [op for op in trained.forward_ops if op.kind is OpKind.ATTENTION][-1]
        # Backward reads (d_out, a, b) and writes (d_a, d_b).
        assert len(bwd.inputs) == 3
        assert len(bwd.outputs) == 2
        assert bwd.outputs[0].shape in (t.shape for t in fwd.inputs)

    def test_same_operand_twice_accumulates(self):
        """scores = Attention(qkv, qkv): qkv receives two gradient
        contributions, which must be summed."""
        graph = gpt_like(batch=1, seq_len=16, layers=1, d_model=32, heads=2, vocab=64)
        training = build_training_graph(graph)
        sums = [op for op in training.backward_ops if op.name.startswith("GradSum")]
        assert sums

    def test_attention_is_compute_bound(self):
        from repro.nn.ir import COMPUTE_BOUND_KINDS

        assert OpKind.ATTENTION in COMPUTE_BOUND_KINDS
        assert OpKind.ATTENTION_BACKPROP in COMPUTE_BOUND_KINDS


class TestFootprint:
    def test_activation_memory_scales_with_seq_squared(self):
        small = gpt_like(batch=1, seq_len=32, layers=2, d_model=64, heads=4, vocab=128)
        large = gpt_like(batch=1, seq_len=64, layers=2, d_model=64, heads=4, vocab=128)
        ratio = (
            large.stats()["activation_bytes"] / small.stats()["activation_bytes"]
        )
        assert 2.0 < ratio < 4.5  # attention scores are S^2, the rest S

    def test_plannable(self, trained):
        plan = plan_memory(trained.graph, alignment=1024)
        assert plan.buffer_bytes > 0
        # Live overlap check comes free from the shared planner tests.
