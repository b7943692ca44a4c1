"""Structural tests for the three paper networks."""

import pytest

from repro.nn.autodiff import build_training_graph
from repro.nn.ir import OpKind
from repro.nn.networks.densenet import densenet264
from repro.nn.networks.inception import inception_v4
from repro.nn.networks.resnet import resnet200
from repro.nn.planner import plan_memory
from repro.units import MiB


@pytest.fixture(scope="module")
def densenet():
    return densenet264(1, weight_scale=1024)


@pytest.fixture(scope="module")
def resnet():
    return resnet200(1, weight_scale=1024)


@pytest.fixture(scope="module")
def inception():
    return inception_v4(1, weight_scale=1024)


def kinds(graph):
    return [op.kind for op in graph.ops]


class TestDenseNet:
    def test_has_dense_block_kernel_sequence(self, densenet):
        # Section V-C: Concat, BatchNorm, Conv, BatchNorm, Conv.
        names = [op.kind for op in densenet.ops]
        assert names.count(OpKind.CONCAT) >= 100  # one per dense layer in deep blocks
        assert OpKind.BATCH_NORM in names

    def test_dense_layer_count(self, densenet):
        # DenseNet-264: blocks (6, 12, 64, 48) = 130 layers, 2 convs each
        # plus stem and transitions.
        convs = kinds(densenet).count(OpKind.CONV)
        assert 2 * (6 + 12 + 64 + 48) <= convs <= 2 * (6 + 12 + 64 + 48) + 10

    def test_ends_with_loss(self, densenet):
        assert densenet.ops[-1].kind is OpKind.SOFTMAX_LOSS

    def test_trainable(self):
        g = densenet264(1, block_config=(2, 2), weight_scale=1024)
        training = build_training_graph(g)
        assert len(training.backward_ops) > 0


class TestResNet:
    def test_bottleneck_count(self, resnet):
        # (3, 24, 36, 3) bottlenecks x 3 convs + downsample convs + stem.
        convs = kinds(resnet).count(OpKind.CONV)
        expected_min = 3 * (3 + 24 + 36 + 3)
        assert convs >= expected_min

    def test_has_residual_adds(self, resnet):
        assert kinds(resnet).count(OpKind.ADD) == 3 + 24 + 36 + 3

    def test_output_downsampled_to_7x7(self, resnet):
        pool = [op for op in resnet.ops if op.name.startswith("GlobalPool")][0]
        assert pool.inputs[0].shape[2:] == (7, 7)


class TestInception:
    def test_block_structure(self, inception):
        # 4 A + 7 B + 3 C blocks each end in a concat, plus stem concats.
        assert kinds(inception).count(OpKind.CONCAT) >= 14

    def test_has_factorized_convs(self, inception):
        rectangular = [
            op
            for op in inception.ops
            if op.kind is OpKind.CONV
            and op.inputs[1].shape[2] != op.inputs[1].shape[3]
        ]
        assert rectangular, "Inception should contain 1x7/7x1 factorized convs"


class TestScaling:
    @pytest.mark.parametrize("builder", [densenet264, resnet200, inception_v4])
    def test_activation_bytes_scale_with_batch(self, builder):
        one = builder(1, weight_scale=1024).stats()["activation_bytes"]
        two = builder(2, weight_scale=1024).stats()["activation_bytes"]
        assert two == pytest.approx(2 * one, rel=0.01)

    def test_footprint_exceeds_cache_at_paper_batch(self):
        # The experiment configuration must exceed the scaled 192 MiB
        # DRAM cache, as the paper requires (>650 GB at full scale).
        g = densenet264(3)
        build_training_graph(g)
        plan = plan_memory(g, alignment=1024)
        assert plan.total_bytes > 192 * MiB
