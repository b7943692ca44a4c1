"""The paper's three CNN workloads (Section V-A), plus a GPT-like transformer.

Each builder lives in its own module (:mod:`~repro.nn.networks.densenet`,
:mod:`~repro.nn.networks.inception`, :mod:`~repro.nn.networks.resnet`,
:mod:`~repro.nn.networks.transformer`), and callers import it from
there, so building one network loads no other.

Builders return forward graphs; pass them through
:func:`repro.nn.autodiff.build_training_graph` to obtain the training
schedule.  Batch sizes are chosen so the planned memory footprint
exceeds the (scaled) DRAM-cache capacity, exactly as the paper "scaled
the training batch size until the overall footprint ... exceeded
650 GB".
"""
