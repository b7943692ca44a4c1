"""Regression: ``SegmentedBatch`` reuse across read/write phases.

The trace replay engine alternates fetch-read and write-back phases
over the *same* frozen line vector (the put read-modify-write shape),
and the CNN executors read a tensor again in later kernels, which hits
the :class:`~repro.cache.engine.BatchSegmenter` memo: every pass after
the first gets the first pass's grouping instead of a fresh argsort.
These tests pin the contract that reuse is purely a performance trick —
traffic, tags, and full cache state stay bit-exact against a twin cache
fed fresh writeable copies (which can never reuse), across many
alternating phases — and that a grouping lives exactly as long as its
frozen vector.
"""

import gc

import numpy as np
import pytest

from repro.cache import (
    DirectMappedCache,
    MissPredictorCache,
    SectorCache,
    SetAssociativeCache,
)
from repro.units import KiB

_STATE_ATTRS = ("_tags", "_dirty", "_known_resident", "_valid", "_stamp", "_clock")


def state_of(cache) -> dict:
    out = {}
    for attr in _STATE_ATTRS:
        value = getattr(cache, attr, None)
        if isinstance(value, np.ndarray):
            out[attr] = value.copy()
        elif value is not None:
            out[attr] = value
    return out


def assert_same_state(a, b) -> None:
    sa, sb = state_of(a), state_of(b)
    assert sa.keys() == sb.keys()
    for attr in sa:
        assert np.array_equal(sa[attr], sb[attr]), attr


MODELS = [
    ("direct_mapped", lambda: DirectMappedCache(64 * KiB)),
    ("write_around", lambda: DirectMappedCache(64 * KiB, insert_on_write_miss=False)),
    ("sector", lambda: SectorCache(64 * KiB, sector_lines=32, footprint=4)),
    ("setassoc", lambda: SetAssociativeCache(64 * KiB, ways=8)),
    ("miss_predictor", lambda: MissPredictorCache(64 * KiB, accuracy=0.9, seed=3)),
]


def phase_batches(seed: int, phases: int = 8, size: int = 4096):
    """Alternating-phase line batches with heavy same-set collisions."""
    rng = np.random.default_rng(seed)
    for _ in range(phases):
        lines = rng.integers(0, 3 * 1024, size=size).astype(np.int64)
        lines.flags.writeable = False
        yield lines


@pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
class TestReusedSegmentationIsBitExact:
    def test_read_then_write_phases(self, name, factory):
        reused, fresh = factory(), factory()
        for lines in phase_batches(seed=11):
            # Reuse path: the same frozen vector for both passes.
            r_traffic, r_tags = reused.llc_read(lines)
            w_traffic, w_tags = reused.llc_write(lines)
            # Twin: writeable copies, so segmentation is rebuilt per call.
            f1 = lines.copy()
            f2 = lines.copy()
            assert f1.flags.writeable and f2.flags.writeable
            fr_traffic, fr_tags = fresh.llc_read(f1)
            fw_traffic, fw_tags = fresh.llc_write(f2)
            assert r_traffic == fr_traffic
            assert r_tags == fr_tags
            assert w_traffic == fw_traffic
            assert w_tags == fw_tags
            assert_same_state(reused, fresh)

    def test_write_then_read_phases(self, name, factory):
        reused, fresh = factory(), factory()
        for lines in phase_batches(seed=12, phases=6):
            r = (reused.llc_write(lines), reused.llc_read(lines))
            f = (fresh.llc_write(lines.copy()), fresh.llc_read(lines.copy()))
            assert r == f
            assert_same_state(reused, fresh)


def frozen(values):
    lines = np.asarray(values, dtype=np.int64)
    lines.flags.writeable = False
    return lines


class TestSegmenterContract:
    def test_frozen_vector_shares_one_segmentation(self):
        cache = DirectMappedCache(64 * KiB)
        lines = frozen(np.arange(0, 8192, 3) % 4096)
        first_lines, first = cache._segmenter.segment(lines)
        second_lines, second = cache._segmenter.segment(lines)
        assert first is second
        assert first_lines is second_lines is lines

    def test_writeable_vector_is_never_cached(self):
        cache = DirectMappedCache(64 * KiB)
        lines = np.arange(0, 8192, 3, dtype=np.int64) % 4096
        _, first = cache._segmenter.segment(lines)
        _, second = cache._segmenter.segment(lines)
        assert first is not second
        cache.llc_read(lines)
        cache.llc_write(lines)
        assert cache._segmenter._memo == {}

    @pytest.mark.parametrize("name,factory", MODELS, ids=[m[0] for m in MODELS])
    def test_entry_leaves_the_memo_when_its_vector_is_collected(self, name, factory):
        cache = factory()
        kept = frozen(np.arange(100, 2100, 7) % 3072)
        dropped = frozen(np.arange(0, 4096, 3) % 3072)
        cache.llc_read(kept)
        cache.llc_write(dropped)
        assert set(cache._segmenter._memo) == {id(kept), id(dropped)}
        del dropped
        gc.collect()
        assert set(cache._segmenter._memo) == {id(kept)}
        del kept
        gc.collect()
        assert cache._segmenter._memo == {}

    def test_vector_read_again_after_others_gets_its_grouping_back(self, monkeypatch):
        """A frozen vector read again after other vectors, frozen and
        writeable, gets the identical grouping back, and neither its set
        indices nor its validation are computed again."""
        from repro.cache import engine

        cache = DirectMappedCache(64 * KiB)
        tensor = frozen(np.arange(0, 8192, 3) % 4096)
        _, grouping = cache._segmenter.segment(tensor)
        others = [frozen(np.arange(5, 900, 2)), np.arange(40, 4000, 5, dtype=np.int64)]
        for lines in others:
            cache.llc_read(lines)
            cache.llc_write(lines)
        set_indices, validations = [], []
        real_set_index, real_as_lines = engine.BatchSegmenter._set_index, engine.as_lines

        def spy_set_index(self, lines):
            set_indices.append(lines.size)
            return real_set_index(self, lines)

        def spy_as_lines(lines):
            validations.append(np.size(lines))
            return real_as_lines(lines)

        monkeypatch.setattr(engine.BatchSegmenter, "_set_index", spy_set_index)
        monkeypatch.setattr(engine, "as_lines", spy_as_lines)
        assert cache._segmenter.segment(tensor)[1] is grouping
        cache.llc_read(tensor)
        cache.llc_write(tensor)
        assert set_indices == [] and validations == []
        cache.llc_read(others[1])  # writeable: validated and indexed again
        assert set_indices == validations == [others[1].size]

    def test_replay_put_batches_exercise_reuse(self):
        """The replay engine's all-put batches really hit the reuse path."""
        from repro.perf.counters import AccessContext, AccessKind, Pattern
        from repro.traces import generate
        from repro.traces.format import OP_PUT
        from repro.traces.replay import (
            _expand_lines,
            identity_placement,
            make_backend,
            platform_for,
        )

        trace = generate(
            "ycsb", num_ops=400, key_space=512, read_fraction=0.0, seed=5
        )
        assert (np.asarray(trace.ops) == OP_PUT).all()
        backend = make_backend(trace, "direct_mapped", platform_for(trace))
        seen = []

        class SpySegmenter:
            def __init__(self, inner):
                self._inner = inner

            def segment(self, lines, keys=None):
                lines, seg = self._inner.segment(lines, keys)
                seen.append(seg)
                return lines, seg

        backend.cache._segmenter = SpySegmenter(backend.cache._segmenter)
        ctx = AccessContext(threads=4, pattern=Pattern.RANDOM)
        key_base = identity_placement(trace)
        for ops, keys, sizes in trace.batches(1 << 12):
            lines = _expand_lines(keys, sizes, key_base)
            with backend.epoch(ctx):
                backend.access(lines, AccessKind.LLC_READ, ctx)
                backend.access(lines, AccessKind.LLC_WRITE, ctx)
        # Two segment() calls per batch (read + write), but each batch's
        # frozen vector yields exactly one SegmentedBatch object.
        assert len(seen) >= 2 and len(seen) % 2 == 0
        assert len(set(map(id, seen))) == len(seen) // 2

    def test_executor_output_rfo_and_write_back_share_one_segmentation(
        self, monkeypatch
    ):
        """An op's output tensor is read (RFO) and then written back, in
        the warm-up and again in the measured iteration; the executor
        passes all four the same frozen line array, so the run costs one
        segmentation."""
        from repro.cache import engine
        from repro.config import default_platform
        from repro.memsys import CachedBackend
        from repro.nn import execute_iteration, plan_memory
        from repro.nn.ir import Graph, OpKind

        graph = Graph("one_output")
        out = graph.tensor("out", (64, 1024))  # 4,096 lines: one batch
        graph.add_op("relu", OpKind.RELU, [], [out])
        plan = plan_memory(graph, alignment=1024)
        cache = DirectMappedCache(64 * KiB)  # 1,024 sets: every batch collides
        backend = CachedBackend(default_platform(4096), cache)

        segmenter_calls, segmentations = [], []
        real_segment = engine.segment

        def counting_segment(keys, probe=None):
            segmentations.append(keys.size)
            return real_segment(keys, probe)

        monkeypatch.setattr(engine, "segment", counting_segment)
        real_method = engine.BatchSegmenter.segment

        def counting_method(self, lines, keys=None):
            segmenter_calls.append(lines.size)
            return real_method(self, lines, keys)

        monkeypatch.setattr(engine.BatchSegmenter, "segment", counting_method)
        execute_iteration(plan, backend, sample_stride=1)
        assert segmenter_calls == [4096] * 4  # RFO, then write-back, twice
        assert segmentations == [4096]
