"""Replay engine: placements, model coverage, and accounting sanity."""

import numpy as np
import pytest

from repro.config import BATCH_LINES
from repro.errors import ConfigurationError
from repro.memsys.backends import CachedBackend, FlatBackend
from repro.traces import ALL_MODELS, SOFTWARE_MODEL, generate, replay_all, replay_trace
from repro.traces.replay import (
    HARDWARE_MODELS,
    _expand_lines,
    identity_placement,
    make_backend,
    platform_for,
    profiled_placement,
)


@pytest.fixture(scope="module")
def kv_trace():
    # 4096 keys x 16 lines = a 4 MiB footprint: large enough that
    # platform_for honors dram_fraction without hitting the scale clamp.
    return generate("ycsb", num_ops=2000, key_space=4096, read_fraction=0.5, seed=1)


class TestPlacements:
    def test_identity_is_slot_strided(self, kv_trace):
        base = identity_placement(kv_trace)
        slot = kv_trace.header.slot_lines
        keys = kv_trace.header.key_space
        assert np.array_equal(base, np.arange(keys) * slot)

    def test_profiled_is_a_permutation_of_slots(self, kv_trace):
        base = profiled_placement(kv_trace)
        slot = kv_trace.header.slot_lines
        keys = kv_trace.header.key_space
        assert np.array_equal(np.sort(base), np.arange(keys) * slot)

    def test_profiled_puts_hottest_key_first(self, kv_trace):
        base = profiled_placement(kv_trace)
        hottest = int(np.argmax(kv_trace.key_popularity()))
        assert base[hottest] == 0


class TestBackendSelection:
    def test_software_gets_a_flat_backend(self, kv_trace):
        assert isinstance(make_backend(kv_trace, SOFTWARE_MODEL), FlatBackend)

    def test_hardware_models_get_cached_backends(self, kv_trace):
        for model in HARDWARE_MODELS:
            assert isinstance(make_backend(kv_trace, model), CachedBackend)

    def test_unknown_model_rejected(self, kv_trace):
        with pytest.raises(ConfigurationError):
            make_backend(kv_trace, "nosuch")

    def test_platform_scales_dram_to_a_fraction_of_the_footprint(self, kv_trace):
        platform = platform_for(kv_trace, dram_fraction=0.25)
        footprint = kv_trace.footprint_lines * 64
        assert platform.socket.dram_capacity == pytest.approx(
            footprint * 0.25, rel=0.01
        )

    def test_bad_fraction_rejected(self, kv_trace):
        with pytest.raises(ConfigurationError):
            platform_for(kv_trace, dram_fraction=0.0)


class TestReplay:
    def test_all_models_replay(self, kv_trace):
        results = replay_all(kv_trace, batch_lines=1 << 13)
        assert set(results) == set(ALL_MODELS)
        for model, result in results.items():
            assert result.model == model
            assert result.seconds > 0
            assert result.effective_gbps > 0

    def test_demand_traffic_matches_the_trace(self, kv_trace):
        ops = np.asarray(kv_trace.ops)
        sizes = np.asarray(kv_trace.sizes)
        expected_reads = int(sizes[ops != 2].sum())  # gets + put RMW
        expected_writes = int(sizes[ops != 0].sum())  # puts + appends
        for model in ("direct_mapped", SOFTWARE_MODEL):
            result = replay_trace(kv_trace, model, batch_lines=1 << 13)
            assert result.demand_reads == expected_reads
            assert result.demand_writes == expected_writes

    def test_replay_is_deterministic(self, kv_trace):
        first = replay_trace(kv_trace, "direct_mapped", batch_lines=1 << 13)
        second = replay_trace(kv_trace, "direct_mapped", batch_lines=1 << 13)
        assert first == second

    def test_software_hit_rate_is_zero_but_dram_absorbs_traffic(self, kv_trace):
        result = replay_trace(kv_trace, SOFTWARE_MODEL, batch_lines=1 << 13)
        assert result.hit_rate == 0.0  # no tags in 1LM
        assert result.dram_reads > 0  # hot keys are DRAM-placed

    def test_hardware_reports_tag_hit_rate(self, kv_trace):
        result = replay_trace(kv_trace, "direct_mapped", batch_lines=1 << 13)
        assert 0.0 < result.hit_rate < 1.0

    def test_append_only_trace_skips_fetch_reads(self):
        trace = generate(
            "logappend", num_ops=300, key_space=256, read_fraction=0.0,
            compact_every=301, seed=2,  # > num_ops: no compaction fires
        )
        result = replay_trace(trace, "direct_mapped", batch_lines=1 << 13)
        assert result.demand_reads == 0
        assert result.demand_writes == trace.total_lines

    def test_rows_serialize_plain(self, kv_trace):
        row = replay_trace(kv_trace, "sector", batch_lines=1 << 13).to_row()
        import json

        assert json.loads(json.dumps(row)) == row


class TestExpandLines:
    """A window's (key, size) rows expand to one read-only line address
    per cache line, in op order: exactly what a per-op loop produces."""

    @staticmethod
    def check(keys, sizes, key_base):
        by_loop = [
            int(key_base[key]) + offset
            for key, size in zip(keys.tolist(), sizes.tolist())
            for offset in range(size)
        ]
        lines = _expand_lines(keys, sizes, key_base)
        np.testing.assert_array_equal(lines, np.array(by_loop, dtype=np.int64))
        assert lines.dtype == np.int64 and not lines.flags.writeable

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_per_op_loop(self, seed):
        rng = np.random.default_rng(seed)
        key_base = rng.permutation(256).astype(np.int64) * 8
        keys = rng.integers(0, 256, size=300)
        sizes = rng.integers(1, 9, size=300)
        sizes[rng.random(300) < 0.3] = 1  # single-line ops
        self.check(keys, sizes, key_base)

    def test_an_op_larger_than_the_window(self):
        """More lines than the shared positions array holds."""
        key_base = np.arange(4, dtype=np.int64) * (2 * BATCH_LINES)
        self.check(np.array([2, 0, 3]), np.array([1, BATCH_LINES + 3, 2]), key_base)

    def test_an_empty_window(self):
        empty = np.zeros(0, dtype=np.int64)
        self.check(empty, empty, np.arange(4, dtype=np.int64))
