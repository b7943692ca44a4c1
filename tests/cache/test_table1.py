"""Table I, exactly: every request/outcome column's access counts.

These are the paper's central quantitative claims about the 2LM cache
(Section IV-B).  The scenarios mirror the paper's priming methodology:
hits from a resident array, clean/dirty misses from aliasing arrays,
DDO from a read-then-writeback sequence.
"""

import numpy as np
import pytest

from repro.cache import (
    AMPLIFICATION_TABLE,
    DirectMappedCache,
    RequestOutcome,
    expected_traffic,
)
from repro.cache.flow import ReferenceCache
from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import CachedBackend
from repro.perf.counters import StoreType, Traffic

SETS = 1024


@pytest.fixture(params=["vectorized", "reference"])
def cache(request):
    if request.param == "vectorized":
        return DirectMappedCache(SETS * 64)
    return ReferenceCache(SETS)


def lines(n, offset=0):
    return np.arange(offset, offset + n, dtype=np.int64)


class TestTableI:
    def test_read_hit(self, cache):
        cache.llc_read(lines(100))  # install
        traffic, tags = cache.llc_read(lines(100))
        assert tags.hits == 100
        expected = expected_traffic(RequestOutcome.READ_HIT, 100)
        assert traffic == expected
        assert traffic.amplification == 1.0

    def test_read_miss_clean(self, cache):
        cache.llc_read(lines(100))  # install aliasing lines, clean
        traffic, tags = cache.llc_read(lines(100, offset=SETS))
        assert tags.clean_misses == 100
        assert traffic == expected_traffic(RequestOutcome.READ_MISS_CLEAN, 100)
        assert traffic.amplification == 3.0

    def test_read_miss_dirty(self, cache):
        cache.llc_write(lines(100))  # install aliasing lines, dirty
        traffic, tags = cache.llc_read(lines(100, offset=SETS))
        assert tags.dirty_misses == 100
        assert traffic == expected_traffic(RequestOutcome.READ_MISS_DIRTY, 100)
        assert traffic.amplification == 4.0

    def test_write_hit(self, cache):
        # Install by *writing* (a read would arm the DDO and skip the
        # tag check); a second write to a written-installed line is a
        # checked hit.
        cache.llc_write(lines(100))
        traffic, tags = cache.llc_write(lines(100))
        assert tags.hits == 100
        assert tags.ddo_writes == 0
        assert traffic == expected_traffic(RequestOutcome.WRITE_HIT, 100)
        assert traffic.amplification == 2.0

    def test_write_miss_clean(self, cache):
        cache.llc_read(lines(100))  # aliasing clean lines
        traffic, tags = cache.llc_write(lines(100, offset=SETS))
        assert tags.clean_misses == 100
        assert traffic == expected_traffic(RequestOutcome.WRITE_MISS_CLEAN, 100)
        assert traffic.amplification == 4.0

    def test_write_miss_dirty(self, cache):
        cache.llc_write(lines(100))  # aliasing dirty lines
        traffic, tags = cache.llc_write(lines(100, offset=SETS))
        assert tags.dirty_misses == 100
        assert traffic == expected_traffic(RequestOutcome.WRITE_MISS_DIRTY, 100)
        assert traffic.amplification == 5.0

    def test_write_ddo(self, cache):
        # Read-modify-write with standard stores: the load's tag check
        # arms the DDO, the delayed write-back skips its own.
        cache.llc_read(lines(100))
        traffic, tags = cache.llc_write(lines(100))
        assert tags.ddo_writes == 100
        assert tags.checks == 0
        assert traffic == expected_traffic(RequestOutcome.WRITE_DDO, 100)
        assert traffic.amplification == 1.0

    def test_cold_miss_is_clean(self, cache):
        traffic, tags = cache.llc_read(lines(10))
        assert tags.clean_misses == 10
        assert traffic.nvram_writes == 0


@pytest.mark.parametrize(
    "kernel, store",
    [
        (Kernel.READ_ONLY, StoreType.STANDARD),
        (Kernel.WRITE_ONLY, StoreType.NONTEMPORAL),
    ],
)
def test_microbenchmark_counters_validate_exactly(kernel, store):
    """The simulated IMC counters of a warmed microbenchmark run must
    equal Table I applied to the run's own tag outcomes -- the paper's
    counter check (Section III-B), applied to the simulator."""
    platform = default_platform(4096)
    backend = CachedBackend(platform, DirectMappedCache(platform.socket.dram_capacity))
    num_lines = int(platform.socket.dram_capacity * 2.2) // 64
    spec = KernelSpec(kernel, store_type=store, threads=24)
    run_kernel(backend, spec, num_lines)  # warm-up iteration
    result = run_kernel(backend, spec, num_lines)
    tags = result.tags
    if kernel is Kernel.READ_ONLY:
        counts = {
            RequestOutcome.READ_HIT: tags.hits,
            RequestOutcome.READ_MISS_CLEAN: tags.clean_misses,
            RequestOutcome.READ_MISS_DIRTY: tags.dirty_misses,
        }
    else:
        counts = {
            RequestOutcome.WRITE_HIT: tags.hits,
            RequestOutcome.WRITE_MISS_CLEAN: tags.clean_misses,
            RequestOutcome.WRITE_MISS_DIRTY: tags.dirty_misses,
            RequestOutcome.WRITE_DDO: tags.ddo_writes,
        }
    expected = sum(
        (expected_traffic(outcome, count) for outcome, count in counts.items()), Traffic()
    )
    assert result.traffic == expected


class TestAmplificationTable:
    def test_bottom_row_matches_paper(self):
        expected = {
            RequestOutcome.READ_HIT: 1,
            RequestOutcome.READ_MISS_CLEAN: 3,
            RequestOutcome.READ_MISS_DIRTY: 4,
            RequestOutcome.WRITE_HIT: 2,
            RequestOutcome.WRITE_MISS_CLEAN: 4,
            RequestOutcome.WRITE_MISS_DIRTY: 5,
            RequestOutcome.WRITE_DDO: 1,
        }
        for outcome, amplification in expected.items():
            assert AMPLIFICATION_TABLE[outcome].amplification == amplification

    def test_every_read_does_one_dram_read(self):
        # Table I row "DRAM Read": 1 for every non-DDO column.
        for outcome, traffic in AMPLIFICATION_TABLE.items():
            expected = 0 if outcome is RequestOutcome.WRITE_DDO else 1
            assert traffic.dram_reads == expected

    def test_expected_traffic_scales(self):
        t = expected_traffic(RequestOutcome.WRITE_MISS_DIRTY, 7)
        assert t.nvram_writes == 7
        assert t.dram_writes == 14

    def test_expected_traffic_rejects_negative(self):
        with pytest.raises(ValueError):
            expected_traffic(RequestOutcome.READ_HIT, -1)
