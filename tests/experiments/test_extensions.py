"""Tests for the mixed read/write kernel behind the ``mix`` extension.

The extension studies' shape checks (dma, mix, dlrm, gpt) are rows of
the claim table (:data:`repro.experiments.check.CLAIMS`).
"""

import pytest

from repro.config import default_platform
from repro.kernels import Kernel, KernelSpec, run_kernel
from repro.memsys import AddressMap, FlatBackend


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


class TestMixedKernel:
    def _run(self, platform, fraction):
        backend = FlatBackend(
            platform, AddressMap.nvram_only(platform.socket.nvram_capacity // 64)
        )
        spec = KernelSpec(Kernel.MIXED, threads=8, read_fraction=fraction)
        return run_kernel(backend, spec, 50_000)

    def test_fraction_controls_demand_mix(self, platform):
        result = self._run(platform, 0.75)
        total = result.traffic.demand_accesses
        assert result.traffic.demand_reads / total == pytest.approx(0.75, abs=0.02)

    def test_pure_extremes(self, platform):
        reads = self._run(platform, 1.0)
        assert reads.traffic.demand_writes == 0
        writes = self._run(platform, 0.0)
        assert writes.traffic.demand_reads == 0

    def test_every_line_touched_once(self, platform):
        result = self._run(platform, 0.5)
        assert result.traffic.demand_accesses == 50_000

    def test_bandwidth_monotone_in_read_fraction(self, platform):
        """Reads are ~3x faster than writes: more reads, more bandwidth."""
        bw = [self._run(platform, f).effective_bandwidth for f in (0.0, 0.5, 1.0)]
        assert bw[0] < bw[1] < bw[2]

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            KernelSpec(Kernel.MIXED, read_fraction=1.5)

