"""Tests for the extension experiments (mix, dlrm, gpt) and mixed kernel.

The dma study's checks are rows of the claim table
(:data:`repro.experiments.check.CLAIMS`).
"""

import pytest

from repro.config import default_platform
from repro.experiments import run_experiment
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


class TestMixExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("mix", quick=True)

    def test_1lm_faster_than_2lm_at_every_ratio(self, result):
        for fraction, bandwidth in result.data["1lm"].items():
            assert bandwidth > result.data["2lm"][fraction]

    def test_read_heavy_faster(self, result):
        assert result.data["1lm"][1.0] > result.data["1lm"][0.0]
        assert result.data["2lm"][1.0] > result.data["2lm"][0.0]


class TestDlrmExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("dlrm", quick=True)

    def test_bandana_beats_2lm_inference(self, result):
        assert result.data["inference"]["bandana_speedup_over_2lm"] > 1.2

    def test_placement_hit_fraction_beats_cache(self, result):
        assert (
            result.data["inference"]["bandana"]["hit_fraction"]
            > result.data["inference"]["2lm"]["hit_fraction"]
        )

    def test_2lm_amplifies(self, result):
        assert result.data["inference"]["2lm"]["amplification"] > 1.5

    def test_software_placement_never_amplifies(self, result):
        for phase in ("inference", "training"):
            assert result.data[phase]["bandana"]["amplification"] == pytest.approx(1.0)

    def test_inference_writes_nothing(self, result):
        for mode in ("2lm", "bandana", "nvram"):
            assert result.data["inference"][mode]["nvram_writes"] == 0


class TestGptExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("gpt", quick=True)

    def test_footprint_exceeds_cache(self, result):
        assert result.data["footprint_bytes"] > result.data["cache_bytes"]

    def test_autotm_faster(self, result):
        assert result.data["speedup"] > 1.05

    def test_autotm_cuts_nvram_traffic(self, result):
        assert result.data["nvram_ratio"] < 0.8

    def test_dirty_misses_present(self, result):
        assert result.data["dirty_misses"] > 0
