"""Tests for the platform configuration and scaling machinery."""

import pytest

from repro.config import (
    DEFAULT_SCALE,
    PAPER_PLATFORM,
    PlatformConfig,
    default_platform,
)
from repro.errors import ConfigurationError
from repro.units import GiB, MiB, TiB


class TestPaperPlatform:
    """The unscaled config must match the paper's Figure 1 system."""

    def test_two_sockets(self):
        assert PAPER_PLATFORM.sockets == 2

    def test_dram_per_socket(self):
        assert PAPER_PLATFORM.socket.dram_capacity == 192 * GiB

    def test_nvram_per_socket(self):
        assert PAPER_PLATFORM.socket.nvram_capacity == 3 * TiB

    def test_six_channels(self):
        assert PAPER_PLATFORM.socket.channels == 6

    def test_24_cores(self):
        assert PAPER_PLATFORM.socket.cpu.cores == 24

    def test_nvram_read_bandwidth_just_over_30_gb(self):
        # Section III-C: "just over 30 GB/s read"
        assert 30e9 < PAPER_PLATFORM.socket.nvram_read_bandwidth < 33e9

    def test_nvram_write_bandwidth_about_11_gb(self):
        # Section III-C: "11 GB/s write"
        assert 10e9 < PAPER_PLATFORM.socket.nvram_write_bandwidth < 12e9

    def test_bandwidth_asymmetry_near_3x(self):
        ratio = (
            PAPER_PLATFORM.socket.nvram_read_bandwidth
            / PAPER_PLATFORM.socket.nvram_write_bandwidth
        )
        assert 2.0 < ratio < 4.0


class TestScaling:
    def test_capacities_divide(self):
        scaled = PAPER_PLATFORM.scaled(1024)
        assert scaled.socket.dram_capacity == 192 * MiB

    def test_bandwidth_divides_with_capacity(self):
        scaled = PAPER_PLATFORM.scaled(1024)
        assert scaled.socket.nvram.read_bandwidth == pytest.approx(5.3e9 / 1024)

    def test_ratios_preserved(self):
        scaled = PAPER_PLATFORM.scaled(512)
        original = (
            PAPER_PLATFORM.socket.nvram_read_bandwidth
            / PAPER_PLATFORM.socket.nvram_write_bandwidth
        )
        after = (
            scaled.socket.nvram_read_bandwidth / scaled.socket.nvram_write_bandwidth
        )
        assert after == pytest.approx(original)

    def test_scale_factor_recorded_and_composes(self):
        assert PAPER_PLATFORM.scaled(8).scaled(4).scale_factor == 32

    def test_capacity_rounds_to_whole_lines(self):
        scaled = PAPER_PLATFORM.scaled(1000)  # not a power of two
        assert scaled.socket.dram.capacity % 64 == 0

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigurationError):
            PAPER_PLATFORM.scaled(0)

    def test_rejects_scaling_below_one_line(self):
        with pytest.raises(ConfigurationError):
            PAPER_PLATFORM.scaled(1e18)

    def test_default_platform_uses_default_scale(self):
        assert default_platform().scale_factor == DEFAULT_SCALE


class TestValidation:
    def test_rejects_zero_sockets(self):
        with pytest.raises(ConfigurationError):
            PlatformConfig(sockets=0)
