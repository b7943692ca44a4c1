"""Unit tests for byte units and formatting."""

import pytest

from repro.units import (
    CACHE_LINE,
    GiB,
    KiB,
    MiB,
    format_bytes,
    gb_per_s,
    lines_in,
    to_gb_per_s,
)


def test_binary_prefixes_compose():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_cache_line_is_64_bytes():
    assert CACHE_LINE == 64


def test_bandwidth_round_trip():
    assert to_gb_per_s(gb_per_s(30.0)) == pytest.approx(30.0)


def test_gb_per_s_is_decimal():
    assert gb_per_s(1.0) == 1e9  # repro-lint: disable=UNIT001 (pins the definition)


@pytest.mark.parametrize(
    "value, expected",
    [
        (0, "0 B"),
        (512, "512 B"),
        (2 * KiB, "2.00 KiB"),
        (3 * MiB, "3.00 MiB"),
        (192 * GiB, "192.00 GiB"),
    ],
)
def test_format_bytes(value, expected):
    assert format_bytes(value) == expected


def test_format_bytes_rejects_negative():
    with pytest.raises(ValueError):
        format_bytes(-1)


def test_lines_in_exact():
    assert lines_in(640) == 10


def test_lines_in_rejects_partial_lines():
    with pytest.raises(ValueError):
        lines_in(100)
