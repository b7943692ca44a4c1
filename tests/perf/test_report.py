"""Tests for the text rendering helpers."""

import pytest

from repro.perf.report import render_series, render_table


class TestRenderTable:
    def test_alignment_and_headers(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert len(lines) == 4
        # Columns align: every row has the same width.
        assert len(set(len(line) for line in lines)) == 1

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestRenderSeries:
    def test_sparkline_length(self):
        text = render_series([1, 2, 3], "demo", width=10)
        assert "demo" in text
        assert "peak=3" in text

    def test_downsamples_long_series(self):
        text = render_series(list(range(1000)), "long", width=20)
        spark = text.split("|")[1]
        assert len(spark) == 20

    def test_empty(self):
        assert "(empty)" in render_series([], "none")

    def test_all_zero(self):
        text = render_series([0, 0, 0], "zero")
        assert "peak=0" in text

    def test_respects_vmax(self):
        low = render_series([1, 1], "x", vmax=100)
        assert "▁" in low

