"""Unit tests for the reporting helpers."""

import pytest

from repro.analysis import format_minutes_table, format_table, series_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_title(self):
        out = format_table(["x"], [["1"]], title="Table I")
        assert out.splitlines()[0] == "Table I"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestMinutesTable:
    def test_includes_paper_reference(self):
        out = format_minutes_table(
            "Table IV",
            ["kaggle"],
            ["1 GPU"],
            values={"kaggle": [12.5]},
            paper={"kaggle": [24.5]},
        )
        assert "12.5" in out and "(24.5)" in out

    def test_without_paper(self):
        out = format_minutes_table("T", ["x"], ["c"], values={"x": [1.0]})
        assert "(" not in out.splitlines()[-1]


class TestSeriesTable:
    def test_shape(self):
        out = series_table("batch", ["speedup"], [1, 2, 4], [[1.5, 2.0, 2.5]])
        lines = out.splitlines()
        assert len(lines) == 5
        assert "speedup" in lines[0]

    def test_multiple_series(self):
        out = series_table("x", ["a", "b"], [1], [[2.0], [3.0]])
        assert "2" in out and "3" in out

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            series_table("x", ["a"], [1, 2], [[1.0]])
        with pytest.raises(ValueError):
            series_table("x", ["a", "b"], [1], [[1.0]])
