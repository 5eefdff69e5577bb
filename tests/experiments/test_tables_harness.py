"""Unit tests for table rendering."""

import pytest

from repro.experiments.tables import format_table


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["k", "rounds"], [[8, 120], [16, 30]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "k" in lines[0] and "rounds" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        # Columns right-aligned: the widths of all lines match.
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting(self):
        out = format_table(["x"], [[0.00012345], [123456.0], [1.5]])
        assert "1.234e-04" in out or "1.235e-04" in out
        assert "1.235e+05" in out or "1.234e+05" in out

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out
