"""CSV emission and control-coloring input validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from ramsey_toolkit import (ControlComplementError, ControlFormatError,
                            ControlSizeError, ControlSymmetryError,
                            RESULT_COLUMNS, format_value,
                            load_control_coloring, write_results)


class TestFormatValue:
    def test_none_is_indeterminate(self):
        assert format_value(None) == "indeterminate"

    def test_booleans_before_integers(self):
        # bool is an Integral subtype; the verdict formatting must win.
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(np.bool_(True)) == "true"

    def test_integers(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"

    def test_reals_fixed_precision(self):
        assert format_value(0.5) == "5.000000e-01"
        assert format_value(np.float64(-1e-300)) == "-1.000000e-300"
        assert format_value(float("nan")) == "nan"

    def test_fallback(self):
        assert format_value("enumerate") == "enumerate"


@dataclass
class Row:
    n: int
    value: float
    verdict: bool | None


class TestWriteResults:
    def test_golden_bytes(self, tmp_path):
        rows = [{"n": 5, "value": 0.25, "verdict": None},
                {"n": 6, "value": -1.0, "verdict": True}]
        path = write_results(rows, tmp_path / "out.csv",
                             columns=("n", "value", "verdict"))
        data = path.read_bytes()
        assert data == (b"n,value,verdict\n"
                        b"5,2.500000e-01,indeterminate\n"
                        b"6,-1.000000e+00,true\n")

    def test_lf_endings_and_trailing_newline(self, tmp_path):
        path = write_results([{"n": 1}], tmp_path / "lf.csv", columns=("n",))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_attribute_rows(self, tmp_path):
        rows = [Row(n=4, value=2.0, verdict=False)]
        path = write_results(rows, tmp_path / "attr.csv",
                             columns=("n", "value", "verdict"))
        assert path.read_text() == ("n,value,verdict\n"
                                    "4,2.000000e+00,false\n")

    def test_creates_parent_directories(self, tmp_path):
        path = write_results([], tmp_path / "a" / "b" / "c.csv",
                             columns=("x",))
        assert path.read_text() == "x\n"

    def test_input_not_mutated(self, tmp_path):
        row = {"n": 1, "value": None}
        snapshot = dict(row)
        write_results([row], tmp_path / "m.csv", columns=("n", "value"))
        assert row == snapshot

    def test_default_columns(self):
        assert RESULT_COLUMNS[0] == "n"
        assert RESULT_COLUMNS[-1] == "critical"
        assert len(RESULT_COLUMNS) == 12


def write_pair(directory, red_lines, blue_lines):
    (directory / "am46_red.csv").write_text("\n".join(red_lines) + "\n")
    (directory / "am46_blue.csv").write_text("\n".join(blue_lines) + "\n")
    return directory


class TestLoadControlColoring:
    def test_fixture_loads(self, am46_dir):
        coloring = load_control_coloring(am46_dir)
        assert coloring.v == 46
        assert sum(coloring.bits) == 630
        # Circulant structure: edge colour depends only on the index gap.
        assert coloring.is_red(1, 2) and coloring.is_red(10, 11)

    def test_small_valid_pair(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1,0", "1,0,1", "0,1,0"],
                   ["0,0,1", "0,0,0", "1,0,0"])
        coloring = load_control_coloring(tmp_path)
        assert coloring.v == 3
        assert coloring.is_red(1, 2) and not coloring.is_red(1, 3)

    def test_bits_follow_edge_index(self, tmp_path):
        rng = np.random.default_rng(5)
        red = np.triu(rng.integers(0, 2, size=(7, 7)), 1)
        red = red + red.T
        blue = 1 - red - np.eye(7, dtype=red.dtype)
        write_pair(tmp_path,
                   [",".join(map(str, row)) for row in red],
                   [",".join(map(str, row)) for row in blue])
        coloring = load_control_coloring(tmp_path)
        assert all(coloring.is_red(i, j) == bool(red[i - 1, j - 1])
                   for i in range(1, 8) for j in range(i + 1, 8))
        assert all(type(bit) is bool for bit in coloring.bits)

    def test_whitespace_separation_and_header(self, tmp_path):
        write_pair(tmp_path,
                   ["# red adjacency", "0 1", "1 0"],
                   ["blue adjacency", "0 0", "0 0"])
        assert load_control_coloring(tmp_path).v == 2

    def test_non_square(self, tmp_path):
        write_pair(tmp_path, ["0,1,0", "1,0,1"], ["0,0", "0,0"])
        with pytest.raises(ControlSizeError):
            load_control_coloring(tmp_path)

    def test_shape_mismatch(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1", "1,0"],
                   ["0,0,1", "0,0,0", "1,0,0"])
        with pytest.raises(ControlSizeError):
            load_control_coloring(tmp_path)

    def test_asymmetry(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1,0", "0,0,1", "0,1,0"],
                   ["0,0,1", "1,0,0", "1,0,0"])
        with pytest.raises(ControlSymmetryError):
            load_control_coloring(tmp_path)

    def test_non_complementary(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1,1", "1,0,1", "1,1,0"],
                   ["0,1,0", "1,0,0", "0,0,0"])
        with pytest.raises(ControlComplementError):
            load_control_coloring(tmp_path)

    def test_nonzero_diagonal(self, tmp_path):
        write_pair(tmp_path,
                   ["1,1", "1,0"],
                   ["0,0", "0,0"])
        with pytest.raises(ControlFormatError):
            load_control_coloring(tmp_path)

    def test_bad_token(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1", "x,0"],
                   ["0,0", "0,0"])
        with pytest.raises(ControlFormatError):
            load_control_coloring(tmp_path)

    def test_out_of_alphabet_entry(self, tmp_path):
        write_pair(tmp_path,
                   ["0,2", "2,0"],
                   ["0,0", "0,0"])
        with pytest.raises(ControlFormatError):
            load_control_coloring(tmp_path)

    def test_ragged_rows(self, tmp_path):
        write_pair(tmp_path,
                   ["0,1", "1,0,1"],
                   ["0,0", "0,0"])
        with pytest.raises(ControlFormatError):
            load_control_coloring(tmp_path)

    def test_empty_file(self, tmp_path):
        write_pair(tmp_path, [""], ["0,0", "0,0"])
        with pytest.raises(ControlFormatError):
            load_control_coloring(tmp_path)
