"""Result tables and control-colouring input validation.

CSV output is byte-reproducible: fixed column order, LF line endings,
'%.6e' floats with '.' decimal separator, booleans as true/false and
unjudged verdicts as 'indeterminate'.  No timestamps or environment
details ever enter an artifact.
"""

from __future__ import annotations

import numbers
from pathlib import Path

import numpy as np

from .combinatorics import EdgeColoring

__all__ = [
    "RESULT_COLUMNS",
    "ControlColoringError",
    "ControlFormatError",
    "ControlSizeError",
    "ControlSymmetryError",
    "ControlComplementError",
    "format_value",
    "write_results",
    "load_control_coloring",
]

RESULT_COLUMNS = ("n", "d", "k", "alpha", "log10_tr_exp", "tr_lin", "min_re",
                  "max_im", "slope", "lambda_L", "rho_H", "critical")


class ControlColoringError(ValueError):
    """A control colouring file failed validation."""


class ControlFormatError(ControlColoringError):
    """Tokens are not 0/1, rows are ragged, or the diagonal is non-zero."""


class ControlSizeError(ControlColoringError):
    """A matrix is not square or the two matrices disagree in size."""


class ControlSymmetryError(ControlColoringError):
    """A matrix is not symmetric."""


class ControlComplementError(ControlColoringError):
    """Red and blue entries do not complement each other off the diagonal."""


def format_value(value) -> str:
    """Canonical cell formatting shared by every emitted table."""
    if value is None:
        return "indeterminate"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.6e}"
    return str(value)


def write_results(rows, path, columns=RESULT_COLUMNS) -> Path:
    """Write one CSV of ``rows`` (records or mappings) to ``path``.

    Values are looked up per column by mapping key or attribute.  Input is
    never mutated; identical rows always produce identical bytes.
    """
    destination = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for column in columns:
            if isinstance(row, dict):
                value = row[column]
            else:
                value = getattr(row, column)
            cells.append(format_value(value))
        lines.append(",".join(cells))
    destination.parent.mkdir(parents=True, exist_ok=True)
    with open(destination, "w", encoding="ascii", newline="") as sink:
        sink.write("\n".join(lines) + "\n")
    return destination


def _read_binary_matrix(path: Path) -> np.ndarray:
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as source:
        for line_number, line in enumerate(source, start=1):
            tokens = line.replace(",", " ").split()
            if not tokens:
                continue
            try:
                values = [int(tok) for tok in tokens]
            except ValueError:
                if line_number == 1:
                    # Optional header row.
                    continue
                raise ControlFormatError(
                    f"{path}: non-integer token on line {line_number}")
            if any(v not in (0, 1) for v in values):
                raise ControlFormatError(
                    f"{path}: entries must be 0 or 1 (line {line_number})")
            rows.append(values)
    if not rows:
        raise ControlFormatError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ControlFormatError(f"{path}: ragged rows")
    matrix = np.array(rows, dtype=np.int64)
    if matrix.shape[0] != matrix.shape[1]:
        raise ControlSizeError(
            f"{path}: matrix is {matrix.shape[0]}x{matrix.shape[1]}, not square")
    return matrix


def load_control_coloring(directory) -> EdgeColoring:
    """Load and validate the am46_red.csv / am46_blue.csv adjacency pair.

    Both files hold square 0/1 matrices (comma or whitespace separated,
    optional header row) with zero diagonal; each must be symmetric and
    together they must complement each other off the diagonal.  Distinct
    error types identify which validation failed.
    """
    base = Path(directory)
    red = _read_binary_matrix(base / "am46_red.csv")
    blue = _read_binary_matrix(base / "am46_blue.csv")
    if red.shape != blue.shape:
        raise ControlSizeError(
            f"size mismatch: red is {red.shape[0]}x{red.shape[0]}, "
            f"blue is {blue.shape[0]}x{blue.shape[0]}")
    v = red.shape[0]
    for name, matrix in (("red", red), ("blue", blue)):
        if np.any(np.diag(matrix) != 0):
            raise ControlFormatError(f"{name} matrix has a non-zero diagonal")
        if not np.array_equal(matrix, matrix.T):
            raise ControlSymmetryError(f"{name} matrix is not symmetric")
    off_diagonal = ~np.eye(v, dtype=bool)
    if not np.array_equal((red + blue)[off_diagonal],
                          np.ones((v, v), dtype=np.int64)[off_diagonal]):
        raise ControlComplementError(
            "red and blue matrices are not complementary off the diagonal")
    # triu_indices walks the upper triangle row by row, the edge_index order.
    bits = red[np.triu_indices(v, 1)].astype(bool)
    return EdgeColoring(v=v, bits=tuple(bits.tolist()))
