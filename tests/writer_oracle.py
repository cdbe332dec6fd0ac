"""The per-cell CSV writer that cmd_distort used before feature matrices were
written in row blocks, kept unchanged as the oracle for cli._write_matrix:
blocks of rows in which each column reprs each distinct bit pattern once."""

import csv
from pathlib import Path

from privids.cli import _replacing
from privids.dataset import FeatureMatrix


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _matrix_rows(matrix: FeatureMatrix):
    for row in matrix.values:
        yield [float(v) for v in row]


def write_matrix(path: Path, matrix: FeatureMatrix) -> Path:
    """What cmd_distort wrote for one distorted matrix."""
    return _write_csv(path, list(matrix.column_names), _matrix_rows(matrix))
