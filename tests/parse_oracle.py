"""Whole-file CSV ingestion as it was before load_csv and prepare streamed
the file in chunks of rows, kept as the oracle for the chunked path. load_csv
reads every row into a table of strings, and prepare regathers each column
from it and parses the column with parse_feature_column, cell by cell: the
parser prepare used before numeric columns were parsed in one numpy pass.
Only EncodingMap is gone: prepare returns the encodings as a plain dict, and
a csv.Error (a field over csv.field_size_limit(), say) is reported as the
one-line DataFormatError that names the header or the 1-based data row."""

import csv
from dataclasses import dataclass

import numpy as np

from privids.dataset import FeatureMatrix, LabelVector
from privids.errors import DataFormatError, DataValidationError


@dataclass(frozen=True)
class RawRecordTable:
    """Raw CSV contents: header names plus string rows, before any cleaning."""

    header: tuple[str, ...]
    rows: list[list[str]]
    source_path: str

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.header)


def load_csv(path, schema="infer") -> RawRecordTable:
    """Read a CSV file with a header row into a RawRecordTable.

    schema may be "infer" or an explicit list of expected column names.
    Raises DataFormatError for an empty file, duplicate header names, a
    schema mismatch, or any row whose field count differs from the header
    (the offending 1-based data row number is reported), and for a path
    that exists but cannot be read as UTF-8 text.
    """
    rows = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise DataFormatError(f"{path}: duplicate header names {dupes}")
            if schema != "infer" and list(schema) != header:
                raise DataFormatError(
                    f"{path}: header {header} does not match expected schema {list(schema)}"
                )
            rows = []
            for i, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise DataFormatError(
                        f"{path}: ragged row {i}: {len(row)} fields, expected {len(header)}"
                    )
                rows.append(row)
    except FileNotFoundError:
        raise
    except csv.Error as exc:
        where = "header" if rows is None else f"row {len(rows) + 1}"
        raise DataFormatError(f"{path}: {where}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read as a UTF-8 CSV: {exc}") from None
    return RawRecordTable(header=tuple(header), rows=rows, source_path=str(path))


def _parse_label_column(raw: list[str]) -> np.ndarray:
    out = np.empty(len(raw), dtype=np.int64)
    for i, s in enumerate(raw):
        s = s.strip()
        if s == "0":
            out[i] = 0
        elif s == "1":
            out[i] = 1
        else:
            raise DataValidationError(f"label at row {i + 1} is {s!r}, expected 0 or 1")
    return out




def parse_feature_column(name: str, raw: list[str]):
    """Return (float array, None) for a numeric column or (codes, encoding)
    for a nominal one. A column mixing numeric and non-numeric cells is a hard
    error: silently dropping rows would corrupt every downstream row count."""
    values = np.empty(len(raw), dtype=float)
    n_parseable = 0
    first_unparseable = None
    first_nonfinite = None
    for i, s in enumerate(raw):
        try:
            v = float(s)
        except ValueError:
            v = np.nan
            if first_unparseable is None:
                first_unparseable = (i, s)
        else:
            n_parseable += 1
            if not np.isfinite(v) and first_nonfinite is None:
                first_nonfinite = (i, s)
        values[i] = v
    if n_parseable == len(raw):
        if first_nonfinite is not None:
            i, s = first_nonfinite
            raise DataValidationError(
                f"column '{name}', row {i + 1}: non-finite value {s!r}"
            )
        return values, None
    if n_parseable == 0 and raw:
        encoding: dict[str, int] = {}
        codes = np.empty(len(raw), dtype=float)
        for i, s in enumerate(raw):
            if s not in encoding:
                encoding[s] = len(encoding)
            codes[i] = encoding[s]
        return codes, encoding
    i, s = first_unparseable
    raise DataValidationError(
        f"column '{name}', row {i + 1}: cannot parse {s!r} as a number"
    )


def prepare(
    table: RawRecordTable,
    drop_columns: list[str],
    label_column: str,
    category_column: str | None = None,
    min_max_scale: bool = False,
) -> tuple[FeatureMatrix, LabelVector, dict[str, dict[str, int]]]:
    """Turn a raw table into (FeatureMatrix, LabelVector, encodings).

    Drops identifier-like columns and the attack-category column, extracts the
    binary label, and encodes nominal columns as first-appearance integers
    starting at 0. Optional min-max scaling maps each column to [0, 1]; it is
    off by default and off for every acceptance run.
    """
    header = list(table.header)
    if label_column not in header:
        raise DataValidationError(f"label column '{label_column}' not in header")
    unknown = [c for c in drop_columns if c not in header]
    if unknown:
        raise DataValidationError(f"drop_columns not in header: {unknown}")
    if category_column is not None and category_column not in header:
        raise DataValidationError(f"category column '{category_column}' not in header")

    removed = set(drop_columns) | {label_column}
    if category_column is not None:
        removed.add(category_column)

    col_index = {name: k for k, name in enumerate(header)}
    labels = _parse_label_column([row[col_index[label_column]] for row in table.rows])

    feature_names = [c for c in header if c not in removed]
    columns = []
    encodings: dict[str, dict[str, int]] = {}
    for name in feature_names:
        k = col_index[name]
        values, encoding = parse_feature_column(name, [row[k] for row in table.rows])
        if encoding is not None:
            encodings[name] = encoding
        columns.append(values)

    values = np.column_stack(columns) if columns else np.empty((table.n, 0))
    if min_max_scale and values.size:
        lo = values.min(axis=0)
        span = values.max(axis=0) - lo
        span[span == 0] = 1.0
        values = (values - lo) / span

    return (
        FeatureMatrix(values, tuple(feature_names)),
        LabelVector(labels),
        encodings,
    )
