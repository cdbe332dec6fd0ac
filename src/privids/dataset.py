"""CSV ingestion for flow-record datasets.

Parses an RFC-4180-style CSV with a header row, integer-encodes nominal
columns in first-appearance order, extracts the binary label, and produces a
dense float matrix. All returned objects are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DataValidationError


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x m float matrix with named columns. Entries are always finite."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DataValidationError(f"feature matrix must be 2-D, got shape {vals.shape}")
        if vals.shape[1] != len(self.column_names):
            raise DataValidationError(
                f"{vals.shape[1]} columns but {len(self.column_names)} column names"
            )
        if len(set(self.column_names)) != len(self.column_names):
            raise DataValidationError("column names are not unique")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise DataValidationError(
                f"non-finite entry at row {bad[0]}, column '{self.column_names[bad[1]]}'"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def select(self, names: list[str] | tuple[str, ...]) -> "FeatureMatrix":
        """Restrict to the given columns, preserving this matrix's column order."""
        missing = [c for c in names if c not in self.column_names]
        if missing:
            raise DataValidationError(f"unknown columns: {missing}")
        wanted = set(names)
        keep = [i for i, c in enumerate(self.column_names) if c in wanted]
        return FeatureMatrix(self.values[:, keep], tuple(self.column_names[i] for i in keep))


@dataclass(frozen=True)
class LabelVector:
    """Binary target: 0 for normal records, 1 for attack records."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim != 1:
            raise DataValidationError(f"labels must be 1-D, got shape {vals.shape}")
        if vals.size and not np.all((vals == 0) | (vals == 1)):
            bad = int(np.argwhere((vals != 0) & (vals != 1))[0][0])
            raise DataValidationError(f"label at row {bad} is {vals[bad]!r}, expected 0 or 1")
        object.__setattr__(self, "values", _frozen_array(vals, np.int64))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EncodingMap:
    """Per-column mapping of nominal string values to first-appearance integers."""

    by_column: dict[str, dict[str, int]] = field(default_factory=dict)

    def decode(self, column: str, codes) -> list[str]:
        """Inverse lookup; round-trips any column encoded by prepare()."""
        inverse = {v: k for k, v in self.by_column[column].items()}
        return [inverse[int(c)] for c in codes]


def load_csv(path, schema="infer") -> RawRecordTable:
    """Read a CSV file with a header row into a RawRecordTable.

    schema may be "infer" or an explicit list of expected column names.
    Raises DataFormatError for an empty file, duplicate header names, a
    schema mismatch, or any row whose field count differs from the header
    (the offending 1-based data row number is reported), and for a path
    that exists but cannot be read as UTF-8 text.
    """
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


def _parse_feature_column(name: str, raw: list[str]):
    """Return (float array, None) for a numeric column or (codes, encoding)
    for a nominal one. A column mixing numeric and non-numeric cells is a hard
    error: silently dropping rows would corrupt every downstream row count.

    numpy parses each cell as float() does, so a numeric column takes one
    vectorised pass; a column with an unparseable cell is scanned per cell."""
    try:
        values = np.asarray(raw, dtype=float)
    except ValueError:
        pass
    else:
        nonfinite = np.flatnonzero(~np.isfinite(values))
        if nonfinite.size:
            i = int(nonfinite[0])
            raise DataValidationError(
                f"column '{name}', row {i + 1}: non-finite value {raw[i]!r}"
            )
        return values, None
    parses = []
    for s in raw:
        try:
            float(s)
        except ValueError:
            parses.append(False)
        else:
            parses.append(True)
    if any(parses):
        i = parses.index(False)
        raise DataValidationError(
            f"column '{name}', row {i + 1}: cannot parse {raw[i]!r} as a number"
        )
    encoding: dict[str, int] = {}
    codes = np.array([encoding.setdefault(s, len(encoding)) for s in raw], dtype=float)
    return codes, encoding


def prepare(
    table: RawRecordTable,
    drop_columns: list[str],
    label_column: str,
    category_column: str | None = None,
    min_max_scale: bool = False,
) -> tuple[FeatureMatrix, LabelVector, EncodingMap]:
    """Turn a raw table into (FeatureMatrix, LabelVector, EncodingMap).

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
        values, encoding = _parse_feature_column(name, [row[k] for row in table.rows])
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
        EncodingMap(encodings),
    )


def _per_class_test_counts(y: np.ndarray, test_fraction: float) -> dict[int, int]:
    counts = {}
    for cls in (0, 1):
        n_c = int(np.sum(y == cls))
        want = int(np.floor(n_c * test_fraction + 0.5))
        counts[cls] = min(max(want, 1), n_c - 1)
    return counts


def stratified_split(
    X: FeatureMatrix,
    y: LabelVector,
    test_fraction: float,
    seed: int,
) -> tuple[FeatureMatrix, LabelVector, FeatureMatrix, LabelVector]:
    """Deterministic class-stratified train/test partition.

    The partition depends only on (y, test_fraction, seed), so configurations
    that share labels share the exact same row split. Class proportions in
    each part are within one row of exact stratification.
    """
    if not (0.0 < test_fraction < 1.0):
        raise DataValidationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if X.n != y.n:
        raise DataValidationError(f"matrix has {X.n} rows but labels have {y.n}")
    labels = y.values
    for cls in (0, 1):
        if int(np.sum(labels == cls)) < 2:
            raise DataValidationError(f"class {cls} has fewer than 2 members")

    rng = np.random.default_rng(seed)
    test_counts = _per_class_test_counts(labels, test_fraction)
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        shuffled = members[rng.permutation(members.size)]
        test_idx.append(shuffled[: test_counts[cls]])
    test_idx = np.sort(np.concatenate(test_idx))
    mask = np.zeros(labels.size, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)

    return (
        FeatureMatrix(X.values[train_idx], X.column_names),
        LabelVector(labels[train_idx]),
        FeatureMatrix(X.values[test_idx], X.column_names),
        LabelVector(labels[test_idx]),
    )


def stratified_sample(
    X: FeatureMatrix,
    y: LabelVector,
    n_rows: int,
    seed: int,
) -> tuple[FeatureMatrix, LabelVector]:
    """Seeded stratified row sample for desk-scale runs; preserves label ratio."""
    if n_rows > X.n:
        raise DataValidationError(f"sample of {n_rows} rows requested but only {X.n} available")
    if n_rows == X.n:
        return X, y
    fraction = n_rows / X.n
    rng = np.random.default_rng(seed)
    labels = y.values
    picked = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        want = int(np.floor(members.size * fraction + 0.5))
        want = min(max(want, 1), members.size)
        shuffled = members[rng.permutation(members.size)]
        picked.append(shuffled[:want])
    idx = np.sort(np.concatenate(picked))
    return FeatureMatrix(X.values[idx], X.column_names), LabelVector(labels[idx])
