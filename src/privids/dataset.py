"""CSV ingestion for flow-record datasets.

load_csv checks a CSV file's header and hands out its data rows in chunks of
at most _CHUNK_ROWS (1,024); prepare parses each chunk straight into
per-column arrays and appends them to the matrix, which grows in place, so
no more than one chunk of the file is ever held as text and the matrix is
held once. A chunk whose lines hold no quote is read by numpy's C parser
(np.loadtxt); csv reads, cell by cell, a chunk that parser refuses or that
has a quote, blank line, NUL, over-long line or wrong field count, and every
later chunk once a quote is seen. Both give the same values, and only the
cell-by-cell parse raises, so every message is the same. Nominal columns are
integer-encoded in first-appearance order, the binary label is parsed
strictly, and the result is a dense float matrix. All returned objects are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import DataFormatError, DataValidationError

# Data rows that load_csv's chunks hold at a time. A chunk of 43 columns is
# then about 250 KB of text and 350 KB of floats. Chunks of 4,096 rows or
# more left their freed buffers resident: glibc's malloc raises its mmap
# threshold to the size of a freed mapping and serves later buffers of that
# size from its heap, which it keeps. Measured from 256 to 8,192 rows, 1,024
# gave a low peak RSS with the least spread across inputs, and ingestion no
# slower than at 8,192.
_CHUNK_ROWS = 1024

# The largest magnitude a feature may hold where the classifiers and the
# privacy measures take it: below it, the sums of squares of kNN, naive
# Bayes, the SVM and VD's Frobenius norm stay finite.
LARGEST_MAGNITUDE = 1e100


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x m float matrix with columns named by strings; entries are always finite."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DataValidationError(f"feature matrix must be 2-D, got shape {vals.shape}")
        if isinstance(self.column_names, str) or not all(isinstance(c, str) for c in self.column_names):
            raise DataValidationError(f"column names must be strings, got {self.column_names!r}")
        if vals.shape[1] != len(self.column_names):
            raise DataValidationError(f"{vals.shape[1]} columns but {len(self.column_names)} column names")
        if len(set(self.column_names)) != len(self.column_names):
            raise DataValidationError("column names are not unique")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise DataValidationError(
                f"non-finite entry at row {bad[0]}, column '{self.column_names[bad[1]]}'"
            )
        if vals.flags.writeable or not vals.flags.owndata:
            # a copy, so that no other reference can change the matrix; a
            # read-only array that owns its data needs none
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
        values = _frozen(np.take(self.values, keep, axis=1))
        return FeatureMatrix(values, tuple(self.column_names[i] for i in keep))


def check_magnitude(M) -> None:
    """Raise DataValidationError naming the column of M (a FeatureMatrix or a
    2-D array) that holds a magnitude above LARGEST_MAGNITUDE."""
    values = np.asarray(getattr(M, "values", M), dtype=float)
    if values.size and max(values.max(), -values.min()) > LARGEST_MAGNITUDE:
        largest = np.abs(values).max(axis=0)
        names = getattr(M, "column_names", range(largest.size))
        raise DataValidationError(
            f"column '{names[np.argmax(largest)]}' holds magnitudes up to "
            f"{largest.max():.3e}, above the {LARGEST_MAGNITUDE:.0e} whose squares the "
            "pipeline can sum; rescale it or set dataset.min_max_scale"
        )


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
        vals = np.array(vals, dtype=np.int64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def load_csv(path) -> tuple[tuple[str, ...], Iterator[list]]:
    """Open a CSV file with a header row and return (header, chunks): chunks
    yields the data rows in lists of at most _CHUNK_ROWS, each either a
    _Lines of raw text lines, one row per line, or a list of csv rows.

    Raises DataFormatError for a missing or empty file or duplicate header
    names now, and as chunks are read for a row with the wrong field count or
    that csv cannot parse (a field over csv.field_size_limit(), say), naming
    its 1-based data row, or for a file that is not UTF-8 text."""
    reader = _read(path)
    return next(reader), reader


class _Lines(list):
    """A chunk of data lines, line ends kept, with no quote, NUL or blank
    line, none longer than csv.field_size_limit() and each with the header's
    field count: csv would split each line at its commas into one row."""


def _read(path):
    """load_csv's reader: yields the checked header, then the chunks."""
    header = None
    i = 0  # data rows read so far

    def checked(rows):
        """csv rows in chunks, each row's field count checked."""
        nonlocal i
        chunk = []
        for i, row in enumerate(rows, start=i + 1):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: ragged row {i}: {len(row)} fields, expected {len(header)}"
                )
            chunk.append(row)
            if len(chunk) == _CHUNK_ROWS:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names = next(reader, None)
            if names is None:
                raise DataFormatError(f"{path}: file is empty")
            header = tuple(h.strip() for h in names)
            if len(set(header)) != len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise DataFormatError(f"{path}: duplicate header names {dupes}")
            yield header
            commas, limit = {len(header) - 1}, csv.field_size_limit()
            for lines in iter(lambda: list(islice(fh, _CHUNK_ROWS)), []):
                text = "".join(lines)
                if '"' in text:
                    # a quoted field can span lines, so csv reads the rest
                    yield from checked(csv.reader(chain(lines, fh)))
                    return
                if (
                    "\0" not in text
                    and max(map(len, lines)) <= limit
                    and {"\n", "\r", "\r\n"}.isdisjoint(lines)
                    and set(map(str.count, lines, repeat(","))) == commas
                ):
                    i += len(lines)
                    yield _Lines(lines)
                else:
                    yield from checked(csv.reader(lines))
    except FileNotFoundError:
        raise DataFormatError(f"file not found: {path}") from None
    except csv.Error as exc:
        where = "header" if header is None else f"row {i + 1}"
        raise DataFormatError(f"{path}: {where}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read as a UTF-8 CSV: {exc}") from None


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


class _Column:
    """One feature column, parsed chunk by chunk: numeric when every cell
    parses as a float, nominal (first-appearance codes) when none does. A
    column mixing numeric and non-numeric cells is a hard error, and so is a
    non-finite number: silently dropping rows would corrupt every downstream
    row count. The first bad cells are kept with their rows and reported by
    check() after the last chunk, so a mix that spans chunks names the same
    cell as a parse of the whole column would."""

    def __init__(self, name: str):
        self.name = name
        self.encoding: dict[str, int] = {}
        self.any_number = False
        self.not_a_number = None  # the error naming the first cell that is not a number
        self.nonfinite = None  # the error naming the first non-finite number

    def add(self, cells, first_row: int) -> np.ndarray:
        """The chunk's numbers, or its codes if a cell is not a number;
        first_row is the 1-based data row of cells[0]."""
        try:
            # numpy parses each cell as float() does
            values = np.asarray(cells, dtype=float)
        except ValueError:
            return self.encode(cells, first_row)
        self.any_number = True
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size and self.nonfinite is None:
            row, s = first_row + int(bad[0]), cells[bad[0]]
            self.nonfinite = f"row {row}: non-finite value {s!r}"
        return values

    def encode(self, cells: list | tuple, first_row: int) -> np.ndarray:
        """The codes of a chunk that is not all numbers. float() is tried once
        per distinct cell, in first-appearance order, so the first one that
        fails is the first such cell of the chunk."""
        codes = self.encoding
        for s in dict.fromkeys(cells):
            if _is_number(s):
                self.any_number = True
            elif self.not_a_number is None:
                row = first_row + cells.index(s)
                self.not_a_number = f"row {row}: cannot parse {s!r} as a number"
            codes.setdefault(s, len(codes))
        return np.fromiter(map(codes.__getitem__, cells), float, len(cells))

    def check(self):
        """Raise DataValidationError for a column that mixes numbers and
        text, or for a numeric column with a non-finite number."""
        error = self.not_a_number or self.nonfinite
        if self.any_number and error:
            raise DataValidationError(f"column '{self.name}', {error}")


_LABELS = {"0": 0, "1": 1}


def _parse_labels(cells: list | tuple, first_row: int):
    """(labels, None) of a chunk's label cells, or (None, the error naming
    its first label that is not 0 or 1 once whitespace is stripped)."""
    labels = {s: _LABELS.get(s.strip()) for s in dict.fromkeys(cells)}
    for s, label in labels.items():
        if label is None:
            row = first_row + cells.index(s)
            return None, f"label at row {row} is {s.strip()!r}, expected 0 or 1"
    return np.fromiter(map(labels.__getitem__, cells), np.int64, len(cells)), None


def _parse_lines(lines: _Lines, label_k: int, features, first_row: int):
    """(labels, block) of a _Lines chunk read by numpy's C parser, or None
    where only the cell-by-cell parse gives the exact result or message: a
    cell that numpy cannot parse, a non-finite number, or a bad label. A
    column is read as numbers when its cell in the chunk's first line is
    one, and as text otherwise."""
    first = next(csv.reader(lines[:1]))
    text = [j for j, (k, _) in enumerate(features) if not _is_number(first[k])]
    numeric = [j for j in range(len(features)) if j not in text]

    def read(ks, dtype):
        if not ks:
            return np.empty((len(lines), 0), dtype)
        return np.loadtxt(
            lines, dtype, delimiter=",", comments=None, quotechar=None, ndmin=2, usecols=ks
        )

    try:
        cells = read([label_k] + [features[j][0] for j in text], object)
        numbers = read([features[j][0] for j in numeric], float)
    except ValueError:
        return None
    if not np.isfinite(numbers).all():
        return None
    labels, bad_label = _parse_labels(cells[:, 0].tolist(), first_row)
    if bad_label:
        return None
    block = np.empty((len(lines), len(features)))
    block[:, numeric] = numbers
    for j in numeric:
        features[j][1].any_number = True
    for i, j in enumerate(text, start=1):
        block[:, j] = features[j][1].encode(cells[:, i].tolist(), first_row)
    return labels, block


def prepare(
    ingest: tuple[tuple[str, ...], Iterator[list]],
    drop_columns: list[str],
    label_column: str,
    category_column: str | None = None,
    min_max_scale: bool = False,
) -> tuple[FeatureMatrix, LabelVector]:
    """Parse load_csv's (header, chunks) into (FeatureMatrix, LabelVector).

    Drops identifier-like columns and the attack-category column, parses the
    binary label (0 or 1 once whitespace is stripped), and encodes nominal
    columns as first-appearance integers starting at 0. The named columns are
    checked against the header before any row is read. A bad label is
    reported after the last chunk, before the first bad feature column in
    header order. Optional min-max scaling maps each column to [0, 1]; it is
    off by default and off for every acceptance run.
    """
    header, chunks = ingest
    if label_column not in header:
        raise DataValidationError(f"label column '{label_column}' not in header")
    unknown = [c for c in drop_columns if c not in header]
    if unknown:
        raise DataValidationError(f"drop_columns not in header: {unknown}")
    if category_column is not None and category_column not in header:
        raise DataValidationError(f"category column '{category_column}' not in header")

    removed = set(drop_columns) | {label_column, category_column}
    label_k = header.index(label_column)
    features = [(k, _Column(name)) for k, name in enumerate(header) if name not in removed]
    # grown one chunk at a time in place: realloc remaps a large array's
    # pages instead of copying them, so the matrix is held once
    values, labels = np.empty((0, len(features))), np.empty(0, np.int64)
    bad_label, n = None, 0
    for chunk in chunks:
        as_lines = isinstance(chunk, _Lines)
        parsed = _parse_lines(chunk, label_k, features, n + 1) if as_lines else None
        if parsed is None:
            cells = list(zip(*(csv.reader(chunk) if as_lines else chunk)))
            chunk_labels, bad = _parse_labels(cells[label_k], n + 1)
            bad_label = bad_label or bad
            block = np.empty((len(chunk), len(features)))
            for j, (k, column) in enumerate(features):
                block[:, j] = column.add(cells[k], n + 1)
            parsed = chunk_labels, block
            del cells, chunk_labels, block  # a later chunk read by numpy does not rebind them
        end = n + len(chunk)
        values.resize((end, len(features)), refcheck=False)
        labels.resize(end, refcheck=False)
        values[n:] = parsed[1]
        labels[n:] = 0 if bad_label else parsed[0]  # no label is returned after a bad one
        n = end
        del chunk, parsed  # free this chunk before the next one is read
    if bad_label:
        raise DataValidationError(bad_label)
    for _, column in features:
        column.check()

    if min_max_scale and values.size:
        values = _min_max_scale(values)
    values.setflags(write=False)
    return FeatureMatrix(values, tuple(column.name for _, column in features)), LabelVector(labels)


def _min_max_scale(values: np.ndarray) -> np.ndarray:
    """Map each column of a non-empty matrix onto [0, 1]; a constant column
    maps to zeros. A column whose span passes the largest float is scaled
    with halved operands, which is exact for normal floats; every other
    column is multiplied by 1.0 and so keeps the plain (x - lo) / span."""
    lo, hi = values.min(axis=0), values.max(axis=0)
    with np.errstate(over="ignore"):
        half = np.where(np.isinf(hi - lo), 0.5, 1.0)
    lo, hi = lo * half, hi * half
    span = hi - lo
    span[span == 0] = 1.0
    return (values * half - lo) / span


def _frozen(values: np.ndarray) -> np.ndarray:
    """A fresh array nothing else refers to, made read-only so that
    FeatureMatrix keeps it without a copy."""
    values.setflags(write=False)
    return values


def check_argument(value, name: str, phrase: str, test, kind=numbers.Real) -> None:
    """A DataValidationError, "<name> must be <phrase>, got <value>", unless
    value is a kind, never a bool, that passes test: the check of each number
    a library function takes as an argument."""
    if isinstance(value, bool) or not isinstance(value, kind) or not test(value):
        raise DataValidationError(f"{name} must be {phrase}, got {value!r}")


def _check_seed(seed) -> None:
    """check_argument of a seed, which must be an integer >= 0: numpy would
    seed None from the operating system, so the rows could not be picked
    again, take true as 1, and reject the rest with its own errors."""
    check_argument(seed, "seed", "an integer >= 0", lambda v: v >= 0, numbers.Integral)


def _stratified_rows(labels: np.ndarray, fraction: float, seed: int, leave: int) -> np.ndarray:
    """Sorted indices of fraction of each class's rows, rounded half up, at
    least 1 and at most all but leave of them: the front of a seeded shuffle
    of class 0's rows, then of class 1's."""
    rng = np.random.default_rng(seed)
    picked = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        want = min(max(int(np.floor(members.size * fraction + 0.5)), 1), members.size - leave)
        picked.append(members[rng.permutation(members.size)][:want])
    return np.sort(np.concatenate(picked))


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
    check_argument(test_fraction, "test_fraction", "a number in (0, 1)", lambda v: 0 < v < 1)
    _check_seed(seed)
    if X.n != y.n:
        raise DataValidationError(f"matrix has {X.n} rows but labels have {y.n}")
    labels = y.values
    for cls in (0, 1):
        if int(np.sum(labels == cls)) < 2:
            raise DataValidationError(f"class {cls} has fewer than 2 members")

    test_idx = _stratified_rows(labels, test_fraction, seed, leave=1)
    mask = np.zeros(labels.size, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)

    return (
        FeatureMatrix(_frozen(X.values[train_idx]), X.column_names),
        LabelVector(labels[train_idx]),
        FeatureMatrix(_frozen(X.values[test_idx]), X.column_names),
        LabelVector(labels[test_idx]),
    )


def stratified_sample(
    X: FeatureMatrix,
    y: LabelVector,
    n_rows: int,
    seed: int,
) -> tuple[FeatureMatrix, LabelVector]:
    """Seeded stratified row sample for desk-scale runs; preserves label ratio."""
    _check_seed(seed)
    if isinstance(n_rows, bool) or not isinstance(n_rows, int) or n_rows < 1:
        raise DataValidationError(f"sample of {n_rows} rows requested, need at least 1")
    if n_rows > X.n:
        raise DataValidationError(f"sample of {n_rows} rows requested but only {X.n} available")
    if n_rows == X.n:
        return X, y
    idx = _stratified_rows(y.values, n_rows / X.n, seed, leave=0)
    return FeatureMatrix(_frozen(X.values[idx]), X.column_names), LabelVector(y.values[idx])
