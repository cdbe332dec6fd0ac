import csv
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import parse_oracle
import synth_data
from privids import dataset
from privids.dataset import (
    FeatureMatrix,
    LabelVector,
    load_csv,
    prepare,
    stratified_sample,
    stratified_split,
)
from privids.errors import DataFormatError, DataValidationError

# Chunk sizes of the oracle tests: a boundary after every row, after every
# other row, and after every seventh, which leaves most files a short last chunk.
CHUNK_ROWS = (1, 2, 7)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


WELL_FORMED = "a,b,c,label\n1,x,2.5,0\n2,y,3.5,1\n3,x,4.5,0\n"


def test_load_csv_well_formed(tmp_path, monkeypatch):
    path = _write(tmp_path, WELL_FORMED)
    header, chunks = load_csv(path)
    assert header == ("a", "b", "c", "label")
    # a quote-free chunk is handed out as its lines, which csv splits into cells
    chunks = list(chunks)
    assert [type(chunk) for chunk in chunks] == [dataset._Lines]
    assert [list(csv.reader(chunk)) for chunk in chunks] == [
        [["1", "x", "2.5", "0"], ["2", "y", "3.5", "1"], ["3", "x", "4.5", "0"]]
    ]
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2)
    assert [len(chunk) for chunk in load_csv(path)[1]] == [2, 1]


def test_load_csv_ragged_row_names_offending_row(tmp_path):
    path = _write(tmp_path, "a,b,c,d\n1,2,3,4\n1,2,3\n")
    _, chunks = load_csv(path)
    with pytest.raises(DataFormatError, match="row 2"):
        list(chunks)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(_write(tmp_path, ""))


def test_load_csv_duplicate_header(tmp_path):
    with pytest.raises(DataFormatError, match="duplicate"):
        load_csv(_write(tmp_path, "a,a,b\n1,2,3\n"))


@pytest.mark.parametrize(
    "text",
    ["id,a,cat,label\n1,5,dos,0\n2,6,worm,1\n", 'id,a,cat,label\n1,5,"dos, old",0\n2,6,worm,1\n'],
    ids=["numpy_reader", "csv_reader"],
)
def test_a_byte_order_mark_is_not_part_of_the_first_name(tmp_path, text):
    # Excel's "CSV UTF-8" export starts the file with U+FEFF
    plain = prepare(load_csv(_write(tmp_path, text)), ["id"], "label", category_column="cat")
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_csv(path)[0] == ("id", "a", "cat", "label")
    marked = prepare(load_csv(path), ["id"], "label", category_column="cat")
    assert marked[0].column_names == plain[0].column_names == ("a",)
    assert marked[0].values.tobytes() == plain[0].values.tobytes()
    assert marked[1].values.tobytes() == plain[1].values.tobytes()


def test_prepare_first_appearance_encoding(tmp_path):
    X, y = prepare(load_csv(_write(tmp_path, "proto,label\ntcp,0\nudp,1\ntcp,0\n")), [], "label")
    assert list(X.values[:, 0]) == [0.0, 1.0, 0.0]
    assert list(y.values) == [0, 1, 0]


def test_prepare_bad_label_names_row(tmp_path):
    ingest = load_csv(_write(tmp_path, "a,label\n1,0\n2,2\n"))
    with pytest.raises(DataValidationError, match="row 2"):
        prepare(ingest, [], "label")


@pytest.mark.parametrize("bad", ["1.0", "+1", "01", ""])
def test_label_rule_across_chunks(tmp_path, monkeypatch, bad):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2)
    good = "a,label\n1,0\n2, 1 \n3,0\t\n4,1\n"
    _, y = prepare(load_csv(_write(tmp_path, good)), [], "label")
    assert list(y.values) == [0, 1, 0, 1]
    with pytest.raises(DataValidationError) as info:
        prepare(load_csv(_write(tmp_path, f"{good}5,{bad}\n6,1\n")), [], "label")
    assert str(info.value) == f"label at row 5 is {bad!r}, expected 0 or 1"


def test_prepare_mixed_column_is_hard_error(tmp_path):
    ingest = load_csv(_write(tmp_path, "a,label\n1.5,0\noops,1\n"))
    with pytest.raises(DataValidationError, match="column 'a', row 2"):
        prepare(ingest, [], "label")


def test_prepare_rejects_nonfinite_numeric(tmp_path):
    ingest = load_csv(_write(tmp_path, "a,label\n1.5,0\nNaN,1\n"))
    with pytest.raises(DataValidationError, match="non-finite"):
        prepare(ingest, [], "label")


def test_missing_column_is_reported_before_a_later_ragged_row(tmp_path):
    # prepare checks the named columns before it reads a row; the whole-file
    # oracle read every row first
    path = _write(tmp_path, "a,label\n1,0\n1,2,3\n")
    with pytest.raises(DataValidationError, match="category column 'cat' not in header"):
        prepare(load_csv(path), [], "label", category_column="cat")
    with pytest.raises(DataFormatError, match="ragged row 2"):
        parse_oracle.prepare(parse_oracle.load_csv(path), [], "label", category_column="cat")


_WHITESPACE = st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2003", max_size=2)
_NUMERIC_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.lists(st.text(alphabet="0123456789", min_size=1, max_size=3), min_size=1, max_size=4).map(
        "_".join
    ),
    st.builds("{}e{}".format, st.floats(-1e3, 1e3).map(repr), st.integers(-400, 400)),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400", "+.5", "0x10", "", "_1", "1__0"]),
)
_NUMERIC = st.builds("{}{}{}".format, _WHITESPACE, _NUMERIC_CELLS, _WHITESPACE)
_NOMINAL = st.one_of(
    st.sampled_from(["tcp", "udp", "-", "dns", "FIN", "http"]),
    st.text(alphabet="bcdklmxyz-_. ", min_size=1, max_size=4),
)


def _oracle_outcome(raw):
    try:
        values, encoding = parse_oracle.parse_feature_column("col", raw)
    except DataValidationError as exc:
        return type(exc), str(exc)
    return values.dtype, values.tobytes(), None if encoding is None else list(encoding.items())


def _chunked_outcome(raw, chunk_rows):
    column = dataset._Column("col")
    try:
        parts = [
            column.add(raw[i : i + chunk_rows], i + 1) for i in range(0, len(raw), chunk_rows)
        ]
        column.check()
    except DataValidationError as exc:
        return type(exc), str(exc)
    values = np.concatenate([np.empty(0), *parts])
    return values.dtype, values.tobytes(), list(column.encoding.items()) or None


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(_NUMERIC, max_size=12),
        st.lists(_NOMINAL, min_size=1, max_size=12),
        st.lists(st.one_of(_NUMERIC, _NOMINAL), min_size=1, max_size=12),
    )
)
def test_column_parse_matches_per_cell_oracle(raw):
    expected = _oracle_outcome(raw)
    for chunk_rows in CHUNK_ROWS:
        assert _chunked_outcome(raw, chunk_rows) == expected, chunk_rows


_CLEAN_NUMERIC = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-999, 999).map(str)
)
_BAD_LABELS = st.sampled_from(["1.0", "+1", "01", "", "2", "one"])


@st.composite
def _csv_files(draw):
    """(rows, drop_columns, category_column, min_max_scale) of a CSV with a
    label, optional id and category columns, and feature columns that are
    numeric, numeric with non-finite cells, nominal, or numeric up to a
    drawn row and then anything, with at most one bad label and two ragged
    rows."""
    n = draw(st.integers(0, 16))
    labels = st.sampled_from(["0", "1", " 1 ", "0\t"])
    columns = {"label": draw(st.lists(labels, min_size=n, max_size=n))}
    if n and draw(st.booleans()):
        columns["label"][draw(st.integers(0, n - 1))] = draw(_BAD_LABELS)
    for j in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["clean", "numeric", "nominal", "mixed", "nonfinite"]))
        if kind == "nonfinite":
            cells = draw(st.lists(_CLEAN_NUMERIC, min_size=n, max_size=n))
            for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)) if n else []:
                cells[i] = draw(st.sampled_from(["nan", " -inf", "1e400"]))
        elif kind == "mixed":
            head = draw(st.integers(0, n))
            cells = draw(st.lists(_CLEAN_NUMERIC, min_size=head, max_size=head))
            tail = st.one_of(_NUMERIC, _NOMINAL)
            cells += draw(st.lists(tail, min_size=n - head, max_size=n - head))
        else:
            cell = {"clean": _CLEAN_NUMERIC, "numeric": _NUMERIC, "nominal": _NOMINAL}[kind]
            cells = draw(st.lists(cell, min_size=n, max_size=n))
        columns[f"f{j}"] = cells
    drop = ["id"] if draw(st.booleans()) else []
    if drop:
        columns["id"] = [str(i) for i in range(n)]
    category = "cat" if draw(st.booleans()) else None
    if category:
        columns["cat"] = draw(st.lists(_NOMINAL, min_size=n, max_size=n))
    header = draw(st.permutations(list(columns)))
    rows = [header] + [[columns[name][i] for name in header] for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if n else 0):
        row = rows[draw(st.integers(1, n))]
        if draw(st.booleans()):
            row.append("extra")
        elif row:
            row.pop()
    return rows, drop, category, draw(st.booleans())


def _ingest_outcome(load, prepare_fn, path, args):
    try:
        X, y, *_ = prepare_fn(load(path), *args)
    except (DataFormatError, DataValidationError) as exc:
        return type(exc), str(exc)
    return X.column_names, X.values.shape, X.values.tobytes(), y.values.tobytes()


def _span_overflows(path, args):
    """Whether the oracle parses the file and one of its columns has a
    max - min past the largest float."""
    try:
        X, *_ = parse_oracle.prepare(parse_oracle.load_csv(path), *args[:3], False)
    except (DataFormatError, DataValidationError):
        return False
    if not X.values.size:
        return False
    with np.errstate(over="ignore"):
        return bool(np.isinf(X.values.max(axis=0) - X.values.min(axis=0)).any())


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_csv_files())
@example(case=([["a", "label"], ["1", "0"], ["2", "1"], ["3", "0"], ["x", "1"]], [], None, False))
@example(case=([["a", "label"], ["x", "0"], ["y", "1"], ["z", "0"], ["1", "1"]], [], None, False))
@example(case=([["a", "label"], ["1", "0"], ["inf", "1"], ["x", "2"], ["2", "1"]], [], None, False))
@example(case=([["a", "label"]], [], None, True))
def test_prepare_matches_whole_file_oracle(tmp_path_factory, monkeypatch, chunk_rows, case):
    rows, drop, category, scale = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    args = (drop, "label", category, scale)
    if scale and _span_overflows(path, args):
        # The oracle reports such a column as non-finite; the scaling that
        # mends it is checked on its own by the two min-max tests below.
        args = (drop, "label", category, False)
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
    assert _ingest_outcome(load_csv, prepare, path, args) == _ingest_outcome(
        parse_oracle.load_csv, parse_oracle.prepare, path, args
    )


_RAW_CELLS = st.one_of(
    st.text(alphabet="ab1#\0 \t\x0b\x1c\x85\u2028", min_size=1, max_size=3),
    st.sampled_from(['"a,b"', '"x\ny"', '"1"', '""', 'a"b', "9" * 12]),
)


@st.composite
def _raw_csv_files(draw):
    """(text, drop_columns, category_column, field_size_limit) of one of
    _csv_files' tables written as raw text, not through csv.writer. Line
    breaks inside its cells become spaces; a few cells are replaced by ones
    with '#', NUL, other characters a reader might treat specially, or a
    quote; blank and whitespace-only lines are inserted; each line ends in
    LF, CR or CRLF, the last one maybe in nothing; and sometimes the field
    size limit is one that some cells or lines pass."""
    rows, drop, category, _ = draw(_csv_files())
    rows = [[cell.replace("\r", " ").replace("\n", " ") for cell in row] for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if len(rows) > 1 else 0):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_RAW_CELLS)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    line_ends = st.sampled_from(["\n", "\r", "\r\n"])
    ends = draw(st.lists(line_ends, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, drop, category, draw(st.sampled_from([None, None, 6, 10]))


@pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_raw_csv_files())
@example(case=("a,label\r\n1,0\r\n\r\n2,1\r\n", [], None, None))
@example(case=("a,label\n1,0\n \n2,1", [], None, None))
@example(case=("label\n0\r1\r\r0\r", [], None, None))
@example(case=("a,label\n#1,0\nx\0,1\n", [], None, None))
@example(case=("a,label\n1,0\n12345678,1\n", [], None, 6))
@example(case=("a,b,label\n" + "1,x,0\n" * 8 + '2,"y\nz",1\n3,y,0\n', [], None, None))
def test_prepare_of_raw_text_matches_whole_file_oracle(
    tmp_path_factory, monkeypatch, chunk_rows, case
):
    text, drop, category, limit = case
    path = tmp_path_factory.getbasetemp() / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    args = (drop, "label", category, False)
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert _ingest_outcome(load_csv, prepare, path, args) == _ingest_outcome(
            parse_oracle.load_csv, parse_oracle.prepare, path, args
        )
    finally:
        csv.field_size_limit(default)


def test_synthetic_csv_is_parsed_by_numpy_reader(synth_csv, monkeypatch):
    # _Column.add is the cell-by-cell parse, called only for a chunk that
    # numpy's reader was not given or gave up on
    def refused(*args):
        raise AssertionError("a chunk of the synthetic CSV fell back to csv")

    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 300)
    monkeypatch.setattr(dataset._Column, "add", refused)
    X, _ = prepare(load_csv(synth_csv), ["id"], "label", category_column="attack_cat")
    assert X.n > dataset._CHUNK_ROWS


def test_prepare_drops_requested_columns(tmp_path):
    ingest = load_csv(_write(tmp_path, "id,a,cat,label\n1,5,dos,0\n2,6,worm,1\n3,7,dos,1\n"))
    X, y = prepare(ingest, ["id"], "label", category_column="cat")
    assert X.column_names == ("a",)
    assert X.n == 3


def test_prepare_unknown_drop_column(tmp_path):
    ingest = load_csv(_write(tmp_path, WELL_FORMED))
    with pytest.raises(DataValidationError, match="nope"):
        prepare(ingest, ["nope"], "label")


def test_prepare_deterministic(tmp_path):
    path = _write(tmp_path, WELL_FORMED)
    first = prepare(load_csv(path), [], "label")
    second = prepare(load_csv(path), [], "label")
    assert np.array_equal(first[0].values, second[0].values)
    assert np.array_equal(first[1].values, second[1].values)


def test_encoding_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2)
    path = _write(tmp_path, "proto,label\ntcp,0\nudp,1\narp,0\ntcp,1\n")
    X, _ = prepare(load_csv(path), [], "label")
    assert list(X.values[:, 0]) == [0.0, 1.0, 2.0, 0.0]


def test_prepare_min_max_scaling(tmp_path):
    path = _write(tmp_path, "a,b,label\n0,5,0\n10,5,1\n5,5,0\n")
    X, _ = prepare(load_csv(path), [], "label", min_max_scale=True)
    assert list(X.values[:, 0]) == [0.0, 1.0, 0.5]
    # constant column maps to zeros rather than dividing by zero
    assert list(X.values[:, 1]) == [0.0, 0.0, 0.0]


def test_min_max_scaling_of_a_span_past_the_largest_float(tmp_path):
    big = sys.float_info.max
    path = _write(tmp_path, f"a,b,label\n{big!r},0.1,0\n{-big!r},0.7,1\n0.0,0.3,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        X, _ = prepare(load_csv(path), [], "label", min_max_scale=True)
    assert list(X.values[:, 0]) == [1.0, 0.0, 0.5]
    b = np.array([0.1, 0.7, 0.3])
    assert X.values[:, 1].tobytes() == ((b - 0.1) / (0.7 - 0.1)).tobytes()


_SCALE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([sys.float_info.max, -sys.float_info.max, 5e-324, -0.0, 0.0, 1e308, -1e308]),
)


@settings(max_examples=300, deadline=None)
@given(
    values=hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)), elements=_SCALE_CELLS
    )
)
def test_min_max_scale_keeps_the_plain_formula_where_the_span_is_finite(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = dataset._min_max_scale(values)
    for j in range(values.shape[1]):
        column = values[:, j]
        lo, hi = column.min(), column.max()
        with np.errstate(over="ignore"):
            span = hi - lo
        if np.isfinite(span):
            expected = (column - lo) / (span if span != 0 else 1.0)
            assert scaled[:, j].tobytes() == expected.tobytes()
        else:
            assert scaled[column.argmin(), j] == 0.0 and scaled[column.argmax(), j] == 1.0
            assert ((scaled[:, j] >= 0.0) & (scaled[:, j] <= 1.0)).all()


def test_synthetic_csv_has_canonical_feature_count(synth_csv, monkeypatch):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 300)
    X, y = prepare(load_csv(synth_csv), ["id"], "label", category_column="attack_cat")
    with open(synth_csv, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    assert X.m == 42
    assert X.n == len(records)
    for j, name in enumerate(X.column_names):
        cells = [r[name] for r in records]
        if name in ("proto", "service", "state"):
            codes = {}
            expected = [codes.setdefault(s, len(codes)) for s in cells]
        else:
            expected = [float(s) for s in cells]
        assert X.values[:, j].tolist() == expected, name


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(DataValidationError, match="non-finite"):
        FeatureMatrix(np.array([[1.0, np.inf]]), ("a", "b"))


def test_feature_matrix_copies_all_but_a_read_only_array_it_owns():
    owned = np.ones((2, 2))
    owned.setflags(write=False)
    assert FeatureMatrix(owned, ("a", "b")).values is owned
    for values in (np.ones((2, 2)), owned[:, :1]):
        X = FeatureMatrix(values, tuple("ab"[: values.shape[1]]))
        assert X.values is not values and X.values.base is None
        assert not X.values.flags.writeable


def test_feature_matrix_rejects_duplicate_names():
    with pytest.raises(DataValidationError, match="unique"):
        FeatureMatrix(np.ones((2, 2)), ("a", "a"))


@pytest.mark.parametrize("names", ["abc", ("a", 1, "c"), (0, 1, 2)], ids=["str", "mixed", "ints"])
def test_feature_matrix_rejects_names_that_are_not_strings(names):
    # a string once split into one-letter names, and integers were kept as names
    with pytest.raises(DataValidationError, match=r"^column names must be strings, got "):
        FeatureMatrix(np.ones((2, 3)), names)


def test_label_vector_rejects_other_values():
    with pytest.raises(DataValidationError, match="expected 0 or 1"):
        LabelVector(np.array([0, 1, 2]))


def _balanced(n):
    X = FeatureMatrix(np.arange(n * 2, dtype=float).reshape(n, 2), ("a", "b"))
    y = LabelVector(np.array([0, 1] * (n // 2)))
    return X, y


def test_split_sizes_and_stratification():
    X, y = _balanced(100)
    X_train, y_train, X_test, y_test = stratified_split(X, y, 0.3, seed=7)
    assert X_train.n == 70 and X_test.n == 30
    assert int(y_test.values.sum()) in (14, 15, 16)
    assert int(y_train.values.sum()) + int(y_test.values.sum()) == 50


def test_split_deterministic_and_seed_sensitive():
    X, y = _balanced(100)
    a = stratified_split(X, y, 0.3, seed=7)
    b = stratified_split(X, y, 0.3, seed=7)
    c = stratified_split(X, y, 0.3, seed=8)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[2].values, b[2].values)
    assert not np.array_equal(a[2].values, c[2].values)


def test_split_parts_disjoint_and_exhaustive():
    X, y = _balanced(60)
    X_train, _, X_test, _ = stratified_split(X, y, 0.25, seed=3)
    seen = {tuple(row) for row in X_train.values} | {tuple(row) for row in X_test.values}
    assert len(seen) == 60
    assert X_train.n + X_test.n == 60


def test_split_complementary_fractions_swap_sizes():
    X, y = _balanced(100)
    small = stratified_split(X, y, 0.3, seed=5)
    large = stratified_split(X, y, 0.7, seed=5)
    assert small[2].n == large[0].n
    assert small[0].n == large[2].n


def test_split_single_class_rejected():
    X = FeatureMatrix(np.ones((10, 1)), ("a",))
    y = LabelVector(np.zeros(10, dtype=int))
    with pytest.raises(DataValidationError, match="fewer than 2"):
        stratified_split(X, y, 0.3, seed=1)


def test_split_bad_fraction():
    X, y = _balanced(10)
    with pytest.raises(DataValidationError, match="test_fraction"):
        stratified_split(X, y, 1.5, seed=1)


def test_sample_preserves_ratio_and_determinism():
    X, y = _balanced(200)
    Xs, ys = stratified_sample(X, y, 50, seed=9)
    assert Xs.n == 50
    assert int(ys.values.sum()) == 25
    Xs2, _ = stratified_sample(X, y, 50, seed=9)
    assert np.array_equal(Xs.values, Xs2.values)
    with pytest.raises(DataValidationError, match="sample"):
        stratified_sample(X, y, 500, seed=9)


@pytest.mark.parametrize("n_rows", [0, -5, 4.5, True])
def test_sample_rejects_fewer_than_one_row(n_rows):
    # the picker keeps one row of each class, so 0 and -5 once returned two
    # rows; 4.5 was rounded per class and true was taken as 1
    X, y = _balanced(20)
    with pytest.raises(DataValidationError, match=rf"^sample of {n_rows} rows requested, need at least 1$"):
        stratified_sample(X, y, n_rows, seed=9)


@pytest.mark.parametrize(
    "pick, size, seed, message",
    [
        # numpy seeds None from the operating system, so the rows could not
        # be picked again
        (stratified_sample, 5, None, "seed must be an integer >= 0, got None"),
        # true once ran as seed 1
        (stratified_split, 0.3, True, "seed must be an integer >= 0, got True"),
        # these once raised numpy's bare TypeError or ValueError
        (stratified_split, 0.3, 1.5, "seed must be an integer >= 0, got 1.5"),
        (stratified_split, 0.3, -1, "seed must be an integer >= 0, got -1"),
        (stratified_sample, 5, -1, "seed must be an integer >= 0, got -1"),
        # and this a bare TypeError from comparing a string with a number
        (stratified_split, "0.3", 1, "test_fraction must be a number in (0, 1), got '0.3'"),
    ],
    ids=["sample-seed-none", "split-seed-true", "split-seed-float", "split-seed-negative",
         "sample-seed-negative", "split-fraction-str"],
)
def test_split_and_sample_reject_a_bad_seed_or_fraction(pick, size, seed, message):
    X, y = _balanced(20)
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        pick(X, y, size, seed)


def _old_split_rows(labels, test_fraction, seed):
    """stratified_split's test rows as picked before the picker was shared."""
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        n_c = members.size
        want = min(max(int(np.floor(n_c * test_fraction + 0.5)), 1), n_c - 1)
        test_idx.append(members[rng.permutation(members.size)][:want])
    return np.sort(np.concatenate(test_idx))


def _old_sample_rows(labels, n_rows, seed):
    """stratified_sample's rows as picked before the picker was shared."""
    fraction = n_rows / labels.size
    rng = np.random.default_rng(seed)
    picked = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        want = min(max(int(np.floor(members.size * fraction + 0.5)), 1), members.size)
        picked.append(members[rng.permutation(members.size)][:want])
    return np.sort(np.concatenate(picked))


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(0, 1), min_size=4, max_size=80),
    test_fraction=st.floats(0.01, 0.99),
    n_rows=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_and_sample_pick_the_rows_they_picked_before(labels, test_fraction, n_rows, seed):
    labels = np.array(labels)
    X = FeatureMatrix(np.arange(labels.size, dtype=float)[:, np.newaxis], ("row",))
    y = LabelVector(labels)
    if min(np.sum(labels == 0), np.sum(labels == 1)) >= 2:
        _, _, X_test, y_test = stratified_split(X, y, test_fraction, seed)
        want = _old_split_rows(labels, test_fraction, seed)
        assert np.array_equal(X_test.values[:, 0], want) and np.array_equal(y_test.values, labels[want])
    if n_rows < labels.size:
        X_sample, y_sample = stratified_sample(X, y, n_rows, seed)
        want = _old_sample_rows(labels, n_rows, seed)
        assert np.array_equal(X_sample.values[:, 0], want)
        assert np.array_equal(y_sample.values, labels[want])


def test_prepare_holds_the_matrix_once(tmp_path):
    # the matrix grows one chunk at a time in place, so beyond X and y
    # ingestion holds a few chunks' worth at once (about 2.7 measured): one
    # chunk's text, its parsed numbers and its block of floats
    path = tmp_path / "flows_20000.csv"
    synth_data.write_csv(path, 20_000, seed=3)
    tracemalloc.start()
    try:
        X, y = prepare(load_csv(path), ["id"], "label", category_column="attack_cat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = dataset._CHUNK_ROWS * X.m * X.values.itemsize
    assert X.n == 20_000 and X.n > 10 * dataset._CHUNK_ROWS
    assert peak <= X.values.nbytes + y.values.nbytes + 4 * chunk


@pytest.mark.parametrize("make", ["select", "split", "sample"])
def test_row_and_column_picks_hold_no_second_copy(make):
    # each result is a fresh array that FeatureMatrix keeps without copying
    rng = np.random.default_rng(12)
    X = FeatureMatrix(rng.normal(size=(4000, 20)), tuple(f"f{j}" for j in range(20)))
    y = LabelVector(np.arange(4000) % 2)
    calls = {
        "select": lambda: (X.select([f"f{j}" for j in range(0, 20, 2)]),),
        "split": lambda: stratified_split(X, y, 0.3, seed=1)[::2],
        "sample": lambda: stratified_sample(X, y, 2000, seed=1)[:1],
    }
    tracemalloc.start()
    try:
        matrices = calls[make]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(matrix.values.nbytes for matrix in matrices)
    for matrix in matrices:
        assert matrix.values.flags.c_contiguous and not matrix.values.flags.writeable
