import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from privids.dataset import (
    EncodingMap,
    FeatureMatrix,
    LabelVector,
    load_csv,
    prepare,
    stratified_sample,
    stratified_split,
)
from privids.dataset import _parse_feature_column
from privids.errors import DataFormatError, DataValidationError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


WELL_FORMED = "a,b,c,label\n1,x,2.5,0\n2,y,3.5,1\n3,x,4.5,0\n"


def test_load_csv_well_formed(tmp_path):
    table = load_csv(_write(tmp_path, WELL_FORMED))
    assert table.n == 3
    assert table.m == 4
    assert table.header == ("a", "b", "c", "label")


def test_load_csv_ragged_row_names_offending_row(tmp_path):
    path = _write(tmp_path, "a,b,c,d\n1,2,3,4\n1,2,3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(DataFormatError, match="empty"):
        load_csv(_write(tmp_path, ""))


def test_load_csv_duplicate_header(tmp_path):
    with pytest.raises(DataFormatError, match="duplicate"):
        load_csv(_write(tmp_path, "a,a,b\n1,2,3\n"))


def test_load_csv_schema_mismatch(tmp_path):
    path = _write(tmp_path, WELL_FORMED)
    with pytest.raises(DataFormatError, match="schema"):
        load_csv(path, schema=["a", "b", "c", "d"])
    table = load_csv(path, schema=["a", "b", "c", "label"])
    assert table.n == 3


def test_prepare_first_appearance_encoding(tmp_path):
    table = load_csv(_write(tmp_path, "proto,label\ntcp,0\nudp,1\ntcp,0\n"))
    X, y, enc = prepare(table, [], "label")
    assert list(X.values[:, 0]) == [0.0, 1.0, 0.0]
    assert enc.by_column["proto"] == {"tcp": 0, "udp": 1}
    assert list(y.values) == [0, 1, 0]


def test_prepare_bad_label_names_row(tmp_path):
    table = load_csv(_write(tmp_path, "a,label\n1,0\n2,2\n"))
    with pytest.raises(DataValidationError, match="row 2"):
        prepare(table, [], "label")


def test_prepare_mixed_column_is_hard_error(tmp_path):
    table = load_csv(_write(tmp_path, "a,label\n1.5,0\noops,1\n"))
    with pytest.raises(DataValidationError, match="column 'a', row 2"):
        prepare(table, [], "label")


def test_prepare_rejects_nonfinite_numeric(tmp_path):
    table = load_csv(_write(tmp_path, "a,label\n1.5,0\nNaN,1\n"))
    with pytest.raises(DataValidationError, match="non-finite"):
        prepare(table, [], "label")


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


def _outcome(parse, raw):
    try:
        values, encoding = parse("col", raw)
    except DataValidationError as exc:
        return type(exc), str(exc)
    return values.dtype, values.tobytes(), None if encoding is None else list(encoding.items())


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(_NUMERIC, max_size=12),
        st.lists(_NOMINAL, min_size=1, max_size=12),
        st.lists(st.one_of(_NUMERIC, _NOMINAL), min_size=1, max_size=12),
    )
)
def test_column_parse_matches_per_cell_oracle(raw):
    assert _outcome(_parse_feature_column, raw) == _outcome(parse_oracle.parse_feature_column, raw)


def test_prepare_drops_requested_columns(tmp_path):
    table = load_csv(_write(tmp_path, "id,a,cat,label\n1,5,dos,0\n2,6,worm,1\n3,7,dos,1\n"))
    X, y, _ = prepare(table, ["id"], "label", category_column="cat")
    assert X.column_names == ("a",)
    assert X.n == 3


def test_prepare_unknown_drop_column(tmp_path):
    table = load_csv(_write(tmp_path, WELL_FORMED))
    with pytest.raises(DataValidationError, match="nope"):
        prepare(table, ["nope"], "label")


def test_prepare_deterministic(tmp_path):
    path = _write(tmp_path, WELL_FORMED)
    first = prepare(load_csv(path), [], "label")
    second = prepare(load_csv(path), [], "label")
    assert np.array_equal(first[0].values, second[0].values)
    assert np.array_equal(first[1].values, second[1].values)
    assert first[2].by_column == second[2].by_column


def test_encoding_round_trip(tmp_path):
    table = load_csv(_write(tmp_path, "proto,label\ntcp,0\nudp,1\narp,0\ntcp,1\n"))
    X, _, enc = prepare(table, [], "label")
    decoded = enc.decode("proto", X.values[:, 0])
    assert decoded == ["tcp", "udp", "arp", "tcp"]


def test_prepare_min_max_scaling(tmp_path):
    table = load_csv(_write(tmp_path, "a,b,label\n0,5,0\n10,5,1\n5,5,0\n"))
    X, _, _ = prepare(table, [], "label", min_max_scale=True)
    assert list(X.values[:, 0]) == [0.0, 1.0, 0.5]
    # constant column maps to zeros rather than dividing by zero
    assert list(X.values[:, 1]) == [0.0, 0.0, 0.0]


def test_synthetic_csv_has_canonical_feature_count(synth_csv):
    table = load_csv(synth_csv)
    X, y, enc = prepare(table, ["id"], "label", category_column="attack_cat")
    assert X.m == 42
    assert X.n == table.n
    assert sorted(enc.by_column) == ["proto", "service", "state"]


def test_feature_matrix_rejects_nonfinite():
    with pytest.raises(DataValidationError, match="non-finite"):
        FeatureMatrix(np.array([[1.0, np.inf]]), ("a", "b"))


def test_feature_matrix_rejects_duplicate_names():
    with pytest.raises(DataValidationError, match="unique"):
        FeatureMatrix(np.ones((2, 2)), ("a", "a"))


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
