import math

import numpy as np
import pytest
from hypothesis import given, settings

import scaling_oracle
from pearson_oracle import UndefinedCorrelationError, pearson
from privids.dataset import FeatureMatrix
from privids.errors import DataValidationError
from privids.feature_selection import (
    apply_selection,
    correlation_matrix,
    rank_features,
    select_by_threshold,
)

# direct high-precision evaluation of the covariance/stddev ratio,
# independent of the vectorized implementation path
def pearson_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sx = math.sqrt(math.fsum((a - mx) ** 2 for a in x))
    sy = math.sqrt(math.fsum((b - my) ** 2 for b in y))
    return num / (sx * sy)


# frozen from exact rational arithmetic for f1=[1,2,3,4], f2=[1,3,2,5]
FROZEN_PEARSON = 0.8315218406202999


def test_pearson_self_correlation():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_exact_anticorrelation():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_frozen_oracle_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 5]) == pytest.approx(FROZEN_PEARSON, abs=1e-12)
    assert pearson_oracle([1, 2, 3, 4], [1, 3, 2, 5]) == pytest.approx(FROZEN_PEARSON, abs=1e-12)


def test_pearson_constant_vector_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson([2, 2, 2], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        pearson([1, 2, 3], [5, 5, 5])


def test_pearson_preconditions():
    with pytest.raises(DataValidationError):
        pearson([1], [2])
    with pytest.raises(DataValidationError):
        pearson([1, 2, 3], [1, 2])


def test_pearson_matches_bruteforce_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=80)
    y = rng.normal(size=80)
    base = pearson(x, y)
    for _ in range(20):
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-100, 100)
        assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-9)
        assert pearson(-a * x + b, y) == pytest.approx(-base, abs=1e-9)


def _matrix(arr, names=None):
    arr = np.asarray(arr, dtype=float)
    names = names or tuple(f"f{i}" for i in range(arr.shape[1]))
    return FeatureMatrix(arr, tuple(names))


def test_correlation_matrix_identical_columns():
    X = _matrix([[1, 1], [2, 2], [3, 3]])
    C = correlation_matrix(X)
    assert C.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_correlation_matrix_matches_pairwise_oracle():
    rng = np.random.default_rng(2)
    X = _matrix(rng.normal(size=(30, 5)))
    C = correlation_matrix(X)
    for i in range(5):
        for j in range(5):
            if i == j:
                assert C.values[i, j] == 1.0
            else:
                expected = pearson(X.values[:, i], X.values[:, j])
                assert C.values[i, j] == pytest.approx(expected, abs=1e-12)
    assert np.array_equal(C.values, C.values.T)


def test_correlation_matrix_flags_constant_column():
    X = _matrix([[1, 7, 2], [2, 7, 1], [3, 7, 5]])
    C = correlation_matrix(X)
    assert np.isnan(C.values[0, 1]) and np.isnan(C.values[1, 2])
    assert C.values[1, 1] == 1.0
    assert C.constant == ("f1",)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-160, 1e-162, 1e-170, 1e-307])
def test_correlation_of_a_column_whose_squares_underflow(scale):
    # the copy's centred squares are subnormal below about 1e-154 and 0
    # below about 1e-162; its coefficient with the original is still 1,
    # and PCC drops it
    a = np.random.default_rng(5).normal(size=200)
    C = correlation_matrix(_matrix(np.column_stack([a, a * scale]), ("a", "copy")))
    assert C.values[0, 1] == C.values[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert C.constant == ()
    report = select_by_threshold(C, 0.85)
    assert report["kept"] == ["a"] and [d["name"] for d in report["dropped"]] == ["copy"]


def test_correlation_of_a_tiny_constant_column_stays_undefined():
    a = np.random.default_rng(5).normal(size=200)
    tiny = np.full(200, 1e-300)
    C = correlation_matrix(_matrix(np.column_stack([a, tiny, a * 1e-170]), ("a", "tiny", "copy")))
    assert np.isnan(C.values[0, 1]) and np.isnan(C.values[1, 2])
    assert C.constant == ("tiny",)


@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3, 7.7, 1e-5])
def test_correlation_flags_a_constant_column_whose_mean_is_inexact(value):
    # the mean of 12,000 copies of these values is not the value itself, so
    # the centred column is a few ulps rather than 0; it is still constant
    a = np.random.default_rng(6).normal(size=12_000)
    flat = np.full(12_000, value)
    C = correlation_matrix(_matrix(np.column_stack([a, flat]), ("a", "flat")))
    assert C.constant == ("flat",)
    assert np.isnan(C.values[0, 1]) and np.isnan(C.values[1, 0])
    assert dict(rank_features(C))["flat"] is None
    assert select_by_threshold(C, 0.85)["constant_columns"] == ["flat"]


@pytest.mark.filterwarnings("error")
def test_correlation_of_a_column_whose_sum_overflows():
    # 12,000 values near 1e305 sum past the largest float, so the column is
    # scaled by a power of two before it is centred; a power-of-two copy of a
    # column then keeps the bits of that column's coefficients
    rng = np.random.default_rng(7)
    a, u = rng.normal(size=12_000), rng.uniform(1, 2, size=12_000)
    values = np.column_stack([a, u * 1e305, u * 2.0**1013, u])
    C = correlation_matrix(_matrix(values, ("a", "huge", "copy", "u")))
    assert np.isfinite(C.values).all() and C.constant == ()
    assert C.values[0, 2] == C.values[0, 3]
    assert C.values[0, 1] == pytest.approx(C.values[0, 3], rel=1e-12)
    assert C.values[1, 3] == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(values=scaling_oracle.magnitude_matrices())
def test_correlation_gives_the_bits_of_the_unscaled_matrix(values):
    # scaling a column by a power of two is exact, so on every magnitude the
    # unscaled matrix handled, every coefficient keeps its bits
    X = _matrix(values)
    C = correlation_matrix(X)
    expected = scaling_oracle.correlation_matrix(X)
    assert C.values.tobytes() == expected.values.tobytes()
    assert C.constant == expected.constant


def test_correlation_matrix_needs_two_rows():
    with pytest.raises(DataValidationError):
        correlation_matrix(_matrix([[1, 2]]))


def test_rank_features_two_columns():
    C = correlation_matrix(_matrix([[1, 1.1], [2, 2.3], [3, 2.8], [4, 4.2]]))
    ranking = rank_features(C)
    assert ranking[0][1] == pytest.approx(ranking[1][1], abs=1e-12)


def test_rank_features_hand_means():
    # pairwise correlations of these columns are known by direct computation
    rng = np.random.default_rng(3)
    X = _matrix(rng.normal(size=(40, 3)))
    C = correlation_matrix(X)
    ranking = dict(rank_features(C))
    for i, name in enumerate(C.column_names):
        others = [abs(C.values[i, j]) for j in range(3) if j != i]
        assert ranking[name] == pytest.approx(sum(others) / 2, abs=1e-12)


def test_rank_features_perfectly_correlated_ranks_first():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    noise = np.array([1.3, 0.4, 2.9, 0.1])
    X = _matrix(np.column_stack([base, 2 * base, noise]), ("a", "b", "c"))
    ranking = rank_features(correlation_matrix(X))
    assert ranking[0][0] in ("a", "b")
    assert ranking[0][1] > ranking[-1][1]


def test_rank_features_undefined_scores_sort_last():
    X = _matrix([[1, 7], [2, 7], [3, 7]], ("a", "const"))
    ranking = rank_features(correlation_matrix(X))
    assert ranking[-1] == ("const", None)


def test_select_drops_second_of_correlated_pair():
    base = np.arange(10.0)
    rng = np.random.default_rng(4)
    pair = base + rng.normal(0, 0.1, 10)  # |PCC| > 0.85 with base
    X = _matrix(np.column_stack([base, pair]), ("first", "second"))
    report = select_by_threshold(correlation_matrix(X), 0.85)
    assert report["kept"] == ["first"]
    assert report["dropped"][0]["name"] == "second"
    assert report["dropped"][0]["against"] == "first"
    assert abs(report["dropped"][0]["coefficient"]) > 0.85


def test_select_keeps_independent_columns():
    rng = np.random.default_rng(5)
    X = _matrix(rng.normal(size=(500, 3)))
    C = correlation_matrix(X)
    assert np.all(np.abs(C.values[~np.eye(3, dtype=bool)]) < 0.1)
    report = select_by_threshold(C, 0.85)
    assert report["kept"] == list(X.column_names)
    assert report["dropped"] == []


def test_select_threshold_one_drops_only_exact_duplicates():
    base = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    other = np.array([2.0, 7.0, 1.0, 8.0, 2.5])
    X = _matrix(np.column_stack([base, base.copy(), other]), ("a", "dup", "b"))
    report = select_by_threshold(correlation_matrix(X), 1.0)
    assert report["dropped"] == []  # strict comparison: |1.0| is not > 1.0
    looser = select_by_threshold(correlation_matrix(X), 0.9999999)
    assert [d["name"] for d in looser["dropped"]] == ["dup"]


def test_select_above_max_correlation_drops_nothing():
    rng = np.random.default_rng(6)
    X = _matrix(rng.normal(size=(50, 4)))
    C = correlation_matrix(X)
    ceiling = np.nanmax(np.abs(C.values[~np.eye(4, dtype=bool)]))
    report = select_by_threshold(C, min(1.0, ceiling + 1e-6))
    assert report["dropped"] == []


def test_select_never_drops_on_undefined_pairs():
    X = _matrix([[1, 7], [2, 7], [3, 7]], ("a", "const"))
    report = select_by_threshold(correlation_matrix(X), 0.85)
    assert report["kept"] == ["a", "const"]
    assert report["constant_columns"] == ["const"]


def test_select_threshold_range_enforced():
    C = correlation_matrix(_matrix([[1, 2], [2, 1], [3, 3]]))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DataValidationError):
            select_by_threshold(C, bad)


def test_kept_pairs_respect_threshold_after_selection():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(200, 4))
    # weave in near-duplicates to force drops
    X = _matrix(
        np.column_stack([base[:, 0], base[:, 0] + 0.05 * rng.normal(size=200),
                         base[:, 1], base[:, 2], base[:, 2] * 3 + 0.1, base[:, 3]]),
    )
    threshold = 0.85
    report = select_by_threshold(correlation_matrix(X), threshold)
    kept = apply_selection(X, report)
    C_kept = correlation_matrix(kept)
    off_diag = C_kept.values[~np.eye(kept.m, dtype=bool)]
    assert np.all(np.abs(off_diag[np.isfinite(off_diag)]) <= threshold)


def test_apply_selection_identity_and_order():
    rng = np.random.default_rng(8)
    X = _matrix(rng.normal(size=(20, 4)), ("a", "b", "c", "d"))
    report = select_by_threshold(correlation_matrix(X), 0.999)
    assert np.array_equal(apply_selection(X, report).values, X.values)


def test_apply_selection_subset_preserves_order():
    X = _matrix(np.arange(12.0).reshape(3, 4), ("a", "b", "c", "d"))
    report = select_by_threshold(correlation_matrix(X), 0.85)
    picked = X.select(["d", "a"])  # requested out of order
    assert picked.column_names == ("a", "d")
    del report


def test_apply_selection_rejects_empty_and_unknown():
    X = _matrix(np.arange(6.0).reshape(3, 2), ("a", "b"))
    good = select_by_threshold(correlation_matrix(X), 0.9999)
    empty = {
        "kept": [], "dropped": good["dropped"], "threshold": 0.85,
        "ranking": good["ranking"], "constant_columns": [],
    }
    with pytest.raises(DataValidationError, match="no features"):
        apply_selection(X, empty)
    with pytest.raises(DataValidationError, match="unknown"):
        X.select(["zz"])
