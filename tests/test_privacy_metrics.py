import warnings

import numpy as np
import pytest

from privids.dataset import FeatureMatrix
from privids.distortion import DistortionModel, transform
from privids.errors import DataValidationError
from privids.privacy_metrics import (
    feature_rank_change,
    privacy_report,
    rank_elements,
    value_difference,
)


def rank_oracle(column):
    """O(n^2) comparison-counting rank with stable tie handling."""
    n = len(column)
    ranks = []
    for i in range(n):
        smaller = sum(1 for j in range(n) if column[j] < column[i])
        tied_before = sum(1 for j in range(i) if column[j] == column[i])
        ranks.append(smaller + tied_before + 1)
    return ranks


def test_vd_identity_is_zero():
    X = np.arange(6.0).reshape(2, 3) + 1
    assert value_difference(X, X.copy()) == 0.0


def test_vd_forced_arithmetic():
    assert value_difference(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(1.0)


def test_vd_shape_and_zero_norm_errors():
    with pytest.raises(DataValidationError, match="shape"):
        value_difference(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(DataValidationError, match="zero"):
        value_difference(np.zeros((2, 2)), np.ones((2, 2)))


def test_vd_rejects_a_norm_that_is_not_finite():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3))
    TX = 1.5 * X
    assert value_difference(X, TX) == np.linalg.norm(X - TX) / np.linalg.norm(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # an entry of X - TX overflows, then the ratio of two finite norms does
        for x, tx in (
            (np.array([[1e308]]), np.array([[-1e308]])),
            (np.array([[1e-300, 0.0]]), np.array([[1e10, 1.0]])),
        ):
            with pytest.raises(DataValidationError, match="^value difference undefined: .*not finite$"):
                value_difference(x, tx)


def test_vd_of_a_matrix_whose_squares_underflow_or_overflow():
    # the plain sum of squares of each X is 0, subnormal or inf, though X has
    # nonzero finite entries; scaled by a power of two it is exact, so VD is as
    # at scale 1
    rng = np.random.default_rng(22)
    X = rng.normal(size=(40, 3))
    TX = 1.5 * X
    TX[0, 0] = 0.0
    want = value_difference(X, TX)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (2.0**-1000, 2.0**-600, 2.0**-530, 2.0**520, 2.0**1000):
            assert value_difference(X * scale, TX * scale) == want
        assert value_difference(np.array([[1e-300, 0.0]]), np.array([[2e-300, 0.0]])) == 1.0
        with pytest.raises(DataValidationError, match="all-zero"):
            value_difference(np.zeros((2, 2)), np.array([[1e-300, 0.0], [0.0, 0.0]]))


def test_vd_scales_linearly():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(30, 4))
    TX = rng.normal(size=(30, 4))
    base = value_difference(X, TX)
    for c in (-2.0, -0.5, 0.3, 1.7):
        blended = X + c * (TX - X)
        assert value_difference(X, blended) == pytest.approx(abs(c) * base, abs=1e-9)


def test_rank_elements_basic_and_ties():
    assert list(rank_elements(np.array([[10.0], [5.0], [7.0]]))[:, 0]) == [3, 1, 2]
    assert list(rank_elements(np.array([[5.0], [5.0], [1.0]]))[:, 0]) == [2, 3, 1]


def test_rank_elements_matches_bruteforce():
    rng = np.random.default_rng(21)
    M = rng.integers(0, 20, size=(50, 3)).astype(float)  # integers force ties
    ranks = rank_elements(M)
    for j in range(3):
        assert list(ranks[:, j]) == rank_oracle(list(M[:, j]))


def _doubled(column):
    """A one-column case as two equal columns: CP/CK need two columns, and
    repeating every element leaves the RP and RK means unchanged."""
    return np.hstack([column, column])


def test_rank_position_identity_and_hand_case():
    X = _doubled(np.array([[1.0], [2.0], [3.0]]))
    assert privacy_report(X, X, 0.0)["rp"] == 0.0
    # distorted column ranks become [3, 1, 2]
    TX = _doubled(np.array([[9.0], [1.0], [2.0]]))
    assert privacy_report(X, TX, 0.0)["rp"] == pytest.approx(4.0 / 3.0)


def test_rank_position_reversal_matches_oracle():
    rng = np.random.default_rng(22)
    col = rng.permutation(41).astype(float)
    X = _doubled(col[:, np.newaxis])
    TX = -X
    expected = np.mean(np.abs(np.array(rank_oracle(list(col))) - np.array(rank_oracle(list(-col)))))
    assert privacy_report(X, TX, 0.0)["rp"] == pytest.approx(expected)


def test_rank_maintenance_identity_and_monotone_map():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(40, 3))
    assert privacy_report(X, X, 0.0)["rk"] == 1.0
    TX = X * np.array([2.0, 0.5, 7.0]) + np.array([1.0, -3.0, 0.0])
    report = privacy_report(X, TX, 0.0)
    assert report["rk"] == 1.0
    assert report["rp"] == 0.0


def test_rank_maintenance_matches_bruteforce():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(25, 3))
    TX = rng.normal(size=(25, 3))
    rx = np.column_stack([rank_oracle(list(X[:, j])) for j in range(3)])
    rtx = np.column_stack([rank_oracle(list(TX[:, j])) for j in range(3)])
    report = privacy_report(X, TX, 0.0)
    assert report["rk"] == pytest.approx(float((rx == rtx).mean()))
    assert report["rp"] == pytest.approx(float(np.abs(rx - rtx).mean()))


def test_feature_rank_change_identity_and_swap():
    X = np.column_stack([np.full(10, 1.0), np.full(10, 2.0)])
    cp, ck = feature_rank_change(X, X)
    assert (cp, ck) == (0.0, 1.0)
    TX = np.column_stack([np.full(10, 5.0), np.full(10, 2.0)])  # mean order swaps
    cp, ck = feature_rank_change(X, TX)
    assert (cp, ck) == (1.0, 0.0)


def test_feature_rank_change_needs_two_columns():
    with pytest.raises(DataValidationError):
        feature_rank_change(np.ones((5, 1)), np.ones((5, 1)))


def test_privacy_report_identity_tuple():
    rng = np.random.default_rng(25)
    X = rng.integers(1, 100, size=(30, 5)).astype(float)
    report = privacy_report(X, X.copy(), elapsed=0.5)
    assert (report["vd"], report["rp"], report["rk"], report["cp"], report["ck"]) == (0.0, 0.0, 1.0, 0.0, 1.0)
    assert report["distortion_time_s"] == 0.5
    assert (report["n"], report["m"]) == (30, 5)
    assert report["rp_sum"] == 0.0


def _distinct_matrix(rng, n, m):
    cols = [rng.permutation(np.arange(1, n + 1)).astype(float) for _ in range(m)]
    return FeatureMatrix(np.column_stack(cols), tuple(f"f{i}" for i in range(m)))


def test_report_after_positive_beta_distortion():
    rng = np.random.default_rng(26)
    X = _distinct_matrix(rng, 21, 4)
    model = DistortionModel(np.array([0.3, 1.5, 2.0, 0.01]), 4.0, 0.2, X.column_names)
    TX = transform(X, model)
    report = privacy_report(X.values, TX.values, 0.0)
    assert report["rp"] == 0.0
    assert report["rk"] == 1.0


def test_report_mixed_signs_matches_analytic_reversal():
    rng = np.random.default_rng(27)
    n, m = 21, 4
    X = _distinct_matrix(rng, n, m)
    beta = np.array([1.0, -1.0, 2.0, -0.5])
    TX = transform(X, DistortionModel(beta, 0.0, 0.0, X.column_names))
    # negated distinct columns reverse ranks exactly; odd n keeps the middle
    n_neg = int((beta < 0).sum())
    n_pos = m - n_neg
    fixed = n_pos * n + n_neg * (n % 2)
    expected_rk = fixed / (n * m)
    reversal_sum = float(np.abs(np.arange(1, n + 1) - np.arange(n, 0, -1)).sum())
    expected_rp = n_neg * reversal_sum / (n * m)
    report = privacy_report(X.values, TX.values, 0.0)
    assert report["rk"] == expected_rk
    assert report["rp"] == expected_rp


def test_all_metrics_invariant_under_joint_row_permutation():
    rng = np.random.default_rng(28)
    X = np.column_stack([rng.permutation(60) for _ in range(4)]).astype(float)
    TX = np.column_stack([rng.permutation(60) for _ in range(4)]).astype(float)
    before = privacy_report(X, TX, 0.0)
    perm = rng.permutation(60)
    after = privacy_report(X[perm], TX[perm], 0.0)
    assert after["vd"] == pytest.approx(before["vd"], abs=1e-12)
    assert after["rp"] == before["rp"]
    assert after["rk"] == before["rk"]
    assert after["cp"] == before["cp"]
    assert after["ck"] == before["ck"]


def test_full_retention_implies_zero_displacement():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(30, 3))
    TX = X * 3.0 + 2.0  # positive affine map keeps every rank
    report = privacy_report(X, TX, 0.0)
    assert report["rk"] == 1.0 and report["rp"] == 0.0
    assert report["ck"] == 1.0 and report["cp"] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("huge", ["original", "distorted"])
def test_privacy_report_rejects_a_column_too_large_to_square(huge):
    # VD's Frobenius norm overflowed to inf, with only a RuntimeWarning
    values = np.random.default_rng(12).normal(size=(40, 3))
    matrices = {"original": values, "distorted": values * 2.0 + 1.0}
    matrices[huge] = matrices[huge] * [1.0, 1e154, 1.0]
    X, TX = (FeatureMatrix(m, ("a", "b", "c")) for m in matrices.values())
    message = r"column 'b' holds magnitudes up to \d\.\d{3}e\+154, above the 1e\+100 "
    with pytest.raises(DataValidationError, match=message):
        privacy_report(X, TX, 0.0)
    with pytest.raises(DataValidationError, match=message.replace("'b'", "'1'")):
        privacy_report(X.values, TX.values, 0.0)
