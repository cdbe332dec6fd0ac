import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaling_oracle
from privids.dataset import FeatureMatrix, LabelVector
from privids.distortion import DistortionModel, distort, fit_lsm, transform
from privids.errors import DataValidationError, PipelineError, SingularMatrixError


def _matrix(arr, names=None):
    arr = np.asarray(arr, dtype=float)
    names = names or tuple(f"f{i}" for i in range(arr.shape[1]))
    return FeatureMatrix(arr, tuple(names))


def normal_equations_oracle(X, y):
    """Explicit inverse of the normal equations; test oracle only."""
    design = np.column_stack([np.ones(len(y)), X])
    solution = np.linalg.inv(design.T @ design) @ design.T @ np.asarray(y, dtype=float)
    residual = float(np.mean((np.asarray(y, dtype=float) - design @ solution) ** 2))
    return solution[0], solution[1:], residual


def test_fit_exact_linear_relation():
    model = fit_lsm(_matrix([[1], [2], [3]]), np.array([2.0, 4.0, 6.0]))
    assert model.beta[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    assert model.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_two_unknown_derived_case():
    # solved by hand through the normal equations: slope 1/2, intercept 2/3,
    # mean squared residual 1/18
    model = fit_lsm(_matrix([[1], [2], [3]]), np.array([1.0, 2.0, 2.0]))
    assert model.beta[0] == pytest.approx(0.5, abs=1e-9)
    assert model.intercept == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert model.residual == pytest.approx(1.0 / 18.0, abs=1e-9)
    c0, beta, resid = normal_equations_oracle([[1], [2], [3]], [1, 2, 2])
    assert model.intercept == pytest.approx(c0, abs=1e-9)
    assert model.beta[0] == pytest.approx(beta[0], abs=1e-9)
    assert model.residual == pytest.approx(resid, abs=1e-9)


def test_fit_duplicated_column_is_singular():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    X = _matrix(np.column_stack([col, col]), ("a", "b"))
    with pytest.raises(SingularMatrixError, match="rank"):
        fit_lsm(X, np.array([1.0, 2.0, 3.0, 4.0]))


def test_fit_zero_column_is_singular():
    X = _matrix(np.column_stack([np.arange(4.0), np.zeros(4)]), ("a", "dead"))
    with pytest.raises(SingularMatrixError, match="dead"):
        fit_lsm(X, np.arange(4.0))


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e308, 1e-160, 1e-307])
def test_fit_on_a_column_whose_squares_overflow_or_underflow(scale):
    # the plain column norm is inf or 0 here; scaled by a power of two, the
    # column gives the fit of the unscaled one, with its coefficient divided
    # by scale
    rng = np.random.default_rng(3)
    values = rng.uniform(0.2, 1.7, size=(30, 3))
    y = rng.normal(size=30)
    plain = fit_lsm(_matrix(values), y)
    scaled = fit_lsm(_matrix(values * [1.0, scale, 1.0]), y)
    assert np.allclose(scaled.beta * [1.0, scale, 1.0], plain.beta, rtol=1e-9)
    assert scaled.intercept == pytest.approx(plain.intercept, rel=1e-9)
    assert scaled.residual == pytest.approx(plain.residual, rel=1e-9)


def test_fit_names_a_column_out_of_range():
    wide = np.random.default_rng(4).uniform(0.5, 1.7, size=40) * 1e-320
    values = np.column_stack([np.arange(1.0, 41.0), wide])
    with pytest.raises(DataValidationError, match="column 'wide' holds magnitudes up to .*too small"):
        fit_lsm(_matrix(values, ("a", "wide")), np.sin(np.arange(40.0)))


def _fit_outcome(fit, X, y):
    try:
        model = fit(X, y)
    except PipelineError as exc:
        return type(exc), str(exc)
    return model.beta.tobytes(), np.array([model.intercept, model.residual]).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=scaling_oracle.magnitude_matrices(), data=st.data())
def test_fit_gives_the_bits_of_the_unscaled_fit(values, data):
    # scaling a column by a power of two is exact, so on every magnitude the
    # unscaled fit handled, the coefficients, intercept and residual (or the
    # error raised) are bit for bit the same
    n = values.shape[0]
    y = np.array(data.draw(st.lists(scaling_oracle.ENTRIES, min_size=n, max_size=n)))
    X = _matrix(values)
    assert _fit_outcome(fit_lsm, X, y) == _fit_outcome(scaling_oracle.fit_lsm, X, y)


def test_fit_constant_column_collides_with_intercept():
    X = _matrix(np.column_stack([np.arange(5.0), np.full(5, 3.0)]), ("a", "const"))
    with pytest.raises(SingularMatrixError):
        fit_lsm(X, np.arange(5.0))


def test_fit_shape_mismatch():
    with pytest.raises(DataValidationError):
        fit_lsm(_matrix([[1], [2]]), np.array([1.0, 2.0, 3.0]))


def test_fit_accepts_label_vector():
    model = fit_lsm(_matrix([[0.0], [1.0], [2.0], [3.0]]), LabelVector(np.array([0, 0, 1, 1])))
    assert model.residual >= 0


def test_transform_identity_model():
    X = _matrix([[1.0, 2.0], [3.0, 4.0]])
    model = DistortionModel(np.ones(2), 0.0, 0.0, X.column_names)
    assert np.array_equal(transform(X, model).values, X.values)


def test_transform_hand_case():
    X = _matrix([[2.0, 3.0]], ("a", "b"))
    model = DistortionModel(np.array([0.5, -1.0]), 1.0, 0.25, ("a", "b"))
    out = transform(X, model)
    assert out.values[0, 0] == pytest.approx(2.25)
    assert out.values[0, 1] == pytest.approx(-1.75)


def test_transform_column_mismatch():
    X = _matrix([[1.0, 2.0]], ("a", "b"))
    model = DistortionModel(np.ones(2), 0.0, 0.0, ("b", "a"))
    with pytest.raises(DataValidationError, match="match"):
        transform(X, model)


def test_distort_exact_fit_composition():
    X = _matrix([[1.0], [2.0], [3.0]])
    distorted, model = distort(X, np.array([2.0, 4.0, 6.0]))
    assert np.allclose(distorted.values, 2.0 * X.values, atol=1e-9)
    assert model.shift == pytest.approx(0.0, abs=1e-9)


def test_distort_matches_explicit_oracle():
    rng = np.random.default_rng(10)
    X = _matrix(rng.normal(size=(100, 5)) + rng.uniform(-2, 2, size=5))
    y = rng.normal(size=100)
    distorted, model = distort(X, y)
    c0, beta, resid = normal_equations_oracle(X.values, y)
    expected = X.values * beta[np.newaxis, :] + (c0 + resid)
    assert np.allclose(distorted.values, expected, rtol=1e-8, atol=1e-10)
    assert np.allclose(model.beta, beta, rtol=1e-8)


def test_column_order_follows_beta_sign():
    rng = np.random.default_rng(11)
    X = _matrix(rng.normal(size=(50, 3)))
    model = DistortionModel(np.array([2.0, -0.5, 0.0]), 1.0, 0.1, X.column_names)
    out = transform(X, model).values
    assert np.array_equal(np.argsort(out[:, 0]), np.argsort(X.values[:, 0]))
    assert np.array_equal(np.argsort(out[:, 1]), np.argsort(X.values[:, 1])[::-1])
    assert np.all(out[:, 2] == out[0, 2])


def test_residual_invariant_to_row_permutation():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    base = fit_lsm(_matrix(X), y).residual
    perm = rng.permutation(60)
    shuffled = fit_lsm(_matrix(X[perm]), y[perm]).residual
    assert shuffled == pytest.approx(base, rel=1e-9)


def test_fit_is_optimal_against_perturbations():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(80, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.normal(size=80)
    model = fit_lsm(_matrix(X), y)
    design = np.column_stack([np.ones(80), X])
    best = np.concatenate([[model.intercept], model.beta])
    for _ in range(100):
        candidate = best + rng.normal(scale=0.05, size=4)
        cand_resid = np.mean((y - design @ candidate) ** 2)
        assert model.residual <= cand_resid + 1e-12


def test_distortion_round_trip_recovers_input():
    rng = np.random.default_rng(14)
    X = _matrix(rng.uniform(1.0, 100.0, size=(40, 4)))
    y = rng.normal(size=40)
    distorted, model = distort(X, y)
    recovered = (distorted.values - model.shift) / model.beta[np.newaxis, :]
    assert np.allclose(recovered, X.values, rtol=1e-9)


def test_transform_holds_one_matrix_sized_array():
    rng = np.random.default_rng(5)
    X = _matrix(rng.normal(size=(3000, 43)))
    model = DistortionModel(
        beta=rng.normal(size=43), intercept=0.3, residual=0.2, fitted_on=X.column_names
    )
    tracemalloc.start()
    try:
        distorted = transform(X, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.values.nbytes
    want = X.values * model.beta[np.newaxis, :] + model.shift
    assert np.array_equal(distorted.values.view(np.uint64), want.view(np.uint64))
