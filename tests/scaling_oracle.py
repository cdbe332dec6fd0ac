"""The correlation matrix and least-squares fit as they were before each
column was scaled by a power of two: every column took its plain norm, and a
second path rescaled only columns whose squares underflowed (correlation) or
whose norm came out 0 or inf (least squares). The bodies are kept unchanged,
so tests can require the current kernels to give the same bits wherever these
gave a result."""

import numpy as np
from hypothesis import strategies as st

from privids.dataset import FeatureMatrix
from privids.distortion import DistortionModel, _as_target
from privids.errors import DataValidationError, SingularMatrixError
from privids.feature_selection import CorrelationMatrix


def correlation_matrix(X: FeatureMatrix) -> CorrelationMatrix:
    """Pairwise Pearson matrix of the columns of X.

    Entry (i, j) is the Pearson coefficient of columns i and j; the upper
    triangle is mirrored so the result is exactly symmetric. Pairs involving
    a constant column are NaN off the diagonal.
    """
    if X.n < 2:
        raise DataValidationError("correlation matrix needs at least 2 rows")
    m = X.m
    centered = X.values - X.values.mean(axis=0, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    # A column whose centred values are all below sqrt(tiny) has subnormal
    # squares, so its norm and products lose digits or are 0 although it is
    # not constant; it is scaled by its largest magnitude, which the
    # coefficient does not see. Every other column keeps its plain norm.
    largest = np.maximum(centered.max(axis=0), -centered.min(axis=0))
    for j in np.flatnonzero(largest < np.sqrt(np.finfo(float).tiny)):
        if np.any(X.values[:, j] != X.values[0, j]):
            centered[:, j] /= np.abs(centered[:, j]).max()
            norms[j] = np.sqrt(centered[:, j] @ centered[:, j])
    out = np.full((m, m), np.nan)
    np.fill_diagonal(out, 1.0)
    for i in range(m):
        if norms[i] == 0.0:
            continue
        for j in range(i + 1, m):
            if norms[j] == 0.0:
                continue
            r = float((centered[:, i] @ centered[:, j]) / (norms[i] * norms[j]))
            out[i, j] = r
            out[j, i] = r
    constant = tuple(name for k, name in enumerate(X.column_names) if norms[k] == 0.0)
    return CorrelationMatrix(out, tuple(X.column_names), constant)


def fit_lsm(X: FeatureMatrix, y) -> DistortionModel:
    """Least-squares fit of the target against X with an intercept column.

    Uses an SVD-based solve rather than explicit normal equations. A
    rank-deficient design matrix raises SingularMatrixError with the computed
    rank and smallest singular value; no minimum-norm fallback is applied.
    """
    target = _as_target(y)
    if target.ndim != 1 or target.size != X.n:
        raise DataValidationError(
            f"target has shape {target.shape}, expected ({X.n},)"
        )
    design = np.column_stack([np.ones(X.n), X.values])
    # Equilibrate columns to unit norm so the rank test measures genuine
    # collinearity rather than disparate feature scales; coefficients are
    # unscaled afterwards.
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
    # Where the squares overflowed or underflowed, take the norm again scaled
    # by the column's largest magnitude; every other column keeps its norm.
    for j in np.flatnonzero((norms == 0.0) | np.isinf(norms)):
        largest = np.abs(design[:, j]).max()
        with np.errstate(over="ignore"):
            norms[j] = largest * np.linalg.norm(design[:, j] / largest) if largest else 0.0
    if np.any(np.isinf(norms)):
        j = int(np.argmax(np.isinf(norms))) - 1
        raise DataValidationError(_out_of_range(X, j, "too large for a least-squares fit"))
    if np.any(norms == 0.0):
        dead = X.column_names[int(np.argmax(norms[1:] == 0.0))]
        raise SingularMatrixError(f"column '{dead}' is identically zero")
    # scaled in place, so lstsq's own copy is the only other one while it runs
    design /= norms
    scaled_solution, _, rank, singular_values = np.linalg.lstsq(design, target, rcond=None)
    del design
    needed = X.m + 1
    if rank < needed:
        smallest = float(singular_values[-1]) if singular_values.size else 0.0
        raise SingularMatrixError(
            f"design matrix of shape {(X.n, needed)} has rank {rank} < {needed} "
            f"(smallest equilibrated singular value {smallest:.3e}); "
            "remove collinear or constant columns before fitting"
        )
    with np.errstate(over="ignore"):
        solution = scaled_solution / norms
    if not np.all(np.isfinite(solution)):
        j = int(np.argmin(np.isfinite(solution))) - 1
        raise DataValidationError(_out_of_range(X, j, "too small for its coefficient to be finite"))
    predicted = np.column_stack([np.ones(X.n), X.values]) @ solution
    residual = float(np.mean((target - predicted) ** 2))
    return DistortionModel(
        beta=solution[1:],
        intercept=float(solution[0]),
        residual=residual,
        fitted_on=tuple(X.column_names),
    )


def _out_of_range(X: FeatureMatrix, j: int, problem: str) -> str:
    largest = np.abs(X.values[:, j]).max()
    return f"column '{X.column_names[j]}' holds magnitudes up to {largest:.3e}, {problem}"


_MAGNITUDES = st.floats(min_value=1e-100, max_value=1e100)
ENTRIES = st.one_of(
    st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda v: -v), st.integers(-20, 20).map(float)
)

# drawn this often so that most designs have full rank and most fits succeed
_KINDS = ["mixed", "mixed", "decade", "decade", "integer", "two", "copy", "constant"]


def _varies(column):
    return len(set(column)) > 1


@st.composite
def magnitude_matrices(draw, max_rows=24, max_columns=5):
    """Matrices whose entries are 0 or of magnitude in [1e-100, 1e100]: columns
    of mixed magnitudes, of one decade, of small integers, of two repeated
    values, copies of an earlier column, and exactly constant columns.

    Only a column of k * 2**p or of one small integer is constant: its mean is
    exact. The old correlation matrix missed a constant column whose mean is
    inexact, so on such a column it is no reference."""
    n = draw(st.integers(2, max_rows))
    columns = []
    for _ in range(draw(st.integers(1, max_columns))):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "mixed":
            column = draw(st.lists(ENTRIES, min_size=n, max_size=n).filter(_varies))
        elif kind == "decade":
            scale = 10.0 ** draw(st.integers(-100, 99))
            mantissas = st.floats(1.0, 9.99).map(lambda v: v * scale)
            signed = st.one_of(mantissas, mantissas.map(lambda v: -v))
            column = draw(st.lists(signed, min_size=n, max_size=n).filter(_varies))
        elif kind == "integer":
            column = draw(st.lists(st.integers(-5, 5).map(float), min_size=n, max_size=n))
        elif kind == "two":
            pair = draw(st.lists(ENTRIES, min_size=2, max_size=2, unique=True))
            column = draw(st.lists(st.sampled_from(pair), min_size=n, max_size=n).filter(_varies))
        elif kind == "copy" and columns:
            column = draw(st.sampled_from(columns))
        else:
            value = draw(st.integers(-1000, 1000)) * 2.0 ** draw(st.integers(-320, 320))
            column = [value] * n
        columns.append(list(column))
    return np.array(columns, dtype=float).T
