"""Least-squares data distortion.

Fits the linear model y = b0 + b1*x1 + ... + bm*xm by a numerically stable
least-squares solve, then rewrites every matrix entry as
TX[i][j] = beta[j] * X[i][j] + (intercept + residual), where the residual is
the mean squared error of the fit. Each column is scaled by its own
coefficient and every element is shifted by the same scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix, LabelVector
from .errors import DataValidationError, SingularMatrixError


@dataclass(frozen=True)
class DistortionModel:
    """Solution vector, intercept, and mean-squared residual of the fit."""

    beta: np.ndarray
    intercept: float
    residual: float
    fitted_on: tuple[str, ...]

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (len(self.fitted_on),):
            raise DataValidationError(
                f"beta has shape {beta.shape} for {len(self.fitted_on)} columns"
            )
        if self.residual < 0:
            raise DataValidationError(f"residual must be >= 0, got {self.residual}")
        beta = beta.copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "fitted_on", tuple(self.fitted_on))

    @property
    def shift(self) -> float:
        """The scalar (intercept + residual) added to every element."""
        return self.intercept + self.residual


def _as_target(y) -> np.ndarray:
    values = y.values if isinstance(y, LabelVector) else y
    return np.asarray(values, dtype=float)


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
    # unscaled afterwards. Each column is first scaled by the power of two
    # that brings its largest magnitude into [0.5, 1), which is exact, so the
    # sum of its squares can neither overflow nor underflow to 0.
    largest = np.maximum(design.max(axis=0), -design.min(axis=0))
    exponents = np.frexp(largest)[1]
    np.ldexp(design, -exponents, out=design)
    norms = np.sqrt(np.einsum("ij,ij->j", design, design))
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
        solution = np.ldexp(scaled_solution / norms, -exponents)
    if not np.all(np.isfinite(solution)):
        j = int(np.argmin(np.isfinite(solution)))
        raise DataValidationError(
            f"column '{X.column_names[j - 1]}' holds magnitudes up to {largest[j]:.3e}, "
            "too small for its coefficient to be finite"
        )
    predicted = np.column_stack([np.ones(X.n), X.values]) @ solution
    residual = float(np.mean((target - predicted) ** 2))
    return DistortionModel(
        beta=solution[1:],
        intercept=float(solution[0]),
        residual=residual,
        fitted_on=tuple(X.column_names),
    )


def transform(X: FeatureMatrix, model: DistortionModel) -> FeatureMatrix:
    """Apply the per-column affine rewrite to every element of X."""
    if tuple(X.column_names) != model.fitted_on:
        raise DataValidationError(
            f"matrix columns {X.column_names} do not match fitted columns {model.fitted_on}"
        )
    # added to in place and made read-only, so no second matrix is made
    distorted = X.values * model.beta[np.newaxis, :]
    distorted += model.shift
    distorted.setflags(write=False)
    return FeatureMatrix(distorted, X.column_names)


def distort(X: FeatureMatrix, y) -> tuple[FeatureMatrix, DistortionModel]:
    """Fit and transform in one step."""
    model = fit_lsm(X, y)
    return transform(X, model), model
