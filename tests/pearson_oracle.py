"""Pearson correlation of two vectors, one pair at a time: the oracle that
privids.feature_selection.correlation_matrix is checked against."""

import numpy as np

from privids.errors import DataValidationError, PipelineError


class UndefinedCorrelationError(PipelineError):
    """Pearson correlation requested for a constant (zero variance) vector."""

    exit_code = 3


def _centered(v: np.ndarray) -> np.ndarray:
    return v - v.mean()


def pearson(f1, f2) -> float:
    """Pearson correlation coefficient of two equal-length vectors.

    Raises UndefinedCorrelationError when either vector is constant, which is
    distinct from any numeric return value.
    """
    x = np.asarray(f1, dtype=float)
    y = np.asarray(f2, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise DataValidationError(f"expected equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DataValidationError("correlation needs at least 2 observations")
    xc = _centered(x)
    yc = _centered(y)
    sx = np.sqrt(xc @ xc)
    sy = np.sqrt(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant vector")
    return float((xc @ yc) / (sx * sy))
