"""Pearson correlation structure and threshold-based feature dropping.

The correlation of two features is the ratio of their covariance to the
product of their standard deviations. A feature whose absolute correlation
with an already-kept earlier feature exceeds the configured threshold is
dropped; the per-feature mean of absolute correlations ranks the remaining
features by redundancy strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix, check_argument
from .errors import DataValidationError


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric m x m Pearson matrix. NaN marks an undefined pair (a constant
    column); the diagonal is 1 by convention even for constant columns."""

    values: np.ndarray
    column_names: tuple[str, ...]
    constant: tuple[str, ...] = ()

    @property
    def m(self) -> int:
        return self.values.shape[0]


def correlation_matrix(X: FeatureMatrix) -> CorrelationMatrix:
    """Pairwise Pearson matrix of the columns of X.

    Entry (i, j) is the Pearson coefficient of columns i and j; the upper
    triangle is mirrored so the result is exactly symmetric. A column is
    constant when all its values are equal; pairs involving one are NaN off
    the diagonal.
    """
    if X.n < 2:
        raise DataValidationError("correlation matrix needs at least 2 rows")
    m = X.m
    high, low = X.values.max(axis=0), X.values.min(axis=0)
    is_constant = high == low
    # Each column is scaled by a power of two that brings its largest
    # magnitude into [0.5, 1), so its sum cannot overflow, then centred and
    # scaled again to bring its largest centred magnitude there. Both are
    # exact in binary floating point, so wherever the unscaled sums and
    # squares neither overflow nor underflow the coefficient keeps its bits,
    # and elsewhere it is still computed from normal numbers.
    centered = np.ldexp(X.values, -np.frexp(np.maximum(high, -low))[1])
    centered -= centered.mean(axis=0, keepdims=True)
    largest = np.maximum(centered.max(axis=0), -centered.min(axis=0))
    np.ldexp(centered, -np.frexp(largest)[1], out=centered)
    norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
    out = np.full((m, m), np.nan)
    np.fill_diagonal(out, 1.0)
    for i in range(m):
        if is_constant[i]:
            continue
        for j in range(i + 1, m):
            if is_constant[j]:
                continue
            r = float((centered[:, i] @ centered[:, j]) / (norms[i] * norms[j]))
            out[i, j] = r
            out[j, i] = r
    constant = tuple(name for name, flat in zip(X.column_names, is_constant) if flat)
    return CorrelationMatrix(out, tuple(X.column_names), constant)


def rank_features(C: CorrelationMatrix) -> list[tuple[str, float | None]]:
    """Mean absolute correlation of each feature against all other features,
    sorted descending. Ties keep original column order; features with no
    defined pair score None and sort last."""
    m = C.m
    scores: list[tuple[str, float | None]] = []
    for i in range(m):
        row = np.abs(C.values[i])
        mask = np.isfinite(row)
        mask[i] = False
        if mask.any():
            scores.append((C.column_names[i], float(row[mask].mean())))
        else:
            scores.append((C.column_names[i], None))
    order = sorted(
        range(m),
        key=lambda i: (scores[i][1] is None, -(scores[i][1] or 0.0), i),
    )
    return [scores[i] for i in order]


def select_by_threshold(C: CorrelationMatrix, threshold: float) -> dict:
    """Greedy left-to-right threshold dropping in original column order,
    with the mean-|PCC| ranking: the selection report as its JSON holds it.

    A feature is dropped iff its absolute correlation with some already-kept
    earlier feature strictly exceeds the threshold; the first such kept
    feature is recorded as the trigger. Undefined pairs never trigger a drop;
    constant columns are surfaced separately for the operator.
    """
    check_argument(threshold, "threshold", "a number in (0, 1]", lambda v: 0 < v <= 1)
    kept: list[int] = []
    dropped: list[dict] = []
    for j in range(C.m):
        trigger = None
        for k in kept:
            r = C.values[j, k]
            if np.isfinite(r) and abs(r) > threshold:
                trigger = k
                break
        if trigger is None:
            kept.append(j)
        else:
            dropped.append({
                "name": C.column_names[j],
                "against": C.column_names[trigger],
                "coefficient": float(C.values[j, trigger]),
            })
    return {
        "kept": [C.column_names[i] for i in kept],
        "dropped": dropped,
        "threshold": float(threshold),
        "ranking": [{"feature": f, "score": v} for f, v in rank_features(C)],
        "constant_columns": list(C.constant),
    }


def apply_selection(X: FeatureMatrix, report: dict) -> FeatureMatrix:
    """Restrict X to the report's kept columns, preserving original relative order."""
    if not report["kept"]:
        raise DataValidationError("selection kept no features")
    return X.select(report["kept"])
