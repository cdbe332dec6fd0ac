"""Privacy measures comparing an original matrix with its distorted version.

Five measures quantify distortion strength: VD (relative Frobenius-norm
difference), RP/RK (per-element rank displacement and rank retention within
columns), and CP/CK (rank displacement and retention of column means across
features). Ranks are ordinal with ties broken by row index, which makes every
measure deterministic.
"""

from __future__ import annotations

import numpy as np

from .dataset import check_magnitude
from .errors import DataValidationError


def _as_2d(M) -> np.ndarray:
    arr = np.asarray(getattr(M, "values", M), dtype=float)
    if arr.ndim != 2:
        raise DataValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def _pair(X, TX) -> tuple[np.ndarray, np.ndarray]:
    """X and TX as 2-D float arrays of the same shape."""
    x, tx = _as_2d(X), _as_2d(TX)
    if x.shape != tx.shape:
        raise DataValidationError(f"shape mismatch: {x.shape} vs {tx.shape}")
    return x, tx


def value_difference(X, TX) -> float:
    """Frobenius norm of (X - TX) divided by the Frobenius norm of X."""
    x, tx = _pair(X, TX)
    with np.errstate(over="ignore", invalid="ignore"):
        (denom, e_denom), (numer, e_numer) = _norm(x), _norm(x - tx)
        vd = np.ldexp(numer / denom, e_numer - e_denom) if denom else 0.0
    if not np.isfinite([denom, numer, vd]).all():
        raise DataValidationError("value difference undefined: a norm or the ratio is not finite")
    if denom == 0.0:
        raise DataValidationError("value difference undefined for an all-zero matrix")
    return float(vd)


def _norm(a: np.ndarray) -> tuple[float, int]:
    """Frobenius norm of a as (s, e), norm = s * 2**e; where the sum of squares is
    not a normal float (s < 2**-511 or not finite), a is first scaled exactly by
    the power of two of its largest magnitude, if that is finite and nonzero."""
    s = np.linalg.norm(a)
    largest = np.abs(a).max(initial=0.0) if not 2.0**-511 <= s < np.inf else 0.0
    e = int(np.frexp(largest)[1]) if 0.0 < largest < np.inf else 0
    return (np.linalg.norm(np.ldexp(a, -e)), e) if e else (s, 0)


def rank_elements(M) -> np.ndarray:
    """Ordinal rank (1..n) of every element within its column; rank r means
    the value is the r-th smallest, ties resolved by lower row index first."""
    arr = _as_2d(M)
    if not np.all(np.isfinite(arr)):
        raise DataValidationError("ranks require finite entries")
    n = arr.shape[0]
    order = np.argsort(arr, axis=0, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(1, n + 1)[:, np.newaxis]
    np.put_along_axis(ranks, order, np.broadcast_to(rows, arr.shape), axis=0)
    return ranks


def _rank_means(arr: np.ndarray) -> np.ndarray:
    means = arr.mean(axis=0)
    order = np.argsort(means, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(1, means.size + 1)
    return ranks


def feature_rank_change(X, TX) -> tuple[float, float]:
    """Rank displacement (CP) and rank retention (CK) of column means."""
    x, tx = _pair(X, TX)
    if x.shape[1] < 2:
        raise DataValidationError("feature rank change needs at least 2 columns")
    rx = _rank_means(x)
    rtx = _rank_means(tx)
    cp = float(np.abs(rx - rtx).mean())
    ck = float((rx == rtx).mean())
    return cp, ck


def privacy_report(X, TX, elapsed: float) -> dict:
    """The five measures, timing, dimensions and rp_sum (the unnormalized
    total rank displacement); each matrix must pass check_magnitude."""
    x, tx = _pair(X, TX)
    check_magnitude(X)
    check_magnitude(TX)
    rank_diff = np.abs(rank_elements(x) - rank_elements(tx))
    cp, ck = feature_rank_change(x, tx)
    return {
        "vd": value_difference(x, tx),
        "rp": float(rank_diff.mean()),
        "rk": float((rank_diff == 0).mean()),
        "cp": cp,
        "ck": ck,
        "distortion_time_s": float(elapsed),
        "n": x.shape[0],
        "m": x.shape[1],
        "rp_sum": float(rank_diff.sum()),
    }
