"""k-nearest neighbors with Euclidean distance and majority vote.

Distance ties resolve toward the lower training-row index; vote ties resolve
toward label 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# queries scored per block; a block holds _CHUNK x n_train float64 scores,
# 126 MB at the 122,739-row full-scale train split, so this bounds memory,
# not cache residency
_CHUNK = 128


@dataclass(frozen=True)
class KnnState:
    """k, the training labels, and the two training terms of every score:
    -2 x^T and x.x, made once at fit and read-only."""

    k: int
    train_neg2t: np.ndarray
    train_sq: np.ndarray
    train_y: np.ndarray

    def predict(self, queries: np.ndarray) -> np.ndarray:
        k = self.k
        out = np.empty(queries.shape[0], dtype=np.int64)
        for lo in range(0, queries.shape[0], _CHUNK):
            scores = queries[lo : lo + _CHUNK] @ self.train_neg2t
            scores += self.train_sq[np.newaxis, :]
            rows = np.arange(scores.shape[0])
            votes = np.zeros(scores.shape[0], dtype=np.int64)
            # argmin returns the first minimum, which is exactly the
            # lower-row-index rule for equal distances
            for _ in range(k):
                nearest = np.argmin(scores, axis=1)
                votes += self.train_y[nearest]
                scores[rows, nearest] = np.inf
            out[lo : lo + _CHUNK] = (2 * votes > k).astype(np.int64)
        return out


def train(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> KnnState:
    """The state for X and y: y is kept as given, read-only in the fit's
    LabelVector, and X only through the two terms. Per-row ranking of
    ||q - x||^2 only needs x.x - 2 q.x: the q.q term is constant within a
    row and cannot change order or tie structure."""
    train_neg2t = -2.0 * X.T
    train_sq = np.einsum("ij,ij->i", X, X)
    train_neg2t.setflags(write=False)
    train_sq.setflags(write=False)
    return KnnState(min(hp["k"], X.shape[0]), train_neg2t, train_sq, y)
