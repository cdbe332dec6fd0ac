"""The per-node tree builder that decision_tree and random_forest used before
trees were grown in lockstep, kept unchanged as the oracle for the batched
split search: _best_split and build_tree as they were, and the forest loop
(the old random_forest.train) as train_forest. Trees are kept in the records
they had before every tree of a fit shared one node table: one TreeState per
tree, with a stored right child, and a ForestState of trees, whose predict
methods are the reference traversal and vote."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeState:
    feature: np.ndarray    # split feature per node, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    label: np.ndarray      # majority label per node

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = np.flatnonzero(self.feature[node] >= 0)
            if internal.size == 0:
                break
            current = node[internal]
            go_left = X[internal, self.feature[current]] <= self.threshold[current]
            node[internal] = np.where(go_left, self.left[current], self.right[current])
        return self.label[node].astype(np.int64)


@dataclass(frozen=True)
class ForestState:
    trees: tuple[TreeState, ...]

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes += tree.predict(X)
        return (2 * votes > len(self.trees)).astype(np.int64)


def _best_split(values: np.ndarray, labels: np.ndarray):
    """Lowest weighted child Gini over all candidate (feature, midpoint)
    splits. values is (k, f); returns (local feature index, threshold) or
    None when no two adjacent sorted values differ."""
    k = labels.size
    if k < 2:
        return None
    order = np.argsort(values, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(values, order, axis=0)
    pos_prefix = np.cumsum(labels[order], axis=0)
    total_pos = pos_prefix[-1].astype(float)

    left_n = np.arange(1, k, dtype=float)[:, np.newaxis]
    right_n = float(k) - left_n
    left_pos = pos_prefix[:-1].astype(float)
    right_pos = total_pos[np.newaxis, :] - left_pos
    p_left = left_pos / left_n
    p_right = right_pos / right_n
    weighted = (
        left_n * (2.0 * p_left * (1.0 - p_left))
        + right_n * (2.0 * p_right * (1.0 - p_right))
    ) / k
    weighted = np.where(sorted_vals[:-1] < sorted_vals[1:], weighted, np.inf)

    flat = int(np.argmin(weighted))
    i, j = np.unravel_index(flat, weighted.shape)
    if not np.isfinite(weighted[i, j]):
        return None
    return int(j), float((sorted_vals[i, j] + sorted_vals[i + 1, j]) / 2.0)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_split: int,
    feature_sampler=None,
) -> TreeState:
    """Grow a tree depth-first. feature_sampler, when given, returns the
    sorted candidate feature indices for one split attempt (used by the
    forest for per-split subsampling); None means all features."""
    all_features = np.arange(X.shape[1])
    feature, threshold, left, right, label = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        label.append(0)
        return len(feature) - 1

    stack = [(new_node(), np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        labels_here = y[idx]
        positives = int(labels_here.sum())
        label[node] = 1 if 2 * positives > idx.size else 0
        pure = positives == 0 or positives == idx.size
        if depth >= max_depth or idx.size < min_samples_split or pure:
            continue
        candidates = feature_sampler() if feature_sampler is not None else all_features
        split = _best_split(X[np.ix_(idx, candidates)], labels_here)
        if split is None:
            continue
        local_j, thr = split
        feature[node] = int(candidates[local_j])
        threshold[node] = thr
        go_left = X[idx, feature[node]] <= thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))

    return TreeState(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        label=np.array(label, dtype=np.int64),
    )


def train_forest(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> ForestState:
    n, m = X.shape
    n_candidates = min(math.ceil(math.sqrt(m)), m)
    trees = []
    for child_seed in np.random.SeedSequence(seed).spawn(hp["n_trees"]):
        rng = np.random.default_rng(child_seed)
        bootstrap = rng.integers(0, n, size=n)

        def sampler():
            return np.sort(rng.choice(m, size=n_candidates, replace=False))

        trees.append(
            build_tree(
                X[bootstrap],
                y[bootstrap],
                hp["max_depth"],
                hp["min_samples_split"],
                feature_sampler=sampler,
            )
        )
    return ForestState(trees=tuple(trees))
