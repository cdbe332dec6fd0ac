"""Binary CART decision tree with Gini impurity, grown by a lockstep builder.

The split search is exhaustive: every midpoint between adjacent distinct
sorted values of every candidate feature is scored. Growth stops at
max_depth, at a pure node, or when a node has fewer than min_samples_split
rows; leaves predict the majority label, ties resolving toward 0.

TreeBuilder grows the single tree of train() and all the forest's trees in
lockstep, into one node table per fit (TreeState), where a right child is its
left sibling + 1. Each tree keeps its own depth-first stack and candidate
sampler, so its nodes and draws come in the order of growing it alone. Each
round pops the next node to split from every tree and scores the popped nodes
a block of under _BLOCK_CELLS (rows x candidates) cells at a time: each
(node, candidate) column is sorted by the dense rank of its values, and the
weighted child Gini is computed only at value boundaries. The result equals a
per-node search over every sorted position:

- the counts left of a value boundary do not depend on how tied rows are
  ordered, and positions inside a run of equal values are never split points;
- the Gini is the same float expression on the same integer counts;
- each node takes the first minimum in (left-child size, candidate) order,
  the order of a flattened argmin over a (sorted position x candidate) table.

A fit runs in the calling process, so train_time_s is the time of a
single-process fit. Predicting walks every (tree, row) pair down the table at
once and takes the trees' majority vote, ties going to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np


@dataclass(frozen=True)
class TreeState:
    """Every tree of one fit in one node table: tree t starts at node
    roots[t], and node i's right child is left[i] + 1."""

    feature: np.ndarray    # split feature per node, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray
    label: np.ndarray      # majority label per node
    roots: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The trees' majority vote, ties to 0, walked in blocks of at most
        _BLOCK_CELLS (tree, row) pairs, or of one row when the trees are more."""
        n_trees = self.roots.size
        block = max(1, _BLOCK_CELLS // n_trees)
        votes = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], block):
            rows = X[start : start + block]
            # pair i is tree i // k at row i % k of this block
            k = rows.shape[0]
            node = self.roots.repeat(k)
            row = np.tile(np.arange(k), n_trees)
            while True:
                internal = np.flatnonzero(self.feature[node] >= 0)
                if internal.size == 0:
                    break
                current = node[internal]
                go_left = rows[row[internal], self.feature[current]] <= self.threshold[current]
                node[internal] = self.left[current] + ~go_left
            votes[start : start + k] = self.label[node].reshape(n_trees, k).sum(axis=0)
        return (2 * votes > n_trees).astype(np.int64)


# Cells (rows x candidates) scored by one batched search, unless one node alone
# has more, and (tree, row) pairs of one predict block; it bounds the builder's
# memory, a few tens of bytes per cell: 2^15 rather than 2^16 lowers desk's
# peak by about 0.6 MB at no cost in fit time. Below _INT32_CELLS cells in X,
# every row index, index into ranked_labels and count within a block fits an
# int32.
_BLOCK_CELLS = 1 << 15
_INT32_CELLS = 1 << 31


class TreeBuilder:
    """Grows trees on one training set, finite features X and 0/1 labels y, from
    dense ranks of X computed once here and shared by every tree it grows."""

    def __init__(self, X: np.ndarray, y: np.ndarray, max_depth: int, min_samples_split: int):
        self.X = X
        self.y = y
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.row_dtype = np.dtype(np.int32 if X.size < _INT32_CELLS else np.int64)
        # Dense ranks by column: equal values share a rank, and rank r of
        # column f stands for values[value_start[f] + r], the r-th smallest
        # distinct value of f. ranked_labels[f * n + i] is 2 * (rank of row
        # i in column f) + y[i], the low part of a sort key.
        order = np.argsort(X, axis=0, kind="stable")
        sorted_vals = np.take_along_axis(X, order, axis=0)
        new = np.ones(X.shape, dtype=bool)
        new[1:] = sorted_vals[1:] != sorted_vals[:-1]
        distinct = new.sum(axis=0)
        self.levels = int(distinct.max())
        ranked = np.empty(X.shape[::-1], dtype=np.min_scalar_type(2 * self.levels))
        np.put_along_axis(ranked, order.T, 2 * np.cumsum(new, 0, dtype=ranked.dtype).T - 2, axis=1)
        ranked += y.astype(ranked.dtype)
        self.ranked_labels = ranked.ravel()
        self.values = sorted_vals.T[new.T]
        self.value_start = np.concatenate(([0], np.cumsum(distinct)[:-1]))

    def grow(self, roots: list[np.ndarray], samplers=None) -> TreeState:
        """Grow one tree per root, in lockstep, into one table. roots[t] holds
        the rows of X that tree t is grown on, repeats allowed (a bootstrap).
        samplers[t], when given, returns the sorted candidate features for
        one split attempt of tree t; None means all features at every split."""
        all_features = np.arange(self.X.shape[1])
        # The node table starts with one leaf per tree, its root; a split
        # appends its two children as leaves, left then right.
        n_trees = len(roots)
        feature, left = [-1] * n_trees, [-1] * n_trees
        threshold, label = [0.0] * n_trees, [0] * n_trees
        # Stack entries are (node id, rows, depth, positive rows). A child
        # can be empty: when two distinct values are adjacent floats, their
        # midpoint can round to the upper one, and every row goes left.
        stacks = [
            [(t, rows, 0, int(self.y[rows].sum()))] for t, rows in enumerate(map(np.asarray, roots))
        ]
        while True:
            # Pop from every tree until it reaches a node to split: leaves draw no
            # candidates and create no nodes, so settling them first keeps each tree's
            # order. Popped nodes go in blocks of under _BLOCK_CELLS cells, or alone if more.
            blocks, cells = [[]], 0
            for t, stack in enumerate(stacks):
                while stack:
                    node, rows, depth, pos = stack.pop()
                    k = rows.size
                    label[node] = 1 if 2 * pos > k else 0
                    if depth >= self.max_depth or k < self.min_samples_split or pos in (0, k):
                        continue
                    candidates = samplers[t]() if samplers is not None else all_features
                    cells += k * candidates.size
                    if blocks[-1] and cells >= _BLOCK_CELLS:
                        blocks, cells = [*blocks, []], k * candidates.size
                    blocks[-1].append((t, node, rows, depth, pos, candidates))
                    break
            if not blocks[0]:
                break
            for block in blocks:
                _, _, rows, _, pos, candidates = zip(*block)
                sizes = np.array([r.size for r in rows])
                picked, features, thresholds = self._best_splits(
                    np.concatenate(rows), sizes, np.array(pos), np.array(candidates)
                )
                if picked.size == 0:
                    continue
                # Partition the picked nodes' rows at once, each child a slice in its parent's order.
                sizes = sizes[picked]
                rows = np.concatenate([rows[b] for b in picked.tolist()])
                go_left = self.X[rows, features.repeat(sizes)] <= thresholds.repeat(sizes)
                ends = np.cumsum(sizes)
                starts = ends - sizes
                left_n = np.add.reduceat(go_left, starts)
                left_pos = np.add.reduceat(self.y[rows] * go_left, starts).tolist()
                lefts, rights, left_end = rows[go_left], rows[~go_left], np.cumsum(left_n)
                cuts = zip(pairwise([0, *left_end.tolist()]), pairwise([0, *(ends - left_end).tolist()]))
                splits = zip(picked.tolist(), features.tolist(), thresholds.tolist(), left_pos, cuts)
                for b, f, thr, lpos, ((l0, l1), (r0, r1)) in splits:
                    t, node, _, depth, pos, _ = block[b]
                    feature[node], threshold[node], left[node] = f, thr, len(feature)
                    for table, leaf in ((feature, -1), (threshold, 0.0), (left, -1), (label, 0)):
                        table += [leaf, leaf]
                    stacks[t].append((left[node] + 1, rights[r0:r1], depth + 1, pos - lpos))
                    stacks[t].append((left[node], lefts[l0:l1], depth + 1, lpos))
        return TreeState(
            np.array(feature, dtype=np.int64), np.array(threshold, dtype=float),
            np.array(left, dtype=np.int64), np.array(label, dtype=np.int64),
            np.arange(n_trees, dtype=np.int64),
        )

    def _best_splits(self, rows, sizes, positives, candidates):
        """Lowest weighted child Gini split of each node. rows holds the nodes'
        rows one node after another, sizes and positives their row and
        positive-label counts, and candidates (nodes x c) their sorted candidate
        features. Returns (node indices, features, thresholds) for the nodes
        that have a split; a node whose candidate columns are all constant has none."""
        n_nodes, c = candidates.shape
        levels = self.levels
        # Column i = node * c + j holds the values of candidate j of a node.
        column_size = sizes.repeat(c)
        column_start = np.add.accumulate(column_size) - column_size
        # One key per (candidate, row) cell: (column, value rank, label), in
        # the smallest unsigned type that holds it. Sorting the keys groups
        # each column with its values ascending; equal keys are
        # interchangeable, so the sort need not be stable.
        dtype = np.min_scalar_type(2 * n_nodes * c * levels)
        column_key = np.arange(n_nodes * c, dtype=dtype).reshape(n_nodes, c).T * (2 * levels)
        cells = column_key.repeat(sizes, axis=1)
        index = (candidates.T * self.X.shape[0]).astype(self.row_dtype).repeat(sizes, axis=1)
        index += rows
        cells += self.ranked_labels[index]
        del index
        cells = cells.ravel()
        cells.sort()
        # positive labels among cells[:i], in integers; floats only at boundaries
        positives_before = np.zeros(cells.size + 1, dtype=self.row_dtype)
        np.bitwise_and(cells, 1, out=positives_before[1:])
        np.cumsum(positives_before, dtype=self.row_dtype, out=positives_before)
        cells >>= 1

        # A value boundary lies between two adjacent sorted cells of one
        # column whose values differ. Boundaries come sorted by column, and
        # column i holds per_column[i] of them.
        changed = cells[1:] != cells[:-1]
        changed[column_start[1:] - 1] = False
        bound = changed.nonzero()[0]
        del changed
        bound += 1
        if bound.size == 0:
            return bound, bound, np.empty(0)
        column_first = np.searchsorted(bound, column_start)
        per_column = np.append(column_first[1:], bound.size) - column_first
        per_node = per_column.reshape(n_nodes, c).sum(axis=1)
        start = column_start.repeat(per_column)
        left_count = bound - start
        left_pos = positives_before[bound] - positives_before[start]
        del positives_before, start
        # (left term + right term) / node size, each term from _child_gini
        weighted = _child_gini(left_pos, left_count)
        weighted += _child_gini(
            positives.repeat(per_node) - left_pos, column_size.repeat(per_column) - left_count
        )
        weighted /= column_size.astype(float).repeat(per_column)

        # In each node take the lowest score, and among equal scores the
        # smallest (left count, candidate). tied ascends, so the ties of one
        # node come together.
        lowest = np.minimum.reduceat(weighted, column_first[::c][per_node > 0])
        tied = (weighted == lowest.repeat(per_node[per_node > 0])).nonzero()[0]
        column = np.searchsorted(column_first, tied, side="right") - 1
        node = column // c
        tie = left_count[tied] * (n_nodes * c) + column
        n_ties = np.bincount(node, minlength=n_nodes)[per_node > 0]
        chosen = tie == np.minimum.reduceat(tie, np.cumsum(n_ties) - n_ties).repeat(n_ties)

        at, column, node = bound[tied[chosen]], column[chosen], node[chosen]
        features = candidates.ravel()[column]
        start = self.value_start[features] - column * levels
        lower = self.values[start + cells[at - 1]]
        upper = self.values[start + cells[at]]
        return node, features, (lower + upper) / 2.0


def _child_gini(positives, rows):
    """rows * (2.0 * p * (1.0 - p)), p = positives / rows, op by op in place, the
    integer counts cast exactly to float (IEEE products commute, so the bits
    are the expression's)."""
    p = np.divide(positives, rows)
    rest = np.subtract(1.0, p)
    p *= 2.0
    p *= rest
    p *= rows
    return p


def train(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> TreeState:
    builder = TreeBuilder(X, y, hp["max_depth"], hp["min_samples_split"])
    return builder.grow([np.arange(X.shape[0], dtype=builder.row_dtype)])
