"""Bagged forest of CART trees with per-split feature subsampling.

Each tree sees a seeded bootstrap of the rows and, at every split attempt,
ceil(sqrt(m)) candidate features drawn without replacement. Tree seeds are
spawned from the forest seed, so results do not depend on fit order.

All trees are grown by one decision_tree.TreeBuilder, in lockstep, into one
TreeState node table, which predicts their majority vote. Each tree draws its
bootstrap and its candidates from its own generator, in its own depth-first
order, so the trees equal trees grown one at a time. The fit runs in the
calling process, so train_time_s is still the time of a single-process fit.
"""

from __future__ import annotations

import math

import numpy as np

from .decision_tree import TreeBuilder, TreeState


def train(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> TreeState:
    n, m = X.shape
    n_candidates = min(math.ceil(math.sqrt(m)), m)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(hp["n_trees"])]
    builder = TreeBuilder(X, y, hp["max_depth"], hp["min_samples_split"])
    # drawn as int64 and cast, so the random stream is the same at any width
    roots = [rng.integers(0, n, size=n).astype(builder.row_dtype) for rng in rngs]
    samplers = [
        lambda rng=rng: np.sort(rng.choice(m, size=n_candidates, replace=False)) for rng in rngs
    ]
    return builder.grow(roots, samplers)
