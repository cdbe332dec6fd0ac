import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth_data
import tree_oracle
from privids.classifiers import decision_tree, fit, predict, random_forest
from privids.config import KINDS, ClassifierSpec
from privids.dataset import FeatureMatrix, LabelVector, load_csv, prepare
from privids.errors import ConfigError, DataValidationError


def _data(arr, labels, names=None):
    arr = np.asarray(arr, dtype=float)
    names = names or tuple(f"f{i}" for i in range(arr.shape[1]))
    return FeatureMatrix(arr, tuple(names)), LabelVector(np.asarray(labels))


def separable_set(n=500, seed=42, margin=1.0):
    """Linearly separable 2-D set with the given margin around w.x + b = 0.

    Classes sit in two blobs on either side of the hyperplane so every
    classifier family, including axis-aligned Gaussian naive Bayes, can
    represent the boundary."""
    rng = np.random.default_rng(seed)
    w = np.array([1.2, -0.8])
    b = 0.3
    unit = w / np.linalg.norm(w)
    labels = rng.integers(0, 2, n)
    points = (2 * labels - 1)[:, np.newaxis] * 3.5 * unit + rng.normal(0, 1.2, size=(n, 2))
    scores = points @ w + b
    # push points inside the margin band outward, away from the boundary
    too_close = np.abs(scores) < margin
    points[too_close] += np.outer(
        np.sign(scores[too_close]) * (margin - np.abs(scores[too_close]) + 0.1),
        w / (w @ w),
    )
    labels = ((points @ w + b) > 0).astype(int)
    return _data(points, labels)


def gaussian_blobs(n=200, seed=1):
    rng = np.random.default_rng(seed)
    half = n // 2
    points = np.vstack(
        [rng.normal(-5.0, 1.0, size=(half, 2)), rng.normal(5.0, 1.0, size=(n - half, 2))]
    )
    labels = np.array([0] * half + [1] * (n - half))
    perm = rng.permutation(n)
    return _data(points[perm], labels[perm])


def _split(X, y, train_n):
    X_train = FeatureMatrix(X.values[:train_n], X.column_names)
    X_test = FeatureMatrix(X.values[train_n:], X.column_names)
    return X_train, LabelVector(y.values[:train_n]), X_test, LabelVector(y.values[train_n:])


def _accuracy(model, X, y):
    return float((predict(model, X).values == y.values).mean())


def test_knn_k1_recalls_training_points():
    X, y = _data([[0, 0], [5, 5], [9, 1], [2, 8]], [0, 1, 1, 0])
    model = fit(ClassifierSpec("knn", {"k": 1}, 0), X, y)
    assert list(predict(model, X).values) == [0, 1, 1, 0]


def test_knn_distance_tie_prefers_lower_row_index():
    X, y = _data([[0.0], [2.0]], [1, 0])
    model = fit(ClassifierSpec("knn", {"k": 1}, 0), X, y)
    # the query sits exactly between rows 0 and 1; row 0 wins the tie
    query = FeatureMatrix(np.array([[1.0]]), X.column_names)
    assert list(predict(model, query).values) == [1]


def test_knn_vote_tie_resolves_to_zero():
    X, y = _data([[0.0], [1.0]], [1, 0])
    model = fit(ClassifierSpec("knn", {"k": 2}, 0), X, y)
    query = FeatureMatrix(np.array([[0.4]]), X.column_names)
    assert list(predict(model, query).values) == [0]
    # with k at least the number of training rows, every row votes, so each
    # query gets the majority of all labels, ties to 0
    rng = np.random.default_rng(21)
    for ones, zeros, k, majority in [(4, 2, 6, 1), (3, 4, 7, 0), (4, 4, 8, 0), (5, 2, 30, 1)]:
        labels = rng.permutation([1] * ones + [0] * zeros)
        X, y = _data(rng.normal(size=(labels.size, 3)), labels)
        model = fit(ClassifierSpec("knn", {"k": k}, 0), X, y)
        queries = FeatureMatrix(rng.normal(size=(40, 3)), X.column_names)
        assert list(predict(model, queries).values) == [majority] * 40


def test_knn_tolerates_single_class():
    X, y = _data([[0.0], [1.0], [2.0]], [1, 1, 1])
    model = fit(ClassifierSpec("knn", {}, 0), X, y)
    query = FeatureMatrix(np.array([[0.2]]), X.column_names)
    assert list(predict(model, query).values) == [1]


def test_naive_bayes_on_separated_blobs():
    X, y = gaussian_blobs(200, seed=1)
    X_train, y_train, X_test, y_test = _split(X, y, 140)
    model = fit(ClassifierSpec("naive_bayes", {}, 0), X_train, y_train)
    assert _accuracy(model, X_test, y_test) >= 0.99


def test_single_class_rejected_for_parametric_models():
    X, y = _data([[0.0], [1.0], [2.0]], [1, 1, 1])
    for kind in ("naive_bayes", "decision_tree", "random_forest", "svm"):
        with pytest.raises(DataValidationError, match="single class"):
            fit(ClassifierSpec(kind, {}, 0), X, y)


def test_tree_two_point_split():
    X, y = _data([[0.0], [10.0]], [0, 1])
    model = fit(ClassifierSpec("decision_tree", {}, 0), X, y)
    assert _accuracy(model, X, y) == 1.0
    state = model.state
    assert int((state.feature >= 0).sum()) == 1  # a single split suffices


def test_tree_invariant_under_monotone_transforms():
    X, y = separable_set(200, seed=3)
    X_train, y_train, X_test, y_test = _split(X, y, 140)
    spec = ClassifierSpec("decision_tree", {}, 0)
    base = predict(fit(spec, X_train, y_train), X_test).values

    def warp(values):
        out = values.copy()
        out[:, 0] = np.exp(out[:, 0] / 4.0)
        out[:, 1] = out[:, 1] ** 3
        return out

    Xw_train = FeatureMatrix(warp(X_train.values), X.column_names)
    Xw_test = FeatureMatrix(warp(X_test.values), X.column_names)
    warped = predict(fit(spec, Xw_train, y_train), Xw_test).values
    assert np.array_equal(base, warped)


def test_knn_invariant_under_single_global_scale():
    X, y = separable_set(120, seed=4)
    X_train, y_train, X_test, y_test = _split(X, y, 80)
    spec = ClassifierSpec("knn", {}, 0)
    base = predict(fit(spec, X_train, y_train), X_test).values
    scaled_train = FeatureMatrix(X_train.values * 7.5, X.column_names)
    scaled_test = FeatureMatrix(X_test.values * 7.5, X.column_names)
    scaled = predict(fit(spec, scaled_train, y_train), scaled_test).values
    assert np.array_equal(base, scaled)


def test_label_swap_symmetry_knn_and_tree():
    X, y = separable_set(150, seed=5)
    X_train, y_train, X_test, _ = _split(X, y, 100)
    flipped = LabelVector(1 - y_train.values)
    for kind in ("knn", "decision_tree"):
        spec = ClassifierSpec(kind, {}, 0)
        direct = predict(fit(spec, X_train, y_train), X_test).values
        swapped = predict(fit(spec, X_train, flipped), X_test).values
        assert np.array_equal(direct, 1 - swapped)


def test_forest_deterministic_for_fixed_seed():
    X, y = separable_set(200, seed=6)
    X_train, y_train, X_test, _ = _split(X, y, 150)
    spec = ClassifierSpec("random_forest", {"n_trees": 10}, 42)
    first = predict(fit(spec, X_train, y_train), X_test).values
    second = predict(fit(spec, X_train, y_train), X_test).values
    assert np.array_equal(first, second)
    # another seed draws other bootstraps, so it grows other trees
    other_seed = ClassifierSpec("random_forest", {"n_trees": 10}, 43)
    third = fit(other_seed, X_train, y_train)
    assert not np.array_equal(third.state.threshold, fit(spec, X_train, y_train).state.threshold)


def _tie_heavy(seed, n, m, distinct, shape):
    """Seeded (X, y) with heavy ties: small-integer columns like sttl or ct_*,
    optionally with duplicated rows, a constant column, one continuous column,
    one column of adjacent floats (whose midpoints can round onto the upper
    value, sending every row left), or every feature constant. Both labels
    always occur."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, distinct, size=(n, m)).astype(float)
    if shape == "duplicated_rows":
        X = X[rng.integers(0, max(1, n // 4), size=n)]
    elif shape == "constant_column":
        X[:, rng.integers(0, m)] = 7.0
    elif shape == "continuous_column":
        X[:, 0] = rng.normal(size=n)
    elif shape == "adjacent_floats":
        X[:, 0] = 1.0 + np.spacing(1.0) * rng.integers(1, 4, size=n)
    elif shape == "all_constant":
        X[:] = 3.0
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    return X, y


def _assert_same_tree(got, want):
    for name in ("feature", "threshold", "left", "right", "label"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _one_tree(state, t):
    """Tree t of a fit's shared node table as an oracle record, its nodes
    renumbered in the order the per-tree builder makes them: depth-first,
    left child first, children made as a pair."""
    order = [int(state.roots[t])]
    stack = list(order)
    while stack:
        node = stack.pop()
        if state.feature[node] >= 0:
            child = int(state.left[node])
            order += [child, child + 1]
            stack += [child + 1, child]
    order = np.array(order)
    renumbered = np.full(state.feature.size, -1, dtype=np.int64)
    renumbered[order] = np.arange(order.size)
    internal = state.feature[order] >= 0
    left = np.where(internal, renumbered[state.left[order]], -1)
    return tree_oracle.TreeState(
        feature=state.feature[order],
        threshold=state.threshold[order],
        left=left,
        right=np.where(internal, left + 1, -1),
        label=state.label[order],
    )


_SHAPES = (
    "small_ints", "duplicated_rows", "constant_column", "continuous_column", "adjacent_floats",
    "all_constant",
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 90),
    m=st.integers(1, 9),
    distinct=st.integers(1, 5),
    shape=st.sampled_from(_SHAPES),
    max_depth=st.integers(1, 12),
    min_samples_split=st.integers(2, 6),
    n_trees=st.integers(1, 6),
)
# 15 roots of 1,200 rows x 4 candidates: the first round needs two blocks.
@example(seed=1, n=1200, m=16, distinct=5, shape="continuous_column",
         max_depth=4, min_samples_split=2, n_trees=15)
# 2,000 rows x 40 candidates: the single tree's root is a block of its own,
# and its sort keys need more than 16 bits.
@example(seed=2, n=2000, m=40, distinct=3, shape="continuous_column",
         max_depth=4, min_samples_split=2, n_trees=1)
def test_lockstep_trees_match_per_node_oracle(
    seed, n, m, distinct, shape, max_depth, min_samples_split, n_trees
):
    X, y = _tie_heavy(seed, n, m, distinct, shape)
    hp = {"max_depth": max_depth, "min_samples_split": min_samples_split, "n_trees": n_trees}
    tree = decision_tree.train(X, y, hp, seed)
    assert tree.roots.tolist() == [0]
    _assert_same_tree(_one_tree(tree, 0), tree_oracle.build_tree(X, y, max_depth, min_samples_split))
    forest = random_forest.train(X, y, hp, seed)
    want = tree_oracle.train_forest(X, y, hp, seed).trees
    assert forest.roots.size == len(want) == n_trees
    got = [_one_tree(forest, t) for t in range(n_trees)]
    # every node of the table belongs to exactly one tree
    assert sum(a.feature.size for a in got) == forest.feature.size
    for a, b in zip(got, want):
        _assert_same_tree(a, b)


def test_lockstep_trees_match_the_oracle_on_64_bit_row_indices():
    # data this small grows on int32 row indices; with the limit at 0 cells,
    # the int64 path runs the whole oracle test
    X, y = np.zeros((2, 1)), np.array([0, 1])
    assert decision_tree.TreeBuilder(X, y, 1, 2).row_dtype == np.int32
    with mock.patch.object(decision_tree, "_INT32_CELLS", 0):
        assert decision_tree.TreeBuilder(X, y, 1, 2).row_dtype == np.int64
        test_lockstep_trees_match_per_node_oracle()


def test_one_fit_stays_within_its_memory_bound(tmp_path):
    # Bounds on the tracemalloc peak of one fit on 600 synthetic rows with the
    # default hyperparameters. numpy reports every array buffer it allocates
    # to tracemalloc, and the builder's memory is almost all array buffers:
    # ranks, row indices, sort keys, counts and Gini terms. On this data the
    # builder peaks at 0.83 MB (tree) and 1.61 MB (forest); the forest at 2.25
    # with _BLOCK_CELLS at 2^16, and with int64 row indices and float counts
    # and Gini built out of place, the two at 1.49 and 3.94.
    path = tmp_path / "flows.csv"
    synth_data.write_csv(path, 600, seed=42)
    X, y = prepare(load_csv(path), ["id"], "label", "attack_cat")
    for module, bound_mb in ((decision_tree, 1.1), (random_forest, 1.8)):
        kind = module.__name__.rsplit(".", 1)[1]
        tracemalloc.start()
        try:
            module.train(X.values, y.values, ClassifierSpec(kind).hyperparameters, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20, (kind, peak / 2**20)


def _probes(rng, X, state, p):
    """p rows to predict: training rows, training rows with one column set to
    a split threshold of the fit, and rows drawn around X's range."""
    probes = X[rng.integers(0, X.shape[0], size=p)]
    internal = np.flatnonzero(state.feature >= 0)
    if internal.size:
        at = rng.integers(0, p, size=p // 3)
        node = internal[rng.integers(0, internal.size, size=at.size)]
        probes[at, state.feature[node]] = state.threshold[node]
    noise = rng.integers(0, p, size=p // 3)
    probes[noise] = rng.uniform(X.min() - 1.0, X.max() + 1.0, size=(noise.size, X.shape[1]))
    return probes


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    m=st.integers(1, 6),
    distinct=st.integers(1, 5),
    shape=st.sampled_from(_SHAPES),
    max_depth=st.integers(1, 8),
    n_trees=st.integers(1, 6),
    p=st.integers(0, 40),
    block_cells=st.sampled_from([decision_tree._BLOCK_CELLS, 1, 7]),
)
# two trees: every row where they disagree is a tie, which goes to 0
@example(seed=3, n=40, m=3, distinct=4, shape="small_ints", max_depth=3, n_trees=2, p=40,
         block_cells=7)
def test_one_traversal_predicts_the_oracle_vote(
    seed, n, m, distinct, shape, max_depth, n_trees, p, block_cells
):
    X, y = _tie_heavy(seed, n, m, distinct, shape)
    hp = {"max_depth": max_depth, "min_samples_split": 2, "n_trees": n_trees}
    rng = np.random.default_rng(seed)
    with mock.patch.object(decision_tree, "_BLOCK_CELLS", block_cells):
        for state, oracle in (
            (decision_tree.train(X, y, hp, seed), tree_oracle.build_tree(X, y, max_depth, 2)),
            (random_forest.train(X, y, hp, seed), tree_oracle.train_forest(X, y, hp, seed)),
        ):
            probes = _probes(rng, X, state, p)
            got, want = state.predict(probes), oracle.predict(probes)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_all_kinds_deterministic_across_refits():
    X, y = separable_set(200, seed=7)
    X_train, y_train, X_test, _ = _split(X, y, 150)
    for kind in KINDS:
        spec = ClassifierSpec(kind, {}, 9)
        a = predict(fit(spec, X_train, y_train), X_test).values
        b = predict(fit(spec, X_train, y_train), X_test).values
        assert np.array_equal(a, b), kind


def test_svm_separable_training_accuracy():
    X, y = separable_set(300, seed=8)
    model = fit(ClassifierSpec("svm", {}, 0), X, y)
    assert _accuracy(model, X, y) == 1.0


def test_all_five_reach_95_percent_on_separable_data():
    X, y = separable_set(500, seed=42)
    X_train, y_train, X_test, y_test = _split(X, y, 350)
    for kind in KINDS:
        model = fit(ClassifierSpec(kind, {}, 42), X_train, y_train)
        assert _accuracy(model, X_test, y_test) >= 0.95, kind


def test_hyperparameter_validation():
    X, y = _data([[0.0], [1.0]], [0, 1])
    bad = [
        ("knn", {"k": 0}),
        ("knn", {"neighbors": 3}),
        ("decision_tree", {"max_depth": 0}),
        ("decision_tree", {"min_samples_split": 1}),
        ("random_forest", {"n_trees": 0}),
        ("svm", {"lambda": 0.0}),
        ("svm", {"epochs": 0}),
        ("naive_bayes", {"smoothing": 1.0}),
    ]
    for kind, hp in bad:
        with pytest.raises(ConfigError):
            fit(ClassifierSpec(kind, hp, 0), X, y)
    with pytest.raises(ConfigError, match="^kind must be one of "):
        ClassifierSpec("boosted")


@pytest.mark.parametrize(
    "kind, hp, message",
    [
        ("boosted", {}, rf"^kind must be one of {re.escape(repr(KINDS))}, got 'boosted'$"),
        ("knn", {"neighbors": 3}, r"^unknown keys in knn\.hyperparameters: \['neighbors'\]$"),
        ("decision_tree", {"min_samples_split": 1}, r"^decision_tree\.min_samples_split must be >= 2, got 1$"),
        ("knn", {"k": True}, r"^knn\.k must be an integer, got True$"),
        # a list kind once failed as unhashable, and a hyperparameter set that
        # is not a mapping failed in set(), each with a bare TypeError
        (["knn"], {}, r"^kind must be a string, got \['knn'\]$"),
        # a null set of hyperparameters is the defaults, but a null value is
        # not a count
        ("knn", {"k": None}, r"^knn\.k must be an integer, got None$"),
        ("knn", 5, r"^knn\.hyperparameters must be a mapping or null, got 5$"),
    ],
    ids=["unknown-kind", "unknown-hyperparameter", "invalid-value", "bool-value",
         "list-kind", "null-hyperparameters", "int-hyperparameters"],
)
def test_a_spec_is_checked_when_it_is_made(kind, hp, message):
    with pytest.raises(ConfigError, match=message):
        ClassifierSpec(kind, hp, 0)


def test_null_hyperparameters_mean_the_defaults():
    # as in a config file, where "hyperparameters: null" is the defaults
    assert ClassifierSpec("knn", None, 0) == ClassifierSpec("knn", {}, 0)
    assert dict(ClassifierSpec("knn", None, 0).hyperparameters) == {"k": 5}


@pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
def test_a_spec_checks_its_seed(seed):
    # numpy's generators would reject these only at fit, with their own errors
    allowed = ">= 0" if seed == -1 else "an integer"
    with pytest.raises(ConfigError, match=rf"^svm\.seed must be {allowed}, got {re.escape(repr(seed))}$"):
        ClassifierSpec("svm", {}, seed)


def test_a_spec_holds_its_defaults_filled_hyperparameters_read_only():
    spec = ClassifierSpec("svm", {"epochs": 2}, 5)
    assert dict(spec.hyperparameters) == {**ClassifierSpec("svm").hyperparameters, "epochs": 2}
    with pytest.raises(TypeError):
        spec.hyperparameters["epochs"] = 0
    reseeded = dataclasses.replace(spec, seed=6)
    assert reseeded.seed == 6
    assert dict(reseeded.hyperparameters) == dict(spec.hyperparameters)


def test_knn_predict_makes_nothing_the_size_of_the_training_rows():
    # the scoring terms are made once at fit; a predict of a few queries only
    # allocates their score rows, 8 x 20,000 floats here, not a copy of X
    rng = np.random.default_rng(5)
    X, y = _data(rng.normal(size=(20_000, 42)), rng.integers(0, 2, 20_000))
    model = fit(ClassifierSpec("knn", {}, 0), X, y)
    queries = FeatureMatrix(rng.normal(size=(8, 42)), X.column_names)
    tracemalloc.start()
    try:
        predicted = predict(model, queries).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.values.nbytes / 2, (peak, X.values.nbytes)
    distances = ((queries.values[:, None, :] - X.values[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :5]
    assert list(predicted) == list((2 * y.values[nearest].sum(axis=1) > 5).astype(int))


def test_predict_rejects_column_mismatch():
    X, y = _data([[0.0, 1.0], [1.0, 0.0]], [0, 1])
    model = fit(ClassifierSpec("knn", {"k": 1}, 0), X, y)
    other = FeatureMatrix(X.values, ("x", "y"))
    with pytest.raises(DataValidationError, match="columns"):
        predict(model, other)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_fit_and_predict_reject_a_column_too_large_to_square(kind):
    # the squares of kNN's distances, naive Bayes' variances and the SVM's
    # dot products overflowed to inf, with only a RuntimeWarning
    rng = np.random.default_rng(11)
    X, y = _data(rng.normal(size=(40, 3)), np.arange(40) % 2)
    huge = FeatureMatrix(X.values * [1.0, 1e154, 1.0], X.column_names)
    spec = ClassifierSpec(kind, {"n_trees": 3} if kind == "random_forest" else {}, 0)
    message = r"column 'f1' holds magnitudes up to \d\.\d{3}e\+154, above the 1e\+100 "
    with pytest.raises(DataValidationError, match=message):
        fit(spec, huge, y)
    with pytest.raises(DataValidationError, match=message):
        predict(fit(spec, X, y), huge)


def test_fit_rejects_empty_and_tiny_input():
    X, y = _data([[0.0]], [0])
    with pytest.raises(DataValidationError, match="at least 2"):
        fit(ClassifierSpec("knn", {}, 0), X, y)


def test_model_records_training_metadata():
    # the hyperparameters and seed stay on the spec; the model keeps what
    # predict needs and the kind that names it
    X, y = separable_set(60, seed=9)
    model = fit(ClassifierSpec("svm", {"epochs": 2}, 5), X, y)
    assert model.kind == "svm"
    assert model.training_columns == X.column_names
    assert [f.name for f in dataclasses.fields(model)] == ["kind", "state", "training_columns"]
