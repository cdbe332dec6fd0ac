import statistics
import time
import types
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privids import evaluation

from privids.classifiers import ClassifierSpec
from privids.dataset import FeatureMatrix, LabelVector
from privids.errors import DataValidationError
from privids.evaluation import (
    COUNTS,
    compare_utility,
    confusion,
    median_time,
    metrics,
    run_configuration,
)
from test_classifiers import separable_set


def _labels(values):
    return LabelVector(np.asarray(values))


def test_confusion_hand_case():
    c = confusion(_labels([1, 1, 0, 0]), _labels([1, 0, 0, 1]))
    assert (c["tp"], c["fn"], c["fp"], c["tn"]) == (1, 1, 1, 1)
    assert sum(c.values()) == 4


def test_confusion_perfect_prediction():
    y = _labels([1, 0, 1, 1, 0])
    c = confusion(y, y)
    assert c["fn"] == 0 and c["fp"] == 0
    assert c["tp"] == 3 and c["tn"] == 2


def test_confusion_matches_loop_oracle():
    rng = np.random.default_rng(30)
    truth = rng.integers(0, 2, 1000)
    pred = rng.integers(0, 2, 1000)
    c = confusion(_labels(truth), _labels(pred))
    tp = fn = fp = tn = 0
    for t, p in zip(truth, pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 1 and p == 0:
            fn += 1
        elif t == 0 and p == 1:
            fp += 1
        else:
            tn += 1
    assert (c["tp"], c["fn"], c["fp"], c["tn"]) == (tp, fn, fp, tn)


def test_confusion_length_mismatch():
    with pytest.raises(DataValidationError, match="length"):
        confusion(_labels([1, 0]), _labels([1, 0, 1]))


def test_metrics_all_half():
    m = metrics({"tp": 1, "fn": 1, "fp": 1, "tn": 1})
    assert m["recall"] == m["precision"] == m["specificity"] == m["f_score"] == m["accuracy"] == 0.5


def test_metrics_undefined_recall_when_no_positives():
    m = metrics({"tp": 0, "fn": 0, "fp": 0, "tn": 5})
    assert m["recall"] is None
    assert m["precision"] is None
    assert m["specificity"] == 1.0
    assert m["f_score"] is None
    assert m["accuracy"] == 1.0


def test_metrics_undefined_f_score_on_zero_sum():
    m = metrics({"tp": 0, "fn": 3, "fp": 2, "tn": 5})
    assert m["recall"] == 0.0 and m["precision"] == 0.0
    assert m["f_score"] is None


def test_metrics_hand_arithmetic():
    m = metrics({"tp": 3, "fn": 1, "fp": 2, "tn": 4})
    assert m["recall"] == pytest.approx(3 / 4)
    assert m["precision"] == pytest.approx(3 / 5)
    assert m["specificity"] == pytest.approx(4 / 6)
    assert m["f_score"] == pytest.approx(2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4))
    assert m["accuracy"] == pytest.approx(7 / 10)


def test_metrics_need_rows():
    with pytest.raises(DataValidationError):
        metrics(dict.fromkeys(COUNTS, 0))


def test_class_swap_exchanges_counts_and_metrics():
    rng = np.random.default_rng(32)
    truth = rng.integers(0, 2, 500)
    pred = rng.integers(0, 2, 500)
    direct = confusion(_labels(truth), _labels(pred))
    swapped = confusion(_labels(1 - truth), _labels(1 - pred))
    assert (swapped["tp"], swapped["tn"], swapped["fp"], swapped["fn"]) == (
        direct["tn"], direct["tp"], direct["fn"], direct["fp"],
    )
    m_direct = metrics(direct)
    m_swapped = metrics(swapped)
    assert m_swapped["recall"] == pytest.approx(m_direct["specificity"])
    assert m_swapped["specificity"] == pytest.approx(m_direct["recall"])
    assert m_swapped["accuracy"] == pytest.approx(m_direct["accuracy"])


def test_accuracy_identity_on_random_counts():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tp, fn, fp, tn = (int(v) for v in rng.integers(1, 50, 4))
        m = metrics(dict(zip(COUNTS, (tp, fn, fp, tn))))
        reconstructed = (m["recall"] * (tp + fn) + m["specificity"] * (tn + fp)) / (tp + fn + fp + tn)
        assert m["accuracy"] == pytest.approx(reconstructed, abs=1e-12)


def _toy_split():
    X_train = FeatureMatrix(np.array([[0.0], [1.0], [10.0], [11.0]]), ("a",))
    y_train = _labels([0, 0, 1, 1])
    X_test = FeatureMatrix(np.array([[0.5], [10.5]]), ("a",))
    y_test = _labels([0, 1])
    return X_train, y_train, X_test, y_test


def test_run_configuration_single_knn():
    report = run_configuration(
        "baseline", *_toy_split(), [ClassifierSpec("knn", {"k": 1}, 0)], timing_repeats=1
    )
    assert report["configuration"] == "baseline"
    assert len(report["classifiers"]) == 1
    result = report["classifiers"][0]
    assert result["accuracy"] == 1.0
    assert result["recall"] == 1.0
    assert result["train_time_s"] >= 0.0 and result["test_time_s"] >= 0.0
    assert report["n_train"] == 4 and report["n_test"] == 2


def test_run_configuration_five_defaults_on_separable_data():
    X, y = separable_set(400, seed=33)
    X_train = FeatureMatrix(X.values[:280], X.column_names)
    X_test = FeatureMatrix(X.values[280:], X.column_names)
    y_train, y_test = _labels(y.values[:280]), _labels(y.values[280:])
    specs = [
        ClassifierSpec(k, {"n_trees": 20} if k == "random_forest" else {}, 42)
        for k in ("knn", "naive_bayes", "decision_tree", "random_forest", "svm")
    ]
    report = run_configuration(
        "baseline", X_train, y_train, X_test, y_test, specs, timing_repeats=1
    )
    for result in report["classifiers"]:
        assert result["accuracy"] >= 0.95, result["kind"]


def test_run_configuration_validates_inputs():
    with pytest.raises(DataValidationError, match="configuration"):
        run_configuration("bogus", *_toy_split(), [ClassifierSpec("knn", {}, 0)])
    with pytest.raises(DataValidationError, match="classifier"):
        run_configuration("baseline", *_toy_split(), [])


def _report_with_accuracies(tag, accuracies):
    split = _toy_split()
    specs = [ClassifierSpec("knn", {"k": 1}, 0)]
    base = run_configuration(tag, *split, specs, timing_repeats=1)
    results = []
    for kind, acc in accuracies.items():
        r = base["classifiers"][0]
        counts = {"tp": int(acc * 100), "fn": 100 - int(acc * 100), "fp": 0, "tn": 0}
        results.append({
            "kind": kind,
            "hyperparameters": r["hyperparameters"],
            "seed": r["seed"],
            "confusion": counts,
            **metrics(counts),
            "train_time_s": 0.0,
            "test_time_s": 0.0,
        })
    return {"configuration": tag, "classifiers": results, "n_train": 4, "n_test": 100}


def test_compare_utility_identical_reports():
    before = _report_with_accuracies("baseline", {"knn": 0.9, "svm": 0.8})
    after = _report_with_accuracies("pcc_lsm", {"knn": 0.9, "svm": 0.8})
    cmp_result = compare_utility(before, after)
    assert all(d["accuracy_delta"] == 0.0 for d in cmp_result["deltas"])
    assert cmp_result["max_abs_delta"] == 0.0


def test_compare_utility_reports_single_improvement():
    before = _report_with_accuracies("baseline", {"knn": 0.90, "svm": 0.80})
    after = _report_with_accuracies("pcc_lsm", {"knn": 0.92, "svm": 0.80})
    cmp_result = compare_utility(before, after)
    deltas = {d["classifier"]: d["accuracy_delta"] for d in cmp_result["deltas"]}
    assert deltas["knn"] == pytest.approx(0.02, abs=1e-9)
    assert deltas["svm"] == pytest.approx(0.0, abs=1e-9)
    assert cmp_result["max_abs_delta"] == pytest.approx(0.02, abs=1e-9)


def test_compare_utility_rejects_mismatched_sets():
    before = _report_with_accuracies("baseline", {"knn": 0.9})
    after = _report_with_accuracies("pcc_lsm", {"svm": 0.9})
    with pytest.raises(DataValidationError, match="classifier sets"):
        compare_utility(before, after)


def test_knn_time_grows_with_training_size():
    X, y = separable_set(4000, seed=34)
    sizes = (300, 1200, 3600)
    totals = []
    for n in sizes:
        X_train = FeatureMatrix(X.values[:n], X.column_names)
        y_train = _labels(y.values[:n])
        X_test = FeatureMatrix(X.values[3600:], X.column_names)
        y_test = _labels(y.values[3600:])
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            run_configuration(
                "baseline", X_train, y_train, X_test, y_test,
                [ClassifierSpec("knn", {}, 0)], timing_repeats=1,
            )
            elapsed.append(time.perf_counter() - start)
        totals.append(sum(elapsed) / 3)
    assert totals[0] <= totals[1] * 1.25 and totals[1] <= totals[2] * 1.25


def test_median_time_lets_each_result_go_before_the_next_call():
    class Result:
        pass

    refs = []
    previous_alive = []

    def fn():
        if refs:
            previous_alive.append(refs[-1]() is not None)
        result = Result()
        refs.append(weakref.ref(result))
        return result

    last, _ = median_time(fn, 3)
    assert previous_alive == [False, False]
    assert refs[-1]() is last


def test_median_time_rejects_fewer_than_one_repeat():
    # no call means no result and no time to return; true once ran fn once,
    # and 2.5 failed in range() with a bare TypeError
    for repeats in (0, -1, 2.5, True):
        with pytest.raises(DataValidationError, match=rf"^timing repeats must be >= 1, got {repeats}$"):
            median_time(lambda: "result", repeats)
    with pytest.raises(DataValidationError, match="timing repeats"):
        run_configuration("baseline", *_toy_split(), [ClassifierSpec("knn", {}, 0)], timing_repeats=0)


@pytest.mark.parametrize("repeats", range(1, 7))
@given(data=st.data())
def test_median_time_is_statistics_median_bit_for_bit(repeats, data):
    # every call starts at clock 0.0 and ends at its duration, any
    # nonnegative float, subnormal and huge ones included
    durations = data.draw(st.lists(
        st.floats(0.0, allow_infinity=False), min_size=repeats, max_size=repeats
    ))
    clock = iter([reading for duration in durations for reading in (0.0, duration)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        result, median = median_time(lambda: "result", repeats)
    assert result == "result"
    assert np.float64(median).tobytes() == np.float64(statistics.median(durations)).tobytes()
