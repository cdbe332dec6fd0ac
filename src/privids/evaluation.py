"""Confusion-matrix statistics and the classifier benchmarking harness.

The attack class (label 1) is the positive class throughout. Any metric with
a 0/0 denominator is reported as None rather than NaN. Wall times are the
median of repeated timed runs with no concurrent pipeline work.
"""

from __future__ import annotations

import time

import numpy as np

from . import classifiers
from .dataset import FeatureMatrix, LabelVector
from .errors import DataValidationError

# tag: (PCC-selected, LSM-distorted), the one place that says how each
# configuration's matrix is made.
CONFIGURATIONS = {
    "baseline": (False, False),
    "pcc_only": (True, False),
    "lsm_only": (False, True),
    "pcc_lsm": (True, True),
}
CONFIGURATION_TAGS = tuple(CONFIGURATIONS)


# Column order of evaluation_summary.csv: the confusion counts, then the
# five performance measures (None marks an undefined 0/0 value).
COUNTS = ("tp", "fn", "fp", "tn")
METRICS = ("recall", "precision", "specificity", "f_score", "accuracy")


def confusion(y_true: LabelVector, y_pred: LabelVector) -> dict:
    """The counts {tp, fn, fp, tn} of y_pred against y_true."""
    truth = y_true.values
    pred = y_pred.values
    if truth.shape != pred.shape:
        raise DataValidationError(f"length mismatch: {truth.shape} vs {pred.shape}")
    return {
        "tp": int(np.sum((truth == 1) & (pred == 1))),
        "fn": int(np.sum((truth == 1) & (pred == 0))),
        "fp": int(np.sum((truth == 0) & (pred == 1))),
        "tn": int(np.sum((truth == 0) & (pred == 0))),
    }


def _ratio(num: int, denom: int) -> float | None:
    return num / denom if denom > 0 else None


def metrics(c: dict) -> dict:
    """The five measures of METRICS from confusion counts."""
    total = c["tp"] + c["fn"] + c["fp"] + c["tn"]
    if total == 0:
        raise DataValidationError("metrics need at least one evaluated row")
    recall = _ratio(c["tp"], c["tp"] + c["fn"])
    precision = _ratio(c["tp"], c["tp"] + c["fp"])
    if recall is None or precision is None or precision + recall == 0:
        f_score = None
    else:
        f_score = 2.0 * precision * recall / (precision + recall)
    return {
        "recall": recall,
        "precision": precision,
        "specificity": _ratio(c["tn"], c["tn"] + c["fp"]),
        "f_score": f_score,
        "accuracy": (c["tp"] + c["tn"]) / total,
    }


def median_time(fn, repeats: int):
    """Run fn repeats times; return (last result, median wall seconds).

    The one clock behind every reported time. Each result is let go before
    the next call, outside the timed window, so no two are ever held. The
    median is statistics.median's expression, so it keeps its bits."""
    if isinstance(repeats, bool) or not isinstance(repeats, int) or repeats < 1:
        raise DataValidationError(f"timing repeats must be >= 1, got {repeats}")
    times = []
    for _ in range(repeats):
        result = None
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    times.sort()
    middle = repeats // 2
    return result, times[middle] if repeats % 2 else (times[middle - 1] + times[middle]) / 2


def run_configuration(
    tag: str,
    X_train: FeatureMatrix,
    y_train: LabelVector,
    X_test: FeatureMatrix,
    y_test: LabelVector,
    specs: list[classifiers.ClassifierSpec],
    timing_repeats: int = 3,
) -> dict:
    """Fit and evaluate every classifier on one pipeline configuration:
    {configuration, classifiers, n_train, n_test}, one flat entry per spec.

    Train and test wall times are medians over timing_repeats runs; fits are
    seed-deterministic, so repeated runs produce identical models and the
    repetition only stabilizes the clock readings.
    """
    if tag not in CONFIGURATION_TAGS:
        raise DataValidationError(f"unknown configuration '{tag}', expected {CONFIGURATION_TAGS}")
    if not specs:
        raise DataValidationError("at least one classifier spec is required")
    entries = []
    for spec in specs:
        model, train_time = median_time(
            lambda: classifiers.fit(spec, X_train, y_train), timing_repeats
        )
        predictions, test_time = median_time(
            lambda: classifiers.predict(model, X_test), timing_repeats
        )
        counts = confusion(y_test, predictions)
        entries.append({
            "kind": spec.kind,
            "hyperparameters": dict(spec.hyperparameters),
            "seed": spec.seed,
            "confusion": counts,
            **metrics(counts),
            "train_time_s": train_time,
            "test_time_s": test_time,
        })
    return {"configuration": tag, "classifiers": entries, "n_train": X_train.n, "n_test": X_test.n}


def compare_utility(before: dict, after: dict) -> dict:
    """The comparison of two run_configuration reports on the same split:
    each classifier's accuracy delta (after - before), and the worst case."""
    before_kinds = [r["kind"] for r in before["classifiers"]]
    after_kinds = [r["kind"] for r in after["classifiers"]]
    if before_kinds != after_kinds:
        raise DataValidationError(
            f"classifier sets differ: {before_kinds} vs {after_kinds}"
        )
    if before["n_test"] != after["n_test"]:
        raise DataValidationError(
            f"test splits differ: {before['n_test']} vs {after['n_test']} rows"
        )
    deltas = [
        {"classifier": b["kind"], "accuracy_delta": a["accuracy"] - b["accuracy"]}
        for b, a in zip(before["classifiers"], after["classifiers"])
    ]
    return {
        "configuration": after["configuration"],
        "deltas": deltas,
        "max_abs_delta": max((abs(d["accuracy_delta"]) for d in deltas), default=0.0),
    }
