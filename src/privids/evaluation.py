"""Confusion-matrix statistics and the classifier benchmarking harness.

The attack class (label 1) is the positive class throughout. Any metric with
a 0/0 denominator is reported as None rather than NaN. Wall times are the
median of repeated timed runs with no concurrent pipeline work.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricSet:
    """The five performance measures; None marks an undefined 0/0 value."""

    recall: float | None
    precision: float | None
    specificity: float | None
    f_score: float | None
    accuracy: float


@dataclass(frozen=True)
class ClassifierResult:
    kind: str
    hyperparameters: dict
    seed: int
    confusion: ConfusionCounts
    metrics: MetricSet
    train_time_s: float
    test_time_s: float


@dataclass(frozen=True)
class EvaluationReport:
    configuration: str
    results: tuple[ClassifierResult, ...]
    n_train: int
    n_test: int


@dataclass(frozen=True)
class UtilityComparison:
    """Per-classifier accuracy change between two reports on the same split."""

    deltas: tuple[tuple[str, float], ...]
    max_abs_delta: float


def confusion(y_true: LabelVector, y_pred: LabelVector) -> ConfusionCounts:
    truth = y_true.values
    pred = y_pred.values
    if truth.shape != pred.shape:
        raise DataValidationError(f"length mismatch: {truth.shape} vs {pred.shape}")
    return ConfusionCounts(
        tp=int(np.sum((truth == 1) & (pred == 1))),
        fn=int(np.sum((truth == 1) & (pred == 0))),
        fp=int(np.sum((truth == 0) & (pred == 1))),
        tn=int(np.sum((truth == 0) & (pred == 0))),
    )


def _ratio(num: int, denom: int) -> float | None:
    return num / denom if denom > 0 else None


def metrics(c: ConfusionCounts) -> MetricSet:
    if c.total == 0:
        raise DataValidationError("metrics need at least one evaluated row")
    recall = _ratio(c.tp, c.tp + c.fn)
    precision = _ratio(c.tp, c.tp + c.fp)
    specificity = _ratio(c.tn, c.tn + c.fp)
    if recall is None or precision is None or precision + recall == 0:
        f_score = None
    else:
        f_score = 2.0 * precision * recall / (precision + recall)
    accuracy = (c.tp + c.tn) / c.total
    return MetricSet(
        recall=recall,
        precision=precision,
        specificity=specificity,
        f_score=f_score,
        accuracy=accuracy,
    )


def median_time(fn, repeats: int):
    """Run fn repeats times; return (last result, median wall seconds).

    The one clock behind every reported time. Each result is let go before
    the next call, outside the timed window, so no two are ever held."""
    times = []
    for _ in range(repeats):
        result = None
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def run_configuration(
    tag: str,
    X_train: FeatureMatrix,
    y_train: LabelVector,
    X_test: FeatureMatrix,
    y_test: LabelVector,
    specs: list[classifiers.ClassifierSpec],
    timing_repeats: int = 3,
) -> EvaluationReport:
    """Fit and evaluate every classifier on one pipeline configuration.

    Train and test wall times are medians over timing_repeats runs; fits are
    seed-deterministic, so repeated runs produce identical models and the
    repetition only stabilizes the clock readings.
    """
    if tag not in CONFIGURATION_TAGS:
        raise DataValidationError(f"unknown configuration '{tag}', expected {CONFIGURATION_TAGS}")
    if not specs:
        raise DataValidationError("at least one classifier spec is required")
    results = []
    for spec in specs:
        model, train_time = median_time(
            lambda: classifiers.fit(spec, X_train, y_train), timing_repeats
        )
        predictions, test_time = median_time(
            lambda: classifiers.predict(model, X_test), timing_repeats
        )
        counts = confusion(y_test, predictions)
        metric_set = metrics(counts)
        results.append(
            ClassifierResult(
                kind=spec.kind,
                hyperparameters=model.hyperparameters,
                seed=spec.seed,
                confusion=counts,
                metrics=metric_set,
                train_time_s=train_time,
                test_time_s=test_time,
            )
        )
    return EvaluationReport(
        configuration=tag,
        results=tuple(results),
        n_train=X_train.n,
        n_test=X_test.n,
    )


def compare_utility(before: EvaluationReport, after: EvaluationReport) -> UtilityComparison:
    """Accuracy deltas (after - before) per classifier, plus the worst case."""
    before_kinds = [r.kind for r in before.results]
    after_kinds = [r.kind for r in after.results]
    if before_kinds != after_kinds:
        raise DataValidationError(
            f"classifier sets differ: {before_kinds} vs {after_kinds}"
        )
    if before.n_test != after.n_test:
        raise DataValidationError(
            f"test splits differ: {before.n_test} vs {after.n_test} rows"
        )
    deltas = tuple(
        (b.kind, a.metrics.accuracy - b.metrics.accuracy)
        for b, a in zip(before.results, after.results)
    )
    max_abs = max((abs(d) for _, d in deltas), default=0.0)
    return UtilityComparison(deltas=deltas, max_abs_delta=max_abs)
