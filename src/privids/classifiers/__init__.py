"""Five classifiers behind one fit/predict contract.

Every classifier is implemented from first principles on numpy: k-nearest
neighbors, Gaussian naive Bayes, a CART decision tree, a bagged random
forest, and a linear SVM trained by stochastic subgradient descent. Fits are
deterministic given (seed, X, y); trained models are immutable and safe for
concurrent predict calls.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import import_module
from types import MappingProxyType

import numpy as np

from ..dataset import FeatureMatrix, LabelVector, check_magnitude
from ..errors import DataValidationError

# Each kind is implemented by the module of its name, imported by its first
# fit, so that commands which fit nothing load none of them.
_DEFAULTS = {
    "knn": {"k": 5},
    "naive_bayes": {},
    "decision_tree": {"max_depth": 12, "min_samples_split": 2},
    "random_forest": {"n_trees": 100, "max_depth": 12, "min_samples_split": 2},
    "svm": {"epochs": 100, "lambda": 1e-4, "batch_size": 512},
}

KINDS = tuple(_DEFAULTS)


def default_hyperparameters(kind: str) -> dict:
    if kind not in _DEFAULTS:
        raise DataValidationError(f"unknown classifier kind '{kind}', expected one of {KINDS}")
    return dict(_DEFAULTS[kind])


@dataclass(frozen=True)
class ClassifierSpec:
    """Which classifier to train, with what hyperparameters and seed: a known
    kind, and a mapping that updates the kind's defaults, checked with the
    seed when the spec is made and held read-only, so a spec is valid."""

    kind: str
    hyperparameters: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        kind, given = self.kind, self.hyperparameters
        if not isinstance(kind, str):
            raise DataValidationError(f"kind must be a string, got {kind!r}")
        merged = default_hyperparameters(kind)
        if not isinstance(given, Mapping):
            raise DataValidationError(f"{kind}: hyperparameters must be a mapping, got {given!r}")
        unknown = set(given) - set(merged)
        if unknown:
            raise DataValidationError(f"{kind}: unknown hyperparameters {sorted(unknown, key=repr)}")
        merged.update(given)
        checks = {
            "k": lambda v: isinstance(v, int) and v >= 1,
            "max_depth": lambda v: isinstance(v, int) and v >= 1,
            "min_samples_split": lambda v: isinstance(v, int) and v >= 2,
            "n_trees": lambda v: isinstance(v, int) and v >= 1,
            "epochs": lambda v: isinstance(v, int) and v >= 1,
            "lambda": lambda v: isinstance(v, (int, float)) and v > 0,
            "batch_size": lambda v: isinstance(v, int) and v >= 1,
        }
        for key, value in merged.items():
            # bool is a subclass of int, but true/false is never a count or a rate
            if isinstance(value, bool) or not checks[key](value):
                raise DataValidationError(f"{kind}: invalid hyperparameter {key}={value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise DataValidationError(f"{kind}: seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "hyperparameters", MappingProxyType(merged))


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    state: object
    training_columns: tuple[str, ...]


def fit(spec: ClassifierSpec, X: FeatureMatrix, y: LabelVector) -> TrainedModel:
    """Train one classifier. Both classes must be present except for knn,
    which tolerates a single class, and X must pass check_magnitude."""
    if X.n == 0 or X.m == 0:
        raise DataValidationError(f"{spec.kind}: cannot fit an empty matrix")
    if X.n != y.n:
        raise DataValidationError(f"{spec.kind}: {X.n} rows but {y.n} labels")
    if X.n < 2:
        raise DataValidationError(f"{spec.kind}: need at least 2 training rows")
    labels = y.values
    if spec.kind != "knn" and (np.all(labels == 0) or np.all(labels == 1)):
        raise DataValidationError(f"{spec.kind}: training data contains a single class")
    check_magnitude(X)
    return TrainedModel(
        kind=spec.kind,
        state=import_module(f"{__name__}.{spec.kind}").train(
            X.values, labels, spec.hyperparameters, spec.seed
        ),
        training_columns=tuple(X.column_names),
    )


def predict(model: TrainedModel, X: FeatureMatrix) -> LabelVector:
    """Predict one label in {0, 1} per row of X, which must pass
    check_magnitude; deterministic."""
    if tuple(X.column_names) != model.training_columns:
        raise DataValidationError(
            f"{model.kind}: prediction columns {X.column_names} do not match "
            f"training columns {model.training_columns}"
        )
    check_magnitude(X)
    return LabelVector(model.state.predict(X.values))
