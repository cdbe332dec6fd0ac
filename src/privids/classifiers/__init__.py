"""Five classifiers behind one fit/predict contract.

Every classifier is implemented from first principles on numpy: k-nearest
neighbors, Gaussian naive Bayes, a CART decision tree, a bagged random
forest, and a linear SVM trained by stochastic subgradient descent. Fits are
deterministic given (seed, X, y); trained models are immutable and safe for
concurrent predict calls. Which classifier to fit, with what hyperparameters
and seed, is a config.ClassifierSpec: the kinds, their defaults and allowed
values are declared and checked in config, with every other run setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

import numpy as np

from ..dataset import FeatureMatrix, LabelVector, check_magnitude
from ..errors import DataValidationError


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    state: object
    training_columns: tuple[str, ...]


def fit(spec, X: FeatureMatrix, y: LabelVector) -> TrainedModel:
    """Train the classifier that spec, a config.ClassifierSpec, names. Both
    classes must be present except for knn, which tolerates a single class,
    and X must pass check_magnitude. The kind is implemented by the module of
    its name, imported by its first fit, so that commands which fit nothing
    load none of them."""
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
