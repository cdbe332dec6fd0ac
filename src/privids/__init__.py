"""Privacy-preserving intrusion-detection pipeline for flow-record CSVs.

Stages: correlation-threshold feature selection, least-squares data
distortion, privacy measurement, and a five-classifier evaluation harness.
"""

__version__ = "0.1.0"

from .dataset import (
    FeatureMatrix,
    LabelVector,
    load_csv,
    prepare,
    stratified_sample,
    stratified_split,
)
from .distortion import DistortionModel, distort, fit_lsm, transform
from .feature_selection import (
    CorrelationMatrix,
    SelectionReport,
    apply_selection,
    correlation_matrix,
    pearson,
    rank_features,
    select_by_threshold,
)
from .privacy_metrics import (
    PrivacyReport,
    feature_rank_change,
    privacy_report,
    rank_elements,
    value_difference,
)

__all__ = [
    "FeatureMatrix",
    "LabelVector",
    "load_csv",
    "prepare",
    "stratified_sample",
    "stratified_split",
    "CorrelationMatrix",
    "SelectionReport",
    "pearson",
    "correlation_matrix",
    "rank_features",
    "select_by_threshold",
    "apply_selection",
    "DistortionModel",
    "fit_lsm",
    "transform",
    "distort",
    "PrivacyReport",
    "value_difference",
    "rank_elements",
    "feature_rank_change",
    "privacy_report",
]
