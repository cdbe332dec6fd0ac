"""Privacy-preserving intrusion-detection pipeline for flow-record CSVs.

Stages: correlation-threshold feature selection, least-squares data
distortion, privacy measurement, and a five-classifier evaluation harness.
The library API is the submodules (privids.dataset, privids.feature_selection,
privids.distortion, privids.privacy_metrics, privids.evaluation, privids.cli).
"""

__version__ = "0.1.0"
