"""Exception hierarchy shared across the pipeline.

Exit-code mapping used by the CLI: configuration and usage problems exit 1,
data problems exit 2, numeric failures exit 3.
"""


class PipelineError(ValueError):
    """Base of the errors below; the CLI exits with the class's exit_code."""


class DataFormatError(PipelineError):
    """Structurally broken input: ragged CSV rows, missing header, empty file."""

    exit_code = 2


class DataValidationError(PipelineError):
    """Well-formed input whose content violates a contract (bad label values,
    unparseable numeric cells, shape mismatches, degenerate class counts)."""

    exit_code = 2


class SingularMatrixError(PipelineError):
    """Rank-deficient least-squares design matrix; no minimum-norm fallback."""

    exit_code = 3


class ConfigError(PipelineError):
    """Invalid or unknown pipeline configuration keys/values."""

    exit_code = 1
