"""Pipeline configuration: a single YAML file with strict key checking.

Every field has an explicit default so a run manifest can echo the full
effective configuration. Unknown keys are rejected at every nesting level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .classifiers import KINDS, ClassifierSpec
from .errors import ConfigError, DataValidationError
from .evaluation import CONFIGURATION_TAGS

DEFAULT_DROP_COLUMNS = ["id"]
DEFAULT_LABEL_COLUMN = "label"
DEFAULT_CATEGORY_COLUMN = "attack_cat"
DEFAULT_PCC_THRESHOLD = 0.85
DEFAULT_TEST_FRACTION = 0.3
DEFAULT_SEED = 42
DEFAULT_TIMING_REPEATS = 3


@dataclass
class PipelineConfig:
    dataset_path: str
    output_dir: str = "runs/out"
    drop_columns: list[str] = field(default_factory=lambda: list(DEFAULT_DROP_COLUMNS))
    label_column: str = DEFAULT_LABEL_COLUMN
    category_column: str | None = DEFAULT_CATEGORY_COLUMN
    sha256: str | None = None
    min_max_scale: bool = False
    pcc_threshold: float = DEFAULT_PCC_THRESHOLD
    test_fraction: float = DEFAULT_TEST_FRACTION
    split_seed: int = DEFAULT_SEED
    sample_rows: int | None = None
    sample_seed: int = DEFAULT_SEED
    classifier_specs: list[ClassifierSpec] = field(default_factory=list)
    configurations: list[str] = field(default_factory=lambda: list(CONFIGURATION_TAGS))
    timing_repeats: int = DEFAULT_TIMING_REPEATS

    def __post_init__(self):
        if not self.classifier_specs:
            self.classifier_specs = [
                ClassifierSpec(kind=k, hyperparameters={}, seed=DEFAULT_SEED) for k in KINDS
            ]
        self.validate()

    def validate(self):
        if not (0.0 < self.pcc_threshold <= 1.0):
            raise ConfigError(f"pcc_threshold must be in (0, 1], got {self.pcc_threshold}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        rows = self.sample_rows
        if rows is not None and (not isinstance(rows, int) or isinstance(rows, bool) or rows < 1):
            raise ConfigError(f"sample.rows must be a positive integer, got {rows!r}")
        if self.timing_repeats < 1:
            raise ConfigError(f"timing_repeats must be >= 1, got {self.timing_repeats}")
        if not self.configurations:
            raise ConfigError("at least one configuration tag is required")
        bad_tags = [t for t in self.configurations if t not in CONFIGURATION_TAGS]
        if bad_tags:
            raise ConfigError(f"unknown configurations {bad_tags}, expected {CONFIGURATION_TAGS}")
        if len(set(self.configurations)) != len(self.configurations):
            raise ConfigError("duplicate configuration tags")
        for i, spec in enumerate(self.classifier_specs):
            try:
                spec.resolved()
            except DataValidationError as exc:
                raise ConfigError(f"classifiers[{i}]: {exc}") from None

    def echo(self) -> dict:
        """Every effective value, defaults included, for the run manifest."""
        return {
            "dataset": {
                "path": self.dataset_path,
                "drop_columns": list(self.drop_columns),
                "label_column": self.label_column,
                "category_column": self.category_column,
                "sha256": self.sha256,
                "min_max_scale": self.min_max_scale,
            },
            "selection": {"pcc_threshold": self.pcc_threshold},
            "split": {"test_fraction": self.test_fraction, "seed": self.split_seed},
            "sample": {"rows": self.sample_rows, "seed": self.sample_seed},
            "classifiers": [
                {"kind": s.kind, "hyperparameters": s.resolved(), "seed": s.seed}
                for s in self.classifier_specs
            ],
            "configurations": list(self.configurations),
            "timing_repeats": self.timing_repeats,
            "output_dir": self.output_dir,
        }


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _take(section: dict, allowed: set[str], where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _scalar(section: dict, key: str, convert, default, where: str):
    """section[key] (or the default) through int or float; a bool or a failed
    conversion is a ConfigError naming the key path."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        try:
            return convert(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where}{key} must be {convert.__name__}, got {value!r}")


def _parse_classifiers(raw) -> list[ClassifierSpec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigError("classifiers must be a list")
    specs = []
    for i, entry in enumerate(raw):
        entry = _require_mapping(entry, f"classifiers[{i}]")
        _take(entry, {"kind", "hyperparameters", "seed"}, f"classifiers[{i}]")
        if "kind" not in entry:
            raise ConfigError(f"classifiers[{i}]: 'kind' is required")
        specs.append(
            ClassifierSpec(
                kind=entry["kind"],
                hyperparameters=_require_mapping(
                    entry.get("hyperparameters"), f"classifiers[{i}].hyperparameters"
                ),
                seed=_scalar(entry, "seed", int, DEFAULT_SEED, f"classifiers[{i}]."),
            )
        )
    return specs


def load_config(path) -> PipelineConfig:
    """Load and validate a pipeline config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    raw = _require_mapping(raw, "config")
    _take(
        raw,
        {
            "dataset",
            "selection",
            "split",
            "sample",
            "classifiers",
            "configurations",
            "timing_repeats",
            "output_dir",
        },
        "config",
    )
    dataset = _require_mapping(raw.get("dataset"), "dataset")
    _take(
        dataset,
        {"path", "drop_columns", "label_column", "category_column", "sha256", "min_max_scale"},
        "dataset",
    )
    if "path" not in dataset:
        raise ConfigError("dataset.path is required")
    selection = _require_mapping(raw.get("selection"), "selection")
    _take(selection, {"pcc_threshold"}, "selection")
    split = _require_mapping(raw.get("split"), "split")
    _take(split, {"test_fraction", "seed"}, "split")
    sample = _require_mapping(raw.get("sample"), "sample")
    _take(sample, {"rows", "seed"}, "sample")
    drop_columns = dataset.get("drop_columns", DEFAULT_DROP_COLUMNS)
    if not isinstance(drop_columns, list):
        raise ConfigError(f"dataset.drop_columns must be a list, got {drop_columns!r}")
    min_max_scale = dataset.get("min_max_scale", False)
    if not isinstance(min_max_scale, bool):
        raise ConfigError(f"dataset.min_max_scale must be true or false, got {min_max_scale!r}")
    sha256 = dataset.get("sha256")
    if sha256 is not None and not isinstance(sha256, str):
        raise ConfigError(f"dataset.sha256 must be a string, got {sha256!r}")

    return PipelineConfig(
        dataset_path=str(dataset["path"]),
        output_dir=str(raw.get("output_dir", "runs/out")),
        drop_columns=list(drop_columns),
        label_column=str(dataset.get("label_column", DEFAULT_LABEL_COLUMN)),
        category_column=dataset.get("category_column", DEFAULT_CATEGORY_COLUMN),
        sha256=sha256,
        min_max_scale=min_max_scale,
        pcc_threshold=_scalar(
            selection, "pcc_threshold", float, DEFAULT_PCC_THRESHOLD, "selection."
        ),
        test_fraction=_scalar(split, "test_fraction", float, DEFAULT_TEST_FRACTION, "split."),
        split_seed=_scalar(split, "seed", int, DEFAULT_SEED, "split."),
        sample_rows=sample.get("rows"),
        sample_seed=_scalar(sample, "seed", int, DEFAULT_SEED, "sample."),
        classifier_specs=_parse_classifiers(raw.get("classifiers")),
        configurations=list(raw.get("configurations", CONFIGURATION_TAGS)),
        timing_repeats=_scalar(raw, "timing_repeats", int, DEFAULT_TIMING_REPEATS, ""),
    )
