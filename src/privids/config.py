"""Pipeline configuration: a single YAML file with strict key checking.

One table, SCHEMA, lists every key but `classifiers` with its YAML type and
default; loading, type checks and the run manifest's echo of the full
effective configuration all read it. Unknown keys are rejected at every
nesting level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import yaml

from .classifiers import KINDS, ClassifierSpec
from .errors import ConfigError, DataValidationError
from .evaluation import CONFIGURATION_TAGS

DEFAULT_SEED = 42
_REQUIRED = object()

# (section, key, PipelineConfig field, type, default) for every key except
# `classifiers`; section None is the top level of the file.
SCHEMA = (
    ("dataset", "path", "dataset_path", str, _REQUIRED),
    ("dataset", "drop_columns", "drop_columns", list[str], ["id"]),
    ("dataset", "label_column", "label_column", str, "label"),
    ("dataset", "category_column", "category_column", str | None, "attack_cat"),
    ("dataset", "sha256", "sha256", str | None, None),
    ("dataset", "min_max_scale", "min_max_scale", bool, False),
    ("selection", "pcc_threshold", "pcc_threshold", float, 0.85),
    ("split", "test_fraction", "test_fraction", float, 0.3),
    ("split", "seed", "split_seed", int, DEFAULT_SEED),
    ("sample", "rows", "sample_rows", int | None, None),
    ("sample", "seed", "sample_seed", int, DEFAULT_SEED),
    (None, "configurations", "configurations", list[str], list(CONFIGURATION_TAGS)),
    (None, "timing_repeats", "timing_repeats", int, 3),
    (None, "output_dir", "output_dir", str, "runs/out"),
)

_TYPE_NAMES = {
    int: "an integer",
    int | None: "an integer or null",
    float: "a number",
    str: "a string",
    str | None: "a string or null",
    bool: "true or false",
    list[str]: "a list of strings",
    list | None: "a list or null",
    dict | None: "a mapping or null",
}


def _typed(value, kind, where: str):
    """value if it has the type kind, else a ConfigError naming where. bool is
    never a number, an int under a float key becomes a float, and a list of
    strings becomes a tuple, so a loaded config cannot change in place."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind == list[str]:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return tuple(value) if kind == list[str] else value


def _mapping(value, where: str, allowed) -> dict:
    """value as a mapping (null reads as empty) with no key outside allowed."""
    value = _typed(value, dict | None, where) or {}
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    dataset_path: str
    output_dir: str
    drop_columns: tuple[str, ...]
    label_column: str
    category_column: str | None
    sha256: str | None
    min_max_scale: bool
    pcc_threshold: float
    test_fraction: float
    split_seed: int
    sample_rows: int | None
    sample_seed: int
    classifier_specs: tuple[ClassifierSpec, ...]
    configurations: tuple[str, ...]
    timing_repeats: int

    def __post_init__(self):
        if not (0.0 < self.pcc_threshold <= 1.0):
            raise ConfigError(f"selection.pcc_threshold must be in (0, 1], got {self.pcc_threshold}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"split.test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.sha256 is not None and not re.fullmatch("[0-9a-fA-F]{64}", self.sha256):
            raise ConfigError(f"dataset.sha256 must be 64 hexadecimal digits, got {self.sha256!r}")
        if self.sample_rows is not None and self.sample_rows < 1:
            raise ConfigError(f"sample.rows must be a positive integer, got {self.sample_rows}")
        if self.timing_repeats < 1:
            raise ConfigError(f"timing_repeats must be >= 1, got {self.timing_repeats}")
        seeds = {"split.seed": self.split_seed, "sample.seed": self.sample_seed}
        seeds.update((f"classifiers[{i}].seed", s.seed) for i, s in enumerate(self.classifier_specs))
        for where, seed in seeds.items():
            if seed < 0:
                raise ConfigError(f"{where} must be >= 0, got {seed}")
        if not self.configurations:
            raise ConfigError("configurations must name at least one configuration tag")
        if not self.classifier_specs:
            raise ConfigError("classifiers must name at least one classifier")
        bad_tags = [t for t in self.configurations if t not in CONFIGURATION_TAGS]
        if bad_tags:
            raise ConfigError(f"unknown configurations {bad_tags}, expected {CONFIGURATION_TAGS}")
        if len(set(self.configurations)) != len(self.configurations):
            raise ConfigError("configurations has duplicate tags")
        for i, spec in enumerate(self.classifier_specs):
            try:
                spec.resolved()
            except DataValidationError as exc:
                raise ConfigError(f"classifiers[{i}]: {exc}") from None

    def echo(self) -> dict:
        """Every effective value, defaults included, for the run manifest."""
        out = {
            "classifiers": [
                {"kind": s.kind, "hyperparameters": s.resolved(), "seed": s.seed}
                for s in self.classifier_specs
            ]
        }
        for section, key, name, _, _ in SCHEMA:
            (out.setdefault(section, {}) if section else out)[key] = getattr(self, name)
        return out


def load_config(path) -> PipelineConfig:
    """Load and validate a pipeline config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    raw = _mapping(raw, "config", {section or key for section, key, *_ in SCHEMA} | {"classifiers"})
    sections = {None: raw}
    for section in dict.fromkeys(s for s, *_ in SCHEMA if s):
        allowed = {k for s, k, *_ in SCHEMA if s == section}
        sections[section] = _mapping(raw.get(section), section, allowed)

    fields = {}
    for section, key, name, kind, default in SCHEMA:
        where = f"{section}.{key}" if section else key
        value = sections[section].get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{where} is required")
        fields[name] = _typed(value, kind, where)

    entries = _typed(raw.get("classifiers"), list | None, "classifiers")
    specs = []
    for i, entry in enumerate([{"kind": k} for k in KINDS] if entries is None else entries):
        where = f"classifiers[{i}]"
        entry = _mapping(entry, where, {"kind", "hyperparameters", "seed"})
        kind = _typed(entry.get("kind"), str, f"{where}.kind")
        hyperparameters = _typed(entry.get("hyperparameters"), dict | None, f"{where}.hyperparameters")
        seed = _typed(entry.get("seed", DEFAULT_SEED), int, f"{where}.seed")
        specs.append(ClassifierSpec(kind, hyperparameters or {}, seed))
    return PipelineConfig(classifier_specs=tuple(specs), **fields)
