"""Pipeline configuration: a single YAML file with strict key checking.

Every run setting is declared once, here, with its default and its allowed
values. A config key is declared on its PipelineConfig field: the field's
metadata holds the key's YAML path, its default and its allowed values, and
the field's annotation is its YAML type. Each classifier kind's
hyperparameters are declared in HYPERPARAMETERS, each typed by its default.
One function, _setting, checks the type and then the range of every key,
hyperparameter, classifier kind and seed, so each fails with one message
format: "<where> must be <type or allowed values>, got <value>". Unknown keys
are rejected at every nesting level. load_config only reads the file: every
value is checked by the constructor of the object that holds it, so a config
made in code gets the same checks.
"""

import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import yaml

from .errors import ConfigError
from .evaluation import CONFIGURATION_TAGS

DEFAULT_SEED = 42
_REQUIRED = object()

_TYPE_NAMES = {
    int: "an integer",
    int | None: "an integer or null",
    float: "a number",
    str: "a string",
    str | None: "a string or null",
    bool: "true or false",
    tuple[str, ...]: "a list of strings",
    list | None: "a list or null",
    Mapping | None: "a mapping or null",
}


def _at_least(low):
    """(phrase, test) of the values >= low."""
    return f">= {low}", lambda v: v >= low


# kind: {name: (default, allowed values, test)} of each classifier's
# hyperparameters; a value must have its default's type. A forest's trees
# take the decision tree's settings.
_TREE = {"max_depth": (12, *_at_least(1)), "min_samples_split": (2, *_at_least(2))}
HYPERPARAMETERS = {
    "knn": {"k": (5, *_at_least(1))},
    "naive_bayes": {},
    "decision_tree": _TREE,
    "random_forest": {"n_trees": (100, *_at_least(1)), **_TREE},
    "svm": {
        "epochs": (100, *_at_least(1)),
        "lambda": (1e-4, "> 0", lambda v: v > 0),
        "batch_size": (512, *_at_least(1)),
    },
}
KINDS = tuple(HYPERPARAMETERS)


def _key(path: str, default=_REQUIRED, phrase: str = "", test=None):
    """A field read from the config key at path ("section.key", or "key" at
    the top level), taking default when absent; a value that is not null
    must pass test, which phrase describes in the error."""
    return field(metadata={"path": path, "default": default, "allowed": (phrase, test)})


def _typed(value, kind, where: str):
    """value if it has the type kind, else a ConfigError naming where. bool is
    never a number, an int under a float key becomes a float, and a list or
    tuple of strings becomes a tuple, so a config cannot change in place."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind == tuple[str, ...]:
        ok = isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return tuple(value) if kind == tuple[str, ...] else value


def _setting(value, kind, where: str, phrase: str = "", test=None):
    """value as _typed makes it, if it is null or passes test, else a
    ConfigError naming where and saying phrase: the one rule of every run
    setting."""
    value = _typed(value, kind, where)
    if test and value is not None and not test(value):
        raise ConfigError(f"{where} must be {phrase}, got {value!r}")
    return value


def _mapping(value, where: str, allowed) -> Mapping:
    """value as a mapping (null reads as empty) with no key outside allowed."""
    value = _typed(value, Mapping | None, where) or {}
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    return value


@dataclass(frozen=True)
class ClassifierSpec:
    """Which classifier to train, with what hyperparameters and seed: a kind
    of HYPERPARAMETERS, a mapping (null for none) that updates the kind's
    defaults, and a seed >= 0, each checked by _setting when the spec is made
    and held read-only, so a spec is valid."""

    kind: str
    hyperparameters: Mapping | None = None
    seed: int = 0

    def __post_init__(self):
        kind = _setting(self.kind, str, "kind", f"one of {KINDS}", lambda v: v in HYPERPARAMETERS)
        given = _mapping(self.hyperparameters, f"{kind}.hyperparameters", HYPERPARAMETERS[kind])
        merged = {
            name: _setting(given.get(name, default), type(default), f"{kind}.{name}", phrase, test)
            for name, (default, phrase, test) in HYPERPARAMETERS[kind].items()
        }
        _setting(self.seed, int, f"{kind}.seed", *_at_least(0))
        object.__setattr__(self, "hyperparameters", MappingProxyType(merged))


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run. Each field but classifier_specs is a config
    key, declared by _key; keys are loaded, checked and echoed in this order."""

    dataset_path: str = _key("dataset.path")
    drop_columns: tuple[str, ...] = _key("dataset.drop_columns", ["id"])
    label_column: str = _key("dataset.label_column", "label")
    category_column: str | None = _key("dataset.category_column", "attack_cat")
    sha256: str | None = _key(
        "dataset.sha256", None, "64 hexadecimal digits", lambda v: re.fullmatch("[0-9a-fA-F]{64}", v)
    )
    min_max_scale: bool = _key("dataset.min_max_scale", False)
    pcc_threshold: float = _key("selection.pcc_threshold", 0.85, "in (0, 1]", lambda v: 0.0 < v <= 1.0)
    test_fraction: float = _key("split.test_fraction", 0.3, "in (0, 1)", lambda v: 0.0 < v < 1.0)
    split_seed: int = _key("split.seed", DEFAULT_SEED, *_at_least(0))
    sample_rows: int | None = _key("sample.rows", None, "a positive integer", lambda v: v >= 1)
    sample_seed: int = _key("sample.seed", DEFAULT_SEED, *_at_least(0))
    configurations: tuple[str, ...] = _key(
        "configurations", list(CONFIGURATION_TAGS), f"one or more distinct tags of {CONFIGURATION_TAGS}",
        lambda v: v and set(v) <= set(CONFIGURATION_TAGS) and len(set(v)) == len(v),
    )
    timing_repeats: int = _key("timing_repeats", 3, *_at_least(1))
    output_dir: str = _key("output_dir", "runs/out")
    classifier_specs: tuple[ClassifierSpec, ...]

    def __post_init__(self):
        for f, _, _ in _keys():
            value = _setting(getattr(self, f.name), f.type, f.metadata["path"], *f.metadata["allowed"])
            object.__setattr__(self, f.name, value)
        specs = self.classifier_specs
        if not isinstance(specs, (list, tuple)) or not all(isinstance(s, ClassifierSpec) for s in specs):
            raise ConfigError(f"classifiers must be a list of ClassifierSpec, got {specs!r}")
        if not specs:
            raise ConfigError("classifiers must name at least one classifier")
        object.__setattr__(self, "classifier_specs", tuple(specs))

    def echo(self) -> dict:
        """Every effective value, defaults included, for the run manifest."""
        specs = [{**vars(s), "hyperparameters": dict(s.hyperparameters)} for s in self.classifier_specs]
        out = {"classifiers": specs}
        for f, section, key in _keys():
            (out.setdefault(section, {}) if section else out)[key] = getattr(self, f.name)
        return out


def _keys():
    """(field, section, key) for each PipelineConfig field that is a config key,
    in declaration order; section is "" for a key at the top level."""
    return [(f, *f.metadata["path"].rpartition(".")[::2]) for f in fields(PipelineConfig) if f.metadata]


def load_config(path) -> PipelineConfig:
    """Read a pipeline config file: reject unknown keys, require dataset.path
    and fill in defaults; ClassifierSpec and PipelineConfig check the values."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    keys = _keys()
    raw = _mapping(raw, "config", {section or key for _, section, key in keys} | {"classifiers"})
    sections = {"": raw}
    for section in dict.fromkeys(s for _, s, _ in keys if s):
        sections[section] = _mapping(raw.get(section), section, {k for _, s, k in keys if s == section})

    values = {}
    for f, section, key in keys:
        values[f.name] = sections[section].get(key, f.metadata["default"])
        if values[f.name] is _REQUIRED:
            raise ConfigError(f"{f.metadata['path']} is required")

    entries = _typed(raw.get("classifiers"), list | None, "classifiers")
    specs = []
    for i, entry in enumerate([{"kind": k} for k in KINDS] if entries is None else entries):
        where = f"classifiers[{i}]"
        entry = _mapping(entry, where, {f.name for f in fields(ClassifierSpec)})
        try:  # an entry's keys are ClassifierSpec's fields
            specs.append(ClassifierSpec(**{"kind": None, "seed": DEFAULT_SEED, **entry}))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return PipelineConfig(classifier_specs=specs, **values)
