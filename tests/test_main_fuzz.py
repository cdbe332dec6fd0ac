"""privids main on generated inputs: a small valid YAML config and a CSV of at
most 30 rows, each mutated, then one command from cli.COMMANDS. Every run must
end with exit code 0, 1, 2 or 3; a failing run prints exactly one line on
stderr and no traceback, and a warning counts as a stray stderr line."""

import copy
import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from privids import cli
from privids.classifiers import KINDS
from privids.evaluation import CONFIGURATION_TAGS

# small counts, so that no example runs long
_HYPERPARAMETERS = {
    "knn": {"k": st.integers(1, 5)},
    "naive_bayes": {},
    "decision_tree": {"max_depth": st.integers(1, 4), "min_samples_split": st.integers(2, 4)},
    "random_forest": {"n_trees": st.integers(1, 3), "max_depth": st.integers(1, 4)},
    "svm": {
        "epochs": st.integers(1, 3),
        "lambda": st.sampled_from([1e-4, 0.1, 1.0]),
        "batch_size": st.integers(1, 8),
    },
}

_WRONG_TYPES = st.sampled_from(["text", "0.3", 1.5, 7, True, None, [1], ["a"], {"a": 1}])

# out-of-range values by key; a count key also gets one far too large
_OUT_OF_RANGE = {
    "pcc_threshold": [0.0, -0.5, 1.5],
    "test_fraction": [0.0, 1.0, 1.5],
    "seed": [-1],
    "rows": [0, -3, 1_000_000],
    "timing_repeats": [0, -1],
    "configurations": [[], ["nope"], ["baseline", "baseline"]],
    "drop_columns": [["no_such_column"], ["label"], ["dur", "proto", "sbytes", "ttl"]],
    "label_column": ["no_such_column", "dur", "proto"],
    "category_column": ["no_such_column", "label", "proto"],
    "sha256": ["0" * 64, "xyz"],
    "kind": ["nope"],
    "k": [0, 1_000_000],
    "max_depth": [0, 1_000_000],
    "min_samples_split": [1, 1_000_000],
    "n_trees": [0],
    "epochs": [0],
    "lambda": [0.0, -1.0],
    "batch_size": [0, 1_000_000],
}

# factors that put a numeric cell or column at huge, tiny or subnormal
# magnitudes, where squares overflow or underflow
_MAGNITUDES = [1e154, -1e300, 1.7e308, 1e-160, 1e-307, 1e-315, 5e-324]

_HEADER = ["id", "dur", "proto", "sbytes", "ttl", "attack_cat", "label"]
_NUMERIC = [1, 3, 4]  # dur, sbytes, ttl
_LABEL = _HEADER.index("label")


@st.composite
def _configs(draw):
    classifiers = [
        {
            "kind": kind,
            "hyperparameters": draw(st.fixed_dictionaries(_HYPERPARAMETERS[kind])),
            "seed": draw(st.integers(0, 3)),
        }
        for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
    ]
    return {
        "dataset": {
            "path": "flows.csv",
            "drop_columns": ["id"],
            "label_column": "label",
            "category_column": "attack_cat",
            "sha256": None,
            "min_max_scale": draw(st.booleans()),
        },
        "selection": {"pcc_threshold": draw(st.sampled_from([0.5, 0.85, 1.0]))},
        "split": {
            "test_fraction": draw(st.sampled_from([0.2, 0.3, 0.5])),
            "seed": draw(st.integers(0, 3)),
        },
        "sample": {"rows": draw(st.none() | st.integers(4, 30)), "seed": draw(st.integers(0, 3))},
        "classifiers": classifiers,
        "configurations": draw(
            st.lists(st.sampled_from(CONFIGURATION_TAGS), min_size=1, max_size=4, unique=True)
        ),
        "timing_repeats": draw(st.integers(1, 2)),
        "output_dir": "unused, --output is given",
    }


@st.composite
def _rows(draw):
    """4 to 30 rows of a valid CSV with both labels, as lists of cells."""
    n = draw(st.integers(4, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.arange(n) % 2)
    return [
        [
            str(i),
            repr(float(rng.random())),
            str(rng.choice(["tcp", "udp", "arp"])),
            str(int(rng.integers(0, 1000)) + 500 * int(label)),
            str(int(rng.integers(1, 255))),
            "Normal" if label == 0 else "DoS",
            str(label),
        ]
        for i, label in enumerate(labels)
    ]


def _paths(value, prefix=()):
    """Every key or index path under a parsed YAML value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _parent(value, path):
    return _get(value, path[:-1])


def _mutate_config(data, config):
    """config with one mutation; a drawn value is copied, because a later
    mutation may change it in place."""
    paths = list(_paths(config))
    kind = data.draw(st.sampled_from(["drop", "unknown", "wrong_type", "out_of_range"]))
    if kind == "drop":
        path = data.draw(st.sampled_from(paths))
        del _parent(config, path)[path[-1]]
    elif kind == "unknown":
        mappings = [p for p in [(), *paths] if isinstance(_get(config, p), dict)]
        _get(config, data.draw(st.sampled_from(mappings)))["unknown_key"] = 1
    elif kind == "wrong_type":
        path = data.draw(st.sampled_from(paths))
        _parent(config, path)[path[-1]] = copy.deepcopy(data.draw(_WRONG_TYPES))
    else:
        path = data.draw(st.sampled_from([p for p in paths if p[-1] in _OUT_OF_RANGE]))
        value = data.draw(st.sampled_from(_OUT_OF_RANGE[path[-1]]))
        _parent(config, path)[path[-1]] = copy.deepcopy(value)


def _mutate_csv(data, rows):
    """rows with one mutation; None stands for an empty file."""
    kind = data.draw(
        st.sampled_from(
            ["ragged", "bad_label", "text", "nan", "empty", "single_class", "magnitude"]
        )
    )
    i = data.draw(st.integers(0, len(rows) - 1))
    if kind == "ragged":
        rows[i] = rows[i] + ["1"] if data.draw(st.booleans()) else rows[i][:-1]
    elif kind == "bad_label":
        rows[i][_LABEL:] = [data.draw(st.sampled_from(["2", "-1", "x", "1.0", "", "nan"]))]
    elif kind in ("text", "nan"):
        j = data.draw(st.sampled_from(_NUMERIC))
        rows[i][j] = "abc" if kind == "text" else data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "empty":
        return None
    elif kind == "magnitude":
        j = data.draw(st.sampled_from(_NUMERIC))
        factor = data.draw(st.sampled_from(_MAGNITUDES))
        for row in rows if data.draw(st.booleans()) else [rows[i]]:
            if row[j] != "abc":  # a cell an earlier mutation made text
                row[j] = repr(float(row[j]) * factor)
    else:
        label = data.draw(st.sampled_from(["0", "1"]))
        for row in rows:
            row[_LABEL:] = [label]
    return rows


def _run_main(command, config, rows):
    """Exit code and stderr of main on config and rows in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        text = "" if rows is None else "".join(",".join(row) + "\n" for row in [_HEADER, *rows])
        (tmp / "flows.csv").write_text(text, encoding="utf-8")
        if isinstance(config.get("dataset"), dict) and config["dataset"].get("path") == "flows.csv":
            config["dataset"]["path"] = str(tmp / "flows.csv")
        (tmp / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
        argv = [command, "--config", str(tmp / "config.yaml"), "--output", str(tmp / "out")]
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(argv)
    return code, err.getvalue()


def _check(code, err):
    assert code in {0, 1, 2, 3}
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    else:
        assert err == ""


_COMMANDS = st.sampled_from(list(cli.COMMANDS))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=_COMMANDS, config=_configs(), rows=_rows())
def test_main_on_a_mutated_config(data, command, config, rows):
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_config(data, config)
    _check(*_run_main(command, config, rows))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=_COMMANDS, config=_configs(), rows=_rows())
def test_main_on_a_mutated_csv(data, command, config, rows):
    for _ in range(data.draw(st.integers(0, 2))):
        if rows is not None:
            rows = _mutate_csv(data, rows)
    _check(*_run_main(command, config, rows))
