import csv
import dataclasses
import errno
import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import typing
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import synth_data
import writer_oracle
from privids import cli
from privids.classifiers import KINDS, default_hyperparameters
from privids.cli import NONDETERMINISTIC_KEYS, cmd_pipeline, main
from privids.config import DEFAULT_SEED, PipelineConfig, load_config
from privids.dataset import FeatureMatrix
from privids.distortion import distort
from privids.errors import ConfigError
from privids.evaluation import CONFIGURATION_TAGS

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "unsw.yaml"


def _config_file(tmp_path, dataset_path, **overrides):
    payload = {
        "dataset": {"path": str(dataset_path)},
        "output_dir": str(tmp_path / "out"),
        "classifiers": [{"kind": "knn", "hyperparameters": {"k": 3}, "seed": 42}],
        "timing_repeats": 1,
    }
    payload.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in NONDETERMINISTIC_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_load_config_defaults(tmp_path, small_csv):
    config = load_config(_config_file(tmp_path, small_csv))
    assert config.pcc_threshold == 0.85
    assert config.test_fraction == 0.3
    assert config.split_seed == 42
    assert config.drop_columns == ("id",)
    assert config.category_column == "attack_cat"
    assert [s.kind for s in config.classifier_specs] == ["knn"]
    echoed = config.echo()
    assert echoed["classifiers"][0]["hyperparameters"]["k"] == 3
    # a YAML int under a float key is stored as a float, so the echo reads 1.0
    config = load_config(_config_file(tmp_path, small_csv, selection={"pcc_threshold": 1}))
    assert type(config.pcc_threshold) is float
    assert json.dumps(config.echo()["selection"]) == '{"pcc_threshold": 1.0}'


def test_load_config_fills_all_five_classifiers_by_default(tmp_path, small_csv):
    path = tmp_path / "bare.yaml"
    path.write_text(yaml.safe_dump({"dataset": {"path": str(small_csv)}}), encoding="utf-8")
    config = load_config(path)
    assert [s.kind for s in config.classifier_specs] == [
        "knn", "naive_bayes", "decision_tree", "random_forest", "svm",
    ]


def test_load_config_rejects_an_empty_classifier_list(tmp_path, small_csv):
    # null still means all five; only an explicit empty list is an error
    path = _config_file(tmp_path, small_csv, classifiers=None)
    assert [s.kind for s in load_config(path).classifier_specs] == list(KINDS)
    with pytest.raises(ConfigError, match="classifiers must name at least one classifier"):
        load_config(_config_file(tmp_path, small_csv, classifiers=[]))


def test_a_config_made_in_code_gets_the_checks_of_a_file():
    config = load_config(SHIPPED_CONFIG)
    # numpy once failed on this seed only after select had written its files
    with pytest.raises(ConfigError, match=r"^split\.seed must be an integer, got 1\.5$"):
        dataclasses.replace(config, split_seed=1.5)
    with pytest.raises(ConfigError, match=r"^classifiers must be a list of ClassifierSpec, got \[\{'kind': 'knn'\}\]$"):
        dataclasses.replace(config, classifier_specs=[{"kind": "knn"}])
    # a list is held as a tuple, so the config cannot change in place
    specs = list(config.classifier_specs)
    assert dataclasses.replace(config, classifier_specs=specs).classifier_specs == tuple(specs)


@pytest.mark.parametrize("unreadable", ["missing", "directory", "not_utf8"])
def test_unreadable_config_exits_1(tmp_path, capsys, unreadable):
    path = tmp_path / "config.yaml"
    if unreadable == "directory":
        path.mkdir()
    elif unreadable == "not_utf8":
        path.write_bytes(b"dataset:\n  path: caf\xe9.csv\n")
    assert main(["select", "--config", str(path)]) == 1
    err = _assert_one_line_error(capsys)
    if unreadable == "missing":
        assert err == f"error: file not found: {path}\n"
    else:
        assert err.startswith(f"error: {path}: cannot read: ")


def test_load_config_rejects_unknown_keys(tmp_path, small_csv):
    for overrides in ({"mystery": 1}, {"dataset": {"path": str(small_csv), "frobnicate": True}}):
        path = tmp_path / "bad.yaml"
        payload = {"dataset": {"path": str(small_csv)}}
        payload.update(overrides)
        path.write_text(yaml.safe_dump(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)


def test_load_config_validates_ranges(tmp_path, small_csv):
    with pytest.raises(ConfigError, match="pcc_threshold"):
        load_config(_config_file(tmp_path, small_csv, selection={"pcc_threshold": 1.5}))
    with pytest.raises(ConfigError, match="configurations"):
        load_config(_config_file(tmp_path, small_csv, configurations=["nonsense"]))
    with pytest.raises(ConfigError, match="hyperparameter"):
        load_config(
            _config_file(
                tmp_path, small_csv,
                classifiers=[{"kind": "knn", "hyperparameters": {"k": 0}}],
            )
        )


def test_a_bad_classifier_entry_is_named_before_other_config_faults(tmp_path, small_csv):
    # classifier entries are checked as load_config builds them, and so
    # before PipelineConfig checks the type and range of every key
    for key_fault in ({"selection": {"pcc_threshold": 1.5}}, {"split": {"seed": 1.5}}):
        config_path = _config_file(
            tmp_path, small_csv, **key_fault, classifiers=[{"kind": "knn", "hyperparameters": {"k": 0}}]
        )
        with pytest.raises(ConfigError, match=r"^classifiers\[0\]: knn: invalid hyperparameter k=0$"):
            load_config(config_path)
    config_path = _config_file(
        tmp_path, small_csv, selection={"pcc_threshold": 1.5},
        classifiers=[{"kind": "knn", "seed": -1}],
    )
    with pytest.raises(
        ConfigError, match=r"^classifiers\[0\]: knn: seed must be a non-negative integer, got -1$"
    ):
        load_config(config_path)


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("selection.pcc_threshold", {"selection": {"pcc_threshold": "abc"}}),
        # bool is a subclass of int: true must not run as 1
        ("selection.pcc_threshold", {"selection": {"pcc_threshold": True}}),
        ("timing_repeats", {"timing_repeats": True}),
        ("split.seed", {"split": {"seed": True}}),
        ("sample.rows", {"sample": {"rows": True}}),
        (
            "classifiers[0]: knn: invalid hyperparameter k",
            {"classifiers": [{"kind": "knn", "hyperparameters": {"k": True}}]},
        ),
        # a quoted "false" is truthy, so it would turn scaling on
        ("dataset.min_max_scale", {"dataset": {"min_max_scale": "false"}}),
        ("dataset.sha256", {"dataset": {"sha256": 123}}),
        # a malformed digest is a config fault, not a mismatch with the data
        ("dataset.sha256 must be 64 hexadecimal digits", {"dataset": {"sha256": "nothex"}}),
        # a float must not truncate to an int
        ("split.seed", {"split": {"seed": 2.7}}),
        ("timing_repeats", {"timing_repeats": 2.9}),
        ("classifiers[0]: knn: seed must be", {"classifiers": [{"kind": "knn", "seed": 1.5}]}),
        # a string must not split into one-letter tags
        ("configurations must be a list", {"configurations": "baseline"}),
        # a list, a number or null must not turn into a column name or a path
        ("dataset.label_column", {"dataset": {"label_column": ["label"]}}),
        ("dataset.category_column", {"dataset": {"category_column": 5}}),
        ("dataset.drop_columns", {"dataset": {"drop_columns": [1]}}),
        ("dataset.path", {"dataset": {"path": None}}),
        ("output_dir", {"output_dir": ["x"]}),
        # numpy's generators reject a negative seed with a bare ValueError
        ("split.seed", {"split": {"seed": -1}}),
        ("classifiers[0]: knn: seed must be", {"classifiers": [{"kind": "knn", "seed": -1}]}),
        # names of mixed types cannot be sorted by value
        (
            "classifiers[0]: knn: unknown hyperparameters ['x', 1]",
            {"classifiers": [{"kind": "knn", "hyperparameters": {1: 2, "x": 3}}]},
        ),
    ],
    ids=["pcc_threshold-str", "pcc_threshold-bool", "timing_repeats-bool", "split_seed-bool",
         "sample_rows-bool", "k-bool", "min_max_scale-str", "sha256-int", "sha256-nothex",
         "split_seed-float",
         "timing_repeats-float", "classifier_seed-float", "configurations-str",
         "label_column-list", "category_column-int", "drop_columns-int-list", "path-null",
         "output_dir-list", "split_seed-negative", "classifier_seed-negative",
         "hyperparameters-mixed-keys"],
)
def test_non_numeric_config_scalar_exits_1(
    tmp_path, small_csv, capsys, monkeypatch, key, overrides
):
    monkeypatch.chdir(tmp_path)  # a wrongly accepted relative output_dir lands here
    if "dataset" in overrides:
        overrides = {"dataset": {"path": str(small_csv), **overrides["dataset"]}}
    config_path = _config_file(tmp_path, small_csv, **overrides)
    assert main(["select", "--config", str(config_path)]) == 1
    assert key in _assert_one_line_error(capsys)


# (field, section, key) of every config key; section "" is the top level
CONFIG_KEYS = [
    (f, *f.metadata["path"].rpartition(".")[::2])
    for f in dataclasses.fields(PipelineConfig) if f.metadata
]


def _has_declared_type(value, kind) -> bool:
    if value is None:
        return type(None) in typing.get_args(kind)
    if kind == tuple[str, ...]:
        return type(value) is tuple and all(type(v) is str for v in value)
    return type(value) in (typing.get_args(kind) or (kind,))


YAML_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.lists(st.text(), max_size=4),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(), st.integers(), max_size=3),
)


def _outcome(make_config, name):
    """(the ConfigError's text, None) if make_config fails, else (None, the
    value of field name and its type)."""
    try:
        loaded = getattr(make_config(), name)
    except ConfigError as exc:
        return str(exc), None
    return None, (loaded, type(loaded))


@settings(max_examples=300, deadline=None)
@given(row=st.sampled_from(CONFIG_KEYS), value=YAML_VALUES)
def test_schema_key_loads_with_its_type_or_fails_naming_it(tmp_path_factory, row, value):
    field, section, key = row
    payload = {"dataset": {"path": "flows.csv"}}
    minimal = tmp_path_factory.getbasetemp() / "schema_minimal.yaml"
    minimal.write_text(yaml.safe_dump(payload), encoding="utf-8")
    (payload.setdefault(section, {}) if section else payload)[key] = value
    path = tmp_path_factory.getbasetemp() / "schema_property.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    # a config made in code is checked as one read from a file; it is given
    # the value as the file holds it, whose mappings have sorted keys
    error, loaded = _outcome(lambda: load_config(path), field.name)
    as_read = {field.name: yaml.safe_load(yaml.safe_dump(value))}
    replaced = _outcome(lambda: dataclasses.replace(load_config(minimal), **as_read), field.name)
    assert replaced == (error, loaded)
    if error:
        assert field.metadata["path"] in error
        return
    loaded, _ = loaded
    assert _has_declared_type(loaded, field.type)
    assert loaded == (tuple(value) if field.type == tuple[str, ...] else value)


def test_shipped_config_documents_every_key_with_its_default():
    doc = yaml.safe_load(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    # keys whose shipped value is an example for a real run, not the default
    examples = {"dataset.path", "sample.rows", "output_dir"}
    for field, section, key in CONFIG_KEYS:
        where = field.metadata["path"]
        entries = doc[section] if section else doc
        assert key in entries, where
        if where not in examples:
            assert entries[key] == field.metadata["default"], where
    assert [c["kind"] for c in doc["classifiers"]] == list(KINDS)
    for entry in doc["classifiers"]:
        assert entry.get("hyperparameters", {}) == default_hyperparameters(entry["kind"])
        assert entry["seed"] == DEFAULT_SEED
    load_config(SHIPPED_CONFIG)


class _FullDisk:
    """A text file whose writes fail with ENOSPC after the first few."""

    def __init__(self, fh, ok_writes):
        self.fh = fh
        self.ok_writes = ok_writes
        self.written = []

    def write(self, text):
        if len(self.written) == self.ok_writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.written.append(text)
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def _split_matrices(monkeypatch):
    """Make _write_matrix split every matrix in a forked child, also on one CPU."""
    monkeypatch.setattr(cli, "_MATRIX_SPLIT_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_write_leaves_previous_file(tmp_path, monkeypatch):
    _assert_failed_write_leaves_previous_file(tmp_path, monkeypatch)


def test_failed_write_leaves_previous_file_when_split(tmp_path, monkeypatch):
    _split_matrices(monkeypatch)
    _assert_failed_write_leaves_previous_file(tmp_path, monkeypatch)


def _assert_failed_write_leaves_previous_file(tmp_path, monkeypatch):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "report.json"
    matrix_path = tmp_path / "distorted.csv"
    cli._write(tmp_path, {
        csv_path.name: (["a"], [[1]]),
        json_path.name: {"a": 1},
        matrix_path.name: FeatureMatrix(np.ones((3, 2)), ("a", "b")),
    })
    before = {p: p.read_bytes() for p in (csv_path, json_path, matrix_path)}

    def rows():
        yield [2]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        cli._write(tmp_path, {csv_path.name: (["a"], rows())})
    with pytest.raises(TypeError):
        cli._write(tmp_path, {json_path.name: {"a": 2, "b": object()}})

    # the disk fills after the header and the first of seven 3-row blocks;
    # split, this process writes the first three and a child the other four
    monkeypatch.setattr(cli, "_MATRIX_BLOCK_CELLS", 6)
    replacing = cli._replacing
    files = []

    @contextmanager
    def full_disk(target):
        with replacing(target) as fh:
            files.append(_FullDisk(fh, ok_writes=2))
            yield files[-1]

    monkeypatch.setattr(cli, "_replacing", full_disk)
    matrix = FeatureMatrix(np.arange(40.0).reshape(20, 2), ("a", "b"))
    with pytest.raises(ConfigError, match="distorted.csv: cannot write: .*No space left"):
        cli._write(tmp_path, {matrix_path.name: matrix})
    assert files[0].written[1] == "0.0,1.0\r\n2.0,3.0\r\n4.0,5.0\r\n"

    assert {p: p.read_bytes() for p in (csv_path, json_path, matrix_path)} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)
    _assert_no_child_left()


def test_failed_child_leaves_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "distorted.csv"
    path.write_bytes(b"previous\r\n")
    _split_matrices(monkeypatch)
    monkeypatch.setattr(cli, "_MATRIX_BLOCK_CELLS", 6)
    parent, write_rows = os.getpid(), cli._write_rows

    def fails_for_the_second_half(fh, bits, block):
        if os.getpid() != parent:
            raise RuntimeError("formatter failed")
        write_rows(fh, bits, block)

    monkeypatch.setattr(cli, "_write_rows", fails_for_the_second_half)
    matrix = FeatureMatrix(np.arange(40.0).reshape(20, 2), ("a", "b"))
    with pytest.raises(ConfigError) as info:
        cli._write(tmp_path, {path.name: matrix})
    assert str(info.value) == (
        f"{path}: cannot write: the process writing rows 9 to 20 exited with code 1"
    )
    assert path.read_bytes() == b"previous\r\n"
    assert list(tmp_path.iterdir()) == [path]
    _assert_no_child_left()


def test_sigterm_while_waiting_for_the_child_kills_and_reaps_it(tmp_path, small_csv, monkeypatch):
    _split_matrices(monkeypatch)
    monkeypatch.setattr(cli, "_MATRIX_BLOCK_CELLS", 6)
    parent, write_rows = os.getpid(), cli._write_rows

    def signal_once_the_first_half_is_written(fh, bits, block):
        if os.getpid() != parent:
            time.sleep(60)  # the child is killed long before this ends
        write_rows(fh, bits, block)
        main_thread = threading.main_thread().ident
        threading.Timer(0.2, signal.pthread_kill, (main_thread, signal.SIGTERM)).start()

    monkeypatch.setattr(cli, "_write_rows", signal_once_the_first_half_is_written)
    matrix = FeatureMatrix(np.arange(40.0).reshape(20, 2), ("a", "b"))

    def write_one_matrix(config):
        """Write one matrix."""
        return cli._write(tmp_path, {"m.csv": matrix})

    monkeypatch.setitem(cli.COMMANDS, "distort", write_one_matrix)
    config_path = _config_file(tmp_path, small_csv)
    started = time.monotonic()

    def outside_main(signum, frame):
        raise AssertionError("SIGTERM arrived outside main's handler")

    previous = signal.signal(signal.SIGTERM, outside_main)
    try:
        with pytest.raises(SystemExit) as info:
            main(["distort", "--config", str(config_path)])
        assert signal.getsignal(signal.SIGTERM) is outside_main
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert info.value.code == 128 + signal.SIGTERM
    assert time.monotonic() - started < 30
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]
    _assert_no_child_left()


def test_write_matrix_is_serial_on_one_cpu(tmp_path, monkeypatch):
    matrix = FeatureMatrix(np.arange(60.0).reshape(20, 3) / 7, ("a", "b", "c"))
    monkeypatch.setattr(cli, "_MATRIX_BLOCK_CELLS", 9)
    _split_matrices(monkeypatch)
    cli._write(tmp_path, {"split.csv": matrix})

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    cli._write(tmp_path, {"serial.csv": matrix})
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_distort_above_the_split_threshold_writes_nothing_to_stderr(tmp_path):
    # run as __main__, where Python 3.12 would print its fork warning
    rows = cli._MATRIX_SPLIT_CELLS // 42 + 1
    flows = tmp_path / "flows.csv"
    synth_data.write_csv(flows, rows, seed=3)
    config_path = _config_file(tmp_path, flows, configurations=["lsm_only"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "privids.cli", "distort", "--config", str(config_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    distorted = tmp_path / "out" / "distorted_lsm_only.csv"
    assert distorted.read_bytes().count(b"\r\n") == rows + 1


# Modules that only fitting, predicting and evaluating need, and statistics,
# which no command needs.
_LAZY_MODULES = (
    *(f"privids.classifiers.{kind}" for kind in KINDS), "privids.privacy_metrics", "statistics",
)


@pytest.mark.parametrize("command", ["select", "distort", "pipeline"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, small_csv, command):
    config_path = _config_file(
        tmp_path, small_csv, configurations=["baseline", "lsm_only"],
        classifiers=[{"kind": kind, "seed": 42} for kind in KINDS],
    )
    probe = (
        "import json, sys\n"
        "from privids.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {list(_LAZY_MODULES)!r} if m in sys.modules]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", probe, command, "--config", str(config_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.stderr == ""
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == (list(_LAZY_MODULES[:-1]) if command == "pipeline" else [])


def _processes_naming(text: str) -> list[str]:
    """Pids of the processes whose command line holds text."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and text.encode() in (entry / "cmdline").read_bytes():
                found.append(entry.name)
        except OSError:  # the process ended while it was read
            pass
    return found


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_sigterm_while_writing_exits_143_leaving_no_partial_file_or_process(tmp_path):
    flows = tmp_path / "flows.csv"
    synth_data.write_csv(flows, 12_000, seed=42)
    config_path = _config_file(tmp_path, flows, configurations=["lsm_only", "pcc_lsm"])
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen(
        [sys.executable, "-m", "privids.cli", "distort", "--config", str(config_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    ) as run:
        while not any(out.glob(".*.partial")):
            assert run.poll() is None, "the run ended before it wrote a file"
            time.sleep(0.001)
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=60) == 128 + signal.SIGTERM
    assert not list(out.glob(".*.partial"))
    # a forked writer left running would still carry the parent's command line
    deadline = time.monotonic() + 2
    while _processes_naming(str(config_path)):
        assert time.monotonic() < deadline, "a process of the run outlived it"
        time.sleep(0.01)


@pytest.mark.parametrize("blocker", ["file", "file/sub"])
def test_unwritable_output_exits_1(tmp_path, small_csv, capsys, blocker):
    (tmp_path / "file").write_text("not a directory\n")
    config_path = _config_file(tmp_path, small_csv, configurations=["lsm_only"])
    output = tmp_path / blocker
    assert main(["distort", "--config", str(config_path), "--output", str(output)]) == 1
    err = _assert_one_line_error(capsys)
    assert err.startswith(f"error: {output / 'distorted_lsm_only.csv'}: cannot write: ")
    assert (tmp_path / "file").read_text() == "not a directory\n"


# Floats where repr changes form or precision: signed zero, subnormals, the
# switch to exponent form at 1e16 and 1e-4, and the extreme exponents.
_EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    9999999999999998.0,
    1e16,
    1.0000000000000002e16,
    -1e16,
    0.0001,
    9.999999999999999e-05,
    0.00010000000000000002,
    -0.0001,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-300,
    0.1,
    1 / 3,
]
_HEADER_NAMES = st.text(alphabet=["a", "Z", "1", ",", '"', "\r", "\n", " ", "_"], max_size=5)
_CELLS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def _matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 70))
    if draw(st.booleans()):
        # each column takes its cells from a pool of three, so repeated values
        # dominate within a block and across block edges
        pools = draw(hnp.arrays(np.float64, (3, m), elements=_CELLS))
        picks = draw(hnp.arrays(np.intp, (n, m), elements=st.integers(0, 2)))
        values = np.take_along_axis(pools, picks, axis=0)
    else:
        values = draw(hnp.arrays(np.float64, (n, m), elements=_CELLS))
    names = draw(st.lists(_HEADER_NAMES, min_size=m, max_size=m, unique=True))
    return FeatureMatrix(values, tuple(names))


# block_rows None keeps the default block, so every drawn matrix fits in one
# block and a matrix of more than 2^13 columns gets one-row blocks; split
# sends every matrix through the forked writer.
@pytest.mark.parametrize("block_rows, split", [
    pytest.param(b, split, id=f"{b or 'default'}{'-split' * split}")
    for split in (False, True) for b in (1, 2, 7, None)
])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=_matrices())
@example(matrix=FeatureMatrix(np.array(_EDGE_FLOATS[:18]).reshape(9, 2), ("a,b", ' "q"')))
@example(matrix=FeatureMatrix(np.array([[1e16, -0.0, 5e-324]]), ("cr\r", "lf\n", " lead")))
@example(matrix=FeatureMatrix(np.zeros((0, 1)), ("",)))
@example(matrix=FeatureMatrix(np.array([[0.0, 1.0], [-0.0, 1.0]] * 8), ("signed zero", "one")))
@example(matrix=FeatureMatrix(np.arange(3.0 * 8200).reshape(3, 8200) / 7, tuple(map(str, range(8200)))))
def test_write_matrix_matches_per_cell_oracle(tmp_path_factory, monkeypatch, block_rows, split, matrix):
    out = tmp_path_factory.getbasetemp()
    if block_rows is not None:
        monkeypatch.setattr(cli, "_MATRIX_BLOCK_CELLS", block_rows * matrix.m)
    if split:
        _split_matrices(monkeypatch)
    cli._write(out, {"fast.csv": matrix})
    writer_oracle.write_matrix(out / "oracle.csv", matrix)
    assert (out / "fast.csv").read_bytes() == (out / "oracle.csv").read_bytes()


_CSV_CELLS = st.one_of(st.none(), st.floats(), st.integers(), st.text(max_size=4), st.booleans())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(_CSV_CELLS, min_size=2, max_size=2), max_size=5))
def test_write_csv_matches_per_cell_oracle(tmp_path_factory, rows):
    # csv.writer writes None as an empty field and a float as its repr, as
    # the oracle's per-cell formatting does
    out = tmp_path_factory.getbasetemp()
    cli._write(out, {"fast.csv": (["a", "b"], rows)})
    writer_oracle._write_csv(out / "oracle.csv", ["a", "b"], rows)
    assert (out / "fast.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def test_distort_writes_oracle_bytes(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv, configurations=["lsm_only", "pcc_lsm"])
    assert main(["distort", "--config", str(config_path)]) == 0
    stages = cli.Stages(load_config(config_path))
    for tag in ("lsm_only", "pcc_lsm"):
        oracle = writer_oracle.write_matrix(tmp_path / f"oracle_{tag}.csv", stages.distorted(tag))
        assert (tmp_path / "out" / f"distorted_{tag}.csv").read_bytes() == oracle.read_bytes()


def test_stages_rebuilds_the_timed_distorted_matrix_bit_for_bit(tmp_path, small_csv, monkeypatch):
    timed = []

    def recording_distort(X, y):
        matrix, model = distort(X, y)
        timed.append(matrix)
        return matrix, model

    monkeypatch.setattr(cli, "distort", recording_distort)
    stages = cli.Stages(load_config(_config_file(tmp_path, small_csv, timing_repeats=2)))
    for tag in cli.DISTORTED_TAGS:
        timed.clear()
        rebuilt = stages.distorted(tag)
        assert len(timed) == 2
        for matrix in timed:
            assert rebuilt.column_names == matrix.column_names
            assert np.array_equal(rebuilt.values.view(np.uint64), matrix.values.view(np.uint64))


def test_stages_does_not_keep_a_distorted_matrix(tmp_path, small_csv):
    stages = cli.Stages(load_config(_config_file(tmp_path, small_csv)))
    for tag in cli.DISTORTED_TAGS:
        matrix = stages.distorted(tag)
        refs = (weakref.ref(matrix), weakref.ref(matrix.values))
        del matrix
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert stages.distortion(tag)[0].fitted_on == stages.original(tag).column_names


def test_a_failing_later_configuration_keeps_the_earlier_ones_files(tmp_path, small_csv, capsys):
    # a copy of dur: PCC selection drops it, so pcc_lsm fits, but lsm_only's
    # design matrix is rank deficient
    with open(small_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at, dur = rows[0].index("attack_cat"), rows[0].index("dur")
    for row in rows:
        row.insert(at, row[dur] if row is not rows[0] else "dur_copy")
    data = tmp_path / "flows.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)

    written, expected = tmp_path / "both", tmp_path / "alone"
    both = _config_file(tmp_path, data, output_dir=str(written), configurations=["pcc_lsm", "lsm_only"])
    assert main(["distort", "--config", str(both)]) == 3
    err = _assert_one_line_error(capsys)
    assert err.startswith("error: design matrix of shape (400, 44) has rank 43 < 44 ")
    alone = _config_file(tmp_path, data, output_dir=str(expected), configurations=["pcc_lsm"])
    assert main(["distort", "--config", str(alone)]) == 0
    capsys.readouterr()

    names = sorted(p.name for p in expected.iterdir())
    assert names == sorted(
        ["distorted_pcc_lsm.csv", "distortion_model_pcc_lsm.json", "distortion_timing_pcc_lsm.json"]
    )
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names[:2]:
        assert (written / name).read_bytes() == (expected / name).read_bytes()
    timing = [json.loads((out / names[2]).read_text()) for out in (written, expected)]
    assert _strip_timing(timing[0]) == _strip_timing(timing[1])


def _scaled_column(small_csv, path, column, scale):
    """small_csv with every cell of column times scale, shifted off zero."""
    with open(small_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    for row in rows[1:]:
        row[j] = repr((float(row[j]) + 1.0) * scale)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_a_column_too_large_to_square_exits_2_naming_it(tmp_path, small_csv, capsys):
    # the squares of dur overflowed fit_lsm's column norm, and the run
    # exited 3 calling the column collinear
    data = _scaled_column(small_csv, tmp_path / "flows.csv", "dur", 1e154)
    assert main(["pipeline", "--config", str(_config_file(tmp_path, data))]) == 2
    err = _assert_one_line_error(capsys)
    assert err.startswith("error: column 'dur' holds magnitudes up to ")
    assert "above the 1e+100 whose squares the pipeline can sum" in err


def test_a_column_too_large_to_square_still_selects_and_distorts(tmp_path, small_csv, capsys):
    # selection and the least-squares fit scale each column by a power of
    # two, so only the classifiers and the privacy measures reject it
    data = _scaled_column(small_csv, tmp_path / "flows.csv", "dur", 1e154)
    config = _config_file(tmp_path, data, configurations=["lsm_only", "pcc_lsm"])
    for command in ("select", "distort"):
        assert main([command, "--config", str(config)]) == 0
    distorted = np.loadtxt(tmp_path / "out" / "distorted_lsm_only.csv", delimiter=",", skiprows=1)
    assert np.isfinite(distorted).all()


def test_a_tiny_column_distorts_as_its_unscaled_self(tmp_path, small_csv):
    # the squares of sbytes underflowed fit_lsm's column norm to 0, and the
    # run exited 3 calling the column identically zero
    outputs = {}
    for scale in (1.0, 1e-307):
        data = _scaled_column(small_csv, tmp_path / f"flows_{scale}.csv", "sbytes", scale)
        out = tmp_path / f"out_{scale}"
        config = _config_file(tmp_path, data, output_dir=str(out), configurations=["lsm_only"])
        assert main(["distort", "--config", str(config)]) == 0
        outputs[scale] = np.loadtxt(out / "distorted_lsm_only.csv", delimiter=",", skiprows=1)
    # the distorted sbytes column is beta * x, so the scale cancels
    assert np.allclose(outputs[1e-307], outputs[1.0], rtol=1e-9, atol=0.0)


def test_a_subnormal_column_exits_2_naming_it(tmp_path, small_csv, capsys):
    data = _scaled_column(small_csv, tmp_path / "flows.csv", "sbytes", 1e-315)
    assert main(["distort", "--config", str(_config_file(tmp_path, data))]) == 2
    err = _assert_one_line_error(capsys)
    assert err.startswith("error: column 'sbytes' holds magnitudes up to ")
    assert err.endswith("too small for its coefficient to be finite\n")


def test_scalar_drop_columns_rejected(tmp_path, small_csv):
    config_path = _config_file(
        tmp_path, small_csv, dataset={"path": str(small_csv), "drop_columns": "id"}
    )
    with pytest.raises(ConfigError, match="dataset.drop_columns must be a list"):
        load_config(config_path)


def test_cmd_select_outputs(tmp_path, small_csv, capsys):
    config_path = _config_file(tmp_path, small_csv)
    assert main(["select", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    assert (out / "correlation_matrix.csv").is_file()
    assert (out / "pcc_ranking.csv").is_file()
    report = json.loads((out / "selection_report.json").read_text())
    assert report["threshold"] == 0.85
    assert set(report["kept"]).isdisjoint(d["name"] for d in report["dropped"])
    assert len(report["kept"]) + len(report["dropped"]) == 42
    for entry in report["dropped"]:
        assert abs(entry["coefficient"]) > 0.85
    printed = capsys.readouterr().out
    assert "selection_report.json" in printed


def test_cmd_select_threshold_one_keeps_everything(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv, selection={"pcc_threshold": 1.0})
    assert main(["select", "--config", str(config_path)]) == 0
    report = json.loads((tmp_path / "out" / "selection_report.json").read_text())
    assert report["dropped"] == []


def test_missing_dataset_exits_2(tmp_path, capsys):
    config_path = _config_file(tmp_path, tmp_path / "absent.csv")
    assert main(["select", "--config", str(config_path)]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("sha256", [None, "0" * 64])
def test_dataset_directory_exits_2(tmp_path, capsys, sha256):
    config_path = _config_file(
        tmp_path, tmp_path, dataset={"path": str(tmp_path), "sha256": sha256}
    )
    assert main(["select", "--config", str(config_path)]) == 2
    _assert_one_line_error(capsys)


def test_non_utf8_dataset_exits_2(tmp_path, capsys):
    dataset = tmp_path / "latin1.csv"
    dataset.write_bytes(b"a,label\n1,0\ncaf\xe9,1\n")
    config_path = _config_file(tmp_path, dataset)
    assert main(["select", "--config", str(config_path)]) == 2
    _assert_one_line_error(capsys)


def test_oversized_csv_field_exits_2(tmp_path, capsys):
    dataset = tmp_path / "wide.csv"
    header = "id,a,attack_cat,label\n"
    dataset.write_text(header + "1,2,dos,0\n2," + "9" * 200_000 + ",dos,1\n", encoding="utf-8")
    config_path = _config_file(tmp_path, dataset)
    assert main(["select", "--config", str(config_path)]) == 2
    err = _assert_one_line_error(capsys)
    assert err.startswith(f"error: {dataset}: row 2: field larger than field limit")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_header_without_data_rows_exits_2(tmp_path, capsys, command):
    dataset = tmp_path / "header_only.csv"
    dataset.write_text("id,dur,proto,attack_cat,label\n", encoding="utf-8")
    config_path = _config_file(tmp_path, dataset)
    assert main([command, "--config", str(config_path)]) == 2
    assert _assert_one_line_error(capsys) == f"error: {dataset}: header but no data rows\n"


def test_bad_config_exits_1(tmp_path, small_csv, capsys):
    config_path = _config_file(tmp_path, small_csv, selection={"pcc_threshold": 0.0})
    assert main(["select", "--config", str(config_path)]) == 1
    assert "pcc_threshold" in capsys.readouterr().err


def test_singular_dataset_exits_3(tmp_path, capsys):
    rows = "\n".join(f"{i},{i * 2},{i % 2}" for i in range(1, 9))
    dataset = tmp_path / "dup.csv"
    dataset.write_text("a,b,label\n" + rows + "\n", encoding="utf-8")
    config_path = _config_file(
        tmp_path, dataset,
        dataset={"path": str(dataset), "drop_columns": [], "category_column": None},
        configurations=["lsm_only"],
    )
    assert main(["distort", "--config", str(config_path)]) == 3
    assert "rank" in capsys.readouterr().err


def test_cmd_distort_outputs_and_timing_order(tmp_path, small_csv):
    config_path = _config_file(
        tmp_path, small_csv, configurations=["lsm_only", "pcc_lsm"], timing_repeats=3
    )
    assert main(["distort", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    for tag in ("lsm_only", "pcc_lsm"):
        assert (out / f"distorted_{tag}.csv").is_file()
        model = json.loads((out / f"distortion_model_{tag}.json").read_text())
        assert len(model["beta"]) == len(model["columns"])
        timing = json.loads((out / f"distortion_timing_{tag}.json").read_text())
        assert timing["distortion_time_s"] > 0.0
    full = json.loads((out / "distortion_timing_lsm_only.json").read_text())
    reduced = json.loads((out / "distortion_timing_pcc_lsm.json").read_text())
    assert reduced["m"] < full["m"]


def test_cmd_distort_requires_distorted_configuration(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv, configurations=["baseline"])
    assert main(["distort", "--config", str(config_path)]) == 1


def test_cmd_evaluate_file_contract(tmp_path, small_csv):
    config_path = _config_file(
        tmp_path, small_csv,
        configurations=["baseline", "pcc_only", "lsm_only", "pcc_lsm"],
    )
    assert main(["evaluate", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    evaluations = sorted(p.name for p in out.glob("evaluation_*.json"))
    assert evaluations == [
        "evaluation_baseline.json",
        "evaluation_lsm_only.json",
        "evaluation_pcc_lsm.json",
        "evaluation_pcc_only.json",
    ]
    privacy = sorted(p.name for p in out.glob("privacy_*.json"))
    assert privacy == ["privacy_lsm_only.json", "privacy_pcc_lsm.json"]
    assert (out / "utility_comparison.json").is_file()
    assert (out / "privacy_measures.csv").is_file()
    assert (out / "evaluation_summary.csv").is_file()
    baseline = json.loads((out / "evaluation_baseline.json").read_text())
    assert [c["kind"] for c in baseline["classifiers"]] == ["knn"]
    comparison = json.loads((out / "utility_comparison.json").read_text())
    assert {c["configuration"] for c in comparison["comparisons"]} == {
        "pcc_only", "lsm_only", "pcc_lsm",
    }
    header = (out / "privacy_measures.csv").read_text().splitlines()[0]
    assert header == "configuration,VD,RP,RK,CP,CK,Time"


def _key_paths(obj, prefix=""):
    """Every key of a JSON value as a dotted path; list items add '[]'."""
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix + "[].") for v in obj))
    if not isinstance(obj, dict):
        return set()
    return set().union(*({prefix + k} | _key_paths(v, prefix + k + ".") for k, v in obj.items()))


# the exact key set of every JSON report that pipeline writes; an added or
# lost key fails test_pipeline_report_shapes
_REPORT_KEYS = {
    "manifest.json": """
        status files versions versions.package versions.python versions.numpy
        versions.blas versions.blas.name versions.blas.version versions.blas.threads
        stage_times_s stage_times_s.select stage_times_s.distort stage_times_s.evaluate
        config config.configurations config.timing_repeats config.output_dir
        config.classifiers config.classifiers.[].kind config.classifiers.[].seed
        config.classifiers.[].hyperparameters config.classifiers.[].hyperparameters.k
        config.dataset config.dataset.path config.dataset.drop_columns
        config.dataset.label_column config.dataset.category_column
        config.dataset.sha256 config.dataset.min_max_scale
        config.selection config.selection.pcc_threshold
        config.split config.split.test_fraction config.split.seed
        config.sample config.sample.rows config.sample.seed""",
    "selection_report.json": """
        threshold kept constant_columns dropped dropped.[].name dropped.[].against
        dropped.[].coefficient ranking ranking.[].feature ranking.[].score""",
    "distortion_model": "columns beta intercept residual",
    "distortion_timing": "configuration distortion_time_s n m",
    "evaluation": """
        configuration n_train n_test split split.test_fraction split.seed classifiers
        classifiers.[].kind classifiers.[].seed classifiers.[].hyperparameters
        classifiers.[].hyperparameters.k classifiers.[].confusion
        classifiers.[].confusion.tp classifiers.[].confusion.fn
        classifiers.[].confusion.fp classifiers.[].confusion.tn
        classifiers.[].recall classifiers.[].precision classifiers.[].specificity
        classifiers.[].f_score classifiers.[].accuracy
        classifiers.[].train_time_s classifiers.[].test_time_s""",
    "privacy": "configuration vd rp rk cp ck rp_sum n m distortion_time_s",
    "utility_comparison.json": """
        baseline comparisons comparisons.[].configuration comparisons.[].max_abs_delta
        comparisons.[].deltas comparisons.[].deltas.[].classifier
        comparisons.[].deltas.[].accuracy_delta""",
}


def test_pipeline_report_shapes(tmp_path, small_csv):
    tags = ["baseline", "pcc_only", "lsm_only", "pcc_lsm"]
    config_path = _config_file(tmp_path, small_csv, configurations=tags)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    rows = lambda path: list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    header = lambda path: rows(path)[0]
    csvs = {p.name: header(p) for p in out.glob("*.csv")}
    for name in csvs:
        assert {len(row) for row in rows(out / name)} == {len(csvs[name])}, name
    shapes = {p.name: _key_paths(json.loads(p.read_text())) for p in out.glob("*.json")}

    expected = {name: _REPORT_KEYS[name] for name in
                ("manifest.json", "selection_report.json", "utility_comparison.json")}
    for tag in tags:
        expected[f"evaluation_{tag}.json"] = _REPORT_KEYS["evaluation"]
    for tag in ("lsm_only", "pcc_lsm"):
        for kind in ("distortion_model", "distortion_timing", "privacy"):
            expected[f"{kind}_{tag}.json"] = _REPORT_KEYS[kind]
    assert shapes == {name: set(keys.split()) for name, keys in expected.items()}

    features = [c for c in header(small_csv) if c not in ("id", "label", "attack_cat")]
    kept = json.loads((out / "selection_report.json").read_text())["kept"]
    assert kept != features
    assert csvs == {
        "correlation_matrix.csv": ["feature", *features],
        "pcc_ranking.csv": ["feature", "mean_abs_pcc"],
        "distorted_lsm_only.csv": features,
        "distorted_pcc_lsm.csv": kept,
        "privacy_measures.csv": ["configuration", "VD", "RP", "RK", "CP", "CK", "Time"],
        "evaluation_summary.csv": [
            "configuration", "classifier", "tp", "fn", "fp", "tn", "recall", "precision",
            "specificity", "f_score", "accuracy", "train_time_s", "test_time_s",
        ],
    }


def test_seeded_rerun_reproduces_reports(tmp_path, small_csv):
    config_path = _config_file(
        tmp_path, small_csv, configurations=["baseline", "pcc_lsm"],
        output_dir=str(tmp_path / "run1"),
    )
    assert main(["evaluate", "--config", str(config_path)]) == 0
    config_path2 = _config_file(
        tmp_path, small_csv, configurations=["baseline", "pcc_lsm"],
        output_dir=str(tmp_path / "run2"),
    )
    assert main(["evaluate", "--config", str(config_path2)]) == 0
    for name in ("evaluation_baseline.json", "evaluation_pcc_lsm.json", "privacy_pcc_lsm.json"):
        first = _strip_timing(json.loads((tmp_path / "run1" / name).read_text()))
        second = _strip_timing(json.loads((tmp_path / "run2" / name).read_text()))
        assert first == second, name


def test_pipeline_writes_complete_manifest(tmp_path, small_csv):
    config_path = _config_file(
        tmp_path, small_csv, configurations=["baseline", "pcc_lsm"],
    )
    assert main(["pipeline", "--config", str(config_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["config"]["selection"]["pcc_threshold"] == 0.85
    assert manifest["config"]["classifiers"][0]["hyperparameters"]["k"] == 3
    assert set(manifest["stage_times_s"]) == {"select", "distort", "evaluate"}


def test_manifest_names_the_blas_and_its_thread_count(tmp_path, small_csv, monkeypatch):
    config_path = _config_file(tmp_path, small_csv, configurations=["baseline"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    blas = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]["blas"]
    assert blas["threads"] == "3"
    assert blas["name"] != "unknown" or np.lib.NumpyVersion(np.__version__) < "1.25.0"
    # numpy before 1.25 has a show_config that takes no mode and only prints
    monkeypatch.setattr(np, "show_config", lambda: None)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    blas = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]["blas"]
    assert blas == {"name": "unknown", "version": "unknown", "threads": None}


def test_pipeline_without_a_distorted_configuration_skips_distort(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv, configurations=["baseline", "pcc_only"])
    assert main(["pipeline", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stage_times_s"]) == {"select", "evaluate"}
    assert sorted(p.name for p in out.iterdir()) == manifest["files"] == [
        "correlation_matrix.csv", "evaluation_baseline.json", "evaluation_pcc_only.json",
        "evaluation_summary.csv", "manifest.json", "pcc_ranking.csv",
        "selection_report.json", "utility_comparison.json",
    ]


def test_pipeline_removes_reports_it_did_not_write(tmp_path, small_csv):
    out = tmp_path / "out"
    first = _config_file(tmp_path, small_csv, configurations=list(CONFIGURATION_TAGS))
    assert main(["pipeline", "--config", str(first)]) == 0
    (out / "notes.txt").write_text("not a report\n")
    second = _config_file(tmp_path, small_csv, configurations=["baseline", "pcc_lsm"])
    assert main(["pipeline", "--config", str(second)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(p.name for p in out.iterdir() if p.name != "notes.txt") == manifest["files"]
    assert (out / "notes.txt").read_text() == "not a report\n"
    reports = {pattern.format(tag) for pattern in cli.REPORTS for tag in CONFIGURATION_TAGS}
    assert set(manifest["files"]) <= reports
    assert not [name for name in manifest["files"] if "lsm_only" in name or "pcc_only" in name]


def test_report_that_cannot_be_removed_exits_1(tmp_path, small_csv, capsys):
    stale = tmp_path / "out" / "evaluation_pcc_only.json"
    (stale / "not a report").mkdir(parents=True)
    config_path = _config_file(tmp_path, small_csv, configurations=["baseline"])
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert _assert_one_line_error(capsys).startswith(f"error: {stale}: cannot remove: ")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert "evaluation_baseline.json" in manifest["files"]


def test_interrupted_pipeline_marks_manifest_incomplete(tmp_path):
    # duplicate-valued columns make the distortion stage abort after select
    rows = "\n".join(f"{i},{i * 2},{i % 2}" for i in range(1, 9))
    dataset = tmp_path / "dup.csv"
    dataset.write_text("a,b,label\n" + rows + "\n", encoding="utf-8")
    config_path = _config_file(
        tmp_path, dataset,
        dataset={"path": str(dataset), "drop_columns": [], "category_column": None},
        configurations=["lsm_only"],
    )
    assert main(["pipeline", "--config", str(config_path)]) == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert "rank" in manifest["error"]


def test_readme_output_table_lists_the_reports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Output files", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    assert tuple(name.replace("<tag>", "{}") for name in names) == cli.REPORTS


def test_cli_overrides(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv)
    override_dir = tmp_path / "elsewhere"
    assert (
        main([
            "select", "--config", str(config_path),
            "--output", str(override_dir), "--sample", "200", "--seed", "7",
        ])
        == 0
    )
    assert (override_dir / "selection_report.json").is_file()
    config_path = _config_file(
        tmp_path, small_csv, configurations=["baseline"],
        classifiers=[{"kind": "knn", "seed": 1}, {"kind": "naive_bayes", "seed": 2}],
    )
    assert main([
        "pipeline", "--config", str(config_path),
        "--output", str(override_dir), "--sample", "200", "--seed", "7",
    ]) == 0
    echo = json.loads((override_dir / "manifest.json").read_text())["config"]
    assert echo["output_dir"] == str(override_dir)
    assert echo["sample"] == {"rows": 200, "seed": 7}
    assert echo["split"]["seed"] == 7
    assert [c["seed"] for c in echo["classifiers"]] == [7, 7]
    # a flag that is not given leaves the config's value
    assert main(["pipeline", "--config", str(config_path)]) == 0
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert echo["sample"] == {"rows": None, "seed": DEFAULT_SEED}
    assert [c["seed"] for c in echo["classifiers"]] == [1, 2]


@pytest.mark.parametrize(
    "flags, key", [(["--sample", "0"], "sample.rows"), (["--seed", "-1"], "split.seed")]
)
def test_flag_values_meet_the_config_checks(tmp_path, capsys, small_csv, flags, key):
    assert main(["select", "--config", str(_config_file(tmp_path, small_csv)), *flags]) == 1
    assert _assert_one_line_error(capsys).startswith(f"error: {key} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["select"], ["select", "--config", "config.yaml", "--sample", "abc"]],
    ids=["no_subcommand", "unknown_subcommand", "missing_config", "sample_not_an_integer"],
)
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    assert _assert_one_line_error(capsys).startswith("error: privids")


@pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: privids") and err == ""


def test_a_loaded_config_cannot_change(tmp_path, small_csv):
    config = load_config(_config_file(tmp_path, small_csv))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.sample_rows = 10


@pytest.mark.parametrize("name", ["drop_columns", "configurations", "classifier_specs"])
def test_a_loaded_configs_sequences_cannot_change_in_place(tmp_path, small_csv, name):
    config = load_config(_config_file(tmp_path, small_csv))
    with pytest.raises(AttributeError):
        getattr(config, name).append(getattr(config, name)[0])


def test_a_loaded_configs_hyperparameters_cannot_change_in_place():
    config = load_config(SHIPPED_CONFIG)
    with pytest.raises(TypeError):
        config.classifier_specs[0].hyperparameters["k"] = 0
    assert config.echo()["classifiers"][0]["hyperparameters"] == {"k": 5}


def test_sample_larger_than_dataset_exits_2(tmp_path, small_csv):
    config_path = _config_file(tmp_path, small_csv)
    assert main(["select", "--config", str(config_path), "--sample", "100000"]) == 2


def test_sha256_verification(tmp_path, small_csv):
    digest = hashlib.sha256(small_csv.read_bytes()).hexdigest()
    good = _config_file(
        tmp_path, small_csv, dataset={"path": str(small_csv), "sha256": digest}
    )
    assert main(["select", "--config", str(good)]) == 0
    bad = _config_file(
        tmp_path, small_csv, dataset={"path": str(small_csv), "sha256": "0" * 64}
    )
    assert main(["select", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", ["distort", "select"])
def test_no_sha256_leaves_openssl_unloaded(tmp_path, small_csv, command):
    # in a fresh interpreter, since pytest itself imports hashlib
    config = _config_file(tmp_path, small_csv, dataset={"path": str(small_csv), "sha256": None})
    probe = (
        "import sys; import numpy; by_numpy = '_hashlib' in sys.modules; "
        "from privids.cli import main; "
        f"code = main([{command!r}, '--config', {str(config)!r}]); "
        "print(by_numpy, code, '_hashlib' in sys.modules)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    by_numpy, *outcome = done.stdout.splitlines()[-1].split()
    if by_numpy == "True":
        pytest.skip("numpy < 2 imports numpy.random, and so hashlib, with numpy itself")
    assert outcome == ["0", "False"]


def test_pipeline_function_returns_written_paths(tmp_path, small_csv):
    config = load_config(
        _config_file(tmp_path, small_csv, configurations=["baseline", "lsm_only"])
    )
    written = cmd_pipeline(cli.Stages(config))
    names = {p.name for p in written}
    assert "manifest.json" in names
    assert "selection_report.json" in names
    assert "evaluation_baseline.json" in names


def _comparable(path):
    if path.suffix == ".json":
        return _strip_timing(json.loads(path.read_text()))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name not in NONDETERMINISTIC_KEYS]
    return [[row[i] for i in keep] for row in rows]


def test_pipeline_ingests_once_and_matches_separate_commands(tmp_path, small_csv, monkeypatch):
    configurations = ["baseline", "pcc_only", "lsm_only", "pcc_lsm"]
    separate = {}
    for command in ("select", "distort", "evaluate"):
        out = tmp_path / command
        config_path = _config_file(
            tmp_path, small_csv, configurations=configurations, output_dir=str(out)
        )
        assert main([command, "--config", str(config_path)]) == 0
        separate.update({p.name: p for p in out.iterdir()})

    calls = Counter()
    for name in ("load_csv", "prepare", "correlation_matrix"):
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / "pipeline"
    config_path = _config_file(
        tmp_path, small_csv, configurations=configurations, output_dir=str(out)
    )
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert calls == {"load_csv": 1, "prepare": 1, "correlation_matrix": 1}

    piped = {p.name: p for p in out.iterdir() if p.name != "manifest.json"}
    assert sorted(piped) == sorted(separate)
    for name, path in piped.items():
        assert _comparable(path) == _comparable(separate[name]), name
