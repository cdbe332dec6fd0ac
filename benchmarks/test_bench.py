"""Tests of the benchmark's own checks. Run: python3 -m pytest benchmarks/test_bench.py"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))
import reference  # noqa: E402

REPORT = {"configuration": "lsm_only", "vd": 0.5, "rp": 1.25, "distortion_time_s": 0.01}
CSV = "feature,a,b,Time\na,1.0,0.5,0.001\nb,0.5,1.0,0.002\n"


def _write_outputs(out: Path, report=REPORT, csv=CSV) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    (out / "privacy_lsm_only.json").write_text(json.dumps(report))
    (out / "matrix.csv").write_text(csv)
    return out


def _reference(tmp_path: Path) -> dict:
    snap = reference.snapshot(_write_outputs(tmp_path / "recorded"))
    snap["input_sha256"] = "unused"
    return reference.build_reference({42: snap})


def test_nondeterministic_keys_come_from_the_program():
    from privids.cli import NONDETERMINISTIC_KEYS

    assert NONDETERMINISTIC_KEYS <= reference.IGNORED_KEYS


def test_wall_clock_fields_and_additions_are_ignored(tmp_path):
    ref = _reference(tmp_path)
    changed = dict(REPORT, distortion_time_s=9.0, new_key=[1, 2])
    csv = "feature,a,b,Time,extra\na,1.0,0.5,7.0,x\nb,0.5,1.0,8.0,y\n"
    out = _write_outputs(tmp_path / "run", changed, csv)
    (out / "new_file.json").write_text("{}")
    assert reference.check(out, ref, 42) == []


@pytest.mark.parametrize(
    "report, csv",
    [
        (dict(REPORT, vd=0.5000000001), CSV),
        ({k: v for k, v in REPORT.items() if k != "rp"}, CSV),
        (REPORT, CSV.replace("0.5,1.0,0.002", "0.5,1.00,0.002")),
        (REPORT, "feature,a,Time\na,1.0,0.001\nb,0.5,0.002\n"),
    ],
)
def test_changed_recorded_value_is_a_problem(tmp_path, report, csv):
    ref = _reference(tmp_path)
    assert reference.check(_write_outputs(tmp_path / "run", report, csv), ref, 42)


def test_missing_report_is_a_problem(tmp_path):
    ref = _reference(tmp_path)
    out = _write_outputs(tmp_path / "run")
    (out / "matrix.csv").unlink()
    assert reference.check(out, ref, 42) == ["matrix.csv: missing"]


def _fake_runs(tmp_path, monkeypatch, scripts: list[str]) -> list[run.Run]:
    """Run each script in place of the privids command through the real
    run_once path and reference check."""
    ref = _reference(tmp_path)
    runs = []
    for i, script in enumerate(scripts):
        run_dir = tmp_path / f"run-{i}"
        run_dir.mkdir()
        (run_dir / run.INPUT_NAME).write_text("x\n")
        monkeypatch.setattr(run, "command_argv", lambda workload, trace, s=script: [sys.executable, "-c", s])
        runs.append(run.run_once("timed", run.WORKLOADS["desk"], run_dir, lambda out: reference.check(out, ref, 42)))
    return runs


def _writer(report: dict) -> str:
    return (
        "import json, pathlib; out = pathlib.Path('out'); out.mkdir();"
        f"(out / 'privacy_lsm_only.json').write_text(json.dumps({report!r}));"
        f"(out / 'matrix.csv').write_text({CSV!r})"
    )


def test_corrupted_report_and_nonzero_exit_count_into_failed_frac(tmp_path, monkeypatch):
    runs = _fake_runs(
        tmp_path,
        monkeypatch,
        [
            _writer(REPORT),
            _writer(dict(REPORT, rp=1.5)),
            _writer(REPORT) + "; raise SystemExit(2)",
            _writer(REPORT),
        ],
    )
    assert [r.failed for r in runs] == [False, True, True, False]
    assert runs[2].returncode == 2
    assert run.failed_frac(runs) == 0.5
    assert not any(p.exists() for p in tmp_path.glob("run-*")), "run directories must be deleted"


def test_generator_seed_cycles_through_the_recorded_seeds():
    seeds = {run.generator_seed(s) for s in range(-50, 200)}
    assert seeds == set(range(run.BASE_SEED, run.BASE_SEED + run.REFERENCE_SEEDS))
    assert run.generator_seed(run.BASE_SEED) == run.BASE_SEED


def test_tracer_times_the_real_cli_dispatch(tmp_path):
    """cmd_select is reached through cli.COMMANDS, not a module attribute;
    self times plus the untraced remainder add up to the span total."""
    run.spawn([sys.executable, str(run.GENERATOR), "flows.csv", "200", "3"], tmp_path)
    (tmp_path / "c.yaml").write_text(f"dataset: {{path: {tmp_path / 'flows.csv'}}}\noutput_dir: {tmp_path / 'out'}\n")
    trace_path = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(trace_path), "select", "--config", str(tmp_path / "c.yaml")],
        env=run.child_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    spans = trace["spans"]
    assert spans["cli.cmd_select"]["calls"] == 1
    assert spans["dataset.prepare"]["calls"] == 1
    assert "classifiers.fit" in trace["wrapped"]
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(trace["top_level_s"], rel=1e-9, abs=1e-9)
    assert trace["cells_parsed"] == 200 * 42


def test_missing_layers_read_null_and_are_named():
    spans = {"dataset.prepare": {"calls": 2, "s": 1.5, "self_s": 1.0, "cpu_s": 1.6}}
    traced = run.Run("traced", wall_s=4.0, peak_rss_mb=50.0, returncode=0, bytes_written=10, trace={
        "wrapped": ["dataset.prepare", "dataset.load_csv", "classifiers.fit"],
        "spans": spans, "top_level_s": 3.0, "cells_parsed": 100, "prepare_maxrss_mb": 40.0,
    })
    names = [
        "dataset.prepare.s", "dataset.load_csv.s", "distortion.fit_lsm.s",
        "classifiers.svm.fit.s", "classifiers.fit.calls", "cli.unattributed_s", "trace.overhead_frac",
    ]
    values, missing = run.layer_metrics(names, traced, 2.0, {"dataset.load_csv", "dataset.prepare"})
    assert values == {
        "dataset.prepare.s": 1.5,
        "dataset.load_csv.s": None,
        "distortion.fit_lsm.s": None,
        "classifiers.svm.fit.s": 0,
        "classifiers.fit.calls": 0,
        "cli.unattributed_s": 1.0,
        "trace.overhead_frac": 1.0,
    }
    assert set(missing) == {"dataset.load_csv.s", "distortion.fit_lsm.s"}
