"""Benchmark of the privids command-line pipeline.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is run from source (``src/``); its
input CSV comes from ``tests/synth_data.py``. One invocation:

1. runs the privids command once as a discarded warm-up, then again, one run
   at a time, until ``--seconds`` of timed runs have been made (at least three);
   each run is a separate, untraced subprocess in a fresh directory;
2. before each run, generates the workload's CSV and YAML config into that
   directory, and reports the median time of these set-ups as ``setup_s``;
   the directory, with the run's outputs, is deleted after the check;
3. with ``--trace 1``, makes one more run under ``benchmarks/tracer.py``, which
   times every public layer function from outside the program;
4. checks every run's reports against ``benchmarks/reference.json``;
5. writes a result file with the environment under ``.bench_results/`` and
   prints one JSON object as the last line of standard output.

The metric names and units are read from ``BENCHMARK.json``. See
``benchmarks/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "tests" / "synth_data.py"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
WORK_DIR = ROOT / ".bench_work"
RESULT_DIR = ROOT / ".bench_results"

INPUT_NAME = "input.csv"
CONFIG_NAME = "config.yaml"
OUTPUT_NAME = "out"

# Generator seeds with recorded reference outputs: --seed N uses
# BASE_SEED + (N - BASE_SEED) mod REFERENCE_SEEDS, so --seed 42 uses seed 42.
BASE_SEED = 42
REFERENCE_SEEDS = 16

MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 150.0
# No new timed run starts after this much of the invocation has passed, so
# that a much slower program still ends within the time a run is allowed.
START_DEADLINE_S = 100.0

# configs/unsw.yaml as shipped at the baseline commit. Embedded so that the
# workloads stay fixed when the shipped example changes.
SHIPPED_CONFIG = {
    "dataset": {
        "drop_columns": ["id"],
        "label_column": "label",
        "category_column": "attack_cat",
        "sha256": None,
        "min_max_scale": False,
    },
    "selection": {"pcc_threshold": 0.85},
    "split": {"test_fraction": 0.3, "seed": 42},
    "sample": {"rows": 10000, "seed": 42},
    "classifiers": [
        {"kind": "knn", "hyperparameters": {"k": 5}, "seed": 42},
        {"kind": "naive_bayes", "seed": 42},
        {"kind": "decision_tree", "hyperparameters": {"max_depth": 12, "min_samples_split": 2}, "seed": 42},
        {
            "kind": "random_forest",
            "hyperparameters": {"n_trees": 100, "max_depth": 12, "min_samples_split": 2},
            "seed": 42,
        },
        {"kind": "svm", "hyperparameters": {"epochs": 100, "lambda": 1.0e-4, "batch_size": 512}, "seed": 42},
    ],
    "configurations": ["baseline", "pcc_only", "lsm_only", "pcc_lsm"],
    "timing_repeats": 3,
}


@dataclass(frozen=True)
class Workload:
    command: str
    rows: int
    overrides: dict

    def config(self) -> dict:
        cfg = copy.deepcopy(SHIPPED_CONFIG)
        for key, value in self.overrides.items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        cfg["dataset"]["path"] = INPUT_NAME
        cfg["output_dir"] = OUTPUT_NAME
        return cfg


# Sizes are scaled so that one run takes 3 to 5 s on 2 CPUs. An invocation
# (warm-up and about ten timed runs, each with its set-up) then takes about a
# minute, so that 22 invocations per workload plus a few more fit within an
# hour; see README.md.
WORKLOADS = {
    # The shipped desk config: 10% stratified sample, 5 classifiers on 4
    # configurations, 3 timing repeats. Ingestion runs three times.
    "desk": Workload("pipeline", 6_000, {"sample": {"rows": 600}}),
    # One ingestion pass and two distorted matrices written; no classifiers.
    "full_distort": Workload(
        "distort", 12_000, {"sample": {"rows": None}, "configurations": ["lsm_only", "pcc_lsm"]}
    ),
}


@dataclass
class Run:
    phase: str
    wall_s: float
    peak_rss_mb: float
    returncode: int
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.problems)


def generator_seed(seed: int) -> int:
    return BASE_SEED + (seed - BASE_SEED) % REFERENCE_SEEDS


def blas_threads() -> str:
    return str(min(len(os.sched_getaffinity(0)), 2))


def make_inputs(workload: Workload, gen_seed: int, dest: Path) -> float:
    """Write the workload's CSV and config into dest; return the seconds taken."""
    start = time.perf_counter()
    dest.mkdir(parents=True)
    # the generator runs as its own process, as a user would run it
    _, _, code = spawn([sys.executable, str(GENERATOR), INPUT_NAME, str(workload.rows), str(gen_seed)], dest)
    if code != 0:
        raise RuntimeError(f"{GENERATOR.name} exited with code {code}")
    with open(dest / CONFIG_NAME, "w", encoding="utf-8") as fh:
        yaml.safe_dump(workload.config(), fh, sort_keys=False)
    return time.perf_counter() - start


def command_argv(workload: Workload, trace_path: Path | None) -> list[str]:
    args = [workload.command, "--config", CONFIG_NAME]
    if trace_path is None:
        return [sys.executable, "-m", "privids.cli", *args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *args]


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    threads = blas_threads()
    env.update(
        PYTHONPATH=str(SRC),
        XDG_CACHE_HOME=str(run_dir / ".cache"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def spawn(argv: list[str], cwd: Path, timeout: float = RUN_TIMEOUT_S) -> tuple[float, float, int]:
    """Run argv to completion; return (wall seconds from spawn to exit,
    peak RSS in MB of the process tree, exit code)."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        env = child_env(cwd)
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def run_once(phase: str, workload: Workload, run_dir: Path, inspect, traced=False) -> Run:
    """One command run in run_dir, which holds freshly made inputs.
    inspect(out_dir) returns the problems found in the outputs; the directory
    is deleted afterwards."""
    try:
        # flush the input so no writeback of it overlaps the timed run
        _fsync(run_dir / INPUT_NAME)
        trace_path = run_dir / "trace.json" if traced else None
        wall, rss, code = spawn(command_argv(workload, trace_path), run_dir)
        run = Run(phase, wall, rss, code)
        out = run_dir / OUTPUT_NAME
        if code != 0:
            tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            run.problems.append(f"exit code {code}: {' '.join(tail)}")
        elif out.is_dir():
            run.problems.extend(inspect(out))
            run.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        else:
            run.problems.append("no output directory")
        if traced and (run_dir / "trace.json").is_file():
            run.trace = json.loads((run_dir / "trace.json").read_text())
        return run
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values), "highest_percentile": None}
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out["highest_percentile"] = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
            break
    return out


def failed_frac(runs: list[Run]) -> float:
    return sum(r.failed for r in runs) / len(runs)


def _span_source(label: str) -> str:
    """The wrapped function behind a span label: classifiers.<kind>.fit comes
    from classifiers.fit."""
    parts = label.split(".")
    return f"{parts[0]}.{parts[-1]}" if len(parts) == 3 else label


def layer_metrics(names: list[str], traced: Run, untraced_wall: float, called_at_baseline: set[str]):
    """Per-layer values from one traced run. A metric whose function was
    removed or renamed, or was called at the baseline but not now, is None and
    named in the returned dict of missing layers. A function the workload does
    not reach (it was not called at the baseline either) reads 0."""
    trace = traced.trace
    spans = trace["spans"]
    wrapped = set(trace["wrapped"])
    values, missing = {}, {}

    def from_spans(name: str, labels: list[str], source: str, read):
        if source not in wrapped:
            missing[name] = f"{source} is no longer a public layer function"
            return None
        called = [spans[lb] for lb in labels if lb in spans]
        if not called:
            if any(lb in called_at_baseline for lb in labels):
                missing[name] = f"{source} was not called, but was at the baseline"
                return None
            return 0
        return read(called)

    for name in names:
        if name == "trace.overhead_frac":
            values[name] = traced.wall_s / untraced_wall - 1.0
        elif name == "cli.unattributed_s":
            values[name] = traced.wall_s - trace["top_level_s"]
        elif name == "cli.bytes_written":
            values[name] = traced.bytes_written
        elif name == "dataset.cells_parsed":
            values[name] = from_spans(name, ["dataset.prepare"], "dataset.prepare", lambda _: trace["cells_parsed"])
        elif name == "dataset.maxrss_mb":
            values[name] = from_spans(name, ["dataset.prepare"], "dataset.prepare", lambda _: trace["prepare_maxrss_mb"])
        elif name == "classifiers.fit.calls":
            kinds = [lb for lb in set(spans) | called_at_baseline if lb.startswith("classifiers.") and lb.endswith(".fit")]
            values[name] = from_spans(name, kinds, "classifiers.fit", lambda recs: sum(r["calls"] for r in recs))
        else:
            label, stat = name.rsplit(".", 1)
            values[name] = from_spans(name, [label], _span_source(label), lambda recs: recs[0][stat])
    return values, missing


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, gen_seed: int, generator_sha256: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            # OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
            "threads": int(blas_threads()),
        },
        "generator": {"path": str(GENERATOR.relative_to(ROOT)), "sha256": generator_sha256},
        "workload_seed": seed,
        "generator_seed": gen_seed,
    }


def measure(workload: Workload, name: str, gen_seed: int, seconds: float, traced: bool, recorded: dict, ref):
    """Set up, warm up, time and (optionally) trace one workload, checking
    every run with the reference module ref against the recorded entry.
    Returns (setup times, runs)."""
    work = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    started = time.perf_counter()
    try:
        setup_s, runs = [], []
        expected_input = recorded["seeds"][str(gen_seed)]["input_sha256"]

        def one_run(phase: str) -> Run:
            # Every run, the warm-up included, gets its own set-up in a fresh
            # process; spread over the invocation, their median is steadier.
            run_dir = work / f"run-{len(runs)}"
            setup_s.append(make_inputs(workload, gen_seed, run_dir))
            problems = []
            if ref.file_sha256(run_dir / INPUT_NAME) != expected_input:
                problems.append("input.csv: generator output differs from the reference")
            run = run_once(
                phase, workload, run_dir, lambda out: problems + ref.check(out, recorded, gen_seed),
                traced=phase == "traced",
            )
            runs.append(run)
            return run

        one_run("warmup")
        timed_s = 0.0
        while len(runs) <= MIN_TIMED_RUNS or timed_s < seconds:
            if len(runs) > 1 and time.perf_counter() - started > START_DEADLINE_S:
                break
            timed_s += one_run("timed").wall_s
        if traced:
            one_run("traced")
        return setup_s, runs
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    parser.add_argument("--seconds", type=float, help="timed seconds (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "privids" / "cli.py", GENERATOR, SPEC, REFERENCE):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import reference

    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload]
    gen_seed = generator_seed(args.seed)
    recorded = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    setup_s, runs = measure(workload, args.workload, gen_seed, seconds, bool(args.trace), recorded, reference)
    timed = [r for r in runs if r.phase == "timed"]
    end_to_end = {
        "wall_s": summary([r.wall_s for r in timed]),
        "peak_rss_mb": summary([r.peak_rss_mb for r in timed]),
        "setup_s": summary(setup_s),
    }
    result = {
        "workload": args.workload,
        "command": workload.command,
        "rows": workload.rows,
        "config": workload.config(),
        "environment": environment(args.seed, gen_seed, reference.file_sha256(GENERATOR)),
        "runs": [
            {"phase": r.phase, "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
             "returncode": r.returncode, "problems": r.problems}
            for r in runs
        ],
        "failed_frac": failed_frac(runs),
        "setups_s": setup_s,
        "end_to_end": end_to_end,
    }

    if args.trace:
        traced = runs[-1]
        names = [m["name"] for m in spec["per_layer"]]
        if traced.trace is None:
            per_layer, missing = {n: None for n in names}, {}
        else:
            per_layer, missing = layer_metrics(
                names, traced, end_to_end["wall_s"]["median"], set(recorded["called"])
            )
            self_sum = sum(s["self_s"] for s in traced.trace["spans"].values())
            result["trace_check"] = {
                "traced_wall_s": traced.wall_s,
                "self_s_plus_unattributed_s": self_sum + traced.wall_s - traced.trace["top_level_s"],
            }
            result["spans"] = traced.trace["spans"]
        result["per_layer"] = per_layer
        result["missing_layers"] = missing
        for name, why in missing.items():
            print(f"missing layer: {name}: {why}", file=sys.stderr)
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    RESULT_DIR.mkdir(exist_ok=True)
    result_path = RESULT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    for r in runs:
        for problem in r.problems:
            print(f"{r.phase} run failed: {problem}", file=sys.stderr)
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r.failed for r in runs),
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
