"""Command-line pipeline: select, distort, evaluate, or run end to end.

Each subcommand reads one YAML config, writes its reports into the output
directory, and exits 0 on success, 1 on usage/config errors, 2 on data
errors, 3 on numeric errors, 4 when out of memory, and 128 + the signal
number when SIGINT or SIGTERM stops it. The reports module writes every
report; they are deterministic given the same config and seeds, except for
wall-time fields.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__, evaluation
from .config import PipelineConfig, load_config
from .dataset import (
    FeatureMatrix,
    LabelVector,
    load_csv,
    prepare,
    stratified_sample,
    stratified_split,
)
from .distortion import distort, transform
from .errors import ConfigError, DataFormatError, DataValidationError, PipelineError
from .feature_selection import apply_selection, correlation_matrix, select_by_threshold
# NONDETERMINISTIC_KEYS is imported from here, too, by benchmarks/reference.py
# and benchmarks/test_bench.py.
from .reports import NONDETERMINISTIC_KEYS, remove_others, write  # noqa: F401

DISTORTED_TAGS = tuple(t for t, (_, lsm) in evaluation.CONFIGURATIONS.items() if lsm)


def _verify_sha256(path: str, expected: str):
    import hashlib  # here, so that privids maps OpenSSL's libcrypto only for this check

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except FileNotFoundError:
        raise DataFormatError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from None
    actual = digest.hexdigest()
    if actual != expected.lower():
        raise DataValidationError(
            f"{path}: sha256 {actual} does not match configured {expected}"
        )


class Stages:
    """What the stages of one run compute, each on first use and then kept,
    so commands that share this object ingest, select and fit each distortion
    once. A distorted matrix is not kept: it is rebuilt where it is used, so
    no more than one is alive at a time."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self._distortions = {}

    @cached_property
    def ingested(self) -> tuple[FeatureMatrix, LabelVector]:
        """(X, y) after the sha256 check and the optional stratified sample."""
        config = self.config
        if config.sha256:
            _verify_sha256(config.dataset_path, config.sha256)
        X, y = prepare(
            load_csv(config.dataset_path),
            drop_columns=config.drop_columns,
            label_column=config.label_column,
            category_column=config.category_column,
            min_max_scale=config.min_max_scale,
        )
        if not X.n:
            raise DataFormatError(f"{config.dataset_path}: header but no data rows")
        if config.sample_rows is not None:
            X, y = stratified_sample(X, y, config.sample_rows, config.sample_seed)
        return X, y

    @cached_property
    def selection(self):
        """(correlation matrix, selection report) of the ingested matrix."""
        C = correlation_matrix(self.ingested[0])
        return C, select_by_threshold(C, self.config.pcc_threshold)

    @cached_property
    def selected(self) -> FeatureMatrix:
        return apply_selection(self.ingested[0], self.selection[1])

    def original(self, tag: str) -> FeatureMatrix:
        """The matrix of configuration tag before any distortion."""
        pcc, _ = evaluation.CONFIGURATIONS[tag]
        return self.selected if pcc else self.ingested[0]

    def distortion(self, tag: str):
        """(model, median wall time of fit and transform) of the distorted
        configuration; the model is identical across the timing repeats, and
        their matrices are dropped."""
        if tag not in self._distortions:
            X, y = self.original(tag), self.ingested[1]
            (_, model), elapsed = evaluation.median_time(
                lambda: distort(X, y), self.config.timing_repeats
            )
            self._distortions[tag] = (model, elapsed)
        return self._distortions[tag]

    def distorted(self, tag: str) -> FeatureMatrix:
        """The distorted matrix, rebuilt on every call from the kept model;
        transform is elementwise, so its bits are the timed runs'."""
        return transform(self.original(tag), self.distortion(tag)[0])


def cmd_select(stages: Stages) -> list[Path]:
    """Write the correlation matrix, the selection report, and the ranking."""
    C, report = stages.selection
    reports = {
        "correlation_matrix.csv": (
            ["feature", *C.column_names],
            ([name, *row] for name, row in zip(C.column_names, C.values.tolist())),
        ),
        "selection_report.json": report,
        "pcc_ranking.csv": (
            ["feature", "mean_abs_pcc"], ([r["feature"], r["score"]] for r in report["ranking"])
        ),
    }
    return write(Path(stages.config.output_dir), reports)


def cmd_distort(stages: Stages) -> list[Path]:
    """Write the distorted matrix, model, and timing for every distorted
    configuration that was requested, each as soon as it is fitted."""
    config = stages.config
    tags = [t for t in config.configurations if t in DISTORTED_TAGS]
    if not tags:
        raise ConfigError(
            f"distort needs one of {DISTORTED_TAGS} in 'configurations', "
            f"got {list(config.configurations)}"
        )
    written = []
    for tag in tags:
        model, elapsed = stages.distortion(tag)
        X = stages.original(tag)
        written += write(Path(config.output_dir), {
            f"distorted_{tag}.csv": stages.distorted(tag),
            f"distortion_model_{tag}.json": {
                "columns": list(model.fitted_on), "beta": model.beta.tolist(),
                "intercept": model.intercept, "residual": model.residual,
            },
            f"distortion_timing_{tag}.json": {
                "configuration": tag, "distortion_time_s": elapsed, "n": X.n, "m": X.m
            },
        })
    return written


def cmd_evaluate(stages: Stages) -> list[Path]:
    """Evaluate every requested configuration; write per-configuration
    evaluation reports, privacy reports for distorted configurations, a
    utility comparison against the baseline, and combined CSV summaries."""
    from .privacy_metrics import privacy_report  # here, so that select and distort do not load it

    config = stages.config
    y = stages.ingested[1]
    evaluations = {}
    privacy = {}
    for tag in config.configurations:
        matrix = original = stages.original(tag)
        if tag in DISTORTED_TAGS:
            matrix = stages.distorted(tag)
            privacy[tag] = privacy_report(original, matrix, stages.distortion(tag)[1])
        split = stratified_split(matrix, y, config.test_fraction, config.split_seed)
        evaluations[tag] = evaluation.run_configuration(
            tag, *split, config.classifier_specs, timing_repeats=config.timing_repeats
        )
        del matrix, split  # so this tag's distorted matrix is gone before the next is built

    split = {"test_fraction": config.test_fraction, "seed": config.split_seed}
    reports = {f"evaluation_{tag}.json": {**r, "split": split} for tag, r in evaluations.items()}
    for tag, p in privacy.items():
        reports[f"privacy_{tag}.json"] = {"configuration": tag, **p}

    if "baseline" in evaluations:
        reports["utility_comparison.json"] = {"baseline": "baseline", "comparisons": [
            evaluation.compare_utility(evaluations["baseline"], report)
            for tag, report in evaluations.items() if tag != "baseline"
        ]}

    if privacy:
        reports["privacy_measures.csv"] = (
            ["configuration", "VD", "RP", "RK", "CP", "CK", "Time"],
            (
                [tag, p["vd"], p["rp"], p["rk"], p["cp"], p["ck"], p["distortion_time_s"]]
                for tag, p in privacy.items()
            ),
        )

    columns = (*evaluation.METRICS, "train_time_s", "test_time_s")
    reports["evaluation_summary.csv"] = (
        ["configuration", "classifier", *evaluation.COUNTS, *columns],
        (
            [tag, r["kind"], *(r["confusion"][k] for k in evaluation.COUNTS),
             *(r[k] for k in columns)]
            for tag, report in evaluations.items()
            for r in report["classifiers"]
        ),
    )
    return write(Path(config.output_dir), reports)


def _blas() -> dict:
    """The BLAS numpy was built with, and its thread count as the environment
    sets it for OpenBLAS (None when unset: the library picks its own count).
    Report bytes can depend on that count; see the README. numpy before 1.25
    cannot name its BLAS, so name and version read "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"), "threads": threads}


def cmd_pipeline(stages: Stages) -> list[Path]:
    """Select, distort, and evaluate in one run, with a manifest that echoes
    the effective config and lists the files the run wrote. Every stage
    reads the one stages, so the CSV is read once, within select's time.
    The distort stage is skipped when no distorted configuration is
    requested. An interrupted run leaves status 'incomplete'; a complete run
    removes every report in reports.REPORTS that it did not write."""
    config = stages.config
    out = Path(config.output_dir)
    manifest = {
        "status": "incomplete",
        "config": config.echo(),
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
        },
        "stage_times_s": {},
        "files": ["manifest.json"],
    }
    written = write(out, {"manifest.json": manifest})
    distorts = any(tag in DISTORTED_TAGS for tag in config.configurations)
    try:
        for stage_name, stage in (
            ("select", cmd_select),
            ("distort", cmd_distort),
            ("evaluate", cmd_evaluate),
        ):
            if stage_name == "distort" and not distorts:
                continue
            paths, elapsed = evaluation.median_time(lambda: stage(stages), 1)
            written += paths
            manifest["files"] = sorted(p.name for p in written)
            manifest["stage_times_s"][stage_name] = elapsed
        remove_others(out, manifest["files"])
    except BaseException as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        write(out, {"manifest.json": manifest})
        raise
    manifest["status"] = "complete"
    write(out, {"manifest.json": manifest})
    return written


COMMANDS = {
    "select": cmd_select,
    "distort": cmd_distort,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 with one line through
    main's PipelineError handler; subparsers are made of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="privids",
        description="Correlation-based feature selection, least-squares distortion, "
        "and classifier benchmarking for flow-record CSVs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--config", required=True, help="path to the YAML pipeline config")
        p.add_argument("--output", default=None, help="override the output directory")
        p.add_argument("--sample", type=int, default=None, help="stratified row-sample size")
        p.add_argument("--seed", type=int, default=None, help="override every seed in the config")
    return parser


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    """config rebuilt, through its own checks, with the flags that were given.
    --seed reaches split.seed before the specs, so a bad seed is named there."""
    changes = {"output_dir": args.output, "sample_rows": args.sample,
               "split_seed": args.seed, "sample_seed": args.seed}
    config = replace(config, **{k: v for k, v in changes.items() if v is not None})
    if args.seed is not None:
        specs = tuple(replace(s, seed=args.seed) for s in config.classifier_specs)
        config = replace(config, classifier_specs=specs)
    return config


def _where(exc: BaseException) -> str:
    """The innermost line of this package that exc was raised through, as
    function (file:line), then exc's message if it has one."""
    package, where, tb = os.path.dirname(__file__) + os.sep, "privids", exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.startswith(package):
            where = f"{code.co_name} ({os.path.relpath(code.co_filename, package)}:{tb.tb_lineno})"
        tb = tb.tb_next
    return f"{where}: {exc}" if str(exc) else where


def main(argv=None) -> int:
    # SIGINT and SIGTERM exit 128 + signum through the report writer's cleanup;
    # one ignored when the run starts, as in a script's background job, stays so
    stops = [s for s in (signal.SIGINT, signal.SIGTERM) if signal.getsignal(s) is not signal.SIG_IGN]
    previous = [signal.signal(s, lambda signum, _: sys.exit(128 + signum)) for s in stops]
    try:
        args = build_parser().parse_args(argv)
        config = _apply_overrides(load_config(args.config), args)
        written = COMMANDS[args.command](Stages(config))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {_where(exc)}", file=sys.stderr)
        return 4
    finally:
        for signum, handler in zip(stops, previous):
            signal.signal(signum, handler)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
