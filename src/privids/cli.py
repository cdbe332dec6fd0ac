"""Command-line pipeline: select, distort, evaluate, or run end to end.

Each subcommand reads one YAML config, writes its reports into the output
directory, and exits 0 on success, 1 on usage/config errors, 2 on data
errors, 3 on numeric errors. All reports are deterministic given the same
config and seeds, except for wall-time fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys
import warnings
from contextlib import contextmanager, suppress
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

# Report keys whose values depend on the wall clock; everything else is
# byte-reproducible from config + seeds.
NONDETERMINISTIC_KEYS = frozenset(
    {
        "train_time_s",
        "test_time_s",
        "distortion_time_s",
        "Time",
        "stage_times_s",
    }
)

DISTORTED_TAGS = tuple(t for t, (_, lsm) in evaluation.CONFIGURATIONS.items() if lsm)


# Every report file, grouped by the command that writes it (select, distort,
# evaluate, pipeline); "{}" stands for a configuration tag.
REPORTS = (
    "correlation_matrix.csv", "selection_report.json", "pcc_ranking.csv",
    "distorted_{}.csv", "distortion_model_{}.json", "distortion_timing_{}.json",
    "evaluation_{}.json", "privacy_{}.json", "utility_comparison.json",
    "privacy_measures.csv", "evaluation_summary.csv",
    "manifest.json",
)


@contextmanager
def _replacing(path: Path):
    """A text file to write in place of path: it is written beside path and
    renamed over it only when the block completes, so path is never left
    half written; on an exception the partial file is removed, and an OSError
    (an output directory that is a file, say) becomes a one-line ConfigError."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(partial, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with suppress(FileNotFoundError, NotADirectoryError):
            partial.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"{path}: cannot write: {exc}") from None
        raise


def _write(out: Path, reports: dict) -> list[Path]:
    """Write each {name: payload} report into out through _replacing and
    return the paths: a FeatureMatrix in row blocks, a (header, rows) pair
    under a .csv name through csv.writer, anything else as JSON."""
    for name, payload in reports.items():
        with _replacing(out / name) as fh:
            if isinstance(payload, FeatureMatrix):
                _write_matrix(fh, payload)
            elif name.endswith(".csv"):
                header, rows = payload
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return [out / name for name in reports]


# Cells per block of rows that _write_matrix converts and writes at once;
# a block's repr strings take several times its float64 bytes, so a smaller
# block lowers the writer's peak without changing a byte of output. 2^13
# left about 2 MB less resident for the next fit than 2^15, and writes no
# slower.
_MATRIX_BLOCK_CELLS = 1 << 13

# Body cells from which _write_matrix formats half of the rows in a forked
# child. A fork and reap cost about 8 ms: in-process on 2 CPUs the split lost
# at 16,800 cells and won from 33,600, and 2^17 keeps desk's matrices serial.
_MATRIX_SPLIT_CELLS = 1 << 17


def _write_rows(fh, bits: np.ndarray, block: int):
    """Write bits, rows of float64 bit patterns, to fh as CSV lines, one
    write per block of block rows. Within a block, repr is taken once of
    each distinct value and its string scattered to every cell that holds
    it: a distorted column is an affine map of mostly repeated counts and
    codes. Distinct means distinct bit patterns, not float values, because
    -0.0 == 0.0 but their reprs differ. The strings are held for one block,
    so their number follows the block, not the file."""
    for start in range(0, len(bits), block):
        rows = bits[start : start + block]
        distinct, where = np.unique(rows.ravel(), return_inverse=True)
        strings = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        text = strings[where].reshape(rows.shape)
        fh.write("".join([",".join(row) + "\r\n" for row in text.tolist()]))


def _write_matrix(fh, matrix: FeatureMatrix):
    """Write matrix to fh as csv.writer would: the header through
    csv.writer, then the body through _write_rows. A float repr never holds
    a character csv would quote, and FeatureMatrix entries are finite. On
    Linux with 2 usable CPUs, a forked child writes the second half of a
    large body into a memory file, appended once the child has exited."""
    bits = matrix.values.view(np.uint64)
    block = max(1, _MATRIX_BLOCK_CELLS // max(matrix.m, 1))
    csv.writer(fh).writerow(matrix.column_names)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "memfd_create") else 1
    if bits.size < _MATRIX_SPLIT_CELLS or cpus < 2:
        return _write_rows(fh, bits, block)
    middle = matrix.n // 2 // block * block
    with open(os.memfd_create("privids-tail"), "w", newline="", encoding="utf-8") as tail:
        # Python 3.12 warns of forking beside OpenBLAS's threads, but the
        # child calls no BLAS: it sorts, reprs and writes, then os._exit.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                _write_rows(tail, bits[middle:], block)
                tail.flush()
                os._exit(0)
            finally:  # reached only when the lines above raise
                os._exit(1)
        try:
            _write_rows(fh, bits[:middle], block)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:  # SIGTERM included, also while waiting
            with suppress(ProcessLookupError, ChildProcessError):  # already reaped
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        if code:
            raise OSError(f"the process writing rows {middle} to {matrix.n} exited with code {code}")
        fh.flush()
        size, sent = os.fstat(tail.fileno()).st_size, 0
        while sent < size:
            sent += os.sendfile(fh.fileno(), tail.fileno(), sent, size - sent)


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
    return _write(Path(stages.config.output_dir), reports)


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
        written += _write(Path(config.output_dir), {
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
    return _write(Path(config.output_dir), reports)


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
    removes every report in REPORTS that it did not write."""
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
    written = _write(out, {"manifest.json": manifest})
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
        known = {pattern.format(tag) for pattern in REPORTS for tag in evaluation.CONFIGURATION_TAGS}
        for name in sorted(known - set(manifest["files"])):
            try:
                (out / name).unlink(missing_ok=True)
            except OSError as exc:
                raise ConfigError(f"{out / name}: cannot remove: {exc}") from None
    except BaseException as exc:
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write(out, {"manifest.json": manifest})
        raise
    manifest["status"] = "complete"
    _write(out, {"manifest.json": manifest})
    return written


COMMANDS = {
    "select": cmd_select,
    "distort": cmd_distort,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 with one line through
    main's one except; subparsers are made of this class too."""

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


def main(argv=None) -> int:
    # SIGTERM exits 143 through _replacing's and _write_matrix's cleanup
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        args = build_parser().parse_args(argv)
        config = _apply_overrides(load_config(args.config), args)
        written = COMMANDS[args.command](Stages(config))
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        signal.signal(signal.SIGTERM, previous)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
