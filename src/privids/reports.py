"""The report files: their names, the keys that hold wall times, the one
writer every command writes them with, and the one reader that gives their
reproducible content.

A report is written in place of its file only once it is complete, so a
reader never sees one half written. Everything but the values under
NONDETERMINISTIC_KEYS is byte-reproducible from the config and seeds, and
masked reads a report without them.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .dataset import FeatureMatrix
from .errors import ConfigError
from .evaluation import CONFIGURATION_TAGS

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
def replacing(path: Path):
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


def write(out: Path, reports: dict) -> list[Path]:
    """Write each {name: payload} report into out through replacing and
    return the paths: a FeatureMatrix in row blocks, a (header, rows) pair
    under a .csv name through csv.writer, anything else as JSON."""
    for name, payload in reports.items():
        with replacing(out / name) as fh:
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


def remove_others(out: Path, kept):
    """Remove from out every report in REPORTS, for any configuration tag,
    whose name is not in kept; one that cannot be removed is a one-line
    ConfigError."""
    known = {pattern.format(tag) for pattern in REPORTS for tag in CONFIGURATION_TAGS}
    for name in sorted(known - set(kept)):
        try:
            (out / name).unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"{out / name}: cannot remove: {exc}") from None


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
        except BaseException:  # SIGTERM and SIGINT included, also while waiting
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


def masked(path: Path):
    """The content of the report at path without the values of
    NONDETERMINISTIC_KEYS: a JSON report parsed, with those keys left out at
    any depth; a CSV report as the rows csv.reader reads, without those
    columns. Two runs of one config and seeds give equal masked reports."""
    with open(path, newline="", encoding="utf-8") as fh:
        if Path(path).suffix == ".json":
            def strip(value):
                if isinstance(value, dict):
                    return {k: strip(v) for k, v in value.items() if k not in NONDETERMINISTIC_KEYS}
                return [strip(v) for v in value] if isinstance(value, list) else value
            return strip(json.load(fh))
        header, *rows = csv.reader(fh)
    keep = [i for i, name in enumerate(header) if name not in NONDETERMINISTIC_KEYS]
    return [[row[i] for i in keep] for row in [header, *rows]]
