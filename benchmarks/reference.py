"""Reference check: compare a run's reports with digests recorded at the
baseline commit.

Every report is stripped of the wall-clock fields named by
``privids.cli.NONDETERMINISTIC_KEYS`` before it is digested. Keys, columns and
files that were not present when the reference was recorded are ignored, so a
later change may add report content; every recorded value must reproduce
exactly. CSV files are digested column by column, so the reference holds
digests rather than copies of the (large) distorted matrices.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from privids.cli import NONDETERMINISTIC_KEYS

# The manifest's package, Python and numpy versions describe the environment,
# not a value the pipeline computed.
ENVIRONMENT_KEYS = frozenset({"versions"})
IGNORED_KEYS = NONDETERMINISTIC_KEYS | ENVIRONMENT_KEYS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _strip(value, keep=None):
    """Drop ignored keys (and, when keep is given, keys not in keep) at every
    nesting level."""
    if isinstance(value, dict):
        return {
            k: _strip(v, keep)
            for k, v in value.items()
            if k not in IGNORED_KEYS and (keep is None or k in keep)
        }
    if isinstance(value, list):
        return [_strip(v, keep) for v in value]
    return value


def _key_names(value, into: set) -> set:
    if isinstance(value, dict):
        for k, v in value.items():
            into.add(k)
            _key_names(v, into)
    elif isinstance(value, list):
        for v in value:
            _key_names(v, into)
    return into


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return _strip(json.load(fh))


def read_csv_columns(path: Path) -> dict[str, str]:
    """Digest of every column that is not a wall-clock column, by header name."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path.name}: empty file")
        hashers = [hashlib.sha256() for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path.name}: row has {len(row)} fields, header {len(header)}")
            for h, cell in zip(hashers, row):
                h.update(cell.encode("utf-8"))
                h.update(b"\n")
    return {
        name: h.hexdigest()[:32]
        for name, h in zip(header, hashers)
        if name not in IGNORED_KEYS
    }


def json_digest(stripped, keys) -> str:
    return _sha(json.dumps(_strip(stripped, set(keys)), sort_keys=True))


def csv_digest(column_digests: dict[str, str], columns) -> str:
    wanted = set(columns)
    return _sha("\n".join(f"{n}={d}" for n, d in column_digests.items() if n in wanted))


def snapshot(out_dir: Path) -> dict:
    """Stripped JSON reports and CSV column digests of one output directory."""
    snap = {"json": {}, "csv": {}}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            snap["json"][path.name] = read_json(path)
        elif path.suffix == ".csv":
            snap["csv"][path.name] = read_csv_columns(path)
    return snap


def build_reference(snapshots: dict[int, dict]) -> dict:
    """Reference entry for one workload from the snapshots of several
    generator seeds. Key and column names are the union over all seeds."""
    json_keys: dict[str, set] = {}
    csv_columns: dict[str, set] = {}
    for snap in snapshots.values():
        for name, obj in snap["json"].items():
            _key_names(obj, json_keys.setdefault(name, set()))
        for name, cols in snap["csv"].items():
            csv_columns.setdefault(name, set()).update(cols)
    seeds = {}
    for seed, snap in sorted(snapshots.items()):
        digests = {name: json_digest(obj, json_keys[name]) for name, obj in snap["json"].items()}
        digests.update(
            {name: csv_digest(cols, csv_columns[name]) for name, cols in snap["csv"].items()}
        )
        seeds[str(seed)] = {"input_sha256": snap["input_sha256"], "digests": dict(sorted(digests.items()))}
    return {
        "json_keys": {n: sorted(k) for n, k in sorted(json_keys.items())},
        "csv_columns": {n: sorted(c) for n, c in sorted(csv_columns.items())},
        "seeds": seeds,
    }


def check(out_dir: Path, workload_ref: dict, seed: int) -> list[str]:
    """Problems found in out_dir against the recorded reference; empty when
    every recorded value reproduces."""
    expected = workload_ref["seeds"][str(seed)]["digests"]
    problems = []
    for name, digest in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        try:
            if name in workload_ref["json_keys"]:
                actual = json_digest(read_json(path), workload_ref["json_keys"][name])
            else:
                actual = csv_digest(read_csv_columns(path), workload_ref["csv_columns"][name])
        except (ValueError, csv.Error) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if actual != digest:
            problems.append(f"{name}: differs from the reference")
    return problems


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
