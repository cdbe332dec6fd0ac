"""Record benchmarks/reference.json: output digests of every workload for each
reference generator seed, and the layer functions each workload calls.

Usage: python3 benchmarks/record.py [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right; every later
benchmark run is checked against what it records. Workloads not named keep
their recorded entry.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))
import reference  # noqa: E402


def record(name: str) -> dict:
    workload = run.WORKLOADS[name]
    work = run.WORK_DIR / f"record-{name}-{os.getpid()}"
    snapshots = {}
    try:
        for seed in range(run.BASE_SEED, run.BASE_SEED + run.REFERENCE_SEEDS):
            run.make_inputs(workload, seed, work / "run")
            snap = {"input_sha256": reference.file_sha256(work / "run" / run.INPUT_NAME)}

            def keep(out, snap=snap):
                snap.update(reference.snapshot(out))
                return []

            result = run.run_once("record", workload, work / "run", keep)
            if result.returncode != 0:
                raise SystemExit(f"{name} seed {seed}: {result.problems}")
            snapshots[seed] = snap
            print(f"{name} seed {seed}: {result.wall_s:.2f} s", file=sys.stderr)
        entry = reference.build_reference(snapshots)

        # Traced and untraced outputs must agree; the traced run also records
        # which layer functions this workload calls.
        base = run.BASE_SEED
        run.make_inputs(workload, base, work / "run")
        traced = run.run_once("record", workload, work / "run", lambda out: reference.check(out, entry, base), traced=True)
        if traced.failed:
            raise SystemExit(f"{name} traced run: {traced.problems}")
        entry["called"] = sorted(label for label, s in traced.trace["spans"].items() if s["calls"])
        entry["rows"] = workload.rows
        return entry
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names: list[str]) -> int:
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {"workloads": {}}
    data["generator_sha256"] = reference.file_sha256(run.GENERATOR)
    for name in names or sorted(run.WORKLOADS):
        data["workloads"][name] = record(name)
        run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
