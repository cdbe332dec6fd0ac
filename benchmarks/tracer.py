"""Run one privids command with every public layer function timed from outside.

Usage: python benchmarks/tracer.py TRACE_JSON COMMAND ARGS...

Each public function defined in a layer module is wrapped in a span. The
wrapper replaces the function wherever a privids module binds it: as a module
attribute, or as a value of a module-level dict such as ``cli.COMMANDS``. So
the real CLI call sequence is traced with no change to the program. A span
records calls, busy wall time, self time (wall time minus child spans) and
process CPU time, which includes BLAS threads. When the command ends the
spans are written to TRACE_JSON and the command's exit code is returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = (
    "dataset",
    "feature_selection",
    "distortion",
    "privacy_metrics",
    "classifiers",
    "evaluation",
    "cli",
)

# Spans of these functions are split by the classifier kind of their first
# argument (a ClassifierSpec for fit, a TrainedModel for predict).
BY_KIND = frozenset({"classifiers.fit", "classifiers.predict"})


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.wrapped: list[str] = []
        self.child_time: list[float] = []
        self.top_level_s = 0.0
        self.cells_parsed = 0
        self.prepare_maxrss_mb = None

    def wrap(self, name: str, fn):
        layer, func = name.split(".", 1)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = name
            if name in BY_KIND and args:
                label = f"{layer}.{getattr(args[0], 'kind', 'unknown')}.{func}"
            self.child_time.append(0.0)
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
                children = self.child_time.pop()
                if self.child_time:
                    self.child_time[-1] += wall
                else:
                    self.top_level_s += wall
                rec = self.spans.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
                rec["calls"] += 1
                rec["s"] += wall
                rec["self_s"] += wall - children
                rec["cpu_s"] += cpu
            if name == "dataset.prepare":
                self._after_prepare(result)
            return result

        self.wrapped.append(name)
        return span

    def _after_prepare(self, result):
        if self.prepare_maxrss_mb is None:
            self.prepare_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shape = getattr(getattr(result[0], "values", None), "shape", None)
        if shape is not None and len(shape) == 2:
            self.cells_parsed += int(shape[0]) * int(shape[1])

    def report(self) -> dict:
        return {
            "wrapped": sorted(self.wrapped),
            "spans": dict(sorted(self.spans.items())),
            "top_level_s": self.top_level_s,
            "cells_parsed": self.cells_parsed,
            "prepare_maxrss_mb": self.prepare_maxrss_mb,
        }


def instrument(tracer: Tracer) -> None:
    replacements = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"privids.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                replacements[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "privids" and not mod_name.startswith("privids."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(module, attr, replacements[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in replacements:
                        obj[key] = replacements[value]


def main(argv: list[str]) -> int:
    trace_path, command = argv[0], argv[1:]
    import privids.cli

    tracer = Tracer()
    instrument(tracer)
    code = 1
    try:
        code = privids.cli.main(command)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
