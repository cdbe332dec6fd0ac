"""Every source function behind a per-layer benchmark metric must stay a
public function of its layer module, or the benchmark reports that metric as
a missing layer."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# metrics that are not read from one function's span
NOT_FROM_A_FUNCTION = {"trace.overhead_frac", "cli.unattributed_s", "cli.bytes_written"}
# metrics taken when dataset.prepare returns
FROM_PREPARE = {"dataset.cells_parsed", "dataset.maxrss_mb"}


def _source_function(metric: str) -> str:
    """layer.func behind a metric: the final stat is dropped, and
    classifiers.<kind>.fit comes from classifiers.fit."""
    if metric in FROM_PREPARE:
        return "dataset.prepare"
    parts = metric.split(".")[:-1]
    return f"{parts[0]}.{parts[-1]}"


def _is_public_layer_function(name: str) -> bool:
    # the condition benchmarks/tracer.py uses to choose what it wraps
    layer, func = name.split(".")
    module = importlib.import_module(f"privids.{layer}")
    obj = getattr(module, func, None)
    return (
        inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not func.startswith("_")
    )


def test_per_layer_metrics_trace_public_functions():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    sources = {_source_function(m) for m in metrics if m not in NOT_FROM_A_FUNCTION}
    missing = sorted(s for s in sources if not _is_public_layer_function(s))
    assert not missing, f"per-layer metrics would read as missing layers: {missing}"
