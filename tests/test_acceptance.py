"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria that reproduce values measured on the real UNSW-NB15 training CSV
run only when the UNSW_NB15_TRAIN_CSV environment variable points at the
user-supplied file; they skip otherwise. The utility and cost criteria fall
back to a seeded synthetic surrogate of the same shape so the pipeline
properties are always exercised.
"""

import json
import statistics
import time

import numpy as np
import pytest
import yaml

import synth_data
from conftest import unsw_csv_path
from pearson_oracle import pearson
from test_classifiers import gaussian_blobs, separable_set

from privids.classifiers import ClassifierSpec, KINDS, fit, predict
from privids.cli import NONDETERMINISTIC_KEYS, cmd_pipeline
from privids.config import load_config
from privids.dataset import (
    FeatureMatrix,
    load_csv,
    prepare,
    stratified_sample,
    stratified_split,
)
from privids.distortion import DistortionModel, distort, fit_lsm, transform
from privids.evaluation import median_time, run_configuration
from privids.feature_selection import (
    apply_selection,
    correlation_matrix,
    select_by_threshold,
)
from privids.privacy_metrics import privacy_report

# published retained/dropped outcome for the canonical training CSV at 0.85
REFERENCE_DROPPED = {
    "ct_srv_dst", "synack", "ct_src_dport_ltm", "is_sm_ips_ports", "dwin",
    "sloss", "ct_dst_src_ltm", "sbytes", "ct_src_ltm", "ct_dst_sport_ltm",
    "dloss", "dbytes", "ackdat", "ct_ftp_cmd", "proto", "state", "service",
}
REFERENCE_VD = 1.11
VD_TOLERANCE = 0.35
UTILITY_BAND = 0.05
DEFAULT_SPECS = [ClassifierSpec(kind, {}, 42) for kind in KINDS]


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _inverse_normal_equations(X, y):
    design = np.column_stack([np.ones(len(y)), X])
    solution = np.linalg.inv(design.T @ design) @ design.T @ y
    residual = float(np.mean((y - design @ solution) ** 2))
    return solution, residual


def test_criterion_01_lsm_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        m = int(rng.integers(1, 11))
        X = rng.normal(size=(n, m)) * rng.uniform(0.5, 3.0, m) + rng.uniform(-2, 2, m)
        beta_true = rng.normal(size=m)
        y = X @ beta_true + rng.uniform(-1, 1) + 0.1 * rng.normal(size=n)
        model = fit_lsm(FeatureMatrix(X, tuple(f"f{i}" for i in range(m))), y)
        oracle, oracle_resid = _inverse_normal_equations(X, y)
        got = np.concatenate([[model.intercept], model.beta, [model.residual]])
        want = np.concatenate([oracle, [oracle_resid]])
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"max relative error vs explicit normal equations {worst:.2e} over 50 systems "
        f"({elapsed:.2f}s)",
    )


def test_criterion_02_rank_law_of_the_transform():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    n, m = 41, 6
    columns = [rng.permutation(np.arange(1, n + 1)).astype(float) for _ in range(m)]
    X = FeatureMatrix(np.column_stack(columns), tuple(f"f{i}" for i in range(m)))

    all_positive = DistortionModel(rng.uniform(0.1, 4.0, m), 2.0, 0.3, X.column_names)
    positive_report = privacy_report(X.values, transform(X, all_positive).values, 0.0)

    signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
    mixed = DistortionModel(signs * rng.uniform(0.1, 4.0, m), -1.0, 0.1, X.column_names)
    mixed_report = privacy_report(X.values, transform(X, mixed).values, 0.0)
    n_neg = int((signs < 0).sum())
    expected_rk = ((m - n_neg) * n + n_neg * (n % 2)) / (n * m)
    reversal_sum = float(np.abs(np.arange(1, n + 1) - np.arange(n, 0, -1)).sum())
    expected_rp = n_neg * reversal_sum / (n * m)
    elapsed = time.perf_counter() - start
    ok = (
        positive_report["rp"] == 0.0
        and positive_report["rk"] == 1.0
        and mixed_report["rk"] == expected_rk
        and mixed_report["rp"] == expected_rp
        and elapsed < 5.0
    )
    _report(
        2,
        ok,
        f"all-positive betas gave (RP, RK)=({positive_report['rp']}, {positive_report['rk']}); "
        f"mixed signs matched analytic reversal RK={expected_rk:.6f} RP={expected_rp:.6f} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_03_pcc_property_suite():
    import math

    start = time.perf_counter()
    rng = np.random.default_rng(1003)

    worst_self = max(
        abs(pearson(v, v) - 1.0)
        for v in (rng.uniform(-5, 5, int(rng.integers(5, 100))) for _ in range(50))
    )

    C = correlation_matrix(FeatureMatrix(rng.normal(size=(40, 8)), tuple(f"f{i}" for i in range(8))))
    worst_symmetry = float(np.max(np.abs(C.values - C.values.T)))

    worst_affine = 0.0
    for _ in range(100):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-50, 50)
        worst_affine = max(worst_affine, abs(pearson(a * x + b, y) - pearson(x, y)))

    worst_oracle = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        x = rng.uniform(-5, 5, n)
        y = rng.uniform(-5, 5, n)
        mx, my = math.fsum(x) / n, math.fsum(y) / n
        num = math.fsum((p - mx) * (q - my) for p, q in zip(x, y))
        den = math.sqrt(math.fsum((p - mx) ** 2 for p in x)) * math.sqrt(
            math.fsum((q - my) ** 2 for q in y)
        )
        worst_oracle = max(worst_oracle, abs(pearson(x, y) - num / den))

    elapsed = time.perf_counter() - start
    ok = (
        worst_self <= 1e-12
        and worst_symmetry <= 1e-12
        and worst_affine <= 1e-9
        and worst_oracle <= 1e-12
        and elapsed < 5.0
    )
    _report(
        3,
        ok,
        f"self {worst_self:.1e}, symmetry {worst_symmetry:.1e}, affine {worst_affine:.1e}, "
        f"brute-force oracle {worst_oracle:.1e} ({elapsed:.2f}s)",
    )


def test_criterion_04_privacy_metric_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    X = rng.integers(1, 500, size=(80, 6)).astype(float)
    identity = privacy_report(X, X.copy(), 0.0)
    identity_ok = (
        identity["vd"], identity["rp"], identity["rk"], identity["cp"], identity["ck"]
    ) == (0.0, 0.0, 1.0, 0.0, 1.0)

    TX = X + rng.normal(size=X.shape) * 10
    base_vd = privacy_report(X, TX, 0.0)["vd"]
    scaling_err = max(
        abs(privacy_report(X, X + c * (TX - X), 0.0)["vd"] - abs(c) * base_vd)
        for c in (-2.0, -0.5, 0.25, 1.5)
    )

    Xi = np.column_stack([rng.permutation(70) for _ in range(5)]).astype(float)
    TXi = np.column_stack([rng.permutation(70) for _ in range(5)]).astype(float)
    before = privacy_report(Xi, TXi, 0.0)
    perm = rng.permutation(70)
    after = privacy_report(Xi[perm], TXi[perm], 0.0)
    invariant_ok = (
        abs(after["vd"] - before["vd"]) <= 1e-12
        and after["rp"] == before["rp"]
        and after["rk"] == before["rk"]
        and after["cp"] == before["cp"]
        and after["ck"] == before["ck"]
    )
    elapsed = time.perf_counter() - start
    ok = identity_ok and scaling_err <= 1e-9 and invariant_ok and elapsed < 5.0
    _report(
        4,
        ok,
        f"identity tuple ok={identity_ok}, VD scaling error {scaling_err:.1e}, "
        f"row-permutation invariant={invariant_ok} ({elapsed:.2f}s)",
    )


def test_criterion_05_classifier_sanity():
    start = time.perf_counter()
    X, y = separable_set(500, seed=42, margin=1.0)
    X_train = FeatureMatrix(X.values[:350], X.column_names)
    X_test = FeatureMatrix(X.values[350:], X.column_names)
    y_train = type(y)(y.values[:350])
    y_test = type(y)(y.values[350:])
    accuracies = {}
    for kind in KINDS:
        model = fit(ClassifierSpec(kind, {}, 42), X_train, y_train)
        accuracies[kind] = float((predict(model, X_test).values == y_test.values).mean())

    Xb, yb = gaussian_blobs(200, seed=1)
    nb_model = fit(
        ClassifierSpec("naive_bayes", {}, 1),
        FeatureMatrix(Xb.values[:140], Xb.column_names),
        type(yb)(yb.values[:140]),
    )
    nb_acc = float(
        (predict(nb_model, FeatureMatrix(Xb.values[140:], Xb.column_names)).values
         == yb.values[140:]).mean()
    )
    elapsed = time.perf_counter() - start
    ok = all(a >= 0.95 for a in accuracies.values()) and nb_acc >= 0.99 and elapsed < 60.0
    summary = ", ".join(f"{k}={v:.3f}" for k, v in accuracies.items())
    _report(5, ok, f"separable-set accuracies {summary}; blob NB {nb_acc:.3f} ({elapsed:.1f}s)")


def test_criterion_06_unsw_selection_reproduction():
    real = unsw_csv_path()
    if real is None:
        pytest.skip("criterion 6 needs the user-supplied UNSW-NB15 training CSV "
                    "(set UNSW_NB15_TRAIN_CSV)")
    start = time.perf_counter()
    X, _ = prepare(load_csv(real), ["id"], "label", category_column="attack_cat")
    assert X.n == 175_341, f"expected the 175,341-row training CSV, got {X.n}"
    assert X.m == 42, f"expected 42 feature columns after preparation, got {X.m}"
    selection = select_by_threshold(correlation_matrix(X), 0.85)
    dropped = {d["name"] for d in selection["dropped"]}
    overlap = len(dropped & REFERENCE_DROPPED)
    elapsed = time.perf_counter() - start
    ok = len(dropped) == 17 and overlap >= 14 and elapsed < 120.0
    _report(
        6,
        ok,
        f"dropped {len(dropped)} features, overlap {overlap}/17 with the published list "
        f"({elapsed:.0f}s)",
    )


@pytest.fixture(scope="module")
def sample_10k(tmp_path_factory):
    """10,000-row working set: a stratified sample of the real training CSV
    when supplied, otherwise the synthetic surrogate. Returns (X, y, source)."""
    real = unsw_csv_path()
    if real is not None:
        X, y = prepare(load_csv(real), ["id"], "label", category_column="attack_cat")
        X, y = stratified_sample(X, y, 10_000, seed=42)
        return X, y, f"UNSW-NB15 sample ({real.name})"
    path = tmp_path_factory.mktemp("acceptance") / "flows_10k.csv"
    synth_data.write_csv(path, 10_000, seed=42)
    X, y = prepare(load_csv(path), ["id"], "label", category_column="attack_cat")
    return X, y, "synthetic surrogate"


@pytest.fixture(scope="module")
def utility_runs(sample_10k):
    """Shared baseline vs pcc_lsm evaluation used by criteria 7 and 8.

    Cost comparisons use paired, interleaved timing rounds so clock drift
    between measurement windows hits both configurations equally."""
    X, y, source = sample_10k
    start = time.perf_counter()

    selection = select_by_threshold(correlation_matrix(X), 0.85)
    X_selected = apply_selection(X, selection)

    # one distort call takes only 10-60 ms, so it gets more rounds than the
    # classifiers: a single host hiccup then cannot move its median
    rounds = 5
    distort_rounds = 25
    distort_times = {"full": [], "selected": []}
    for _ in range(distort_rounds):
        distort_times["full"].append(median_time(lambda: distort(X, y), 1)[1])
        distort_times["selected"].append(median_time(lambda: distort(X_selected, y), 1)[1])
    distorted_selected = distort(X_selected, y)[0]

    splits = {}
    reports = {}
    for tag, matrix in (("baseline", X), ("pcc_lsm", distorted_selected)):
        splits[tag] = stratified_split(matrix, y, 0.3, seed=42)
        reports[tag] = run_configuration(
            tag, *splits[tag], DEFAULT_SPECS, timing_repeats=1
        )

    classifier_times = {tag: {} for tag in splits}
    for spec in DEFAULT_SPECS:
        samples = {tag: [] for tag in splits}
        for _ in range(rounds):
            for tag, (X_train, y_train, X_test, _) in splits.items():
                t0 = time.perf_counter()
                predict(fit(spec, X_train, y_train), X_test)
                samples[tag].append(time.perf_counter() - t0)
        for tag in splits:
            classifier_times[tag][spec.kind] = statistics.median(samples[tag])

    return {
        "source": source,
        "reports": reports,
        "classifier_times": classifier_times,
        "distortion_time_full": statistics.median(distort_times["full"]),
        "distortion_time_selected": statistics.median(distort_times["selected"]),
        "elapsed": time.perf_counter() - start,
        "kept": len(selection["kept"]),
    }


def test_criterion_07_utility_preservation(utility_runs):
    reports = utility_runs["reports"]
    base = {r["kind"]: r["accuracy"] for r in reports["baseline"]["classifiers"]}
    after = {r["kind"]: r["accuracy"] for r in reports["pcc_lsm"]["classifiers"]}
    deltas = {k: after[k] - base[k] for k in base}
    worst = max(abs(d) for d in deltas.values())
    summary = ", ".join(f"{k}:{base[k]:.3f}->{after[k]:.3f}" for k in base)
    ok = worst <= UTILITY_BAND and utility_runs["elapsed"] < 600.0
    _report(
        7,
        ok,
        f"{utility_runs['source']}: max |accuracy delta| {worst:.4f} <= {UTILITY_BAND} "
        f"[{summary}] ({utility_runs['elapsed']:.0f}s)",
    )


def test_criterion_08_cost_reduction(utility_runs):
    base_times = utility_runs["classifier_times"]["baseline"]
    reduced_times = utility_runs["classifier_times"]["pcc_lsm"]
    classifier_ok = {k: reduced_times[k] < base_times[k] for k in base_times}
    distortion_ok = (
        utility_runs["distortion_time_selected"] < utility_runs["distortion_time_full"]
    )
    summary = ", ".join(
        f"{k}:{base_times[k] * 1000:.1f}ms->{reduced_times[k] * 1000:.1f}ms"
        for k in base_times
    )
    ok = all(classifier_ok.values()) and distortion_ok
    _report(
        8,
        ok,
        f"{utility_runs['source']}: per-classifier time reduced under pcc_lsm "
        f"[{summary}]; distortion {utility_runs['distortion_time_full'] * 1000:.1f}ms -> "
        f"{utility_runs['distortion_time_selected'] * 1000:.1f}ms",
    )


def test_criterion_09_privacy_directionality_full_csv():
    real = unsw_csv_path()
    if real is None:
        pytest.skip("criterion 9 needs the user-supplied UNSW-NB15 training CSV "
                    "(set UNSW_NB15_TRAIN_CSV)")
    start = time.perf_counter()
    X, y = prepare(load_csv(real), ["id"], "label", category_column="attack_cat")
    selection = select_by_threshold(correlation_matrix(X), 0.85)
    X_selected = apply_selection(X, selection)

    (distorted_full, _), time_full = median_time(lambda: distort(X, y), 1)
    (distorted_selected, _), time_selected = median_time(lambda: distort(X_selected, y), 1)
    full_report = privacy_report(X.values, distorted_full.values, time_full)
    selected_report = privacy_report(X_selected.values, distorted_selected.values, time_selected)

    vd_ok = (
        abs(full_report["vd"] - REFERENCE_VD) <= VD_TOLERANCE
        and abs(selected_report["vd"] - REFERENCE_VD) <= VD_TOLERANCE
    )
    ordering_ok = (
        selected_report["rp"] < full_report["rp"]
        and selected_report["cp"] < full_report["cp"]
        and selected_report["rk"] > full_report["rk"]
    )
    elapsed = time.perf_counter() - start
    ok = vd_ok and ordering_ok and elapsed < 900.0
    _report(
        9,
        ok,
        f"VD lsm={full_report['vd']:.3f} pcc_lsm={selected_report['vd']:.3f} (target "
        f"{REFERENCE_VD}±{VD_TOLERANCE}); want lower RP/CP and higher RK after selection: "
        f"RP {full_report['rp']:.1f}->{selected_report['rp']:.1f}, "
        f"CP {full_report['cp']:.2f}->{selected_report['cp']:.2f}, "
        f"RK {full_report['rk']:.3f}->{selected_report['rk']:.3f} ({elapsed:.0f}s)",
    )


def _comparable(path):
    """File contents with wall-clock values removed."""
    if path.suffix == ".json":
        def strip(obj):
            if isinstance(obj, dict):
                return {k: strip(v) for k, v in obj.items() if k not in NONDETERMINISTIC_KEYS}
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        return strip(json.loads(path.read_text()))
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in NONDETERMINISTIC_KEYS]
    return [",".join(line.split(",")[i] for i in keep) for line in rows]


def test_criterion_10_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    dataset = tmp_path / "flows.csv"
    synth_data.write_csv(dataset, 400, seed=11)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "dataset": {"path": str(dataset)},
                "output_dir": str(tmp_path / "out"),
                "classifiers": [
                    {"kind": "knn", "seed": 42},
                    {"kind": "naive_bayes", "seed": 42},
                    {"kind": "decision_tree", "hyperparameters": {"max_depth": 6}, "seed": 42},
                    {"kind": "random_forest", "hyperparameters": {"n_trees": 10}, "seed": 42},
                    {"kind": "svm", "hyperparameters": {"epochs": 5}, "seed": 42},
                ],
                "timing_repeats": 1,
            }
        ),
        encoding="utf-8",
    )
    # identical config and seeds, rerun into the same output directory
    cmd_pipeline(load_config(config_path))
    files = sorted(p for p in (tmp_path / "out").iterdir())
    snapshot = {p.name: _comparable(p) for p in files}
    cmd_pipeline(load_config(config_path))
    rerun_files = sorted(p for p in (tmp_path / "out").iterdir())

    mismatches = [
        p.name
        for p in rerun_files
        if p.name not in snapshot or _comparable(p) != snapshot[p.name]
    ]
    elapsed = time.perf_counter() - start
    ok = [p.name for p in rerun_files] == sorted(snapshot) and not mismatches
    _report(
        10,
        ok,
        f"{len(snapshot)} reports byte-reproducible after removing wall-clock fields "
        f"(mismatches: {mismatches or 'none'}) ({elapsed:.0f}s)",
    )
