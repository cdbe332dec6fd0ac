"""Metamorphic relations of the whole pipeline, run through main.

Scaling a feature column by a power of two is exact in binary floating
point, and every layer that normalises a column does so by a power of two.
So scaling `sbytes` by 2^20 and `dur` by 2^-7 must leave the selection and
the distorted data unchanged to the byte, scale those columns' betas by the
inverse powers, and leave every classifier but kNN, whose Euclidean
distance weighs columns by their scale, with the same confusion counts.
"""

import csv
import json

import pytest

import synth_data
from privids.cli import main
from privids.evaluation import CONFIGURATION_TAGS

SCALES = {"sbytes": 2.0**20, "dur": 2.0**-7}
DISTORTED = ("lsm_only", "pcc_lsm")


def _scaled_copy(source, target):
    with open(source, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    where = {header.index(name): scale for name, scale in SCALES.items()}
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v) * where[i]) if i in where else v for i, v in enumerate(row)])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The output directories of pipeline on a 1,200-row file and on its scaled copy."""
    work = tmp_path_factory.mktemp("metamorphic")
    synth_data.write_csv(work / "plain.csv", 1200, seed=7)
    _scaled_copy(work / "plain.csv", work / "scaled.csv")
    outputs = []
    for name in ("plain", "scaled"):
        config = work / f"{name}.yaml"
        config.write_text(
            f"dataset:\n  path: {work / name}.csv\noutput_dir: {work / name}\ntiming_repeats: 1\n",
            encoding="utf-8",
        )
        assert main(["pipeline", "--config", str(config)]) == 0
        outputs.append(work / name)
    return outputs


def _json(directory, name):
    return json.loads((directory / name).read_text(encoding="utf-8"))


def test_selection_and_distorted_files_keep_their_bytes(runs):
    plain, scaled = runs
    names = ["selection_report.json", "pcc_ranking.csv", "correlation_matrix.csv"]
    for name in names + [f"distorted_{tag}.csv" for tag in DISTORTED]:
        assert (plain / name).read_bytes() == (scaled / name).read_bytes(), name


def test_betas_scale_by_the_inverse_power(runs):
    plain, scaled = runs
    for tag in DISTORTED:
        before = _json(plain, f"distortion_model_{tag}.json")
        after = _json(scaled, f"distortion_model_{tag}.json")
        assert before["columns"] == after["columns"]
        assert (before["intercept"], before["residual"]) == (after["intercept"], after["residual"])
        expected = [
            beta / SCALES.get(column, 1.0) for column, beta in zip(before["columns"], before["beta"])
        ]
        assert after["beta"] == expected
        assert any(column in SCALES for column in before["columns"])


def test_rank_privacy_measures_are_unchanged(runs):
    plain, scaled = runs
    for tag in DISTORTED:
        before = _json(plain, f"privacy_{tag}.json")
        after = _json(scaled, f"privacy_{tag}.json")
        assert [before[k] for k in ("rp", "rp_sum", "rk")] == [after[k] for k in ("rp", "rp_sum", "rk")]


def test_confusion_counts_are_unchanged_but_knns_on_undistorted_data(runs):
    plain, scaled = runs
    for tag in CONFIGURATION_TAGS:
        before = _json(plain, f"evaluation_{tag}.json")["classifiers"]
        after = _json(scaled, f"evaluation_{tag}.json")["classifiers"]
        for b, a in zip(before, after, strict=True):
            if b["kind"] != "knn" or tag in DISTORTED:
                assert b["confusion"] == a["confusion"], (tag, b["kind"])
