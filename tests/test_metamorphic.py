"""Metamorphic relations of the whole pipeline, run through main.

Scaling a feature column by a power of two is exact in binary floating
point, and every layer that normalises a column does so by a power of two.
So scaling `sbytes` by 2^20 and `dur` by 2^-7 must leave the selection and
the distorted data unchanged to the byte, scale those columns' betas by the
inverse powers, and leave every classifier but kNN, whose Euclidean
distance weighs columns by their scale, with the same confusion counts.

The same file with every field quoted is read by the csv module, chunk by
chunk, where the plain file is read by numpy's parser. Both readers must give
the same values, so every report must keep its bytes but for its wall times.

A column listed in drop_columns is never parsed, so adding one whose values
no parser accepts must leave every report as it was but the config that the
manifest echoes.
"""

import csv

import pytest

import synth_data
from privids import dataset
from privids.cli import main
from privids.evaluation import CONFIGURATION_TAGS
from privids.reports import masked

SCALES = {"sbytes": 2.0**20, "dur": 2.0**-7}
DISTORTED = ("lsm_only", "pcc_lsm")


def _scaled(header, rows):
    where = {header.index(name): scale for name, scale in SCALES.items()}
    scaled = ([repr(float(v) * where[i]) if i in where else v for i, v in enumerate(row)] for row in rows)
    return [header, *scaled]


def _noted(header, rows):
    """header and rows with a first column, note, that mixes numbers and
    text. Every other column moves one place, so a column index taken from
    the wrong list reads another column."""
    return [["note", *header], *([str(i) if i % 2 else "n/a", *row] for i, row in enumerate(rows))]


# copy: (its rows made from the plain file's header and rows, its quoting)
REWRITES = {
    "scaled": (_scaled, csv.QUOTE_MINIMAL),
    "quoted": (lambda header, rows: [header, *rows], csv.QUOTE_ALL),
    "dropped": (_noted, csv.QUOTE_MINIMAL),
}
COPIES = ("plain", *REWRITES)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name: (the output directory of pipeline on that copy of a 1,200-row
    file, the number of its chunks numpy's parser read). Each copy is run in
    its own directory with the same relative paths, so the manifests echo
    the same config but for the dropped copy's drop_columns."""
    work = tmp_path_factory.mktemp("metamorphic")
    for name in COPIES:
        (work / name).mkdir()
    synth_data.write_csv(work / "plain" / "flows.csv", 1200, seed=7)
    with open(work / "plain" / "flows.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for name, (rewrite, quoting) in REWRITES.items():
        with open(work / name / "flows.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=quoting).writerows(rewrite(header, rows))
    parse_lines, by_numpy = dataset._parse_lines, []

    def counted(*args):
        parsed = parse_lines(*args)
        by_numpy[-1] += parsed is not None
        return parsed

    result = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "_parse_lines", counted)
        for name in COPIES:
            patch.chdir(work / name)
            config = "dataset:\n  path: flows.csv\noutput_dir: out\ntiming_repeats: 1\n"
            if name == "dropped":  # parsed, note stops the run
                (work / name / "config.yaml").write_text(config, encoding="utf-8")
                assert main(["select", "--config", "config.yaml"]) == 2
                config = config.replace("flows.csv\n", "flows.csv\n  drop_columns: [id, note]\n")
            (work / name / "config.yaml").write_text(config, encoding="utf-8")
            by_numpy.append(0)
            assert main(["pipeline", "--config", "config.yaml"]) == 0
            result[name] = (work / name / "out", by_numpy[-1])
    return result


@pytest.fixture(scope="module")
def runs(outputs):
    """The output directories of the plain and the scaled copy."""
    return [outputs[name][0] for name in ("plain", "scaled")]


def _reports(directory):
    """{name: repr of its masked content} of every report in directory, the
    manifest's without the config it echoes; the repr tells -0.0 from 0.0
    and 1.0 from 1, which == does not."""
    found = {path.name: masked(path) for path in directory.iterdir()}
    found["manifest.json"].pop("config")
    return {name: repr(content) for name, content in found.items()}


def test_selection_and_distorted_files_keep_their_bytes(runs):
    plain, scaled = runs
    names = ["selection_report.json", "pcc_ranking.csv", "correlation_matrix.csv"]
    for name in names + [f"distorted_{tag}.csv" for tag in DISTORTED]:
        assert (plain / name).read_bytes() == (scaled / name).read_bytes(), name


def test_betas_scale_by_the_inverse_power(runs):
    plain, scaled = runs
    for tag in DISTORTED:
        before = masked(plain / f"distortion_model_{tag}.json")
        after = masked(scaled / f"distortion_model_{tag}.json")
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
        before = masked(plain / f"privacy_{tag}.json")
        after = masked(scaled / f"privacy_{tag}.json")
        assert [before[k] for k in ("rp", "rp_sum", "rk")] == [after[k] for k in ("rp", "rp_sum", "rk")]


def test_confusion_counts_are_unchanged_but_knns_on_undistorted_data(runs):
    plain, scaled = runs
    for tag in CONFIGURATION_TAGS:
        before = masked(plain / f"evaluation_{tag}.json")["classifiers"]
        after = masked(scaled / f"evaluation_{tag}.json")["classifiers"]
        for b, a in zip(before, after, strict=True):
            if b["kind"] != "knn" or tag in DISTORTED:
                assert b["confusion"] == a["confusion"], (tag, b["kind"])


def test_quoted_fields_leave_every_report_unchanged_but_its_times(outputs):
    (plain, plain_by_numpy), (quoted, quoted_by_numpy) = outputs["plain"], outputs["quoted"]
    # the relation compares the two readers: numpy's for every plain chunk,
    # csv for every quoted one
    assert (plain_by_numpy, quoted_by_numpy) == (2, 0)
    before = _reports(plain)
    assert {"manifest.json", "evaluation_summary.csv"} <= before.keys()
    assert _reports(quoted) == before


def test_a_dropped_column_leaves_every_report_unchanged_but_the_config_echo(outputs):
    (plain, _), (dropped, dropped_by_numpy) = outputs["plain"], outputs["dropped"]
    # numpy's parser reads both chunks and skips the text column
    assert dropped_by_numpy == 2
    assert masked(dropped / "manifest.json")["config"]["dataset"]["drop_columns"] == ["id", "note"]
    assert _reports(dropped) == _reports(plain)
