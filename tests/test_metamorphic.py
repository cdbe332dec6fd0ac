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
"""

import csv
import io
import json

import pytest

import synth_data
from privids import dataset
from privids.cli import NONDETERMINISTIC_KEYS, main
from privids.evaluation import CONFIGURATION_TAGS

SCALES = {"sbytes": 2.0**20, "dur": 2.0**-7}
DISTORTED = ("lsm_only", "pcc_lsm")
COPIES = ("plain", "scaled", "quoted")


def _scaled_copy(source, target):
    with open(source, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    where = {header.index(name): scale for name, scale in SCALES.items()}
    with open(target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v) * where[i]) if i in where else v for i, v in enumerate(row)])


def _quoted_copy(source, target):
    with open(source, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(target, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name: (the output directory of pipeline on that copy of a 1,200-row
    file, the number of its chunks numpy's parser read). Each copy is run in
    its own directory with the same relative paths, so the manifests echo
    the same config."""
    work = tmp_path_factory.mktemp("metamorphic")
    for name in COPIES:
        (work / name).mkdir()
    synth_data.write_csv(work / "plain" / "flows.csv", 1200, seed=7)
    _scaled_copy(work / "plain" / "flows.csv", work / "scaled" / "flows.csv")
    _quoted_copy(work / "plain" / "flows.csv", work / "quoted" / "flows.csv")
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
            (work / name / "config.yaml").write_text(
                "dataset:\n  path: flows.csv\noutput_dir: out\ntiming_repeats: 1\n", encoding="utf-8"
            )
            by_numpy.append(0)
            assert main(["pipeline", "--config", "config.yaml"]) == 0
            result[name] = (work / name / "out", by_numpy[-1])
    return result


@pytest.fixture(scope="module")
def runs(outputs):
    """The output directories of the plain and the scaled copy."""
    return [outputs[name][0] for name in ("plain", "scaled")]


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


def _masked(path):
    """A report's content without the values of NONDETERMINISTIC_KEYS: the
    JSON text with those keys left out, or the CSV rows without those
    columns."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        def strip(value):
            if isinstance(value, dict):
                return {k: strip(v) for k, v in value.items() if k not in NONDETERMINISTIC_KEYS}
            return [strip(v) for v in value] if isinstance(value, list) else value
        return json.dumps(strip(json.loads(text)))
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    keep = [i for i, name in enumerate(header) if name not in NONDETERMINISTIC_KEYS]
    return [[row[i] for i in keep] for row in [header, *rows]]


def test_quoted_fields_leave_every_report_unchanged_but_its_times(outputs):
    (plain, plain_by_numpy), (quoted, quoted_by_numpy) = outputs["plain"], outputs["quoted"]
    # the relation compares the two readers: numpy's for every plain chunk,
    # csv for every quoted one
    assert (plain_by_numpy, quoted_by_numpy) == (2, 0)
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in quoted.iterdir())
    assert "manifest.json" in names and "evaluation_summary.csv" in names
    for name in names:
        assert _masked(plain / name) == _masked(quoted / name), name
