"""Tests of the benchmark's own log generator and output checker.

    python3 -m pytest benchmarks
"""

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

import check
from sensorlog import COLUMNS, make_log
from tracing import Tracer, self_times

SRC = Path(__file__).resolve().parents[1] / "src"

# Three neurons on a 3x1 lattice over two attributes whose ranges are [0, 10].
WEIGHTS = [[0.1, 0.15], [0.5, 0.5], [0.9, 0.85]]
TRAIN_ROWS = [[1, 1], [1, 2], [9, 9], [9, 8], [0, 0], [10, 10], [5, 5]]


def model_text(weights=WEIGHTS, width=3, height=1, seed=42):
    lines = [
        "som-atlas-model v1",
        f"grid {width} {height} odd-r",
        "dim 2",
        f"schedule epochs=3 alpha0=0.5 alpha_end=0.01 sigma0=1.5 shuffle=1 seed={seed}",
        "attr 0 a 0.0 10.0 0",
        "attr 1 b 0.0 10.0 0",
    ]
    lines += [f"w {i} " + " ".join(str(v) for v in row) for i, row in enumerate(weights)]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def trained(tmp_path):
    write_csv(tmp_path / "train.csv", ["a", "b"], TRAIN_ROWS)
    (tmp_path / "m.model").write_text(model_text())
    return tmp_path


class TestSensorLog:
    def test_same_seed_same_bytes(self):
        a = make_log(5, 400, stream=1, out_of_range_share=0.02, malformed_share=0.02)
        b = make_log(5, 400, stream=1, out_of_range_share=0.02, malformed_share=0.02)
        assert a == b

    def test_seed_and_stream_change_the_log(self):
        base = make_log(5, 400).text
        assert make_log(6, 400).text != base
        assert make_log(5, 400, stream=1).text != base

    def test_malformed_and_out_of_range_counts(self):
        log = make_log(11, 2000, out_of_range_share=0.01, malformed_share=0.005)
        records = list(csv.reader(io.StringIO(log.text)))
        assert tuple(records[0]) == COLUMNS
        good = [
            r for r in records[1:] if len(r) == len(COLUMNS) and "n/a" not in r and "nan" not in r
        ]
        assert len(records) - 1 == log.n_rows == 2000
        assert len(records) - 1 - len(good) == log.n_malformed == 10
        raw = np.array(good, dtype=float)
        clean = make_log(11, 2000)  # same readings before corruption
        clean_max = np.array(list(csv.reader(io.StringIO(clean.text)))[1:], dtype=float).max(axis=0)
        beyond = np.any(raw > clean_max, axis=1).sum()
        assert beyond == log.n_out_of_range == 20

    def test_one_attribute_drifts(self):
        rows = np.array(list(csv.reader(io.StringIO(make_log(2, 6000).text)))[1:], dtype=float)
        first, last = rows[:1000].mean(axis=0), rows[-1000:].mean(axis=0)
        assert last[0] - first[0] > 5.0  # temp_c rises over the log


class TestCheckModel:
    def test_trained_model_passes(self, trained):
        errors, qe, te = check.check_model(trained / "m.model", trained / "train.csv", 2)
        assert errors == []
        assert 0.0 < qe < 0.2
        assert 0.0 <= te <= 1.0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda t: t.replace("w 1 0.5 0.5", "w 1 0.5 1.5"),  # outside [0, 1]
            lambda t: t.replace("w 1 0.5 0.5", "w 1 0.5 nan"),  # not finite
            lambda t: t.replace("w 2 0.9 0.85\n", ""),  # a neuron missing
            lambda t: t.replace("som-atlas-model v1", "som-atlas-model v0"),
        ],
    )
    def test_corrupted_model_fails(self, trained, corrupt):
        path = trained / "m.model"
        path.write_text(corrupt(path.read_text()))
        errors, _, _ = check.check_model(path, trained / "train.csv", 2)
        assert errors

    def test_untrained_codebook_fails(self, trained):
        initial = np.random.default_rng(42).random((3, 2))
        (trained / "m.model").write_text(model_text(initial.tolist()))
        errors, _, _ = check.check_model(trained / "m.model", trained / "train.csv", 2)
        assert any("not below the initial" in e for e in errors)


class TestCheckClassify:
    RAW = [[1.0, 1.0], [9.0, 9.0], [4.0, 6.0], [12.0, 5.0]]  # the last one clamps

    def assignments(self):
        rows = []
        for i, raw in enumerate(self.RAW):
            x = [min(1.0, max(0.0, v / 10.0)) for v in raw]
            dists = [math.dist(x, w) for w in WEIGHTS]
            u = dists.index(min(dists))
            rows.append([i, u, repr(dists[u]), int(raw[0] > 10.0)])
        return rows

    def run(self, trained, rows):
        write_csv(trained / "a.csv", ["row", "neuron", "distance", "clamped"], rows)
        model = check.read_model(trained / "m.model")
        return check.check_classify(trained / "a.csv", model, np.array(self.RAW))

    def test_correct_assignments_pass(self, trained):
        assert self.run(trained, self.assignments()) == []

    def test_wrong_bmu_fails(self, trained):
        rows = self.assignments()
        rows[1][1] = 0
        assert self.run(trained, rows)

    def test_distance_off_by_more_than_tolerance_fails(self, trained):
        rows = self.assignments()
        rows[2][2] = repr(float(rows[2][2]) + 1e-9)
        assert self.run(trained, rows)

    def test_wrong_clamp_flag_fails(self, trained):
        rows = self.assignments()
        rows[3][3] = 0
        assert self.run(trained, rows)

    def test_missing_row_fails(self, trained):
        assert self.run(trained, self.assignments()[:-1])

    def test_missing_file_fails(self, trained):
        model = check.read_model(trained / "m.model")
        assert check.check_classify(trained / "absent.csv", model, np.array(self.RAW))


class TestCheckImagesAndTables:
    def test_ppm_size(self, tmp_path):
        w, h = check.ppm_size(3, 1, 2.0)
        path = tmp_path / "p.ppm"
        path.write_text(f"P3\n{w} {h}\n255\n" + "0 0 0\n" * (w * h))
        assert check.check_ppm(path, 3, 1, 2.0) == []
        path.write_text(f"P3\n{w} {h}\n255\n" + "0 0 0\n" * (w * h - 1))
        assert check.check_ppm(path, 3, 1, 2.0)
        assert check.check_ppm(path, 4, 1, 2.0)

    def test_correlation(self, trained):
        model = check.read_model(trained / "m.model")
        r = float(np.corrcoef(np.array(WEIGHTS).T)[0, 1])
        path = trained / "c.csv"
        write_csv(path, ["", "a", "b"], [["a", 1.0, r], ["b", r, 1.0]])
        assert check.check_correlation(path, model) == []
        write_csv(path, ["", "a", "b"], [["a", 1.0, r], ["b", r - 0.01, 1.0]])
        assert check.check_correlation(path, model)

    def test_cluster_needs_k_labels(self, trained):
        model = check.read_model(trained / "m.model")
        write_csv(trained / "neuron_clusters.csv", ["neuron", "cluster"], [[0, 0], [1, 1], [2, 1]])
        write_csv(trained / "assignments.csv", ["row", "neuron", "cluster", "distance", "clamped"],
                  [[0, 0, 0, "0.1", 0], [1, 2, 1, "0.1", 0]])  # fmt: skip
        write_csv(trained / "cluster_stats.csv", ["cluster", "attribute", "count", "mean", "std"],
                  [[c, a, 1, "1.0", "0.0"] for c in range(2) for a in "ab"])  # fmt: skip
        (trained / "cluster_map.svg").write_text(
            '<svg xmlns="http://www.w3.org/2000/svg">' + "<polygon/>" * 3 + "</svg>"
        )
        assert check.check_cluster(trained, model, 2, 2) == []
        assert check.check_cluster(trained, model, 3, 2)
        (trained / "cluster_map.svg").write_text("<svg")
        assert check.check_cluster(trained, model, 2, 2)


def test_self_time_subtracts_direct_children():
    spans = [
        [0, None, "a", 0.0, 10.0, {}],
        [1, 0, "b", 1.0, 4.0, {}],
        [2, 1, "c", 2.0, 3.0, {}],
        [3, 0, "b", 5.0, 6.0, {}],
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_tracer_spans_every_call_site_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from som_atlas import cli, som

    (tmp_path / "log.csv").write_text(make_log(1, 60).text)
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--input", "log.csv", "--model", "m.model", "--width", "3", "--height", "3",
            "--epochs", "2"]  # fmt: skip
    original_train = som.train
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert cli.train is original_train  # the name cli imported is restored

    by_id = {s[0]: s for s in tracer.spans}
    names = [s[2] for s in tracer.spans]
    assert names.count("ingest.parse_csv") == 1  # reopening itself on the file is no new span
    span = next(s for s in tracer.spans if s[2] == "kernels.train_loop")
    chain = []
    while span is not None:
        chain.append(span[2])
        span = by_id.get(span[1])
    assert chain == ["kernels.train_loop", "som.train", "cli.cmd_train", "cli.main"]
    assert sum(s[5]["steps"] for s in tracer.spans if s[2] == "kernels.train_loop") == 2 * 60
