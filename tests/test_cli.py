"""Command-line exit codes and reproducible outputs, through ``cli.main``."""

import numpy as np
import pytest

from som_atlas import cli

TRAIN = ["--width", "3", "--height", "2", "--epochs", "3"]


@pytest.fixture
def log_csv(tmp_path):
    rows = np.random.default_rng(3).random((12, 3))
    lines = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in rows]
    path = tmp_path / "log.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def train(csv, model, *extra):
    return cli.main(["train", "--input", str(csv), "--model", str(model), *TRAIN, *extra])


def test_train_succeeds_and_is_byte_reproducible(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "a.model") == cli.EXIT_OK
    assert train(log_csv, tmp_path / "b.model") == cli.EXIT_OK
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


@pytest.mark.parametrize(
    "extra", [["--no-such-flag"], ["--epochs", "0"], ["--seed", "-1"]], ids=str
)
def test_usage_errors_exit_1(log_csv, tmp_path, extra):
    assert train(log_csv, tmp_path / "m.model", *extra) == cli.EXIT_USAGE


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n0.3\n")
    assert train(bad, tmp_path / "m.model") == cli.EXIT_DATA


def test_csv_passed_as_model_exits_2(log_csv, tmp_path):
    argv = ["correlate", "--model", str(log_csv), "--output", str(tmp_path / "r.csv")]
    assert cli.main(argv) == cli.EXIT_DATA


def test_missing_input_exits_3(tmp_path):
    assert train(tmp_path / "absent.csv", tmp_path / "m.model") == cli.EXIT_IO


def test_output_in_missing_directory_exits_3(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "absent" / "m.model") == cli.EXIT_IO
    assert not (tmp_path / "absent").exists()
