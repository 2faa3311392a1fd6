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
    "extra",
    [["--no-such-flag"], ["--epochs", "0"], ["--seed", "-1"], ["--sigma0", "inf"]],
    ids=str,
)
def test_usage_errors_exit_1(log_csv, tmp_path, extra):
    assert train(log_csv, tmp_path / "m.model", *extra) == cli.EXIT_USAGE


@pytest.mark.parametrize("delimiter", ["", "ab"])
def test_delimiter_must_be_one_character(log_csv, tmp_path, capsys, delimiter):
    assert train(log_csv, tmp_path / "m.model", "--delimiter", delimiter) == cli.EXIT_USAGE
    assert "som-atlas: error:" in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()


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


@pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("command", ["planes", "cluster"])
@pytest.mark.parametrize("fmt", ["svg", "ppm"])
def test_non_finite_or_zero_radius_exits_1(log_csv, tmp_path, command, fmt, radius):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    argv = [command, "--model", str(tmp_path / "m.model"), "--outdir", str(tmp_path / "out"),
            "--format", fmt, "--radius", radius]
    if command == "cluster":
        argv += ["--k", "2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not list((tmp_path / "out").glob(f"*.{fmt}"))
    # No partial output either: no directory, or an empty one.
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
