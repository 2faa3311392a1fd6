"""Command-line exit codes and reproducible outputs, through ``cli.main`` and the process entry."""

import ast
import csv
import errno
import inspect
import io
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas import cli, kernels, som
from som_atlas.analysis import component_plane
from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import AttributeSpec, normalize, parse_csv
from som_atlas.kernels import pure
from som_atlas.model_io import load_model, save_model
from som_atlas.render import render_plane
from som_atlas.som import SomModel, TrainingSchedule

from conftest import model_text, mutate

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


def test_train_memory_grows_by_a_few_codebooks(tmp_path):
    # The whole command: one codebook is held at a time and the model text is
    # streamed out. Holding the initial codebook through training and building
    # the text whole grew the peak by about 11 times the codebook's bytes. It
    # grows by about 2.5: the trained codebook, the search's screen matrix and
    # the int32 hop table (an int64 one made it 3.0).
    rows = np.random.default_rng(4).random((50, 8))
    log = tmp_path / "log.csv"
    log.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))

    def peak(side):
        argv = ["train", "--input", str(log), "--model", str(tmp_path / "m"), "--no-header",
                "--width", str(side), "--height", str(side), "--epochs", "1"]  # fmt: skip
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-call costs
    small, large = 50, 150
    codebook_growth = 8 * rows.shape[1] * (large**2 - small**2)
    assert (peak(large) - peak(small)) / codebook_growth <= 3.5


def _config(out):
    """The ``config:`` echo in ``out`` as a dict of its pairs."""
    line = next(ln for ln in out.splitlines() if ln.startswith("config: "))
    return dict(pair.split("=", 1) for pair in shlex.split(line.removeprefix("config: ")))


def test_config_echo_splits_back_into_every_value(log_csv, tmp_path, capsys):
    spaced = tmp_path / "a log; with spaces.csv"
    spaced.write_text(log_csv.read_text().replace(",", ";"))
    model = tmp_path / "it's a.model"
    assert train(spaced, model, "--delimiter", ";") == cli.EXIT_OK
    pairs = _config(capsys.readouterr().out)
    assert (pairs["input"], pairs["model"], pairs["delimiter"]) == (str(spaced), str(model), ";")
    assert pairs["width"] == "3" and pairs["kernel"] == kernels.BACKEND


def test_train_echoes_the_selected_backend(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    pairs = _config(capsys.readouterr().out)
    assert pairs["kernel"] == kernels.BACKEND
    library = None if kernels.LIBRARY is None else str(kernels.LIBRARY)
    assert pairs.get("kernel_library") == library


def test_train_echo_at_default_flags(log_csv, tmp_path, capsys):
    model = tmp_path / "m.model"
    assert cli.main(["train", "--input", str(log_csv), "--model", str(model)]) == cli.EXIT_OK
    library = "" if kernels.LIBRARY is None else f" kernel_library={kernels.LIBRARY}"
    assert capsys.readouterr().out.splitlines()[0] == (
        "config: command=train alpha0=0.5 alpha_end=0.01 delimiter=, drop_bad_rows=False "
        f"epochs=200 height=20 input={log_csv} model={model} no_header=False no_shuffle=False "
        f"random_seed=False seed=42 sigma0=10.0 time_period=None width=20 "
        f"kernel={kernels.BACKEND}{library}"
    )


@pytest.mark.parametrize(
    "flags",
    [["--seed", "5", "--random-seed"], ["--seed", "42", "--random-seed"],
     ["--random-seed", "--seed", "42"]],
    ids=" ".join,
)  # fmt: skip
def test_seed_and_random_seed_together_exit_1(log_csv, tmp_path, capsys, flags):
    # 42 is the default seed: given explicitly, it conflicts all the same.
    assert train(log_csv, tmp_path / "m.model", *flags) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        "som-atlas: error: argument --random-seed: not allowed with argument --seed\n"
        if flags[0] == "--seed"
        else "som-atlas: error: argument --seed: not allowed with argument --random-seed\n"
    )
    assert not (tmp_path / "m.model").exists()


def test_random_seed_is_echoed_and_written_to_the_schedule(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model", "--random-seed") == cli.EXIT_OK
    seed = _config(capsys.readouterr().out)["seed"]
    schedule_line = (tmp_path / "m.model").read_text().splitlines()[3]
    assert schedule_line.endswith(f" shuffle=1 seed={seed}")
    assert load_model(tmp_path / "m.model").schedule.seed == int(seed)


def test_no_shuffle_writes_the_model_trained_in_file_order(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "m.model", "--no-shuffle") == cli.EXIT_OK
    assert train(log_csv, tmp_path / "shuffled.model") == cli.EXIT_OK
    table = normalize(parse_csv(log_csv))
    model = som.train(table, HexGrid(3, 2), TrainingSchedule(epochs=3, shuffle=False))
    text = model_text(model, tmp_path).encode()
    assert (tmp_path / "m.model").read_bytes() == text
    assert (tmp_path / "shuffled.model").read_bytes() != text


def test_no_header_names_the_columns_by_position(log_csv, tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text(log_csv.read_text().split("\n", 1)[1])
    assert train(bare, tmp_path / "m.model", "--no-header") == cli.EXIT_OK
    assert [a.name for a in load_model(tmp_path / "m.model").schema] == ["col1", "col2", "col3"]


def test_time_period_puts_the_time_attribute_first(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "m.model", "--time-period", "0.5") == cli.EXIT_OK
    text = (tmp_path / "m.model").read_text()
    attrs = [line for line in text.splitlines() if line.startswith("attr ")]
    # 12 rows counted 0, 0.5, ..., 5.5.
    assert attrs[0] == "attr 0 Time 0.0 5.5 0"
    assert [line.split(" ")[:3] for line in attrs[1:]] == [
        ["attr", "1", "a"], ["attr", "2", "b"], ["attr", "3", "c"]
    ]  # fmt: skip


def test_cluster_with_one_iteration_exits_0(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    argv = ["cluster", "--model", str(tmp_path / "m.model"), "--k", "2",
            "--outdir", str(tmp_path / "out"), "--max-iters", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert (tmp_path / "out" / "neuron_clusters.csv").is_file()


def test_warnings_print_one_line_each(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("a,b,c\n0.1,5.0,7.0\n0.9,5.0,7.0\n0.4,5.0,7.0\n")
    assert train(log, tmp_path / "m.model") == cli.EXIT_OK
    assert capsys.readouterr().err == (
        "som-atlas: warning: attribute 'b' is quasi-constant (range 0); pinned to 0.5\n"
        "som-atlas: warning: attribute 'c' is quasi-constant (range 0); pinned to 0.5\n"
    )


@pytest.mark.parametrize(
    "extra",
    [["--no-such-flag"], ["--epochs", "0"], ["--seed", "-1"], ["--sigma0", "inf"]],
    ids=str,
)
def test_usage_errors_exit_1(log_csv, tmp_path, extra):
    assert train(log_csv, tmp_path / "m.model", *extra) == cli.EXIT_USAGE


@pytest.mark.parametrize("period", ["1e308", "inf", "nan"])
def test_overflowing_time_period_exits_1_naming_it(log_csv, tmp_path, capsys, period):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert train(log_csv, tmp_path / "m.model", "--time-period", period) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("som-atlas: error:") and f"period {float(period)}" in err
    assert not (tmp_path / "m.model").exists()


def test_map_too_large_to_allocate_exits_1_in_one_line(log_csv, tmp_path, capsys, monkeypatch):
    # Stands in for `--width 100000 --height 100000`, without asking for the memory.
    def refuse(grid, dim, seed):
        raise MemoryError("Unable to allocate 596. GiB for an array with shape (10000000000, 8)")

    monkeypatch.setattr(cli, "init_codebook", refuse)
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("som-atlas: error: out of memory: Unable")
    assert not (tmp_path / "m.model").exists()


@pytest.mark.parametrize("delimiter", ["", "ab"])
def test_delimiter_must_be_one_character(log_csv, tmp_path, capsys, delimiter):
    assert train(log_csv, tmp_path / "m.model", "--delimiter", delimiter) == cli.EXIT_USAGE
    assert "som-atlas: error:" in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()


def test_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n0.3\n")
    assert train(bad, tmp_path / "m.model") == cli.EXIT_DATA


def test_csv_that_is_not_utf8_exits_2_naming_the_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,2\n\xff\xfe,3\n")
    assert train(bad, tmp_path / "m.model") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"som-atlas: error: {bad}: not UTF-8 text")
    assert not (tmp_path / "m.model").exists()


def test_column_range_wider_than_float64_exits_2_naming_it(tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1e308,1\n-1e308,2\n")
    assert train(wide, tmp_path / "m.model") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("som-atlas: error: attribute 'a': range")
    assert not (tmp_path / "m.model").exists()


@pytest.mark.parametrize("command", ["train", "classify"])
def test_field_over_the_csv_size_limit_exits_2_naming_the_row(log_csv, tmp_path, capsys, command):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    capsys.readouterr()
    huge = tmp_path / "huge.csv"
    huge.write_text(log_csv.read_text() + "0.5,0.5," + "5" * 200_000 + "\n")
    if command == "train":
        assert train(huge, tmp_path / "n.model") == cli.EXIT_DATA
    else:
        argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(huge),
                "--output", str(tmp_path / "a.csv")]
        assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("som-atlas: error: row 14: field larger than")
    assert not (tmp_path / "n.model").exists() and not (tmp_path / "a.csv").exists()


def test_rows_after_a_quoted_newline_are_named_by_their_line(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    lines = log_csv.read_text().splitlines(keepends=True)
    log = tmp_path / "quoted.csv"
    log.write_text("".join(lines[:2] + ['"0.5\n",0.5,0.5\n', "0.5,oops,0.5\n"] + lines[2:]))
    capsys.readouterr()
    argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(log),
            "--output", str(tmp_path / "a.csv")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == "som-atlas: error: row 5: column 2 (b): not a number: 'oops'\n"
    assert cli.main([*argv, "--drop-bad-rows"]) == cli.EXIT_OK
    assert capsys.readouterr().err == "dropped row 5: column 2 (b): not a number: 'oops'\n"


def test_csv_passed_as_model_exits_2(log_csv, tmp_path):
    argv = ["correlate", "--model", str(log_csv), "--output", str(tmp_path / "r.csv")]
    assert cli.main(argv) == cli.EXIT_DATA


def test_model_with_infinite_attribute_range_exits_2(log_csv, tmp_path, capsys):
    model = tmp_path / "m.model"
    assert train(log_csv, model) == cli.EXIT_OK
    text = model.read_text()
    attr = next(line for line in text.splitlines() if line.startswith("attr 1 "))
    model.write_text(text.replace(attr, "attr 1 b -inf inf 0"))
    argv = ["classify", "--model", str(model), "--input", str(log_csv),
            "--output", str(tmp_path / "a.csv")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_classify_summary_counts_the_rows_and_clamped_rows_written(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    log = tmp_path / "wider.csv"
    log.write_text(log_csv.read_text() + "2.0,0.5,0.5\n0.5,0.5,-1.0\n")  # two out of range
    out = tmp_path / "a.csv"
    argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(log),
            "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    with open(out, newline="") as fh:
        body = list(csv.DictReader(fh))
    n_clamped = sum(row["clamped"] == "1" for row in body)
    assert (len(body), n_clamped) == (14, 2)
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == f"classified {len(body)} rows ({n_clamped} clamped) to {out}"


def test_classify_reports_a_dropped_row_and_writes_the_clean_rows(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    lines = log_csv.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines[:5] + ["0.5,oops,0.5\n"] + lines[5:]))
    capsys.readouterr()
    for log, out in ((log_csv, "clean.csv"), (bad, "dropped.csv")):
        argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(log),
                "--output", str(tmp_path / out), "--drop-bad-rows"]
        assert cli.main(argv) == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err == "dropped row 6: column 2 (b): not a number: 'oops'\n"
    assert (tmp_path / "dropped.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


def test_train_on_a_bom_csv_classifies_the_plain_csv(log_csv, tmp_path):
    marked = tmp_path / "bom.csv"
    marked.write_bytes("\ufeff".encode() + log_csv.read_bytes())
    assert train(marked, tmp_path / "bom.model") == cli.EXIT_OK
    assert train(log_csv, tmp_path / "plain.model") == cli.EXIT_OK
    assert (tmp_path / "bom.model").read_bytes() == (tmp_path / "plain.model").read_bytes()
    argv = ["classify", "--model", str(tmp_path / "bom.model"), "--input", str(log_csv),
            "--output", str(tmp_path / "a.csv")]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("name", ["Temp  A", "Temp\tA"], ids=repr)
def test_unsavable_attribute_name_exits_1_before_training(tmp_path, capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("train ran on a table whose model cannot be saved")

    monkeypatch.setattr(cli, "train", refuse)
    log = tmp_path / "log.csv"
    log.write_text(f"{name},b\n0.1,0.2\n0.3,0.4\n")
    assert train(log, tmp_path / "m.model") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"som-atlas: error: attribute name {name!r} cannot round-trip through the "
                   "model file (runs of whitespace are not representable)\n")
    assert not (tmp_path / "m.model").exists()


def test_missing_input_exits_3(tmp_path):
    assert train(tmp_path / "absent.csv", tmp_path / "m.model") == cli.EXIT_IO


def test_output_in_missing_directory_exits_3(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "absent" / "m.model") == cli.EXIT_IO
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("parent", ["absent", "file"])
def test_unsavable_model_path_exits_3_before_training(log_csv, tmp_path, capsys, monkeypatch,
                                                      parent):
    def refuse(*args, **kwargs):
        raise AssertionError("train ran for a model that cannot be saved")

    monkeypatch.setattr(cli, "train", refuse)
    (tmp_path / "file").write_text("")
    model = tmp_path / parent / "m.model"
    errors = []
    for _ in range(2):
        assert train(log_csv, model) == cli.EXIT_IO
        errors.append(capsys.readouterr().err)
    # The path asked for, not a temporary name that changes on every run.
    code = errno.ENOENT if parent == "absent" else errno.ENOTDIR
    assert errors[0] == errors[1] == (
        f"som-atlas: error: [Errno {code}] {os.strerror(code)}: {str(model)!r}\n"
    )


@pytest.mark.parametrize("parent", ["absent", "file", "dir"])
@pytest.mark.parametrize("command", ["classify", "correlate", "features"])
def test_unwritable_output_exits_3_before_reading(tmp_path, capsys, monkeypatch, command, parent):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read its input for an output it cannot write")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "parse_csv", refuse)
    (tmp_path / "file").write_text("")
    argv = _argv(command, tmp_path / "in.csv", tmp_path / "m.model", tmp_path / parent)
    output = argv[argv.index("--output") + 1]
    if parent == "dir":
        os.makedirs(output)  # the output itself names a directory
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == cli.EXIT_IO
    code = {"absent": errno.ENOENT, "file": errno.ENOTDIR, "dir": errno.EISDIR}[parent]
    assert capsys.readouterr().err == (
        f"som-atlas: error: [Errno {code}] {os.strerror(code)}: {output!r}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_output_that_links_to_a_directory_replaces_the_link(log_csv, tmp_path):
    # ``os.replace`` renames over the link itself, so the write succeeds.
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    (tmp_path / "dir").mkdir()
    (tmp_path / "link.csv").symlink_to(tmp_path / "dir")
    for out in ("a.csv", "link.csv"):
        argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(log_csv),
                "--output", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_OK
    assert not (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "link.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert not any((tmp_path / "dir").iterdir())


@pytest.mark.parametrize("outdir", ["file/out", "file"])
@pytest.mark.parametrize("command", ["planes", "cluster"])
def test_unmakable_outdir_exits_3_before_reading(tmp_path, capsys, monkeypatch, command, outdir):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read its input for an outdir it cannot make")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "parse_csv", refuse)
    (tmp_path / "file").write_text("")
    argv = _argv(command, tmp_path / "in.csv", tmp_path / "m.model", tmp_path)
    argv[argv.index("--outdir") + 1] = path = str(tmp_path / outdir)
    assert cli.main(argv) == cli.EXIT_IO
    # What ``mkdir(parents=True, exist_ok=True)`` raises for the same path.
    code = errno.ENOTDIR if outdir == "file/out" else errno.EEXIST
    assert capsys.readouterr().err == (
        f"som-atlas: error: [Errno {code}] {os.strerror(code)}: {path!r}\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def _directory_output_exits_3(argv, path, capsys):
    """Run ``argv`` with ``path``, an output it writes, made a directory: exit 3, nothing new."""
    os.makedirs(path)
    before = sorted(path.parent.rglob("*"))
    assert cli.main([str(arg) for arg in argv]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"som-atlas: error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(path)!r}\n"
    )
    assert sorted(path.parent.rglob("*")) == before


@pytest.mark.parametrize(
    "name", ["neuron_clusters.csv", "cluster_map.svg", "assignments.csv", "cluster_stats.csv"]
)
def test_cluster_output_that_is_a_directory_exits_3_before_reading(log_csv, tmp_path, capsys,
                                                                   monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("cluster read its input for an output it cannot write")

    monkeypatch.setattr(cli, "load_model", refuse)
    monkeypatch.setattr(cli, "parse_csv", refuse)
    argv = ["cluster", "--model", tmp_path / "m.model", "--input", log_csv, "--k", "2",
            "--outdir", tmp_path / "out"]
    _directory_output_exits_3(argv, tmp_path / "out" / name, capsys)


@pytest.mark.parametrize("name", ["plane_0_a.ppm", "plane_2_c.ppm"])
def test_plane_that_is_a_directory_exits_3_before_rendering(log_csv, tmp_path, capsys,
                                                            monkeypatch, name):
    from som_atlas import render

    def refuse(*args, **kwargs):
        raise AssertionError("planes rendered for an output it cannot write")

    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(render, "render_plane", refuse)
    argv = ["planes", "--model", tmp_path / "m.model", "--outdir", tmp_path / "out",
            "--format", "ppm"]
    _directory_output_exits_3(argv, tmp_path / "out" / name, capsys)


def test_output_with_the_longest_legal_name_is_written(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv"
    for out in ("a.csv", name):
        argv = ["classify", "--model", str(tmp_path / "m.model"), "--input", str(log_csv),
                "--output", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_OK
    assert (tmp_path / name).read_bytes() == (tmp_path / "a.csv").read_bytes()


def test_qe_initial_scores_the_codebook_train_starts_from(log_csv, tmp_path, capsys, monkeypatch):
    # ``cmd_train`` draws the initial codebook itself to score it; the score
    # must be of the codebook the first training call receives.
    first = []

    def recording(weights, *args):
        if not first:
            first.append(weights.copy())
        return train_loop(weights, *args)

    train_loop = kernels.train_loop
    monkeypatch.setattr(kernels, "train_loop", recording)
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    model = load_model(tmp_path / "m.model")
    start = SomModel(model.grid, first[0], model.schema, model.schedule)
    qe = som.quantization_error(start, normalize(parse_csv(log_csv)))
    trained = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("trained:"))
    assert f" qe_initial={qe:.6f} " in trained


def test_cli_defaults_are_the_library_defaults():
    from som_atlas.analysis import kmeans_codebook
    from som_atlas.render import render_cluster_map, render_plane

    def defaults(function):
        return {name: p.default for name, p in inspect.signature(function).parameters.items()}

    def parsed(*argv):
        return vars(cli.build_parser().parse_args(argv))

    kmeans = defaults(kmeans_codebook)
    cluster = parsed("cluster", "--model", "m", "--k", "2", "--outdir", "o")
    assert cli.DEFAULT_KMEANS_SEED == cluster["kmeans_seed"] == kmeans["kmeans_seed"]
    assert cluster["max_iters"] == kmeans["max_iters"]
    for args in (cluster, parsed("planes", "--model", "m", "--outdir", "o")):
        for render in (render_plane, render_cluster_map):
            assert args["radius"] == defaults(render)["cell_radius"]
            assert args["format"] == defaults(render)["format"]
    for command in ("train", "classify", "cluster", "features"):
        args = parsed(*_argv(command, "in.csv", "m.model", Path("out")))
        assert args["delimiter"] == defaults(parse_csv)["delimiter"]


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


@pytest.mark.parametrize("fmt,radius", [("ppm", "1e20"), ("ppm", "1e300"), ("svg", "1e308")])
@pytest.mark.parametrize("command", ["planes", "cluster"])
def test_radius_too_large_to_draw_exits_1(log_csv, tmp_path, capsys, command, fmt, radius):
    # Finite, but the canvas overflows float64 or the PPM pixel index.
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    capsys.readouterr()
    argv = [command, "--model", str(tmp_path / "m.model"), "--outdir", str(tmp_path / "out"),
            "--format", fmt, "--radius", radius]
    if command == "cluster":
        argv += ["--k", "2"]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("som-atlas: error: cell_radius") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_planes_are_numbered_and_drawn_by_schema_position(tmp_path):
    schema = (AttributeSpec("z", 0.0, 1.0), AttributeSpec("a b", 0.0, 2.0))
    weights = np.random.default_rng(9).random((6, 2))
    model = SomModel(HexGrid(3, 2), weights, schema=schema, schedule=TrainingSchedule(sigma0=1.0))
    save_model(model, tmp_path / "m.model")
    out = tmp_path / "out"
    argv = ["planes", "--model", str(tmp_path / "m.model"), "--outdir", str(out), "--format", "ppm"]
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["plane_0_z.ppm", "plane_1_a_b.ppm"]
    for i, path in enumerate(sorted(out.iterdir())):
        image = render_plane(component_plane(model, i), model.grid, format="ppm", cell_radius=12.0)
        assert path.read_bytes() == image


def test_every_csv_the_cli_writes_keeps_its_bytes(tmp_path):
    # A quoted attribute name, a row outside the training range, distances
    # and a std that need 17 digits, an empty cluster and a constant plane,
    # whose absent statistics and correlations are empty cells.
    schema = (AttributeSpec("a", 0.0, 10.0), AttributeSpec("b,x", 0.0, 2.0),
              AttributeSpec("c", 0.0, 1.0))
    weights = np.array([[0.0, 0.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.0, 0.5],
                        [0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.25, 0.75, 0.5]])
    model = SomModel(HexGrid(3, 2), weights, schema=schema, schedule=TrainingSchedule(sigma0=1.0))
    save_model(model, tmp_path / "m.model")
    (tmp_path / "log.csv").write_text(
        'a,"b,x",c\n1.0,0.4,0.5\n9.0,3.4,0.5\n6.0,0.6,0.5\n0.5,1.9,0.5\n'
    )
    (tmp_path / "curve.csv").write_text(
        "t,p\n0.0,5.0\n0.5,4.0\n1.0,3.0\n1.5,3.5\n2.0,4.5\n2.5,5.0\n"
    )
    m, log = tmp_path / "m.model", tmp_path / "log.csv"
    for argv in (
        ["classify", "--model", m, "--input", log, "--output", tmp_path / "classify.csv"],
        ["cluster", "--model", m, "--input", log, "--k", "4", "--outdir", tmp_path / "cluster"],
        ["correlate", "--model", m, "--output", tmp_path / "correlation.csv"],
        ["features", "--input", tmp_path / "curve.csv", "--t-open", "0.5", "--t-close", "1.5",
         "--regen-duration", "1.0", "--output", tmp_path / "features.csv"],
    ):
        assert cli.main([str(arg) for arg in argv]) == cli.EXIT_OK
    assignments = (
        "0,0,{}0.223606797749979,0\n"
        "1,1,{}0.09999999999999998,1\n"
        "2,2,{}0.31622776601683794,0\n"
        "3,3,{}0.07071067811865478,0\n"
    )
    expected = {
        "classify.csv": "row,neuron,distance,clamped\n" + assignments.format("", "", "", ""),
        "cluster/neuron_clusters.csv": "neuron,cluster\n0,1\n1,0\n2,1\n3,3\n4,2\n5,3\n",
        "cluster/assignments.csv": (
            "row,neuron,cluster,distance,clamped\n" + assignments.format("1,", "0,", "1,", "3,")
        ),
        "cluster/cluster_stats.csv": (
            "cluster,attribute,count,mean,std\n"
            '0,a,1,9.0,0.0\n0,"b,x",1,3.4,0.0\n0,c,1,0.5,0.0\n'
            '1,a,2,3.5,3.5355339059327378\n1,"b,x",2,0.5,0.14142135623730948\n1,c,2,0.5,0.0\n'
            '2,a,0,,\n2,"b,x",0,,\n2,c,0,,\n'
            '3,a,1,0.5,0.0\n3,"b,x",1,1.9,0.0\n3,c,1,0.5,0.0\n'
        ),
        "correlation.csv": (
            ',a,"b,x",c\n'
            "a,1.0,-0.06229918232859782,\n"
            '"b,x",-0.06229918232859782,1.0,\n'
            "c,,,\n"
        ),
        "features.csv": "p_start,p_min,pulse_area,regen_area\n4.0,3.0,3.375,4.375\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_cluster_with_mismatched_input_exits_2_and_writes_nothing(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    other = tmp_path / "other.csv"
    other.write_text("a,b,d\n0.1,0.2,0.3\n")
    argv = ["cluster", "--model", str(tmp_path / "m.model"), "--outdir", str(tmp_path / "out"),
            "--k", "2", "--input", str(other)]
    assert cli.main(argv) == cli.EXIT_DATA
    # No partial output either: no directory, or an empty one.
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_nan_regen_duration_exits_1_and_writes_nothing(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("t,p\n0.0,5.0\n1.0,3.0\n2.0,4.0\n3.0,5.0\n")
    out = tmp_path / "features.csv"
    argv = ["features", "--input", str(curve), "--t-open", "0.5", "--t-close", "1.5",
            "--regen-duration", "nan", "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--t-open", "--t-close", "--regen-duration"])
def test_infinite_window_exits_1_and_writes_nothing(tmp_path, flag):
    # A window no file can cover is a usage error, not a data error.
    curve = tmp_path / "curve.csv"
    curve.write_text("t,p\n0.0,5.0\n1.0,3.0\n2.0,4.0\n3.0,5.0\n")
    out = tmp_path / "features.csv"
    window = {"--t-open": "0.5", "--t-close": "1.5", "--regen-duration": "1.0"}
    window[flag] = "-inf" if flag == "--t-open" else "inf"
    argv = ["features", "--input", str(curve), *(arg for pair in window.items() for arg in pair),
            "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("text", ["t,p\n0.0,5.0\n2.0,3.0\n1.0,4.0\n3.0,5.0\n",  # times fall
                                  "t,p\n0.0,5.0\n1.0,3.0\n2.0,4.0\n",  # ends inside the window
                                  "t,p,q\n0.0,5.0,1.0\n3.0,3.0,1.0\n"])  # three columns
def test_curve_file_that_cannot_fill_the_windows_exits_2(tmp_path, capsys, text):
    curve = tmp_path / "curve.csv"
    curve.write_text(text)
    out = tmp_path / "features.csv"
    argv = ["features", "--input", str(curve), "--t-open", "0.5", "--t-close", "1.5",
            "--regen-duration", "1.0", "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err.count("som-atlas: error:") == 1
    assert not out.exists()


def test_negative_kmeans_seed_exits_1_naming_it(log_csv, tmp_path, capsys):
    assert train(log_csv, tmp_path / "m.model") == cli.EXIT_OK
    argv = ["cluster", "--model", str(tmp_path / "m.model"), "--outdir", str(tmp_path / "out"),
            "--k", "2", "--kmeans-seed", "-1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "kmeans_seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


# A file's mutations: none, or the seed of its edits.
MUTATIONS = st.none() | st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Bytes of a sensor log, of a pulse curve, and of a model trained on the log."""
    tmp = tmp_path_factory.mktemp("valid")
    rows = np.random.default_rng(3).random((12, 3))
    log = "a,b,c\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
    (tmp / "log.csv").write_text(log)
    assert train(tmp / "log.csv", tmp / "m.model") == cli.EXIT_OK
    curve = "t,p\n" + "".join(f"{0.5 * i},{5.0 - i % 3}\n" for i in range(8))
    return {"log": log.encode(), "curve": curve.encode(), "model": (tmp / "m.model").read_bytes()}


def _argv(command, inp, model, out):
    """Valid flags for ``command``, reading ``inp`` or ``model`` and writing under ``out``."""
    return [str(arg) for arg in {
        "train": ["train", "--input", inp, "--model", out / "m.model", *TRAIN],
        "planes": ["planes", "--model", model, "--outdir", out / "planes", "--format", "ppm",
                   "--radius", "2"],
        "classify": ["classify", "--model", model, "--input", inp, "--output", out / "a.csv"],
        "cluster": ["cluster", "--model", model, "--input", inp, "--k", "2",
                    "--outdir", out / "clusters"],
        "correlate": ["correlate", "--model", model, "--output", out / "r.csv"],
        "features": ["features", "--input", inp, "--t-open", "0.5", "--t-close", "1.5",
                     "--regen-duration", "1.0", "--output", out / "f.csv"],
    }[command]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(["train", "planes", "classify", "cluster", "correlate",
                                "features"]),
       input_seed=MUTATIONS, model_seed=MUTATIONS)
def test_mutated_files_exit_0_2_or_3(valid_files, native_train_loop, command, input_seed,
                                     model_seed):
    # Bad file content is never a usage error (exit 1) and never escapes as
    # an exception. A failure prints one error line and writes nothing; a
    # train that succeeds writes finite weights, alike on both backends.
    with tempfile.TemporaryDirectory() as tmp:
        inp, model = Path(tmp, "in.csv"), Path(tmp, "in.model")
        source = valid_files["curve" if command == "features" else "log"]
        inp.write_bytes(mutate(source, input_seed))
        model.write_bytes(mutate(valid_files["model"], model_seed))
        loops = [pure.train_loop, native_train_loop] if command == "train" else [kernels.train_loop]
        runs = []
        for i, loop in enumerate(loops):
            out = Path(tmp, f"out{i}")
            out.mkdir()
            err = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()), \
                    redirect_stderr(err):
                mp.setattr(kernels, "train_loop", loop)
                code = cli.main(_argv(command, inp, model, out))
            written = sorted(path for path in out.rglob("*") if path.is_file())
            assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_IO), err.getvalue()
            if code != cli.EXIT_OK:
                assert err.getvalue().startswith("som-atlas: error:"), err.getvalue()
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert written == []
            runs.append((code, err.getvalue(), [path.read_bytes() for path in written]))
        if command == "train":
            assert runs[0] == runs[1], "the numpy and C backends disagree"
            if code == cli.EXIT_OK:
                assert np.isfinite(load_model(out / "m.model").weights).all()


def _spawn(*argv, cwd):
    """``python -m som_atlas.cli`` in a fresh interpreter, the way users run it."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "som_atlas.cli", *map(str, argv)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip


def test_process_train_writes_the_in_process_model_bytes(log_csv, tmp_path):
    assert train(log_csv, tmp_path / "a.model") == cli.EXIT_OK
    args = ["train", "--input", log_csv, "--model", tmp_path / "b.model", *TRAIN]
    proc = _spawn(*args, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")
    assert (tmp_path / "b.model").read_bytes() == (tmp_path / "a.model").read_bytes()
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("config: command=train ")
    assert lines[-1] == f"model written to {tmp_path / 'b.model'}"


def test_process_malformed_csv_exits_2_in_one_error_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0.1,0.2\n0.3\n")
    proc = _spawn("train", "--input", bad, "--model", tmp_path / "m.model", *TRAIN, cwd=tmp_path)
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stderr.startswith("som-atlas: error:") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "m.model").exists()


def test_installed_script_and_module_run_the_same_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    source = Path(cli.__file__).read_text()
    (block,) = [node for node in ast.parse(source).body
                if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    (call,) = [node.value for node in block.body if isinstance(node, ast.Expr)]
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["som-atlas"] == f"som_atlas.cli:{call.func.id}"
    assert callable(getattr(cli, call.func.id))
