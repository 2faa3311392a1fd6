"""Model file format: byte round trips and corruption reporting."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from som_atlas.errors import ModelFormatError
from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import AttributeSpec, normalize
from som_atlas.model_io import ROW_BLOCK, load_model, save_model
from som_atlas.som import SomModel, TrainingSchedule, train

from conftest import make_model, make_table, model_text, text_model


@pytest.fixture
def trained_model(rng):
    rows = rng.random((20, 3)) * np.array([10.0, 2.0, 500.0]) + np.array([1.0, -1.0, 0.0])
    table = make_table(rows, names=["pressure in", "flow", "power"])
    grid = HexGrid(3, 2)
    sched = TrainingSchedule(epochs=4, seed=77)
    return train(normalize(table), grid, sched)


def test_dumps_structure(trained_model, tmp_path):
    text = model_text(trained_model, tmp_path)
    lines = text.splitlines()
    assert lines[0] == "som-atlas-model v1"
    assert lines[1] == "grid 3 2 odd-r"
    assert lines[2] == "dim 3"
    assert lines[3].startswith("schedule epochs=4 ")
    assert sum(1 for ln in lines if ln.startswith("attr ")) == 3
    assert sum(1 for ln in lines if ln.startswith("w ")) == 6
    assert text.endswith("\n")


def test_text_round_trip_is_exact(trained_model, tmp_path):
    text = model_text(trained_model, tmp_path)
    clone = text_model(text, tmp_path)
    assert model_text(clone, tmp_path) == text
    assert np.array_equal(clone.weights, trained_model.weights)
    assert clone.schema == trained_model.schema
    assert clone.schedule == trained_model.schedule
    assert clone.grid == trained_model.grid


def test_model_built_in_python_round_trips_with_attributes_numbered_by_position(tmp_path):
    schema = (AttributeSpec("b", 1.0, 2.0), AttributeSpec("a", 5.0, 5.0), AttributeSpec("c", -1.0, 0.0))
    model = SomModel(
        HexGrid(2, 1), [[0.1, 0.5, 0.9], [0.3, 0.5, 0.7]], schema=schema,
        schedule=TrainingSchedule(epochs=2, sigma0=1.0),
    )  # fmt: skip
    text = model_text(model, tmp_path)
    assert [ln for ln in text.splitlines() if ln.startswith("attr ")] == [
        "attr 0 b 1.0 2.0 0",
        "attr 1 a 5.0 5.0 1",
        "attr 2 c -1.0 0.0 0",
    ]
    clone = text_model(text, tmp_path)
    assert clone.schema == schema
    assert model_text(clone, tmp_path) == text


def test_file_round_trip_is_byte_exact(trained_model, tmp_path):
    path = tmp_path / "m.som"
    save_model(trained_model, path)
    first = path.read_bytes()
    save_model(load_model(path), path)
    assert path.read_bytes() == first


def test_spaced_names_survive(trained_model, tmp_path):
    clone = text_model(model_text(trained_model, tmp_path), tmp_path)
    assert [a.name for a in clone.schema] == ["pressure in", "flow", "power"]


def test_untrained_model_rejected():
    # A bare codebook becomes a model, which ``save_model`` takes, only
    # with the schema and resolved schedule a model file records.
    from som_atlas.som import init_codebook

    with pytest.raises(TypeError, match="schema"):
        SomModel(HexGrid(2, 2), init_codebook(HexGrid(2, 2), 2, seed=1))


def _unsavable(model):
    schema = list(model.schema)
    schema[0] = replace(schema[0], name="two  spaces")
    return replace(model, schema=tuple(schema))


def test_unrepresentable_name_rejected(trained_model, tmp_path):
    with pytest.raises(ValueError, match="round-trip"):
        model_text(_unsavable(trained_model), tmp_path)


def test_unrepresentable_name_leaves_the_target_as_it_was(trained_model, tmp_path):
    (tmp_path / "m.som").write_bytes(b"kept")
    with pytest.raises(ValueError, match="round-trip"):
        save_model(_unsavable(trained_model), tmp_path / "m.som")
    assert [p.name for p in tmp_path.iterdir()] == ["m.som"]
    assert (tmp_path / "m.som").read_bytes() == b"kept"


def test_saved_blocks_join_into_the_dumped_text(tmp_path):
    # Neuron lines are written ROW_BLOCK at a time; the last block is partial.
    grid = HexGrid(ROW_BLOCK + 1, 2)
    model = make_model(grid, np.random.default_rng(8).random((grid.n_nodes, 3)))
    text = model_text(model, tmp_path)
    lines = text.splitlines()
    assert lines[4 + model.dim :] == [
        f"w {i} " + " ".join(map(repr, row)) for i, row in enumerate(model.weights.tolist())
    ]
    assert model_text(text_model(text, tmp_path), tmp_path) == text


def test_save_memory_does_not_grow_with_the_neurons(tmp_path):
    # The text of one block of neuron lines is the most held at once. Built
    # whole, the text and its encoding took about 8 times the codebook's bytes.
    def peak(blocks):
        grid = HexGrid(ROW_BLOCK, blocks)
        model = make_model(grid, np.random.default_rng(9).random((grid.n_nodes, 8)))
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.som")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 14 more blocks add less than one block of the codebook's own bytes.
    assert peak(16) - peak(2) < ROW_BLOCK * 8 * 8


def test_load_memory_is_about_the_codebook(tmp_path):
    # The file is read as a stream of lines, so little more than the codebook
    # is held. Reading the whole text first took about 7 times the codebook.
    grid = HexGrid(200, 200)
    model = make_model(grid, np.random.default_rng(10).random((grid.n_nodes, 8)))
    save_model(model, tmp_path / "m.som")
    tracemalloc.start()
    try:
        loaded = load_model(tmp_path / "m.som")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.weights, model.weights)
    assert peak <= 1.5 * model.weights.nbytes


@pytest.mark.parametrize("separator", ["\r\n", "\r", "\x0c", "\x1c", "\u2028"], ids=repr)
def test_file_lines_end_where_the_text_lines_end(trained_model, tmp_path, separator):
    # ``str.splitlines`` ends a line at each of these, in a file as in a string.
    text = model_text(trained_model, tmp_path)
    model = text_model(text.replace("\n", separator), tmp_path)
    assert model_text(model, tmp_path) == model_text(text_model(text, tmp_path), tmp_path)


def test_undecodable_bytes_name_the_file(trained_model, tmp_path):
    path = tmp_path / "m.som"
    path.write_bytes(model_text(trained_model, tmp_path).encode("utf-8") + b"\xff\n")
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == f"{path}: not a UTF-8 text file (invalid start byte)"
    # Blocks are decoded as the lines are read, so a malformed line a few
    # blocks before the bad byte is met first.
    path.write_bytes(b"not-a-model\n" + b"w\n" * 100_000 + b"\xff\n")
    with pytest.raises(ModelFormatError, match=r"^line 1: expected header"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate,expect",
    [
        (lambda ls: ["not-a-model"] + ls[1:], "line 1"),
        (lambda ls: ls[:1] + ["grid 3 2 square"] + ls[2:], "line 2"),
        pytest.param(
            lambda ls: ls[:1] + ["grid 0 2 odd-r"] + ls[2:], "line 2", id="grid-zero-width"
        ),
        pytest.param(
            lambda ls: ls[:1] + ["grid 3 -1 odd-r"] + ls[2:], "line 2", id="grid-negative-height"
        ),
        (lambda ls: ls[:2] + ["dim zero"] + ls[3:], "line 3"),
        (lambda ls: ls[:3] + ["schedule epochs=4"] + ls[4:], "line 4"),
        (lambda ls: ls[:4] + ["attr 5 pressure in 0.0 1.0 0"] + ls[5:], "line 5"),
        # An infinite range would scale every value to NaN or 0 when classifying.
        pytest.param(
            lambda ls: ls[:5] + ["attr 1 flow -inf inf 0"] + ls[6:], "line 6: .* not finite",
            id="attr-infinite-range",
        ),
        pytest.param(
            lambda ls: ls[:5] + ["attr 1 flow 0.0 inf 0"] + ls[6:], "line 6: .* not finite",
            id="attr-half-infinite-range",
        ),
        (lambda ls: ls[:-1], "end of file"),
        (lambda ls: ls + ["w 99 0.0 0.0 0.0"], "trailing"),
    ],
)
def test_corruption_names_first_bad_line(trained_model, tmp_path, mutate, expect):
    lines = model_text(trained_model, tmp_path).splitlines()
    broken = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(ModelFormatError, match=expect):
        text_model(broken, tmp_path)


def test_weight_out_of_range_rejected(trained_model, tmp_path):
    lines = model_text(trained_model, tmp_path).splitlines()
    parts = lines[-1].split(" ")
    parts[2] = "1.5"
    lines[-1] = " ".join(parts)
    with pytest.raises(ModelFormatError, match=r"\[0, 1\]"):
        text_model("\n".join(lines) + "\n", tmp_path)


def test_repeated_attribute_name_names_the_second_line(trained_model, tmp_path):
    text = model_text(trained_model, tmp_path).replace("\nattr 2 power ", "\nattr 2 flow ")
    with pytest.raises(ModelFormatError, match=r"^line 7: attribute name 'flow' repeats$"):
        text_model(text, tmp_path)


def test_quasi_flag_consistency_checked(trained_model, tmp_path):
    lines = model_text(trained_model, tmp_path).splitlines()
    attr_i = next(i for i, ln in enumerate(lines) if ln.startswith("attr 0 "))
    parts = lines[attr_i].split(" ")
    parts[-1] = "1"  # claim quasi-constant despite a real range
    lines[attr_i] = " ".join(parts)
    with pytest.raises(ModelFormatError, match="inconsistent"):
        text_model("\n".join(lines) + "\n", tmp_path)


def _small_model_text(directory):
    # 2x2 neurons, 2 attributes: lines 1-4 head, 5-6 attributes, 7-10 weights.
    schema = (AttributeSpec("a", 0.0, 1.0), AttributeSpec("b", 0.0, 1.0))
    sched = TrainingSchedule(epochs=2, sigma0=1.0)
    return model_text(SomModel(HexGrid(2, 2), np.full((4, 2), 0.5), schema, sched), directory)


SCHEDULE_LINE = "schedule epochs=2 alpha0=0.5 alpha_end=0.01 sigma0=1.0 shuffle=1 seed=42"


@pytest.mark.parametrize(
    "edits,message",
    [
        (None, "line 1: unexpected end of file"),
        ({3: "dim 0"}, "line 3: dim must be >= 1"),
        (
            {4: SCHEDULE_LINE.replace("alpha0=0.5", "epochs=2")},
            "line 4: bad schedule field 'epochs=2'",
        ),
        ({4: SCHEDULE_LINE.replace("seed=42", "seed42")}, "line 4: bad schedule field 'seed42'"),
        (
            {4: SCHEDULE_LINE.replace("shuffle=1", "shuffle=2")},
            "line 4: flag must be 0 or 1, got '2'",
        ),
        ({4: SCHEDULE_LINE.replace("epochs=2", "epochs=x")}, "line 4: not an integer: 'x'"),
        ({5: "attr 0  0.0 1.0 0"}, "line 5: empty attribute name"),
        ({7: "w 0 0.5"}, "line 7: expected 'w 0' followed by 2 values"),
        ({7: "w 3 0.5 0.5"}, "line 7: neuron index 3, expected 0"),
        ({7: "w 0 x 0.5"}, "line 7: not a number: 'x'"),
        ({7: "w 0 nan 0.5"}, "line 7: weight outside [0, 1]"),
        # Two bad lines: the earlier one is named, whatever the later one holds.
        ({7: "w 0 nan 0.5", 8: "w 1 x 0.5"}, "line 7: weight outside [0, 1]"),
        ({6: "attr 1 b 0.0 1.0 1", 7: "w 0 x"}, "line 6: attribute 'b': "
         "quasi_constant flag inconsistent with range [0.0, 1.0]"),
    ],
)  # fmt: skip
def test_loader_messages(tmp_path, edits, message):
    if edits is None:
        text = ""
    else:
        lines = _small_model_text(tmp_path).splitlines()
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        text = "\n".join(lines) + "\n"
    with pytest.raises(ModelFormatError) as excinfo:
        text_model(text, tmp_path)
    assert str(excinfo.value) == message


def test_integer_valued_floats_are_written_as_floats_and_round_trip(tmp_path):
    model = SomModel(
        HexGrid(2, 2), np.full((4, 1), 0.5), (AttributeSpec("a", 0, 1),),
        TrainingSchedule(alpha0=1, alpha_end=1, sigma0=2),
    )  # fmt: skip
    text = model_text(model, tmp_path)
    lines = text.splitlines()
    assert lines[3] == "schedule epochs=200 alpha0=1.0 alpha_end=1.0 sigma0=2.0 shuffle=1 seed=42"
    assert lines[4] == "attr 0 a 0.0 1.0 0"
    assert model_text(text_model(text, tmp_path), tmp_path) == text


@pytest.mark.parametrize("sigma0", ["inf", "nan"])
def test_non_finite_sigma0_rejected(trained_model, tmp_path, sigma0):
    text = model_text(trained_model, tmp_path)
    broken = re.sub(r"sigma0=\S+", f"sigma0={sigma0}", text)
    assert broken != text
    with pytest.raises(ModelFormatError, match="line 4: sigma0"):
        text_model(broken, tmp_path)
