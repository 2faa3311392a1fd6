"""Model file format: byte round trips and corruption reporting."""

import re

import numpy as np
import pytest

from som_atlas.errors import ModelFormatError
from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import normalize
from som_atlas.model_io import dumps_model, load_model, loads_model, save_model
from som_atlas.som import TrainingSchedule, train

from conftest import make_table


@pytest.fixture
def trained_model(rng):
    rows = rng.random((20, 3)) * np.array([10.0, 2.0, 500.0]) + np.array([1.0, -1.0, 0.0])
    table = make_table(rows, names=["pressure in", "flow", "power"])
    grid = HexGrid(3, 2)
    sched = TrainingSchedule(epochs=4, seed=77)
    return train(normalize(table), grid, sched)


def test_dumps_structure(trained_model):
    text = dumps_model(trained_model)
    lines = text.splitlines()
    assert lines[0] == "som-atlas-model v1"
    assert lines[1] == "grid 3 2 odd-r"
    assert lines[2] == "dim 3"
    assert lines[3].startswith("schedule epochs=4 ")
    assert sum(1 for ln in lines if ln.startswith("attr ")) == 3
    assert sum(1 for ln in lines if ln.startswith("w ")) == 6
    assert text.endswith("\n")


def test_text_round_trip_is_exact(trained_model):
    text = dumps_model(trained_model)
    clone = loads_model(text)
    assert dumps_model(clone) == text
    assert np.array_equal(clone.weights, trained_model.weights)
    assert clone.schema == trained_model.schema
    assert clone.schedule == trained_model.schedule
    assert clone.grid == trained_model.grid


def test_file_round_trip_is_byte_exact(trained_model, tmp_path):
    path = tmp_path / "m.som"
    save_model(trained_model, path)
    first = path.read_bytes()
    save_model(load_model(path), path)
    assert path.read_bytes() == first


def test_spaced_names_survive(trained_model):
    clone = loads_model(dumps_model(trained_model))
    assert [a.name for a in clone.schema] == ["pressure in", "flow", "power"]


def test_untrained_model_rejected():
    from som_atlas.som import init_codebook

    with pytest.raises(ValueError, match="schema"):
        dumps_model(init_codebook(HexGrid(2, 2), 2, seed=1))


def test_unrepresentable_name_rejected(trained_model):
    from dataclasses import replace

    bad_schema = list(trained_model.schema)
    bad_schema[0] = replace(bad_schema[0], name="two  spaces")
    broken = replace_model_schema(trained_model, tuple(bad_schema))
    with pytest.raises(ValueError, match="round-trip"):
        dumps_model(broken)


def replace_model_schema(model, schema):
    from som_atlas.som import SomModel

    return SomModel(
        grid=model.grid,
        dim=model.dim,
        weights=model.weights.copy(),
        schema=schema,
        schedule=model.schedule,
        epochs_run=model.epochs_run,
    )


@pytest.mark.parametrize(
    "mutate,expect",
    [
        (lambda ls: ["not-a-model"] + ls[1:], "line 1"),
        (lambda ls: ls[:1] + ["grid 3 2 square"] + ls[2:], "line 2"),
        (lambda ls: ls[:2] + ["dim zero"] + ls[3:], "line 3"),
        (lambda ls: ls[:3] + ["schedule epochs=4"] + ls[4:], "line 4"),
        (lambda ls: ls[:4] + ["attr 5 pressure in 0.0 1.0 0"] + ls[5:], "line 5"),
        (lambda ls: ls[:-1], "end of file"),
        (lambda ls: ls + ["w 99 0.0 0.0 0.0"], "trailing"),
    ],
)
def test_corruption_names_first_bad_line(trained_model, mutate, expect):
    lines = dumps_model(trained_model).splitlines()
    broken = "\n".join(mutate(lines)) + "\n"
    with pytest.raises(ModelFormatError, match=expect):
        loads_model(broken)


def test_weight_out_of_range_rejected(trained_model):
    lines = dumps_model(trained_model).splitlines()
    parts = lines[-1].split(" ")
    parts[2] = "1.5"
    lines[-1] = " ".join(parts)
    with pytest.raises(ModelFormatError, match=r"\[0, 1\]"):
        loads_model("\n".join(lines) + "\n")


def test_quasi_flag_consistency_checked(trained_model):
    lines = dumps_model(trained_model).splitlines()
    attr_i = next(i for i, ln in enumerate(lines) if ln.startswith("attr 0 "))
    parts = lines[attr_i].split(" ")
    parts[-1] = "1"  # claim quasi-constant despite a real range
    lines[attr_i] = " ".join(parts)
    with pytest.raises(ModelFormatError, match="inconsistent"):
        loads_model("\n".join(lines) + "\n")


@pytest.mark.parametrize("sigma0", ["inf", "nan"])
def test_non_finite_sigma0_rejected(trained_model, sigma0):
    text = dumps_model(trained_model)
    broken = re.sub(r"sigma0=\S+", f"sigma0={sigma0}", text)
    assert broken != text
    with pytest.raises(ModelFormatError, match="line 4: sigma0"):
        loads_model(broken)
