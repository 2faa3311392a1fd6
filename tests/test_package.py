"""The lazy public API: ``som_atlas`` loads a submodule only when one of its names is used."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import som_atlas

SRC = Path(som_atlas.__file__).parents[1]
ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_its_defining_submodules_object():
    for module, names in som_atlas._EXPORTS.items():
        owner = importlib.import_module(f"som_atlas.{module}")
        for name in names:
            assert getattr(som_atlas, name) is getattr(owner, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from som_atlas import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(som_atlas.__all__)
    assert set(som_atlas.__all__) <= set(dir(som_atlas))


def test_unknown_name_raises_attribute_error_and_submodules_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        som_atlas.no_such_name
    from som_atlas import kernels

    assert kernels is sys.modules["som_atlas.kernels"]


@pytest.mark.parametrize("name", ["learning_rate", "neighborhood", "update_step"])
def test_training_steps_are_taken_only_by_train(name):
    from som_atlas import som

    with pytest.raises(AttributeError, match=name):
        getattr(som_atlas, name)
    assert not hasattr(som, name)


def test_grid_distances_come_only_from_the_hop_table():
    from som_atlas.hexgrid import HexGrid

    assert [q for q in ("distance", "neighbors", "to_rowcol", "to_index") if hasattr(HexGrid, q)] == []


def test_kernels_take_the_hop_table_only_from_check_arguments():
    # One gate: both loops get their checks and hop distances from
    # ``pure.check_arguments``, so no kernel builds or reads the table itself.
    callers = []
    for path in sorted((SRC / "som_atlas" / "kernels").glob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                callers += [function.name for node in ast.walk(function)
                            if isinstance(node, ast.Call) and ast.unparse(node.func) == "hop_table"]
    assert callers == ["check_arguments"]


def _loaded_after(statement: str, names=("numpy",)) -> set[str]:
    """The modules in ``names`` or under ``som_atlas`` that a fresh interpreter holds
    after running ``statement`` (one or more lines)."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    code = (
        f"import sys\n{statement}\n"
        f"print(*(m for m in sys.modules if m in {tuple(names)!r} or m.startswith('som_atlas.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    return set(out.stdout.split())


def test_package_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import som_atlas") == set()


def test_cli_import_loads_only_what_train_needs():
    loaded = _loaded_after("import som_atlas.cli")
    assert {"som_atlas.som", "som_atlas.model_io", "numpy"} <= loaded
    assert not loaded & {"som_atlas.analysis", "som_atlas.render", "som_atlas.pulse"}


def test_cluster_pipeline_loads_no_numpy_ma():
    # numpy.ma takes 15-36 ms to import, and nothing `cluster` runs needs it.
    loaded = _loaded_after(textwrap.dedent(r"""
        import io
        import numpy as np
        from som_atlas.analysis import classify, cluster_stats, kmeans_codebook
        from som_atlas.hexgrid import HexGrid
        from som_atlas.ingest import normalize, parse_csv
        from som_atlas.som import TrainingSchedule, train
        rows = np.random.default_rng(0).random((30, 3)).tolist()
        table = parse_csv(io.StringIO("a,b,c\n" + "\n".join(f"{a},{b},{c}" for a, b, c in rows)))
        model = train(normalize(table), HexGrid(4, 3), TrainingSchedule(epochs=3, seed=1))
        clusters = kmeans_codebook(model, 2, kmeans_seed=0)
        cluster_stats(clusters, classify(model, table), table)
    """), ("numpy", "numpy.ma"))
    assert "som_atlas.analysis" in loaded
    assert "numpy.ma" not in loaded


def test_every_test_module_imports():
    # A module that fails to import is a collection error, which a run that
    # continues past collection errors would report next to its passes. One
    # interpreter a directory, which is first on its path as under pytest.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    failed = []
    for directory in (ROOT / "tests", ROOT / "benchmarks"):
        names = sorted(path.stem for path in directory.glob("test_*.py"))
        assert names, directory
        code = textwrap.dedent(f"""
            import importlib, sys
            failed = []
            for name in {names!r}:
                try:
                    importlib.import_module(name)
                except Exception as exc:
                    failed.append(f"{{name}}: {{exc!r}}")
            sys.exit("\\n".join(failed) or None)
        """)
        run = subprocess.run(
            [sys.executable, "-c", code],
            cwd=directory, env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        if run.returncode:
            failed.append(run.stderr)
    assert not failed


def test_every_exported_function_runs_in_a_command(tmp_path):
    # The library is what the commands run: a public function that no command
    # enters is pinned by no output. ``dumps_model`` and ``loads_model`` are
    # the text forms the tests use as reference.
    from som_atlas import cli

    log, curve, model = tmp_path / "log.csv", tmp_path / "curve.csv", tmp_path / "m.model"
    log.write_text("a,b,c\n" + "".join(f"{i % 7},{i * 3 % 11},{i * 5 % 13}\n" for i in range(20)))
    curve.write_text("t,p\n0.0,5.0\n0.5,4.0\n1.0,3.0\n1.5,3.5\n2.0,4.5\n2.5,5.0\n")
    grid = ["--width", "3", "--height", "2", "--epochs", "2"]
    commands = [
        ["train", "--input", log, "--model", model, *grid],
        ["train", "--input", log, "--model", tmp_path / "t.model", *grid, "--time-period", "1"],
        ["planes", "--model", model, "--outdir", tmp_path / "planes"],
        ["classify", "--model", model, "--input", log, "--output", tmp_path / "a.csv"],
        ["cluster", "--model", model, "--input", log, "--k", "2", "--outdir", tmp_path / "c"],
        ["correlate", "--model", model, "--output", tmp_path / "r.csv"],
        ["features", "--input", curve, "--t-open", "0.5", "--t-close", "1.5",
         "--regen-duration", "1.0", "--output", tmp_path / "f.csv"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main([str(arg) for arg in argv]) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(commands)
    functions = {name: getattr(som_atlas, name) for name in som_atlas.__all__}
    unreached = {name for name, obj in functions.items()
                 if inspect.isfunction(obj) and obj.__code__ not in entered}
    assert sorted(unreached - {"dumps_model", "loads_model"}) == []


def test_data_model_constructors_take_only_independent_values():
    from som_atlas.analysis import AttributeStats, ClusterModel
    from som_atlas.ingest import AttributeSpec, DataTable
    from som_atlas.som import SomModel

    classes = (AttributeSpec, DataTable, SomModel, ClusterModel, AttributeStats)
    assert {cls.__name__: list(inspect.signature(cls).parameters) for cls in classes} == {
        "AttributeSpec": ["name", "raw_min", "raw_max"],
        "DataTable": ["names", "rows", "dropped_rows"],
        "SomModel": ["grid", "weights", "schema", "schedule"],
        "ClusterModel": ["centroids", "neuron_labels", "inertia"],
        "AttributeStats": ["count", "mean", "std"],
    }
    # Built whole: no field of a model may be left out.
    for cls in (SomModel, ClusterModel):
        params = inspect.signature(cls).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), cls.__name__
    derived = [
        (AttributeSpec, "quasi_constant"),
        (SomModel, "dim"),
        (ClusterModel, "k"),
    ]
    for cls, name in derived:
        attr = inspect.getattr_static(cls, name)
        assert isinstance(attr, property) and attr.fset is None, name
