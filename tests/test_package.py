"""The lazy public API: ``som_atlas`` loads a submodule only when one of its names is used."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import som_atlas

SRC = Path(som_atlas.__file__).parents[1]


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


def _loaded_after(statement: str) -> set[str]:
    """Modules of interest a fresh interpreter holds after running ``statement``."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    code = (
        f"import sys; {statement}; "
        "print(*(m for m in sys.modules if m == 'numpy' or m.startswith('som_atlas.')))"
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
