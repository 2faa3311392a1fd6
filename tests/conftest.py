import shlex
import shutil
import sysconfig

import numpy as np
import pytest

from som_atlas import kernels
from som_atlas.ingest import DataTable, _observed_spec


def make_table(rows, names=None) -> DataTable:
    """DataTable from a plain matrix, with observed per-column ranges."""
    rows = np.asarray(rows, dtype=np.float64)
    if names is None:
        names = [f"a{i}" for i in range(rows.shape[1])]
    schema = tuple(_observed_spec(n, i, rows[:, i]) for i, n in enumerate(names))
    return DataTable(schema=schema, rows=rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def compiler():
    """Skips when ``sysconfig``'s C compiler is not found."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found; C kernel parity not checkable")


@pytest.fixture(scope="session")
def native_train_loop(compiler, tmp_path_factory):
    """The C kernel, compiled from source by ``kernels.build`` into a temporary directory.

    Skips only when no C compiler is found; a compiler that fails on the
    source is an error.
    """
    return kernels.load(kernels.build(tmp_path_factory.mktemp("kernel")))
