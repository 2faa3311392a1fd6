import math
import random
import shlex
import shutil
import sysconfig

import numpy as np
import pytest

from som_atlas import kernels
from som_atlas.ingest import AttributeSpec, DataTable, NormalizedTable, _observed_spec
from som_atlas.som import SomModel, TrainingSchedule, _rates


def make_table(rows, names=None) -> DataTable:
    """DataTable from a plain matrix, its columns named a0, a1, ... unless ``names``."""
    rows = np.asarray(rows, dtype=np.float64)
    if names is None:
        names = [f"a{i}" for i in range(rows.shape[1])]
    return DataTable(names=names, rows=rows)


def unit_table(rows) -> NormalizedTable:
    """NormalizedTable of rows already in [0, 1], as they are, with the observed schema."""
    rows = np.asarray(rows, dtype=np.float64)
    schema = [_observed_spec(f"a{i}", col) for i, col in enumerate(rows.T)]
    return NormalizedTable(schema=schema, rows=rows)


def make_model(grid, weights) -> SomModel:
    """Whole ``SomModel`` of ``weights`` on ``grid``: attributes a0, a1, ... over
    [0, 1] and the default schedule, resolved."""
    weights = np.asarray(weights, dtype=np.float64)
    schema = [AttributeSpec(f"a{i}", 0.0, 1.0) for i in range(weights.shape[-1])]
    return SomModel(grid, weights, schema, TrainingSchedule().resolved(grid))


def train_step(weights, grid, x, s, schedule, n_rows):
    """Present row ``x`` at global step ``s`` of ``schedule`` over ``n_rows`` rows.

    One ``kernels.train_loop`` step at the rates ``train`` takes there;
    ``weights`` is updated in place and returned.
    """
    alphas, sigmas, cooperative = _rates(schedule.resolved(grid), n_rows, s, s + 1)
    order = np.zeros(1, dtype=np.int64)
    return kernels.train_loop(weights, np.array([x], dtype=np.float64), order, grid,
                              alphas, sigmas, cooperative)


def bmu_row(weights, x) -> tuple[int, float]:
    """The one-row BMU scan ``kernels.bmu`` batches, written out: (neuron, distance).

    Adds each column's squared difference to every neuron's sum, left to
    right; the lowest index of the smallest sum wins.
    """
    acc = np.zeros(weights.shape[0])
    buf = np.empty_like(acc)
    for j in range(weights.shape[1]):
        np.subtract(weights[:, j], x[j], out=buf)
        buf *= buf
        acc += buf
    u = int(np.argmin(acc))
    return u, math.sqrt(float(acc[u]))


# Byte strings a mutation writes: CSV and model syntax, numbers at float64's
# edges, and bytes that are not UTF-8.
TOKENS = (b",", b"\n", b"\r", b'"', b" ", b"-", b".", b"e", b"9", b"nan", b"inf", b"1e308",
          b"\xff", b"\x00")


def mutate(data: bytes, seed) -> bytes:
    """``data`` after 1 to 4 edits drawn from ``seed`` (``None``: as it is).

    Each edit writes a token over a uniform offset, inserts it there, or
    deletes as many bytes as it holds; a token is one of ``TOKENS`` or 1-2
    random bytes.
    """
    if seed is None:
        return data
    rnd = random.Random(seed)
    data = bytearray(data)
    for _ in range(rnd.randint(1, 4)):
        at = rnd.randrange(len(data) + 1)
        token = rnd.choice(TOKENS) if rnd.random() < 0.8 else rnd.randbytes(rnd.randint(1, 2))
        op = rnd.choice(["replace", "delete", "insert"])
        if op == "insert":
            data[at:at] = token
        else:
            data[at : at + len(token)] = token if op == "replace" else b""
    return bytes(data)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def compiler():
    """Skips when ``sysconfig``'s C compiler is not found."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found; C kernel parity not checkable")


# Compiled in, this define turns off the target_clones dispatch of _kernel.c.
PLAIN_LOOP = "-DSOM_ATLAS_PLAIN_LOOP"


@pytest.fixture(scope="session")
def native_libraries(compiler, tmp_path_factory):
    """``{"dispatched": path, "plain": path}``: the C kernel, compiled by ``kernels.build``.

    The dispatched build is the one the import compiles: on x86-64 glibc it
    picks a target clone per CPU, and parity tests run the widest this host
    has. The plain build adds ``PLAIN_LOOP`` to ``kernels.COMPILE_FLAGS``,
    which ``build`` reads when called, and gives the loop musl, macOS and ARM
    users get. Skips only when no C compiler is found; a compiler that fails
    on the source is an error.
    """
    libraries = {"dispatched": kernels.build(tmp_path_factory.mktemp("dispatched"))}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "COMPILE_FLAGS", (*kernels.COMPILE_FLAGS, PLAIN_LOOP))
        libraries["plain"] = kernels.build(tmp_path_factory.mktemp("plain"))
    return libraries


@pytest.fixture(scope="session")
def native_train_loop(native_libraries):
    """Both C builds as one twin of ``pure.train_loop``, so parity tests check each.

    It runs the plain build on a copy of the weights, in their own layout,
    then the dispatched build in place, and fails unless both leave the same
    bytes; a test that compares the result with ``pure`` checks both builds.
    Either build's error propagates as it is.
    """
    plain = kernels.load(native_libraries["plain"])
    dispatched = kernels.load(native_libraries["dispatched"])

    def train_loop(weights, *args):
        twin = weights.copy(order="K")
        plain(twin, *args)
        dispatched(weights, *args)
        assert twin.tobytes() == weights.tobytes(), "the plain and dispatched builds disagree"
        return weights

    return train_loop
