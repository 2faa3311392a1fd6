"""Backend parity: the C kernel must match the numpy reference bit for bit.

The C source is compiled into a temporary directory for the session (see
``native_train_loop`` in conftest.py), so parity is checked whether or not
the package's own library was built.
"""

import numpy as np
import pytest

from som_atlas import kernels
from som_atlas.hexgrid import HexGrid, distance_matrix
from som_atlas.ingest import NormalizedTable
from som_atlas.kernels import pure
from som_atlas.som import (
    TrainingSchedule,
    _alpha_schedule,
    _presentation_order,
    _sigma_schedule,
    train,
)

from conftest import make_table

ARGS = ("weights", "data", "order", "grid_dist", "alphas", "sigmas", "competitive_start")


def _run_both(native_train_loop, kw):
    """Run both backends on copies of ``kw["weights"]``; return (pure, native) weights."""
    wa = kw["weights"].copy()
    wb = kw["weights"].copy()
    pure.train_loop(wa, *(kw[a] for a in ARGS[1:]))
    assert native_train_loop(wb, *(kw[a] for a in ARGS[1:])) is wb
    return wa, wb


def _workload(seed, width, height, dim, n_rows, epochs, alpha0=0.9, alpha_end=0.05):
    rng = np.random.default_rng(seed)
    grid = HexGrid(width, height)
    sched = TrainingSchedule(
        epochs=epochs, alpha0=alpha0, alpha_end=alpha_end, seed=seed
    ).resolved(grid)
    weights = rng.random((grid.n_nodes, dim))
    data = rng.random((n_rows, dim))
    return {
        "weights": weights,
        "data": data,
        "order": _presentation_order(sched, n_rows),
        "grid_dist": distance_matrix(grid),
        "alphas": _alpha_schedule(sched, n_rows),
        "sigmas": _sigma_schedule(sched, n_rows),
        "competitive_start": (sched.epochs - 1) * n_rows,
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "shape",
    [
        dict(width=5, height=4, dim=3, n_rows=17, epochs=6),
        dict(width=1, height=1, dim=2, n_rows=5, epochs=3),
        dict(width=8, height=2, dim=7, n_rows=9, epochs=1),  # purely competitive
        dict(width=3, height=3, dim=1, n_rows=4, epochs=10),
    ],
)
def test_backends_bit_identical(seed, shape, native_train_loop):
    wa, wb = _run_both(native_train_loop, _workload(seed, **shape))
    assert wa.tobytes() == wb.tobytes()


def test_backends_bit_identical_with_unit_alpha(native_train_loop):
    # alpha pinned at 1.0 exercises the exact-copy branch in both backends.
    kw = _workload(9, width=4, height=4, dim=3, n_rows=8, epochs=4, alpha0=1.0, alpha_end=1.0)
    wa, wb = _run_both(native_train_loop, kw)
    assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("competitive_start", [0, 1])
def test_unit_alpha_copies_row_exactly(competitive_start, native_train_loop):
    # 0.9 + (0.01 - 0.9) != 0.01: only the explicit copy makes the row exact.
    x = np.array([[0.01, 1e-17]])
    args = (x, np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int32),
            np.ones(1), np.ones(1), competitive_start)
    for impl in (pure.train_loop, native_train_loop):
        weights = np.array([[0.9, 0.3]])
        impl(weights, *args)
        assert weights.tobytes() == x.tobytes()


def test_backends_bit_identical_on_large_map(native_train_loop):
    kw = _workload(4, width=40, height=40, dim=8, n_rows=60, epochs=3)
    wa, wb = _run_both(native_train_loop, kw)
    assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("competitive_start", [-1, 2**64 + 1])
def test_competitive_start_outside_step_range(competitive_start, native_train_loop):
    kw = _workload(6, width=3, height=3, dim=2, n_rows=5, epochs=2)
    wa, wb = _run_both(native_train_loop, {**kw, "competitive_start": competitive_start})
    assert wa.tobytes() == wb.tobytes()


def test_sigma_underflow_gives_finite_identical_weights(native_train_loop, monkeypatch):
    # 2 * (1e-170)**2 underflows to 0: theta must become the Kronecker delta
    # in both backends, not a division by zero or NaN rows.
    rows = np.random.default_rng(5).random((6, 2))
    table = NormalizedTable(schema=make_table(rows).schema, rows=rows)
    sched = TrainingSchedule(epochs=3, sigma0=1e-170, seed=2)
    assert 2.0 * sched.sigma0 * sched.sigma0 == 0.0
    models = []
    for impl in (pure.train_loop, native_train_loop):
        monkeypatch.setattr(kernels, "train_loop", impl)
        models.append(train(table, HexGrid(3, 3), sched))
    assert np.isfinite(models[0].weights).all()
    assert models[0].weights.tobytes() == models[1].weights.tobytes()


def test_wrapper_rejects_bad_input_before_c(native_train_loop):
    kw = _workload(1, width=3, height=2, dim=2, n_rows=4, epochs=2)

    def call(**change):
        args = {**kw, "weights": kw["weights"].copy(), **change}
        native_train_loop(*(args[a] for a in ARGS))

    call()
    with pytest.raises(IndexError):
        call(order=np.where(kw["order"] == 3, 4, kw["order"]))
    with pytest.raises(IndexError):
        call(order=np.where(kw["order"] == 0, -1, kw["order"]))
    with pytest.raises(ValueError):
        call(data=np.ascontiguousarray(kw["data"][:, :1]))
    with pytest.raises(ValueError):
        call(alphas=kw["alphas"][:-1].copy())
    with pytest.raises(ValueError):
        call(grid_dist=kw["grid_dist"][:-1].copy())
    with pytest.raises(ValueError):
        call(grid_dist=-kw["grid_dist"])
    with pytest.raises(TypeError):
        call(order=kw["order"].astype(np.int32))
    with pytest.raises(TypeError):
        call(weights=np.asfortranarray(kw["weights"]))
    with pytest.raises(TypeError):
        call(weights=kw["weights"][0].copy())


def test_load_of_missing_library_raises_oserror(tmp_path):
    # The selection rule falls back to the numpy reference on exactly this.
    with pytest.raises(OSError):
        kernels.load(tmp_path / "missing.so")


def test_selected_backend_reported():
    assert kernels.BACKEND in ("native", "python")
    assert callable(kernels.train_loop)
    assert (kernels.train_loop is pure.train_loop) == (kernels.BACKEND == "python")


def test_bmu_matches_train_loop_competition():
    # The public BMU scan and the in-loop scan must agree, ties included.
    rng = np.random.default_rng(3)
    weights = rng.random((12, 4))
    x = weights[7].copy()
    idx, dist = kernels.bmu(weights, x)
    assert idx == 7
    assert dist == 0.0
    weights[2] = weights[7]  # tie: lowest index wins
    idx, _ = kernels.bmu(weights, x)
    assert idx == 2
