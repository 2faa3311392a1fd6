"""Backend parity: the C kernel must match the numpy reference bit for bit.

The C source is compiled into a temporary directory for the session (see
``native_train_loop`` in conftest.py), so parity is checked whether or not
the package's own library was built.
"""

import math
import tracemalloc

import numpy as np
import pytest

from som_atlas import kernels
from som_atlas.hexgrid import HexGrid, axial_coords
from som_atlas.ingest import NormalizedTable
from som_atlas.kernels import pure
from som_atlas.kernels.pure import max_hops
from som_atlas.som import (
    SomModel,
    TrainingSchedule,
    _rates,
    init_codebook,
    neighborhood,
    quantization_error,
    train,
    update_step,
)

from conftest import make_table

ARGS = ("weights", "data", "order", "coords", "alphas", "sigmas", "competitive_start")


def _run_both(native_train_loop, epochs):
    """Run both backends epoch by epoch on copies of the first epoch's weights.

    Returns the (pure, native) weights after the last epoch.
    """
    wa = epochs[0]["weights"].copy()
    wb = epochs[0]["weights"].copy()
    for kw in epochs:
        pure.train_loop(wa, *(kw[a] for a in ARGS[1:]))
        assert native_train_loop(wb, *(kw[a] for a in ARGS[1:])) is wb
    return wa, wb


def _workload(seed, width, height, dim, n_rows, epochs, alpha0=0.9, alpha_end=0.05):
    """Per-epoch kernel arguments, as ``train()`` passes them."""
    rng = np.random.default_rng(seed)
    grid = HexGrid(width, height)
    sched = TrainingSchedule(
        epochs=epochs, alpha0=alpha0, alpha_end=alpha_end, seed=seed
    ).resolved(grid)
    weights = rng.random((grid.n_nodes, dim))
    data = rng.random((n_rows, dim))
    out = []
    for epoch in range(epochs):
        start = epoch * n_rows
        alphas, sigmas, cooperative = _rates(sched, n_rows, start, start + n_rows)
        out.append({
            "weights": weights,
            "data": data,
            "order": rng.permutation(n_rows),
            "coords": axial_coords(grid),
            "alphas": alphas,
            "sigmas": sigmas,
            "competitive_start": cooperative,
        })
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "shape",
    [
        dict(width=5, height=4, dim=3, n_rows=17, epochs=6),
        dict(width=1, height=1, dim=2, n_rows=5, epochs=3),
        dict(width=8, height=2, dim=7, n_rows=9, epochs=1),  # purely competitive
        dict(width=3, height=3, dim=1, n_rows=4, epochs=10),
        dict(width=1, height=9, dim=2, n_rows=6, epochs=3),
        dict(width=9, height=1, dim=2, n_rows=6, epochs=3),
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
    args = (x, np.zeros(1, dtype=np.int64), np.zeros((2, 1), dtype=np.int32),
            np.ones(1), np.ones(1), competitive_start)
    for impl in (pure.train_loop, native_train_loop):
        weights = np.array([[0.9, 0.3]])
        impl(weights, *args)
        assert weights.tobytes() == x.tobytes()


def test_competition_adds_dimensions_left_to_right(native_train_loop):
    # Neuron 0's squared distance is 0.25 + 8 * 2**-56: left to right every
    # term is a quarter ulp and rounds away, tying neuron 1 (0.25), so the
    # lower index wins; summed in any other order the small terms add up to
    # 2**-53 and neuron 1 would win.
    weights = np.array([[0.5] + [2.0**-28] * 8, [0.5] + [0.0] * 8])
    x = np.zeros((1, 9))
    assert kernels.bmu(weights, x)[0][0] == 0
    for impl in (pure.train_loop, native_train_loop):
        w = weights.copy()
        impl(w, x, np.zeros(1, dtype=np.int64), axial_coords(HexGrid(2, 1)),
             np.full(1, 0.5), np.zeros(1), 0)
        assert w[0, 0] == 0.25 and w[1, 0] == 0.5


def test_backends_bit_identical_on_large_map(native_train_loop):
    kw = _workload(4, width=40, height=40, dim=8, n_rows=60, epochs=3)
    wa, wb = _run_both(native_train_loop, kw)
    assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("competitive_start", [-1, 2**64 + 1])
def test_competitive_start_outside_step_range(competitive_start, native_train_loop):
    epochs = _workload(6, width=3, height=3, dim=2, n_rows=5, epochs=2)
    epochs = [{**kw, "competitive_start": competitive_start} for kw in epochs]
    wa, wb = _run_both(native_train_loop, epochs)
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
    kw = _workload(1, width=3, height=2, dim=2, n_rows=4, epochs=2)[0]

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
        call(coords=kw["coords"][:, :-1].copy())
    with pytest.raises(ValueError):
        call(coords=np.vstack([kw["coords"], kw["coords"][:1]]))
    with pytest.raises(TypeError):
        call(coords=kw["coords"].astype(np.int64))
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


def test_bmu_matches_train_loop_competition(native_train_loop):
    # The public BMU scan and the in-loop scan must agree, ties included.
    rng = np.random.default_rng(3)
    weights = rng.random((12, 4))
    x = weights[7][None, :].copy()
    idx, dist = kernels.bmu(weights, x)
    assert idx.tolist() == [7]
    assert dist.tolist() == [0.0]
    weights[2] = weights[7]  # tie: lowest index wins
    idx, _ = kernels.bmu(weights, x)
    assert idx.tolist() == [2]
    # One competitive step moves only the winner, so the moved neuron is the
    # training scan's answer; the first row ties neurons 2 and 7.
    rows = np.vstack([weights[7] + 0.01, rng.random((20, 4))])
    expected, _ = kernels.bmu(weights, rows)
    assert expected[0] == 2
    coords = axial_coords(HexGrid(4, 3))
    for impl in (pure.train_loop, native_train_loop):
        for i, u in enumerate(expected.tolist()):
            w = weights.copy()
            impl(w, rows, np.array([i], dtype=np.int64), coords, np.full(1, 0.5), np.zeros(1), 0)
            assert np.flatnonzero((w != weights).any(axis=1)).tolist() == [u]


def _bmu_row(weights, x, mask=None):
    """The one-row BMU scan ``kernels.bmu`` batches: the reference it must match."""
    n = weights.shape[0]
    acc = np.zeros(n)
    buf = np.empty(n)
    cols = range(weights.shape[1]) if mask is None else mask
    for j in cols:
        np.subtract(weights[:, j], x[j], out=buf)
        buf *= buf
        acc += buf
    u = int(np.argmin(acc))
    return u, math.sqrt(float(acc[u]))


def _assert_matches_rows(weights, X, mask=None):
    idx, dist = kernels.bmu(weights, X, mask)
    assert idx.dtype == np.intp and dist.dtype == np.float64
    assert idx.shape == dist.shape == (X.shape[0],)
    expected = [_bmu_row(weights, x, mask) for x in X]
    assert idx.tolist() == [u for u, _ in expected]
    assert dist.tobytes() == np.array([d for _, d in expected]).tobytes()


# Rows per chunk on a 50-neuron map scanned over 5 attributes (no mask); the
# longer 1309 and 3937 rows also end off the chunk edges of both masks below.
CHUNK_50 = pure.BMU_SCRATCH // ((5 + 1) * 50)


@pytest.mark.parametrize("n_rows", [0, 1, CHUNK_50 - 1, 3 * CHUNK_50 + 7, 1309, 3937])
def test_batched_bmu_matches_row_scan(n_rows):
    rng = np.random.default_rng(n_rows)
    weights = rng.random((50, 5))
    weights[31] = weights[4]  # duplicated neurons: ties go to 4
    weights[44] = weights[9]
    X = rng.random((n_rows, 5))
    hits = min(4, n_rows)  # exact hits, two of them on duplicated neurons
    X[:hits] = weights[[4, 9, 17, 44][:hits]]
    _assert_matches_rows(weights, X)
    _assert_matches_rows(weights, X, np.array([1, 3]))
    _assert_matches_rows(weights, X, np.array([4]))


@pytest.mark.parametrize("dim", [1, 8, 9])
def test_batched_bmu_on_one_neuron_map(dim):
    # Terms 2.25 and (2**-26)**2 = half an ulp of 2.25: added left to right
    # every small term rounds away and the sum stays 2.25, while a reduction
    # that adds the small terms first (numpy's path for a lone neuron's
    # dimensions) lands ulps above it.
    weights = np.array([[1.5] + [2.0**-26] * (dim - 1)])
    X = np.vstack([np.zeros((1, dim)), np.random.default_rng(dim).random((6, dim))])
    for mask in (None, np.arange(min(dim, 8))):
        for i in range(len(X)):
            _assert_matches_rows(weights, X[i : i + 1], mask)
        _assert_matches_rows(weights, X, mask)
    assert kernels.bmu(weights, X[:1])[1].tolist() == [1.5]


def test_batched_bmu_on_map_wider_than_scratch():
    # More neurons than the scratch bound: one row per chunk.
    rng = np.random.default_rng(8)
    weights = rng.random((pure.BMU_SCRATCH + 3, 2))
    X = np.vstack([rng.random((2, 2)), weights[[5, pure.BMU_SCRATCH + 2]]])
    _assert_matches_rows(weights, X)


def test_quantization_error_is_the_sequential_row_sum():
    rng = np.random.default_rng(11)
    grid = HexGrid(7, 5)
    rows = rng.random((333, 3))
    table = NormalizedTable(schema=make_table(rows).schema, rows=rows)
    model = init_codebook(grid, 3, seed=1)
    total = 0.0
    for x in rows:
        total += _bmu_row(model.weights, x)[1]
    assert quantization_error(model, table) == total / len(rows)


def test_batched_bmu_memory_is_bounded():
    # Unchunked, 20000 rows x 1600 neurons would need about 512 MB of scratch.
    rng = np.random.default_rng(12)
    weights = rng.random((1600, 2))
    X = rng.random((20000, 2))
    tracemalloc.start()
    try:
        kernels.bmu(weights, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("sigma0", [None, 0.8, 1e-170])
def test_neighborhood_is_the_training_theta_table(sigma0, native_train_loop, monkeypatch):
    # With the winner's weight at 1, every other weight at 0 and alpha 1, one
    # step leaves neuron v at exactly 0 + theta * (1 - 0): the training theta
    # row of the winner, which neighborhood must give bit for bit.
    grid = HexGrid(7, 5)
    u = 13  # an edge neuron whose hop distances take every value up to max_hops
    hops = {grid.distance(u, v) for v in range(grid.n_nodes)}
    assert hops == set(range(max_hops(axial_coords(grid)) + 1))
    sched = TrainingSchedule(epochs=3, alpha0=1.0, alpha_end=1.0, sigma0=sigma0)
    n_rows = 4
    for impl in (pure.train_loop, native_train_loop):
        monkeypatch.setattr(kernels, "train_loop", impl)
        for s in range(sched.epochs * n_rows):  # the last epoch is competitive
            weights = np.zeros((grid.n_nodes, 1))
            weights[u] = 1.0
            model = update_step(SomModel(grid=grid, dim=1, weights=weights), [1.0], s, sched, n_rows)
            expected = [neighborhood(grid, u, v, s, sched, n_rows) for v in range(grid.n_nodes)]
            assert model.weights[:, 0].tobytes() == np.array(expected).tobytes()
