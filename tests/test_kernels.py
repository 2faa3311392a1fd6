"""Backend parity: the C kernel must match the numpy reference bit for bit.

The C source is compiled by ``kernels.build`` into temporary directories for
the session, once as the import builds it and once with its instruction-set
dispatch turned off (see ``native_train_loop`` in conftest.py), so parity is
checked on both builds whatever library the import selected.
"""

import importlib.util
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas import kernels
from som_atlas.hexgrid import HexGrid, hop_row, hop_table
from som_atlas.kernels import pure
from som_atlas.som import TrainingSchedule, _rates, init_codebook, quantization_error, train

from conftest import PLAIN_LOOP, bmu_row, make_model, unit_table

ARGS = ("weights", "data", "order", "grid", "alphas", "sigmas", "competitive_start")


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


def _workload(seed, width, height, dim, n_rows, epochs, alpha0=0.9, alpha_end=0.05, sigma0=None):
    """Per-epoch kernel arguments, as ``train()`` passes them."""
    rng = np.random.default_rng(seed)
    grid = HexGrid(width, height)
    sched = TrainingSchedule(
        epochs=epochs, alpha0=alpha0, alpha_end=alpha_end, sigma0=sigma0, seed=seed
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
            "grid": grid,
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
        dict(width=6, height=5, dim=3, n_rows=11, epochs=4),
        dict(width=2, height=7, dim=2, n_rows=8, epochs=3),
        dict(width=7, height=2, dim=4, n_rows=8, epochs=3),
    ],
)
def test_backends_bit_identical(seed, shape, native_train_loop):
    wa, wb = _run_both(native_train_loop, _workload(seed, **shape))
    assert wa.tobytes() == wb.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    dim=st.integers(1, 12),
    n_rows=st.integers(1, 16),
    distinct=st.integers(1, 16),
    tied_neurons=st.booleans(),
    epochs=st.integers(1, 3),
    alphas=st.sampled_from([(1.0, 1.0), (1.0, 0.05), (0.7, 0.05)]),
    sigma0=st.sampled_from([None, 1e-161, 1e-170]),
    competitive_start=st.sampled_from(["schedule", "zero", "total", "beyond"]),
)
def test_backends_bit_identical_on_any_map(native_train_loop, seed, width, height, dim, n_rows,
                                           distinct, tied_neurons, epochs, alphas, sigma0,
                                           competitive_start):
    # Neuron counts off the vector width exercise the C loop's padded
    # blocks and its winner search's last partial lane group. Rows repeat
    # from a pool of `distinct`, of mixed magnitudes so that a unit alpha's
    # w + (x - w) often misses x; with tied_neurons the codebook
    # repeats them too, so scans tie, often at a distance of zero. sigma0
    # 1e-161 and 1e-170 give subnormal and zero theta denominators.
    kws = _workload(seed, width, height, dim, n_rows, epochs, *alphas, sigma0=sigma0)
    rng = np.random.default_rng(seed + 1)
    pool = rng.random((distinct, dim)) * 10.0 ** rng.integers(-3, 4, (distinct, dim))
    data = pool[rng.integers(0, distinct, n_rows)]
    weights = pool[rng.integers(0, distinct, width * height)] if tied_neurons else kws[0]["weights"]
    steps = {"zero": 0, "total": n_rows, "beyond": n_rows + 1}
    kws = [{**kw, "weights": weights, "data": data,
            "competitive_start": steps.get(competitive_start, kw["competitive_start"])}
           for kw in kws]
    wa, wb = _run_both(native_train_loop, kws)
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
    args = (x, np.zeros(1, dtype=np.int64), HexGrid(1, 1),
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
        impl(w, x, np.zeros(1, dtype=np.int64), HexGrid(2, 1),
             np.full(1, 0.5), np.zeros(1), 0)
        assert w[0, 0] == 0.25 and w[1, 0] == 0.5


def _assert_steps_agree(native_train_loop, weights, data, grid, cooperative):
    """Present every row of ``data`` once, in order, to both backends; compare the bytes."""
    steps = data.shape[0]
    args = (data, np.arange(steps, dtype=np.int64), grid, np.full(steps, 0.5),
            np.linspace(2.0, 0.5, steps), steps if cooperative else 0)
    wa, wb = weights.copy(), weights.copy()
    pure.train_loop(wa, *args)
    native_train_loop(wb, *args)
    assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("cooperative", [True, False])
@pytest.mark.parametrize("width,height", [(11, 3), (8, 8), (13, 5), (70, 70)])
def test_backends_agree_on_nan_and_inf_sums(native_train_loop, width, height, cooperative):
    # The winner is np.argmin's: the first NaN sum if there is one, else the
    # first smallest sum. 33, 64, 65 and 4900 neurons fill 32-neuron blocks
    # with 31, 0, 31 and 28 padded neurons; NaNs sit at neuron 0, inside an
    # 8-lane group, inside a block, at the last neuron, and in pairs where
    # the first must win. Squares of +-1e200 overflow, so every sum is inf
    # (a tie at neuron 0) or only some are. Rows holding +-inf make every
    # sum inf or NaN, and cooperative steps turn the padded neurons' weights
    # NaN through 0 * inf, which no result may read. The pure loop must not
    # warn on any of these, as the C loop cannot.
    rng = np.random.default_rng(width * height)
    n, dim = width * height, 3
    grid = HexGrid(width, height)
    data = rng.random((6, dim))
    weights = rng.random((n, dim))
    for nans in ([0], [5], [20], [n - 1], [3, 26], [9, n - 1]):
        w = weights.copy()
        w[nans, [i % dim for i in nans]] = np.nan
        _assert_steps_agree(native_train_loop, w, data, grid, cooperative)
    huge = 1e200 * (1.0 + rng.random((n, dim)))
    _assert_steps_agree(native_train_loop, huge, -huge[:6], grid, cooperative)
    signs = rng.choice([-1.0, 1.0], (6, dim))
    _assert_steps_agree(native_train_loop, weights, 1e200 * signs, grid, cooperative)
    mixed = huge.copy()
    mixed[[7, n - 1]] = 0.5  # the finite sums tie
    _assert_steps_agree(native_train_loop, mixed, data, grid, cooperative)
    rows = np.where(rng.random((6, 1)) < 0.5, data, 1e200 * signs)
    _assert_steps_agree(native_train_loop, mixed, rows, grid, cooperative)
    infinite = data.copy()
    infinite[[1, 4], [0, 2]] = np.inf * signs[[1, 4], [0, 2]]
    _assert_steps_agree(native_train_loop, weights, infinite, grid, cooperative)
    _assert_steps_agree(native_train_loop, weights, np.inf * signs, grid, cooperative)


@pytest.mark.parametrize("cooperative", [True, False])
@pytest.mark.parametrize("width,height", [(1, 1), (7, 1), (4, 2), (3, 3), (31, 1), (8, 4),
                                          (11, 3), (9, 7), (8, 8), (13, 5), (70, 70)])
def test_backends_agree_at_block_and_lane_edges(native_train_loop, width, height, cooperative):
    # n = 1, 7, 8, 9, 31, 32, 33, 63, 64, 65 and 4900 neurons: on either side
    # of the C loop's 8-lane groups and 32-neuron blocks, so its last block
    # holds from 0 to 31 padded neurons. The first row's smallest sum
    # repeats across a lane edge, across a block edge and at the last
    # neuron, and one codebook ties every neuron.
    rng = np.random.default_rng(width * height)
    n, dim = width * height, 5
    grid = HexGrid(width, height)
    data = rng.random((8, dim))
    weights = rng.random((n, dim))
    _assert_steps_agree(native_train_loop, weights, data, grid, cooperative)
    for tie in ([7, 8], [31, 32], [n // 2, n - 1], [n - 1]):
        if max(tie) < n:
            w = weights.copy()
            w[tie] = data[0] + 0.01
            _assert_steps_agree(native_train_loop, w, data, grid, cooperative)
    _assert_steps_agree(native_train_loop, np.full((n, dim), 0.25), data, grid, cooperative)


# Around the bounds of the C update's c = 0 lanes: both zeros, subnormals,
# normals below and at 2^-968, and values far from the rows.
SPECIAL_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1000, 2.0**-975, 1e-300,
                   2.0**-968 * (1 - 2.0**-53), 2.0**-968, 2.0**-967, 0.5, 1.0, -1.0,
                   4096.0, -4096.0, 1e10, -1e10]


@pytest.mark.parametrize("cooperative", [True, False])
@pytest.mark.parametrize("width,height", [(40, 2), (20, 20)])
def test_backends_agree_on_subnormal_coefficients(native_train_loop, width, height, cooperative):
    # Each step's sigma puts exp(-720) * alpha, a subnormal, at hop distance
    # 1 to 5, so blocks holding a subnormal coefficient take the C loop's
    # second update loop, where a lane may take c = 0. Weights and rows drawn
    # from values around its bounds check that this never changes a bit;
    # -0 in both also pins the update's form, w - c (w - x).
    rng = np.random.default_rng(width * height)
    n, dim, steps = width * height, 4, 40
    grid = HexGrid(width, height)
    pool = np.array(SPECIAL_WEIGHTS)
    weights = np.where(rng.random((n, dim)) < 0.3, rng.random((n, dim)),
                       pool[rng.integers(0, pool.size, (n, dim))])
    data = np.where(rng.random((steps, dim)) < 0.5, rng.random((steps, dim)),
                    pool[rng.integers(0, pool.size, (steps, dim))])
    hop = np.arange(steps) % 5 + 1
    alphas = np.full(steps, 0.5)
    sigmas = hop / math.sqrt(1440.0)
    coefficients = pure.theta_table(sigmas, 5)[np.arange(steps), hop] * alphas
    assert ((0.0 < coefficients) & (coefficients < 2.0**-1022)).all()
    args = (data, rng.integers(0, steps, steps), grid, alphas, sigmas,
            steps if cooperative else 0)
    wa, wb = weights.copy(), weights.copy()
    pure.train_loop(wa, *args)
    native_train_loop(wb, *args)
    assert wa.tobytes() == wb.tobytes()


def test_block_loops_vectorize_in_the_wide_clones(compiler, tmp_path):
    # Each 32-neuron block's sums and coefficients must stay in vector
    # registers; gcc 12 left blocks of 16 scalar, and the step ran 50-110%
    # slower than with no blocks at all. The scan, the update and the
    # update of blocks holding subnormal coefficients vectorize with 64-byte
    # vectors in the avx512f clone and 32-byte ones in the avx2 clone.
    macros = _compiler_macros()
    if "__clang__" in macros or not ("__x86_64__" in macros and "__GLIBC__" in macros):
        pytest.skip("checked where gcc compiles the target clones: x86-64 glibc")
    lines = kernels._SOURCE.read_text().splitlines()
    # A block loop's body starts with the first difference of its step.
    blocks = [i for i, line in enumerate(lines, 1)
              if line.strip() in ("double diff = row[l] - xj;", "double t = row[l] - xj;")]
    assert len(blocks) == 3
    cc = shlex.split(sysconfig.get_config_var("CC"))
    report = subprocess.run(
        [*cc, *kernels.COMPILE_FLAGS, "-shared", "-fPIC", "-fopt-info-vec-optimized",
         "-o", tmp_path / "kernel.so", kernels._SOURCE, "-lm"],
        capture_output=True, check=True, text=True, timeout=kernels.BUILD_TIMEOUT_S,
    ).stderr
    for body in blocks:
        loop = f"{kernels._SOURCE}:{body - 1}:"
        for width in (64, 32):
            suffix = f"loop vectorized using {width} byte vectors"
            assert any(line.startswith(loop) and line.endswith(suffix)
                       for line in report.splitlines()), (loop, suffix)


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


@pytest.mark.parametrize("theta_block", [1, 9, 40])
def test_backends_bit_identical_across_theta_blocks(theta_block, native_train_loop, monkeypatch):
    # A 5x4 map has hop distances 0 .. 6, so these blocks hold 1, 1 and 5
    # steps: every 13-row epoch spans several blocks, and the last
    # cooperative block is cut by the competitive start.
    monkeypatch.setattr(pure, "THETA_BLOCK", theta_block)
    kw = _workload(7, width=5, height=4, dim=3, n_rows=13, epochs=4)
    wa, wb = _run_both(native_train_loop, kw)
    assert wa.tobytes() == wb.tobytes()


@pytest.mark.parametrize("sigma0", [1e-161, 1e-170])
def test_subnormal_and_zero_theta_denominators(sigma0, native_train_loop):
    # 2 sigma**2 is subnormal (-d**2 / denom overflows to -inf, exp 0) or 0
    # (the Kronecker delta) for the first steps, and grows from there.
    epochs = _workload(8, width=4, height=3, dim=2, n_rows=6, epochs=2)
    epochs = [{**kw, "sigmas": np.linspace(sigma0, 1e-150, 6)} for kw in epochs]
    theta = pure.theta_table(epochs[0]["sigmas"][:2], 3)
    assert theta.tolist()[0] == [1.0, 0.0, 0.0, 0.0]
    wa, wb = _run_both(native_train_loop, epochs)
    assert np.isfinite(wa).all()
    assert wa.tobytes() == wb.tobytes()


def test_hop_table_is_cached_and_read_only():
    table = hop_table(7, 5)
    assert hop_table(7, 5) is table
    assert hop_table(5, 7) is not table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        hop_row(table, 2, 3)[0, 0] = 1


def test_backends_reject_a_grid_of_another_size(native_train_loop):
    weights = np.random.default_rng(3).random((12, 2))
    args = (weights[:3].copy(), np.zeros(1, dtype=np.int64))
    messages = []
    for impl in (pure.train_loop, native_train_loop):
        for grid in (HexGrid(3, 3), HexGrid(13, 1), HexGrid(2, 7)):
            with pytest.raises(ValueError, match="grid has no 12 neurons") as err:
                impl(weights.copy(), *args, grid, np.full(1, 0.5), np.ones(1), 1)
            messages.append(str(err.value))
        # 3x4 and 4x3 grids both have 12 nodes, and are accepted by both.
        for grid in (HexGrid(3, 4), HexGrid(4, 3)):
            w = weights.copy()
            impl(w, *args, grid, np.full(1, 0.5), np.ones(1), 1)
            assert not np.array_equal(w, weights)
    assert messages[:3] == messages[3:]


def test_train_loop_memory_does_not_grow_with_log_length():
    rng = np.random.default_rng(10)
    grid = HexGrid(5, 4)
    weights = rng.random((grid.n_nodes, 3))
    data = rng.random((20000, 3))
    order = rng.permutation(20000)
    alphas = np.linspace(0.5, 0.01, 20000)
    sigmas = np.linspace(2.5, 0.0, 20000)
    peaks = []
    for steps in (2000, 20000):
        args = (data, order[:steps], grid, alphas[:steps], sigmas[:steps], steps)
        tracemalloc.start()
        try:
            pure.train_loop(weights.copy(), *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # One Python float per step would add 480 kB to the longer run.
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_sigma_underflow_gives_finite_identical_weights(native_train_loop, monkeypatch):
    # 2 * (1e-170)**2 underflows to 0: theta must become the Kronecker delta
    # in both backends, not a division by zero or NaN rows.
    rows = np.random.default_rng(5).random((6, 2))
    table = unit_table(rows)
    sched = TrainingSchedule(epochs=3, sigma0=1e-170, seed=2)
    assert 2.0 * sched.sigma0 * sched.sigma0 == 0.0
    models = []
    for impl in (pure.train_loop, native_train_loop):
        monkeypatch.setattr(kernels, "train_loop", impl)
        models.append(train(table, HexGrid(3, 3), sched))
    assert np.isfinite(models[0].weights).all()
    assert models[0].weights.tobytes() == models[1].weights.tobytes()


def test_numpy_loop_rejects_what_the_wrapper_rejects():
    # Runs without a C compiler; the test below compares the errors with the C builds'.
    kw = _workload(1, width=3, height=2, dim=2, n_rows=4, epochs=2)[0]

    def call(**change):
        args = {**kw, "weights": kw["weights"].copy(), **change}
        pure.train_loop(*(args[a] for a in ARGS))

    call()
    for bad, index in ((3, 4), (0, -1)):
        with pytest.raises(IndexError):
            call(order=np.where(kw["order"] == bad, index, kw["order"]))
    for change in (dict(data=np.ascontiguousarray(kw["data"][:, :1])),
                   dict(alphas=kw["alphas"][:-1]), dict(sigmas=kw["sigmas"][:-1]),
                   dict(grid=HexGrid(2, 2))):
        with pytest.raises(ValueError):
            call(**change)
    for change in (dict(order=kw["order"].astype(np.int32)),
                   dict(weights=np.asfortranarray(kw["weights"])),
                   dict(weights=kw["weights"][0].copy()), dict(data=kw["data"][:, :1])):
        with pytest.raises(TypeError):
            call(**change)


def test_wrapper_rejects_bad_input_before_c(native_libraries):
    # pure.check_arguments is the one gate: the numpy loop and both C builds
    # raise the same error, before any weight is read or written.
    kw = _workload(1, width=3, height=2, dim=2, n_rows=4, epochs=2)[0]
    impls = [pure.train_loop, *map(kernels.load, native_libraries.values())]
    read_only = kw["weights"].copy()
    read_only.setflags(write=False)
    bad = [
        (IndexError, dict(order=np.where(kw["order"] == 3, 4, kw["order"]))),
        (IndexError, dict(order=np.where(kw["order"] == 0, -1, kw["order"]))),
        (ValueError, dict(data=np.ascontiguousarray(kw["data"][:, :1]))),
        (ValueError, dict(alphas=kw["alphas"][:-1].copy())),
        (ValueError, dict(sigmas=kw["sigmas"][:-1].copy())),
        (ValueError, dict(grid=HexGrid(2, 2))),
        (TypeError, dict(order=kw["order"].astype(np.int32))),
        (TypeError, dict(weights=kw["weights"].astype(np.float32))),
        (TypeError, dict(weights=np.asfortranarray(kw["weights"]))),
        (TypeError, dict(weights=read_only)),
        (TypeError, dict(weights=kw["weights"][0].copy())),
        (TypeError, dict(data=kw["data"].astype(np.float32))),
        (TypeError, dict(data=kw["data"][::2])),
        (TypeError, dict(alphas=kw["alphas"].astype(np.float32))),
    ]
    for impl in impls:
        weights = kw["weights"].copy()
        impl(weights, *(kw[a] for a in ARGS[1:]))
        assert not np.array_equal(weights, kw["weights"])
    for exc, change in bad:
        args = {**kw, "weights": kw["weights"].copy(), **change}
        before = args["weights"].tobytes()
        messages = set()
        for impl in impls:
            with pytest.raises(exc) as err:
                impl(*(args[a] for a in ARGS))
            assert type(err.value) is exc
            assert args["weights"].tobytes() == before, (impl, change)
            messages.add(str(err.value))
        assert len(messages) == 1, (change, messages)


def test_load_of_missing_library_raises_oserror(tmp_path):
    # The selection rule falls back to the numpy reference on exactly this.
    with pytest.raises(OSError):
        kernels.load(tmp_path / "missing.so")


def test_selected_backend_reported():
    assert kernels.BACKEND in ("native", "python")
    assert callable(kernels.train_loop)
    assert (kernels.train_loop is pure.train_loop) == (kernels.BACKEND == "python")
    assert (kernels.LIBRARY is None) == (kernels.BACKEND == "python")


def test_build_compiles_without_fused_multiply_adds(tmp_path, monkeypatch):
    # Bit parity rests on -ffp-contract=off. Parity cannot catch its loss on a
    # host whose compiler emits no FMA by default (x86-64 without -mfma).
    commands = []

    def fail(command, **kwargs):
        commands.append(command)
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(subprocess, "run", fail)
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", "cc")
    with pytest.raises(OSError):
        kernels.build(tmp_path)
    (command,) = commands
    assert "-ffp-contract=off" in command
    # The cached library is named by source and command alone, so it must run
    # on any CPU that shares the digest: no flag may tie it to this one.
    tuned = [flag for flag in map(str, command) if flag.startswith(("-march=", "-mtune=", "-mavx"))]
    assert tuned == []


def _compiler_macros():
    """The C compiler's predefined macros after ``<stdint.h>``, by name."""
    cc = shlex.split(sysconfig.get_config_var("CC"))
    out = subprocess.run([*cc, "-dM", "-E", "-x", "c", "-"], input=b"#include <stdint.h>\n",
                         capture_output=True, check=True).stdout.decode()
    return dict(line.split(" ", 2)[1:] for line in out.splitlines() if line.count(" ") >= 2)


def test_plain_build_compiles_no_target_clones(native_libraries):
    # Each target clone is a symbol train_loop.<target>. The plain build, the
    # loop hosts without ifunc get, must hold none; the dispatched build holds
    # them exactly where the source's rule, read off the compiler's own
    # macros, enables them.
    clone = b"train_loop.default"
    assert clone not in native_libraries["plain"].read_bytes()
    macros = _compiler_macros()
    version = (int(macros.get("__clang_major__", 0)) >= 14 if "__clang__" in macros
               else int(macros.get("__GNUC__", 0)) >= 6)
    expected = "__x86_64__" in macros and "__GLIBC__" in macros and version
    assert (clone in native_libraries["dispatched"].read_bytes()) == expected


@pytest.mark.parametrize("defines", [(), (PLAIN_LOOP,)], ids=["dispatched", "plain"])
def test_kernel_compiles_without_warnings(compiler, tmp_path, defines):
    # A stale variable or a signed/unsigned comparison fails here, in both
    # builds, before it can hide in a loop bound.
    cc = shlex.split(sysconfig.get_config_var("CC"))
    result = subprocess.run(
        [*cc, *kernels.COMPILE_FLAGS, *defines, "-Wall", "-Wextra", "-Werror",
         "-shared", "-fPIC", "-o", tmp_path / "kernel.so", kernels._SOURCE, "-lm"],
        capture_output=True, text=True, timeout=kernels.BUILD_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr


def test_build_reuses_the_library_of_the_same_source(compiler, tmp_path):
    library = kernels.build(tmp_path)
    mtime = library.stat().st_mtime_ns
    assert kernels.build(tmp_path) == library
    assert library.stat().st_mtime_ns == mtime
    assert list(tmp_path.iterdir()) == [library]


def test_build_names_the_library_by_source_bytes(compiler, tmp_path, monkeypatch):
    (tmp_path / "lib").mkdir()
    original = kernels.build(tmp_path / "lib")
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(kernels._SOURCE.read_bytes() + b"\n/* edited */\n")
    monkeypatch.setattr(kernels, "_SOURCE", edited)
    library = kernels.build(tmp_path / "lib")
    assert library != original
    assert sorted((tmp_path / "lib").iterdir()) == sorted([original, library])


def test_build_names_the_library_alike_without_builtin_sha256(compiler, tmp_path, monkeypatch):
    # The hashlib fallback must give the same digest, so the same cached file.
    library = kernels.build(tmp_path)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert kernels.build(tmp_path) == library


@pytest.mark.parametrize("cc", ["false", "", "no-such-compiler-som-atlas"])
def test_failing_compiler_selects_pure_silently(cc, tmp_path, monkeypatch, capfd):
    monkeypatch.setitem(sysconfig.get_config_vars(), "CC", cc)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernels._select() == (pure.train_loop, None)
    assert list((tmp_path / "som-atlas").iterdir()) == []
    assert capfd.readouterr() == ("", "")
    with pytest.raises(OSError):
        kernels.build(tmp_path)


def _import_in_process(cache_home, code="print(k.BACKEND)") -> subprocess.Popen:
    """A fresh interpreter that imports ``sys`` and ``kernels`` as ``k``, then runs ``code``."""
    path = [str(Path(kernels.__file__).parents[2]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "XDG_CACHE_HOME": str(cache_home), "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.Popen(
        [sys.executable, "-c", f"import sys, som_atlas.kernels as k; {code}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _outcome(process) -> tuple:
    out, err = process.communicate(timeout=120)
    return process.returncode, out, err


def test_import_builds_one_library_into_a_fresh_cache(compiler, tmp_path):
    assert _outcome(_import_in_process(tmp_path)) == (0, "native\n", "")
    cache = tmp_path / "som-atlas"
    assert cache.stat().st_mode & 0o777 == 0o700
    (library,) = cache.iterdir()
    assert library.name.startswith("_kernel-")
    assert _outcome(_import_in_process(tmp_path)) == (0, "native\n", "")
    assert list(cache.iterdir()) == [library]


def test_imports_that_start_together_both_build(compiler, tmp_path):
    processes = [_import_in_process(tmp_path) for _ in range(2)]
    assert [_outcome(p) for p in processes] == [(0, "native\n", "")] * 2
    assert len(list((tmp_path / "som-atlas").iterdir())) == 1


def test_import_loads_no_openssl(compiler, tmp_path):
    # hashlib would load OpenSSL's _hashlib (about 4 ms and 3.7 MB per
    # process) only to name the cached library.
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this CPython has no built-in SHA-256")
    code = "print(k.BACKEND, '_hashlib' in sys.modules)"
    for cache in ("cold", "warm"):
        assert _outcome(_import_in_process(tmp_path, code)) == (0, "native False\n", ""), cache


def test_unwritable_cache_selects_python_silently(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert _outcome(_import_in_process(blocker)) == (0, "python\n", "")


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
    grid = HexGrid(4, 3)
    for impl in (pure.train_loop, native_train_loop):
        for i, u in enumerate(expected.tolist()):
            w = weights.copy()
            impl(w, rows, np.array([i], dtype=np.int64), grid, np.full(1, 0.5), np.zeros(1), 0)
            assert np.flatnonzero((w != weights).any(axis=1)).tolist() == [u]


def _assert_matches_rows(weights, X, cols=slice(None)):
    """``kernels.bmu`` against ``bmu_row`` per row, over the columns ``cols`` of both."""
    weights, X = weights[:, cols], X[:, cols]
    idx, dist = kernels.bmu(weights, X)
    assert idx.dtype == np.intp and dist.dtype == np.float64
    assert idx.shape == dist.shape == (X.shape[0],)
    expected = [bmu_row(weights, x) for x in X]
    assert idx.tolist() == [u for u, _ in expected]
    assert dist.tobytes() == np.array([d for _, d in expected]).tobytes()


@settings(max_examples=150)
@given(st.data())
def test_scale_invariance_of_argmin(data):
    n = data.draw(st.integers(2, 12), label="n_neurons")
    dim = data.draw(st.integers(1, 6), label="dim")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    weights = rng.random((n, dim))
    x = rng.random((1, dim))
    idx_base, _ = kernels.bmu(weights, x)
    c = 2.5
    idx_scaled, _ = kernels.bmu(weights * c, x * c)
    assert idx_base.tolist() == idx_scaled.tolist()


# Rows per chunk on a 50-neuron map scanned over all 5 attributes. The fixed
# row counts end off the chunk edges of all three column sets below; the cases
# placed by CHUNK_50 carry fixed ids, so a new BMU_SCRATCH keeps every name.
CHUNK_50 = pure.BMU_SCRATCH // ((5 + 1) * 50)


@pytest.mark.parametrize(
    "n_rows",
    [
        0,
        1,
        435,
        1309,
        1315,
        3937,
        pytest.param(CHUNK_50 - 1, id="chunk-1"),
        pytest.param(3 * CHUNK_50 + 7, id="3chunks+7"),
    ],
)
def test_batched_bmu_matches_row_scan(n_rows):
    rng = np.random.default_rng(n_rows)
    weights = rng.random((50, 5))
    weights[31] = weights[4]  # duplicated neurons: ties go to 4
    weights[44] = weights[9]
    X = rng.random((n_rows, 5))
    hits = min(4, n_rows)  # exact hits, two of them on duplicated neurons
    X[:hits] = weights[[4, 9, 17, 44][:hits]]
    _assert_matches_rows(weights, X)
    _assert_matches_rows(weights, X, [1, 3])
    _assert_matches_rows(weights, X, [4])


@pytest.mark.parametrize("dim", [1, 8, 9])
def test_batched_bmu_on_one_neuron_map(dim):
    # Terms 2.25 and (2**-26)**2 = half an ulp of 2.25: added left to right
    # every small term rounds away and the sum stays 2.25, while a reduction
    # that adds the small terms first (numpy's path for a lone neuron's
    # dimensions) lands ulps above it.
    weights = np.array([[1.5] + [2.0**-26] * (dim - 1)])
    X = np.vstack([np.zeros((1, dim)), np.random.default_rng(dim).random((6, dim))])
    for cols in (slice(None), slice(8)):
        for i in range(len(X)):
            _assert_matches_rows(weights, X[i : i + 1], cols)
        _assert_matches_rows(weights, X, cols)
    assert kernels.bmu(weights, X[:1])[1].tolist() == [1.5]


def test_batched_bmu_on_map_wider_than_scratch():
    # More neurons than the scratch bound: one row per chunk.
    rng = np.random.default_rng(8)
    weights = rng.random((pure.BMU_SCRATCH + 3, 2))
    X = np.vstack([rng.random((2, 2)), weights[[5, pure.BMU_SCRATCH + 2]]])
    _assert_matches_rows(weights, X)


def _full_scan_rows(monkeypatch, weights, X):
    """How many rows ``kernels.bmu`` sends through the full scan of every neuron."""
    n = weights.shape[0]
    sent = []
    scan = pure._sq_distances

    def counting(w3, x3, buf, out):
        if w3.shape[1:] == (1, n):  # not a row's distance to its own winner
            sent.append(x3.shape[1])
        return scan(w3, x3, buf, out)

    monkeypatch.setattr(pure, "_sq_distances", counting)
    _assert_matches_rows(weights, X)
    return sum(sent)


def test_screen_sends_few_rows_to_the_full_scan(monkeypatch):
    # A margin wider than the rounding bound needs would still give the right
    # answers, only slowly: at most 1% of random rows may be left undecided.
    rng = np.random.default_rng(13)
    weights = rng.random((1600, 8))
    X = rng.random((4096, 8))
    assert _full_scan_rows(monkeypatch, weights, X) <= 0.01 * len(X)


def test_identical_codebook_leaves_every_row_undecided(monkeypatch):
    # Every screen value ties, so every row takes the full scan (and neuron 0),
    # across the edge of a screened chunk and of several full-scan chunks.
    rng = np.random.default_rng(14)
    weights = np.tile(rng.random(3), (40, 1))
    X = rng.random((pure.BMU_SCRATCH // (3 + 1 + 40) + 5, 3))
    assert _full_scan_rows(monkeypatch, weights, X) == len(X)
    assert not kernels.bmu(weights, X)[0].any()


def _near_ties(rng, n, dim):
    """A codebook with duplicated and 1-ulp-apart neurons, and rows on and between them."""
    weights = rng.random((n, dim))
    weights[n // 2] = weights[1]  # exact duplicate
    weights[n // 2 + 1] = np.nextafter(weights[2], 1.0)  # 1 ulp off in every attribute
    weights[n - 1] = weights[3]
    weights[n - 1, 0] = np.nextafter(weights[3, 0], 0.0)  # 1 ulp off in one attribute
    on = weights[[1, 2, n // 2 + 1, 3, n - 1]]
    between = (weights[[1, 2, 3]] + weights[[n // 2, n // 2 + 1, n - 1]]) / 2
    return weights, np.vstack([on, between, np.nextafter(on, 1.0), rng.random((20, dim))])


@pytest.mark.parametrize("dim", [1, 3, 64])
def test_screened_bmu_on_near_ties(dim):
    rng = np.random.default_rng(dim)
    weights, X = _near_ties(rng, 30, dim)
    _assert_matches_rows(weights, X)
    _assert_matches_rows(weights, X, slice(0, dim, 2))
    _assert_matches_rows(weights, X, [dim - 1])


@pytest.mark.parametrize("dim", [1, 64])
def test_screened_bmu_on_one_neuron_and_empty_input(dim):
    rng = np.random.default_rng(20 + dim)
    weights = rng.random((1, dim))
    X = np.vstack([weights, rng.random((9, dim))])
    _assert_matches_rows(weights, X)
    _assert_matches_rows(weights, X, [0])
    for w in (weights, rng.random((7, dim))):
        idx, dist = kernels.bmu(w, np.empty((0, dim)))
        assert idx.shape == dist.shape == (0,)
        assert idx.dtype == np.intp and dist.dtype == np.float64


@pytest.mark.parametrize("scale", [2.0**-1070, 1e-161, 1e-155])
def test_screened_bmu_on_subnormal_scale(scale):
    # Squares and products underflow into (or below) the subnormal range,
    # where rounding errors are absolute, not relative: without the margin's
    # absolute term the screen decides dozens of these rows wrongly.
    rng = np.random.default_rng(15)
    weights, X = _near_ties(rng, 40, 4)
    X = np.vstack([X, rng.random((300, 4)), np.zeros((1, 4))])
    _assert_matches_rows(weights * scale, X * scale)
    _assert_matches_rows(weights * scale, X * scale, [1, 2])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_screened_bmu_on_neurons_ulps_apart(seed):
    # 64 neurons within 2 ulps of one point per attribute: their distances to
    # a row differ by a few ulps, the size of the screen's own rounding. A
    # margin 64 times too narrow decides some of these rows wrongly.
    rng = np.random.default_rng(seed)
    center = rng.random(4)
    weights = center + np.spacing(center) * rng.integers(-2, 3, (64, 4))
    _assert_matches_rows(weights, rng.random((500, 4)))


@pytest.mark.parametrize("scale", [1e153, 1e154, 1e155])
def test_screened_bmu_where_the_screen_overflows(scale):
    # |w|^2 and 2 x.w overflow to inf (and inf - inf to NaN) near 1e155,
    # while the full scan's differences stay small enough to square.
    rng = np.random.default_rng(16)
    weights = scale * (1.0 + 0.01 * rng.random((30, 4)))
    X = scale * (1.0 + 0.01 * rng.random((40, 4)))
    X[:3] = weights[[5, 6, 7]]
    _assert_matches_rows(weights, X)
    _assert_matches_rows(weights, X, [0, 3])


def test_quantization_error_is_the_sequential_row_sum():
    rng = np.random.default_rng(11)
    grid = HexGrid(7, 5)
    rows = rng.random((333, 3))
    table = unit_table(rows)
    model = make_model(grid, init_codebook(grid, 3, seed=1))
    total = 0.0
    for x in rows:
        total += bmu_row(model.weights, x)[1]
    assert quantization_error(model, table) == total / len(rows)


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
def test_nearest_searches_any_codebook_as_its_float64_copy(dtype):
    # The screen's margin bounds float64 rounding. Screened in float32, rows
    # within a few float32 ulps of neurons 1 ulp apart took other winners in
    # 955 of these 2000 rows.
    rng = np.random.default_rng(13)
    base = rng.random((20, 6)).astype(np.float32)
    twin = base.copy()
    twin[:, ::2] = np.nextafter(base[:, ::2], np.float32(1))
    weights = np.vstack([base, twin])
    X = np.repeat(weights, 50, axis=0)
    X += (rng.random(X.shape, dtype=np.float32) - 0.5) * np.float32(4e-7)
    if dtype is not np.float32:  # small integers: exact ties between rows and neurons
        weights, X = (weights * 7).astype(dtype), (X * 7).astype(dtype)
    got = kernels.nearest(weights, X)
    expected = kernels.nearest(weights.astype(np.float64), X.astype(np.float64))
    assert got[1].dtype == np.float64
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_nearest_holds_no_copy_of_the_codebook():
    # The passes read views of the codebook, and a search the screen decides
    # allocates no full-scan buffer: the screen matrix is the only scratch
    # the size of the codebook. A transposed copy, a separate -2 w^T and an
    # unused full-scan buffer held 3.3 codebooks.
    rng = np.random.default_rng(14)
    weights = rng.random((200 * 200, 8))
    X = rng.random((500, 8))
    kernels.nearest(weights, X)
    tracemalloc.start()
    try:
        kernels.nearest(weights, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * weights.nbytes, peak / weights.nbytes


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
def test_neighborhood_is_the_training_theta_table(sigma0, native_train_loop):
    # With the winner's weight at 1, every other weight at 0 and alpha 1, one
    # step leaves neuron v at exactly 0 + theta * (1 - 0): the theta row of
    # the step's sigma at the winner's hop distances, bit for bit. A
    # competitive step's sigma is 0, whose row is the Kronecker delta.
    grid = HexGrid(7, 5)
    u = 13  # an edge neuron whose hop distances take every value up to the grid's largest
    hops = hop_table(grid.width, grid.height)
    row = hop_row(hops, *divmod(u, grid.width))
    assert set(row.ravel().tolist()) == set(range(int(hops.max()) + 1))
    sched = TrainingSchedule(epochs=3, alpha0=1.0, alpha_end=1.0, sigma0=sigma0)
    n_rows = 4
    for impl in (pure.train_loop, native_train_loop):
        for s in range(sched.epochs * n_rows):  # the last epoch is competitive
            alphas, sigmas, cooperative = _rates(sched.resolved(grid), n_rows, s, s + 1)
            weights = np.zeros((grid.n_nodes, 1))
            weights[u] = 1.0
            impl(weights, np.ones((1, 1)), np.zeros(1, dtype=np.int64), grid,
                 alphas, sigmas, cooperative)
            expected = pure.theta_table(sigmas, int(hops.max()))[0][row]
            assert weights[:, 0].tobytes() == expected.tobytes(), (impl, s)
