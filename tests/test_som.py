"""Codebook init, BMU search, schedules, the update rule, and full training."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import NormalizedTable, normalize
from som_atlas.som import (
    SomModel,
    TrainingSchedule,
    find_bmu,
    init_codebook,
    learning_rate,
    neighborhood,
    quantization_error,
    train,
    update_step,
)

from conftest import make_table


def norm_table(rows) -> NormalizedTable:
    rows = np.asarray(rows, dtype=np.float64)
    table = make_table(rows)
    return NormalizedTable(schema=table.schema, rows=rows)


def small_model(width=2, height=2, dim=2, weights=None) -> SomModel:
    grid = HexGrid(width, height)
    if weights is None:
        return init_codebook(grid, dim, seed=0)
    return SomModel(grid=grid, dim=dim, weights=np.asarray(weights, dtype=np.float64))


class TestSomModel:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
    def test_rejects_weights_outside_unit_box(self, bad):
        with pytest.raises(ValueError):
            SomModel(HexGrid(2, 1), 1, [[bad], [0.5]])

    def test_accepts_box_edges(self):
        m = SomModel(HexGrid(2, 1), 1, [[0.0], [1.0]])
        assert m.weights.tolist() == [[0.0], [1.0]]


class TestInitCodebook:
    def test_same_seed_identical(self):
        a = init_codebook(HexGrid(4, 3), 5, seed=99)
        b = init_codebook(HexGrid(4, 3), 5, seed=99)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        a = init_codebook(HexGrid(4, 3), 5, seed=1)
        b = init_codebook(HexGrid(4, 3), 5, seed=2)
        assert not np.array_equal(a.weights, b.weights)

    def test_range_and_shape(self):
        m = init_codebook(HexGrid(6, 5), 7, seed=3)
        assert m.weights.shape == (30, 7)
        assert m.weights.min() >= 0.0 and m.weights.max() <= 1.0

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            init_codebook(HexGrid(2, 2), 0, seed=1)


class TestFindBmu:
    def test_single_neuron_wins(self):
        m = small_model(1, 1, 2, weights=[[0.25, 0.25]])
        idx, dist = find_bmu(m, [0.25, 0.75])
        assert idx == 0
        assert dist == pytest.approx(0.5, abs=1e-15)

    def test_exact_match_distance_zero(self):
        m = small_model(2, 2, 3)
        x = m.weights[2].copy()
        idx, dist = find_bmu(m, x)
        assert idx == 2
        assert dist == 0.0

    def test_three_four_five(self):
        m = small_model(2, 1, 2, weights=[[0.3, 0.4], [0.1, 0.0]])
        idx, dist = find_bmu(m, [0.0, 0.0])
        assert idx == 1
        assert dist == pytest.approx(0.1, abs=1e-15)

    def test_tie_breaks_to_lowest_index(self):
        m = small_model(2, 1, 1, weights=[[0.5], [0.5]])
        idx, _ = find_bmu(m, [0.2])
        assert idx == 0

    def test_masked_distance(self):
        m = small_model(2, 1, 2, weights=[[0.0, 1.0], [1.0, 0.0]])
        idx, dist = find_bmu(m, [0.1, 0.0], mask=[0])
        assert idx == 0
        assert dist == pytest.approx(0.1, abs=1e-15)
        idx, _ = find_bmu(m, [0.1, 0.0], mask=[1])
        assert idx == 1

    def test_dimension_mismatch(self):
        m = small_model(2, 2, 3)
        with pytest.raises(ValueError):
            find_bmu(m, [0.1, 0.2])

    def test_bad_mask(self):
        m = small_model(2, 2, 3)
        with pytest.raises(ValueError):
            find_bmu(m, [0.1, 0.2, 0.3], mask=[])
        with pytest.raises(ValueError):
            find_bmu(m, [0.1, 0.2, 0.3], mask=[0, 0])
        with pytest.raises(ValueError):
            find_bmu(m, [0.1, 0.2, 0.3], mask=[3])

    @settings(max_examples=150)
    @given(st.data())
    def test_scale_invariance_of_argmin(self, data):
        n = data.draw(st.integers(2, 12), label="n_neurons")
        dim = data.draw(st.integers(1, 6), label="dim")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        weights = rng.random((n, dim))
        x = rng.random((1, dim))
        from som_atlas.kernels import bmu

        idx_base, _ = bmu(weights, x)
        c = 2.5
        idx_scaled, _ = bmu(weights * c, x * c)
        assert idx_base.tolist() == idx_scaled.tolist()


class TestLearningRate:
    def test_endpoints(self):
        sched = TrainingSchedule(epochs=4, alpha0=0.7, alpha_end=0.05, sigma0=1.0)
        assert learning_rate(0, sched, n_rows=10) == 0.7
        assert learning_rate(39, sched, n_rows=10) == 0.05

    def test_affine_midpoint(self):
        # alpha0=0.5, alpha_end=0.1, five steps: s=2 sits at 0.3.
        sched = TrainingSchedule(epochs=5, alpha0=0.5, alpha_end=0.1, sigma0=1.0)
        assert learning_rate(2, sched, n_rows=1) == pytest.approx(0.3, abs=1e-12)

    def test_single_step_schedule(self):
        sched = TrainingSchedule(epochs=1, alpha0=0.9, alpha_end=0.9, sigma0=1.0)
        assert learning_rate(0, sched, n_rows=1) == 0.9

    def test_out_of_range(self):
        sched = TrainingSchedule(epochs=2, sigma0=1.0)
        with pytest.raises(ValueError):
            learning_rate(-1, sched, n_rows=3)
        with pytest.raises(ValueError):
            learning_rate(6, sched, n_rows=3)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainingSchedule(epochs=0)
        with pytest.raises(ValueError):
            TrainingSchedule(alpha0=0.0)
        with pytest.raises(ValueError):
            TrainingSchedule(alpha0=0.5, alpha_end=0.6)
        with pytest.raises(ValueError):
            TrainingSchedule(sigma0=0.0)
        with pytest.raises(ValueError):
            TrainingSchedule(seed=-1)

    @pytest.mark.parametrize("sigma0", [math.inf, -math.inf, math.nan])
    def test_non_finite_sigma0_rejected(self, sigma0):
        # An infinite radius makes theta 1 everywhere: every neuron would
        # move alike and the map would not organize.
        with pytest.raises(ValueError, match="sigma0"):
            TrainingSchedule(sigma0=sigma0)


class TestNeighborhood:
    def test_self_is_one(self):
        grid = HexGrid(3, 3)
        sched = TrainingSchedule(epochs=3, sigma0=2.0)
        for s in (0, 5, 8):
            assert neighborhood(grid, 4, 4, s, sched, n_rows=3) == 1.0

    def test_final_epoch_is_competitive(self):
        grid = HexGrid(3, 3)
        sched = TrainingSchedule(epochs=3, sigma0=2.0)
        # final epoch: s in [6, 9)
        assert neighborhood(grid, 4, 5, 6, sched, n_rows=3) == 0.0
        assert neighborhood(grid, 4, 4, 8, sched, n_rows=3) == 1.0

    def test_distance_equal_sigma(self):
        # theta at d = sigma(s) is exp(-1/2) = 0.6065306597126334.
        grid = HexGrid(10, 1)
        sched = TrainingSchedule(epochs=2, sigma0=3.0)
        theta = neighborhood(grid, 0, 3, 0, sched, n_rows=4)
        assert theta == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_monotone_in_distance(self):
        grid = HexGrid(8, 1)
        sched = TrainingSchedule(epochs=2, sigma0=2.5)
        thetas = [neighborhood(grid, 0, v, 1, sched, n_rows=4) for v in range(8)]
        assert all(a >= b for a, b in zip(thetas, thetas[1:]))
        assert all(0.0 <= t <= 1.0 for t in thetas)

    def test_iteration_out_of_range(self):
        grid = HexGrid(2, 2)
        sched = TrainingSchedule(epochs=1, sigma0=1.0)
        with pytest.raises(ValueError):
            neighborhood(grid, 0, 1, 4, sched, n_rows=2)

    def test_sigma_underflow_is_kronecker_delta(self):
        # 2 * (1e-170)**2 underflows to 0 in a cooperative epoch; the kernels
        # then use the Gaussian's limit, and so must this.
        grid = HexGrid(3, 3)
        sched = TrainingSchedule(epochs=3, sigma0=1e-170)
        assert neighborhood(grid, 4, 4, 0, sched, n_rows=3) == 1.0
        assert neighborhood(grid, 4, 5, 0, sched, n_rows=3) == 0.0


class TestUpdateStep:
    def test_unit_coefficient_copies_input(self):
        # theta*alpha = 1 at the BMU with alpha = 1: weights become x exactly.
        m = small_model(2, 2, 2)
        sched = TrainingSchedule(epochs=1, alpha0=1.0, alpha_end=1.0, sigma0=1.0)
        x = np.array([0.3, 0.9])
        update_step(m, x, s=0, schedule=sched, n_rows=1)
        u, dist = find_bmu(m, x)
        assert dist == 0.0
        assert np.array_equal(m.weights[u], x)

    def test_zero_alpha_is_identity(self):
        m = small_model(3, 2, 3)
        before = m.weights.copy()
        # alpha_end must stay positive; drive alpha to ~0 via a long schedule
        # then test the documented alpha=0 semantics through the kernel.
        from som_atlas.hexgrid import axial_coords
        from som_atlas.kernels import train_loop

        train_loop(
            m.weights,
            np.array([[0.9, 0.9, 0.9]]),
            np.zeros(1, dtype=np.int64),
            axial_coords(m.grid),
            np.array([0.0]),
            np.array([1.0]),
            1,
        )
        assert np.array_equal(m.weights, before)

    def test_midpoint_convex_combination(self):
        m = small_model(1, 1, 2, weights=[[0.0, 0.0]])
        sched = TrainingSchedule(epochs=2, alpha0=0.5, alpha_end=0.5, sigma0=1.0)
        update_step(m, np.array([1.0, 1.0]), s=0, schedule=sched, n_rows=1)
        assert np.array_equal(m.weights[0], [0.5, 0.5])

    def test_bmu_receives_largest_coefficient(self):
        m = small_model(3, 3, 2)
        before = m.weights.copy()
        x = np.array([1.0, 1.0])
        sched = TrainingSchedule(epochs=2, alpha0=0.5, alpha_end=0.1, sigma0=1.5)
        u_before, _ = find_bmu(m, x)
        update_step(m, x, s=0, schedule=sched, n_rows=5)
        # Per-neuron pull coefficient = |w' - w| / |x - w|; largest at the BMU.
        gaps = np.linalg.norm(x - before, axis=1)
        coefs = np.linalg.norm(m.weights - before, axis=1) / gaps
        assert coefs.argmax() == u_before

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 30))
    def test_box_closure(self, seed, steps):
        rng = np.random.default_rng(seed)
        m = small_model(3, 2, 3, weights=rng.random((6, 3)))
        sched = TrainingSchedule(epochs=2, alpha0=1.0, alpha_end=0.01, sigma0=2.0)
        n_rows = 20
        for _ in range(steps):
            x = rng.random(3)
            s = int(rng.integers(0, 2 * n_rows))
            update_step(m, x, s=s, schedule=sched, n_rows=n_rows)
        assert m.weights.min() >= 0.0 and m.weights.max() <= 1.0


class TestTrain:
    def test_single_neuron_tracks_last_row(self):
        rows = np.array([[0.1, 0.9], [0.8, 0.2], [0.4, 0.6]])
        table = norm_table(rows)
        sched = TrainingSchedule(epochs=3, alpha0=1.0, alpha_end=1.0, sigma0=1.0, shuffle=False)
        m = train(table, HexGrid(1, 1), sched)
        assert np.array_equal(m.weights[0], rows[-1])

    def test_duplicated_columns_stay_identical(self):
        rng = np.random.default_rng(5)
        base = rng.random((40, 1))
        rows = np.hstack([base, base, rng.random((40, 1))])
        table = norm_table(rows)
        grid = HexGrid(4, 4)
        sched = TrainingSchedule(epochs=5, seed=11).resolved(grid)
        init = init_codebook(grid, 3, sched.seed).weights
        init[:, 1] = init[:, 0]
        m = train(table, grid, sched, initial_weights=init)
        assert np.array_equal(m.weights[:, 0], m.weights[:, 1])

    def test_quantization_error_improves(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        table = norm_table(rows)
        grid = HexGrid(2, 1)
        sched = TrainingSchedule(epochs=20, seed=3).resolved(grid)
        start = init_codebook(grid, 2, sched.seed)
        qe_before = quantization_error(start, table)
        m = train(table, grid, sched, initial_weights=start.weights)
        qe_after = quantization_error(m, table)
        assert qe_after <= qe_before

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(9)
        table = norm_table(rng.random((30, 4)))
        grid = HexGrid(4, 3)
        sched = TrainingSchedule(epochs=7, seed=123)
        a = train(table, grid, sched)
        b = train(table, grid, sched)
        assert np.array_equal(a.weights, b.weights)
        assert a.schedule == b.schedule

    def test_shuffle_order_depends_on_seed(self):
        rng = np.random.default_rng(10)
        table = norm_table(rng.random((25, 3)))
        grid = HexGrid(3, 3)
        a = train(table, grid, TrainingSchedule(epochs=4, seed=1))
        b = train(table, grid, TrainingSchedule(epochs=4, seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_nan_initial_weights_rejected(self):
        table = norm_table([[0.5, 0.5]])
        init = np.full((4, 2), 0.5)
        init[2, 1] = math.nan
        with pytest.raises(ValueError):
            train(table, HexGrid(2, 2), TrainingSchedule(epochs=1), initial_weights=init)

    def test_initial_weights_are_checked_and_copied(self):
        table = norm_table([[0.5, 0.5], [0.1, 0.9]])
        sched = TrainingSchedule(epochs=2)
        with pytest.raises(ValueError, match="shape"):
            train(table, HexGrid(2, 2), sched, initial_weights=np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            train(table, HexGrid(2, 2), sched, initial_weights=np.full((4, 2), 1.5))
        init = np.full((4, 2), 0.5)
        model = train(table, HexGrid(2, 2), sched, initial_weights=init)
        assert not np.array_equal(model.weights, init)
        assert np.array_equal(init, np.full((4, 2), 0.5))

    def test_empty_table_rejected(self):
        table = NormalizedTable(schema=norm_table([[0.5]]).schema, rows=np.empty((0, 1)))
        with pytest.raises(ValueError):
            train(table, HexGrid(2, 2), TrainingSchedule(epochs=1))

    def test_update_steps_reproduce_file_order_training(self):
        rng = np.random.default_rng(12)
        rows = rng.random((7, 3))
        grid = HexGrid(4, 3)
        sched = TrainingSchedule(epochs=3, alpha0=0.8, alpha_end=0.02, shuffle=False, seed=5)
        init = init_codebook(grid, 3, sched.seed).weights
        trained = train(norm_table(rows), grid, sched, initial_weights=init)
        m = SomModel(grid=grid, dim=3, weights=init.copy())
        for s in range(sched.epochs * len(rows)):
            update_step(m, rows[s % len(rows)], s=s, schedule=sched, n_rows=len(rows))
        assert m.weights.tobytes() == trained.weights.tobytes()

    def test_large_map_memory_is_linear_in_neurons(self):
        # A 100x100 map: an all-pairs distance matrix alone would be 400 MB of
        # int32 and its int64 temporaries several GB.
        table = norm_table(np.random.default_rng(13).random((3, 2)))
        grid = HexGrid(100, 100)
        sched = TrainingSchedule(epochs=2, seed=1)
        tracemalloc.start()
        try:
            train(table, grid, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_mirror_columns_stay_mirrored(self):
        rng = np.random.default_rng(7)
        base = rng.random((60, 1))
        rows = np.hstack([base, 1.0 - base])
        table = norm_table(rows)
        grid = HexGrid(4, 4)
        sched = TrainingSchedule(epochs=10, seed=21).resolved(grid)
        init = init_codebook(grid, 2, sched.seed).weights
        init[:, 1] = 1.0 - init[:, 0]
        m = train(table, grid, sched, initial_weights=init)
        assert np.max(np.abs((1.0 - m.weights[:, 1]) - m.weights[:, 0])) < 1e-12


class TestQuantizationError:
    def test_zero_when_codebook_contains_rows(self):
        rows = np.array([[0.2, 0.4], [0.6, 0.8]])
        m = small_model(2, 1, 2, weights=rows)
        assert quantization_error(m, norm_table(rows)) == 0.0

    def test_hand_summed_mean(self):
        m = small_model(1, 1, 2, weights=[[0.5, 0.5]])
        qe = quantization_error(m, norm_table([[0.0, 0.0], [1.0, 1.0]]))
        assert qe == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_non_negative(self):
        m = small_model(3, 3, 2)
        rng = np.random.default_rng(4)
        assert quantization_error(m, norm_table(rng.random((10, 2)))) >= 0.0

    def test_dim_mismatch(self):
        m = small_model(2, 2, 3)
        with pytest.raises(ValueError):
            quantization_error(m, norm_table([[0.5]]))
