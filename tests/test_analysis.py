"""Classification, planes, correlation, codebook k-means, prediction queries."""

import itertools
import math

import numpy as np
import pytest

from som_atlas.errors import SchemaMismatchError
from som_atlas.analysis import (
    classify,
    cluster_stats,
    component_plane,
    kmeans_codebook,
    plane_correlation,
    predict_forward,
    predict_reverse,
)
from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import AttributeSpec, denormalize, normalize
from som_atlas.som import SomModel, TrainingSchedule, find_bmu, train

from conftest import make_table


def model_with(weights, names=None, ranges=None) -> SomModel:
    """Model over a W x 1 row grid with an explicit codebook and schema."""
    weights = np.asarray(weights, dtype=np.float64)
    n, dim = weights.shape
    names = names or [f"a{i}" for i in range(dim)]
    ranges = ranges or [(0.0, 1.0)] * dim
    schema = tuple(
        AttributeSpec(name=names[i], index=i, raw_min=ranges[i][0], raw_max=ranges[i][1])
        for i in range(dim)
    )
    return SomModel(grid=HexGrid(n, 1), dim=dim, weights=weights, schema=schema)


def brute_force_two_means(points):
    """Global 2-means optimum by enumerating every assignment; the oracle."""
    n = len(points)
    best = math.inf
    for labels in itertools.product((0, 1), repeat=n):
        if len(set(labels)) < 2:
            continue
        inertia = 0.0
        for c in (0, 1):
            members = points[[i for i in range(n) if labels[i] == c]]
            centroid = members.mean(axis=0)
            inertia += float(np.sum((members - centroid) ** 2))
        best = min(best, inertia)
    return best


class TestClassify:
    def fit(self, rng, n_rows=40):
        rows = rng.random((n_rows, 3)) * np.array([11.0, 2.0, 1.0]) + np.array([1.0, 0.0, 3.0])
        table = make_table(rows, names=["pressure", "flow", "temp"])
        model = train(normalize(table), HexGrid(4, 3), TrainingSchedule(epochs=5, seed=2))
        return table, model

    def test_training_table_is_in_range(self, rng):
        table, model = self.fit(rng)
        assignments = classify(model, table)
        assert len(assignments) == table.n_rows
        assert not any(a.clamped for a in assignments)
        spread = math.sqrt(model.dim)  # diameter bound of the unit box
        assert all(0.0 <= a.distance <= spread for a in assignments)

    def test_row_equal_to_neuron_hits_it(self, rng):
        table, model = self.fit(rng)
        raw = np.array([denormalize(w, s) for w, s in zip(model.weights[5], model.schema)])
        hit = make_table([raw], names=table.names)
        # keep the stored schema: classification uses the model's ranges
        a = classify(model, hit)[0]
        assert a.neuron == 5
        assert a.distance == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_is_clamped_and_flagged(self, rng):
        table, model = self.fit(rng)
        spec = model.schema[0]
        row = [[spec.raw_max + 5.0, model.schema[1].raw_min, model.schema[2].raw_min]]
        a = classify(model, make_table(row, names=table.names))[0]
        assert a.clamped
        # clamped first coordinate behaves exactly like the training max
        at_max = [[spec.raw_max, model.schema[1].raw_min, model.schema[2].raw_min]]
        b = classify(model, make_table(at_max, names=table.names))[0]
        assert a.neuron == b.neuron
        assert a.distance == b.distance

    def test_schema_mismatch_names_first_column(self, rng):
        table, model = self.fit(rng)
        renamed = make_table(table.rows, names=["pressure", "mass", "temp"])
        with pytest.raises(SchemaMismatchError, match="column 1"):
            classify(model, renamed)
        with pytest.raises(SchemaMismatchError, match="columns"):
            classify(model, make_table(table.rows[:, :2], names=["pressure", "flow"]))


class TestComponentPlane:
    def test_dim_one_plane_is_whole_codebook(self):
        m = model_with([[0.1], [0.2], [0.3]])
        plane = component_plane(m, 0)
        assert plane.values.shape == (1, 3)
        assert np.array_equal(plane.values.ravel(), m.weights[:, 0])

    def test_planes_decompose_weights(self, rng):
        weights = rng.random((12, 4))
        m = SomModel(grid=HexGrid(4, 3), dim=4, weights=weights)
        planes = [component_plane(m, i) for i in range(4)]
        for v in range(12):
            row, col = divmod(v, 4)
            total = sum(p.values[row, col] for p in planes)
            assert total == pytest.approx(weights[v].sum(), abs=1e-12)

    def test_27_planes(self, rng):
        weights = rng.random((6, 27))
        m = SomModel(grid=HexGrid(3, 2), dim=27, weights=weights)
        planes = [component_plane(m, i) for i in range(27)]
        assert len(planes) == 27
        with pytest.raises(ValueError):
            component_plane(m, 27)


class TestPlaneCorrelation:
    def test_self_correlation_exactly_one(self, rng):
        col = rng.random(8)
        m = model_with(np.column_stack([col, col.copy()]))
        report = plane_correlation(m)
        assert report.matrix[0, 0] == 1.0
        assert report.matrix[1, 1] == 1.0
        # bit-identical planes correlate exactly, off-diagonal included
        assert report.matrix[0, 1] == 1.0

    def test_mirror_correlation_minus_one(self):
        col = np.array([0.0, 0.25, 0.5, 1.0])
        m = model_with(np.column_stack([col, 1.0 - col]))
        report = plane_correlation(m)
        assert report.matrix[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_two_point_planes_correlate_fully(self):
        m = model_with(np.array([[0.0, 0.2], [1.0, 0.9]]))
        report = plane_correlation(m)
        assert report.matrix[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_flagged_invalid(self):
        m = model_with(np.array([[0.5, 0.1], [0.5, 0.9]]))
        report = plane_correlation(m)
        assert not report.valid[0, 0]
        assert not report.valid[0, 1]
        assert report.valid[1, 1]
        assert report.matrix[1, 1] == 1.0

    def test_matrix_is_symmetric_and_bounded(self, rng):
        m = model_with(rng.random((10, 5)))
        report = plane_correlation(m)
        assert np.array_equal(report.matrix, report.matrix.T)
        assert np.all(report.matrix >= -1.0) and np.all(report.matrix <= 1.0)
        assert np.all(report.matrix.diagonal() == 1.0)

    def test_preconditions(self, rng):
        single_attr = model_with(rng.random((4, 1)))
        with pytest.raises(ValueError, match="two attributes"):
            plane_correlation(single_attr)
        single_neuron = model_with(rng.random((1, 3)))
        with pytest.raises(ValueError, match="two neurons"):
            plane_correlation(single_neuron)


class TestKmeans:
    def test_k1_centroid_is_mean(self, rng):
        m = model_with(rng.random((9, 3)))
        cm = kmeans_codebook(m, 1, kmeans_seed=0)
        assert np.allclose(cm.centroids[0], m.weights.mean(axis=0), atol=1e-12)
        assert set(cm.neuron_labels.tolist()) == {0}

    def test_k_equals_n_zero_inertia(self, rng):
        m = model_with(rng.random((6, 2)))
        cm = kmeans_codebook(m, 6, kmeans_seed=1)
        assert cm.inertia == pytest.approx(0.0, abs=1e-15)
        assert sorted(cm.neuron_labels.tolist()) == list(range(6))

    def test_matches_brute_force_on_six_points(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            points = rng.random((6, 2))
            m = model_with(points)
            cm = kmeans_codebook(m, 2, kmeans_seed=seed)
            assert cm.inertia == pytest.approx(brute_force_two_means(points), abs=1e-9), seed

    def test_deterministic(self, rng):
        m = model_with(rng.random((15, 3)))
        a = kmeans_codebook(m, 4, kmeans_seed=5)
        b = kmeans_codebook(m, 4, kmeans_seed=5)
        assert np.array_equal(a.neuron_labels, b.neuron_labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_k_out_of_range(self, rng):
        m = model_with(rng.random((4, 2)))
        with pytest.raises(ValueError):
            kmeans_codebook(m, 0)
        with pytest.raises(ValueError):
            kmeans_codebook(m, 5)

    def test_labels_are_fixed_point(self, rng):
        m = model_with(rng.random((20, 4)))
        cm = kmeans_codebook(m, 3, kmeans_seed=9)
        diffs = m.weights[:, None, :] - cm.centroids[None, :, :]
        reassigned = np.argmin(np.sum(diffs * diffs, axis=2), axis=1)
        assert np.array_equal(reassigned, cm.neuron_labels)


class TestClusterStats:
    def setup_clustered(self, rows, names, k=1):
        table = make_table(rows, names=names)
        model = train(normalize(table), HexGrid(3, 2), TrainingSchedule(epochs=3, seed=1))
        cm = kmeans_codebook(model, k, kmeans_seed=2)
        assignments = classify(model, table)
        return table, model, cluster_stats(cm, assignments, table, model)

    def test_two_rows_textbook_stats(self):
        table, model, cm = self.setup_clustered([[2.0, 5.0], [4.0, 5.0]], ["m", "c"])
        st = cm.stats[0][0]
        assert st.count == 2
        assert st.mean == pytest.approx(3.0, abs=1e-12)
        assert st.std == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:attribute")  # 1-row table: all quasi-constant
    def test_single_row_flagged(self):
        table, model, cm = self.setup_clustered([[7.5, 1.0]], ["m", "c"])
        st = cm.stats[0][0]
        assert st.count == 1
        assert st.std == 0.0
        assert st.single_sample

    def test_empty_cluster_absent_stats(self, rng):
        rows = rng.random((10, 2))
        table = make_table(rows)
        model = train(normalize(table), HexGrid(4, 2), TrainingSchedule(epochs=3, seed=4))
        cm = kmeans_codebook(model, 5, kmeans_seed=3)
        # classify only rows landing in one cluster: others stay empty
        one_row = make_table(rows[:1], names=table.names)
        assignments = classify(model, one_row)
        cm = cluster_stats(cm, assignments, one_row, model)
        hit = int(cm.neuron_labels[assignments[0].neuron])
        for c in range(cm.k):
            st = cm.stats[c][0]
            if c == hit:
                assert st.count == 1
            else:
                assert st.count == 0 and st.mean is None and st.std is None

    def test_counts_sum_to_rows(self, rng):
        rows = rng.random((30, 3)) * 5.0
        table = make_table(rows)
        model = train(normalize(table), HexGrid(3, 3), TrainingSchedule(epochs=4, seed=6))
        cm = kmeans_codebook(model, 3, kmeans_seed=1)
        assignments = classify(model, table)
        cm = cluster_stats(cm, assignments, table, model)
        for attr in range(table.n_attrs):
            assert sum(cm.stats[c][attr].count for c in range(cm.k)) == 30

    def test_length_mismatch(self, rng):
        rows = rng.random((5, 2))
        table = make_table(rows)
        model = train(normalize(table), HexGrid(2, 2), TrainingSchedule(epochs=2, seed=1))
        cm = kmeans_codebook(model, 2, kmeans_seed=0)
        assignments = classify(model, table)[:-1]
        with pytest.raises(ValueError, match="assignments"):
            cluster_stats(cm, assignments, table, model)


class TestPredict:
    def fit(self, rng):
        rows = np.column_stack(
            [rng.random(50) * 10.0, rng.random(50) * 2.0, rng.random(50) * 100.0]
        )
        table = make_table(rows, names=["opening", "duration", "mass"])
        model = train(normalize(table), HexGrid(4, 3), TrainingSchedule(epochs=5, seed=8))
        cm = kmeans_codebook(model, 3, kmeans_seed=4)
        cm = cluster_stats(cm, classify(model, table), table, model)
        return table, model, cm

    def test_full_input_reproduces_classify(self, rng):
        table, model, cm = self.fit(rng)
        row = table.rows[7]
        expected = classify(model, make_table([row], names=table.names))[0]
        pred = predict_forward(
            model, cm, dict(zip(table.names, row)), target="mass"
        )
        assert pred.neuron == expected.neuron
        assert pred.distance == expected.distance
        assert pred.cluster == int(cm.neuron_labels[expected.neuron])

    def test_single_attribute_mask_matches_linear_scan(self, rng):
        table, model, cm = self.fit(rng)
        spec = model.schema[0]
        raw = 3.7
        t = (raw - spec.raw_min) / (spec.raw_max - spec.raw_min)
        scan = int(np.argmin(np.abs(model.weights[:, 0] - t)))
        pred = predict_forward(model, cm, {"opening": raw}, target="mass")
        assert pred.neuron == scan

    def test_unknown_names_rejected(self, rng):
        table, model, cm = self.fit(rng)
        with pytest.raises(ValueError, match="valve"):
            predict_forward(model, cm, {"valve": 1.0}, target="mass")
        with pytest.raises(ValueError, match="banana"):
            predict_forward(model, cm, {"opening": 1.0}, target="banana")
        with pytest.raises(ValueError):
            predict_forward(model, cm, {}, target="mass")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, rng, value):
        # A NaN would otherwise normalize to 0 and land on a neuron unflagged.
        table, model, cm = self.fit(rng)
        with pytest.raises(ValueError, match="'duration'"):
            predict_forward(model, cm, {"opening": 5.0, "duration": value}, target="mass")

    def test_forward_reports_target_stats(self, rng):
        table, model, cm = self.fit(rng)
        pred = predict_forward(model, cm, {"opening": 5.0, "duration": 1.0}, target="mass")
        st = cm.stats[pred.cluster][2]
        assert pred.stats == st
        assert pred.target == "mass"

    def test_reverse_single_neuron_cluster(self):
        m = model_with(
            [[0.2, 0.6], [0.8, 0.1]], names=["a", "b"], ranges=[(10.0, 20.0), (0.0, 1.0)]
        )
        cm = kmeans_codebook(m, 2, kmeans_seed=0)
        target = int(cm.neuron_labels[0])
        ranges = predict_reverse(m, cm, target)
        assert ranges[0].low == ranges[0].high == pytest.approx(12.0, abs=1e-12)
        assert ranges[0].mean == pytest.approx(12.0, abs=1e-12)

    def test_reverse_k1_spans_codebook(self, rng):
        weights = rng.random((8, 2))
        m = model_with(weights, ranges=[(0.0, 1.0), (0.0, 1.0)])
        cm = kmeans_codebook(m, 1, kmeans_seed=0)
        ranges = predict_reverse(m, cm, 0)
        assert ranges[0].low == pytest.approx(weights[:, 0].min(), abs=1e-15)
        assert ranges[0].high == pytest.approx(weights[:, 0].max(), abs=1e-15)

    def test_reverse_two_neuron_cluster_denormalizes(self):
        m = model_with([[0.2], [0.6]], names=["p"], ranges=[(10.0, 20.0)])
        cm = kmeans_codebook(m, 1, kmeans_seed=0)
        (r,) = predict_reverse(m, cm, 0)
        assert r.low == pytest.approx(12.0, abs=1e-12)
        assert r.high == pytest.approx(16.0, abs=1e-12)
        assert r.mean == pytest.approx(14.0, abs=1e-12)

    def test_reverse_bad_cluster(self, rng):
        m = model_with(rng.random((4, 2)))
        cm = kmeans_codebook(m, 2, kmeans_seed=1)
        with pytest.raises(ValueError):
            predict_reverse(m, cm, 2)


def test_duplicated_planes_correlate_exactly_after_training(rng):
    base = rng.random((40, 1))
    rows = np.hstack([base, base])
    table = make_table(rows, names=["a", "a2"])
    ntable = normalize(table)
    grid = HexGrid(4, 4)
    sched = TrainingSchedule(epochs=6, seed=3).resolved(grid)
    from som_atlas.som import init_codebook

    init = init_codebook(grid, 2, sched.seed).weights
    init[:, 1] = init[:, 0]
    model = train(ntable, grid, sched, initial_weights=init)
    report = plane_correlation(model)
    assert report.matrix[0, 1] == 1.0
