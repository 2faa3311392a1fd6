"""Classification, planes, correlation, codebook k-means, cluster statistics."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from som_atlas.errors import SchemaMismatchError
from som_atlas import analysis
from som_atlas.analysis import (
    AttributeStats,
    ClusterModel,
    CorrelationReport,
    assignment_rows,
    classify,
    cluster_stats,
    component_plane,
    correlation_rows,
    kmeans_codebook,
    plane_correlation,
    stats_rows,
)
from som_atlas.fileio import atomic_write_csv
from som_atlas.hexgrid import HexGrid
from som_atlas.ingest import AttributeSpec, apply_schema, normalize
from som_atlas.som import SomModel, TrainingSchedule, train

from conftest import bmu_row, make_model, make_table


def written(path, rows) -> str:
    """The text ``atomic_write_csv`` writes to ``path`` for ``rows``."""
    atomic_write_csv(path, rows)
    return path.read_bytes().decode()


def model_with(weights) -> SomModel:
    """Model over a W x 1 row grid with an explicit codebook and unit ranges."""
    weights = np.asarray(weights, dtype=np.float64)
    n, dim = weights.shape
    schema = tuple(AttributeSpec(f"a{i}", 0.0, 1.0) for i in range(dim))
    return SomModel(HexGrid(n, 1), weights, schema, TrainingSchedule(sigma0=1.0))


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
        assert not any(a["clamped"] for a in assignments)
        spread = math.sqrt(model.dim)  # diameter bound of the unit box
        assert all(0.0 <= a["distance"] <= spread for a in assignments)

    def test_row_equal_to_neuron_hits_it(self, rng):
        table, model = self.fit(rng)
        raw = np.array(
            [s.raw_min + w * (s.raw_max - s.raw_min) for w, s in zip(model.weights[5], model.schema)]
        )
        hit = make_table([raw], names=table.names)
        # keep the stored schema: classification uses the model's ranges
        a = classify(model, hit)[0]
        assert a["neuron"] == 5
        assert a["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_is_clamped_and_flagged(self, rng):
        table, model = self.fit(rng)
        spec = model.schema[0]
        row = [[spec.raw_max + 5.0, model.schema[1].raw_min, model.schema[2].raw_min]]
        a = classify(model, make_table(row, names=table.names))[0]
        assert a["clamped"]
        # clamped first coordinate behaves exactly like the training max
        at_max = [[spec.raw_max, model.schema[1].raw_min, model.schema[2].raw_min]]
        b = classify(model, make_table(at_max, names=table.names))[0]
        assert a["neuron"] == b["neuron"]
        assert a["distance"] == b["distance"]

    def test_schema_mismatch_names_first_column(self, rng):
        table, model = self.fit(rng)
        renamed = make_table(table.rows, names=["pressure", "mass", "temp"])
        with pytest.raises(SchemaMismatchError, match="column 1"):
            classify(model, renamed)
        with pytest.raises(SchemaMismatchError, match="columns"):
            classify(model, make_table(table.rows[:, :2], names=["pressure", "flow"]))

    def test_chunks_join_into_the_per_row_search(self, rng, monkeypatch):
        table, model = self.fit(rng, n_rows=10)
        rows = table.rows.copy()
        rows[4, 0] = model.schema[0].raw_max + 1.0  # clamped, in the second chunk of 3
        table = make_table(rows, names=table.names)
        whole = classify(model, table)
        monkeypatch.setattr(analysis, "_CLASSIFY_CHUNK", 3)
        chunked = classify(model, table)
        assert chunked.tobytes() == whole.tobytes()
        assert whole["clamped"].tolist() == [row == 4 for row in range(10)]
        per_row = [bmu_row(model.weights, x) for x in apply_schema(model.schema, rows)[0]]
        assert per_row == list(zip(whole["neuron"].tolist(), whole["distance"].tolist()))

    def test_long_log_memory_grows_by_the_record_alone(self):
        # 1600 neurons x 8, as a 40x40 map. The record is 17 bytes a row; a
        # Python object per row would cost about ten times as much.
        rng = np.random.default_rng(14)
        model = model_with(rng.random((1600, 8)))
        rows = rng.random((100_000, 8)) * 1.05

        def peak(n_rows):
            table = make_table(rows[:n_rows])
            tracemalloc.start()
            try:
                classify(model, table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(100_000) - peak(25_000)) / 75_000 <= 32


class TestAssignmentsCsv:
    def classified(self):
        m = model_with([[0.0, 0.0], [1.0, 1.0], [0.5, 0.0]])
        # Row 1 lies outside a1's training range; row 2's distance needs 17 digits.
        table = make_table([[0.1, 0.2], [0.9, 1.7], [0.6, 0.3]], names=["a0", "a1"])
        return classify(m, table)

    def test_bytes_without_clusters(self, tmp_path):
        assert written(tmp_path / "a.csv", assignment_rows(self.classified())) == (
            "row,neuron,distance,clamped\n"
            "0,0,0.223606797749979,0\n"
            "1,1,0.09999999999999998,1\n"
            "2,2,0.31622776601683794,0\n"
        )

    def test_bytes_with_clusters(self, tmp_path):
        labels = np.array([1, 0, 1])
        cm = ClusterModel(centroids=np.zeros((2, 2)), neuron_labels=labels, inertia=0.0)
        assert written(tmp_path / "a.csv", assignment_rows(self.classified(), cm)) == (
            "row,neuron,cluster,distance,clamped\n"
            "0,0,1,0.223606797749979,0\n"
            "1,1,0,0.09999999999999998,1\n"
            "2,2,1,0.31622776601683794,0\n"
        )


class TestComponentPlane:
    def test_dim_one_plane_is_whole_codebook(self):
        m = model_with([[0.1], [0.2], [0.3]])
        plane = component_plane(m, 0)
        assert plane.shape == (1, 3)
        assert np.array_equal(plane.ravel(), m.weights[:, 0])

    def test_planes_decompose_weights(self, rng):
        weights = rng.random((12, 4))
        m = make_model(HexGrid(4, 3), weights)
        planes = [component_plane(m, i) for i in range(4)]
        for v in range(12):
            row, col = divmod(v, 4)
            total = sum(p[row, col] for p in planes)
            assert total == pytest.approx(weights[v].sum(), abs=1e-12)

    def test_27_planes(self, rng):
        weights = rng.random((6, 27))
        m = make_model(HexGrid(3, 2), weights)
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
        assert np.isnan(report.matrix[0, 0])
        assert np.isnan(report.matrix[0, 1]) and np.isnan(report.matrix[1, 0])
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


def _reference_correlation(model) -> CorrelationReport:
    """Pearson coefficients from each plane centred on its own, pair by pair."""
    n = model.dim
    centered = [model.weights[:, i] - model.weights[:, i].mean() for i in range(n)]
    var_sums = [float(np.dot(dx, dx)) for dx in centered]
    matrix = np.full((n, n), math.nan)
    for i in range(n):
        for j in range(i, n):
            if var_sums[i] == 0.0 or var_sums[j] == 0.0:
                continue
            r = float(np.dot(centered[i], centered[j])) / math.sqrt(var_sums[i] * var_sums[j])
            matrix[i, j] = matrix[j, i] = min(1.0, max(-1.0, r))
    return CorrelationReport(names=tuple(a.name for a in model.schema), matrix=matrix)


@pytest.mark.parametrize("n_neurons", [2, 3, 17, 1600, 10000])
def test_plane_correlation_matches_per_column_reference(tmp_path, n_neurons):
    rng = np.random.default_rng(n_neurons)
    # Plane spreads from 1e-9 to 1; plane 4 is constant, plane 5 copies
    # plane 2 and plane 6 mirrors plane 3.
    scales = np.array([1e-9, 1e-6, 1e-3, 0.5, 0.0, 0.0, 0.0])
    for _ in range(10):
        weights = rng.random((n_neurons, 7)) * scales + rng.random(7) * (1.0 - scales)
        weights[:, 5] = weights[:, 2]
        weights[:, 6] = 1.0 - weights[:, 3]
        model = model_with(weights)
        assert written(tmp_path / "a.csv", correlation_rows(plane_correlation(model))) == written(
            tmp_path / "b.csv", correlation_rows(_reference_correlation(model))
        )


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

    def test_reseed_takes_farthest_points_in_order(self):
        points = np.array([[1.0], [0.0], [10.0], [5.0], [12.0]])
        labels = np.array([0, 0, 1, 0, 1])
        # Own-centroid sums: cluster 0 (mean 2) gives 1, 4, 9; cluster 1 (mean 11) 1, 1.
        got = analysis._update_centroids(points, labels, 4, np.full((4, 1), 99.0))
        assert got[:, 0].tolist() == [2.0, 11.0, 5.0, 0.0]

    def test_reseed_breaks_distance_ties_toward_lower_index(self):
        points = np.array([[2.0, 1.0], [0.0, 1.0], [7.0, 1.0], [4.0, 1.0]])
        labels = np.array([0, 0, 1, 0])
        # Points 1 and 3 are both 4 from their centroid (2, 1), the farthest.
        got = analysis._update_centroids(points, labels, 4, np.full((4, 2), 99.0))
        assert got.tolist() == [[2.0, 1.0], [7.0, 1.0], [0.0, 1.0], [4.0, 1.0]]

    def test_identical_codebook_reaches_the_reseed(self, monkeypatch):
        seen_empty = []
        update = analysis._update_centroids

        def spy(points, labels, k, previous):
            seen_empty.append(np.unique(labels).size < k)
            return update(points, labels, k, previous)

        monkeypatch.setattr(analysis, "_update_centroids", spy)
        point = np.array([0.25, 0.5, 0.75])
        cm = kmeans_codebook(model_with(np.tile(point, (5, 1))), 2, kmeans_seed=3)
        assert any(seen_empty)
        assert cm.neuron_labels.tolist() == [0] * 5
        assert cm.centroids.tolist() == [point.tolist()] * 2
        assert cm.inertia == 0.0


def _reference_kmeans(points, k, kmeans_seed, max_iters=300, n_init=10):
    """K-means with numpy's own distance sums: the reference ``kmeans_codebook`` must match."""

    def sq_distances(centroids):
        diffs = points[:, None, :] - centroids[None, :, :]
        return np.sum(diffs * diffs, axis=2)

    def init(rng):
        n = points.shape[0]
        centroids = np.empty((k, points.shape[1]))
        centroids[0] = points[int(rng.integers(n))]
        for i in range(1, k):
            dsq = sq_distances(centroids[:i]).min(axis=1)
            total = float(dsq.sum())
            if total == 0.0:
                centroids[i] = points[int(rng.integers(n))]
                continue
            centroids[i] = points[int(rng.choice(n, p=dsq / total))]
        return centroids

    def update(labels, previous):
        centroids = previous.copy()
        empty = []
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
            else:
                empty.append(c)
        if empty:
            dist_to_own = np.sum((points - centroids[labels]) ** 2, axis=1)
            taken = set()
            for c in empty:
                order = np.argsort(-dist_to_own, kind="stable")
                far = next(int(i) for i in order if int(i) not in taken)
                taken.add(far)
                centroids[c] = points[far]
        return centroids

    best = None
    for restart in range(n_init):
        rng = np.random.default_rng(np.random.SeedSequence(kmeans_seed, spawn_key=(restart,)))
        centroids = init(rng)
        labels = np.argmin(sq_distances(centroids), axis=1)
        for _ in range(max_iters):
            centroids = update(labels, centroids)
            new_labels = np.argmin(sq_distances(centroids), axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        diffs = points - centroids[labels]
        inertia = float(np.sum(diffs * diffs))
        if best is None or inertia < best[2]:
            best = (centroids, labels, inertia)
    return best


def _parity_codebooks():
    """(codebook, ks) cases: random, duplicated and quarter-step codebooks.

    Quarter steps and duplicates make exact assignment ties. numpy's own sum
    over 8 or more dimensions rounds differently from the sequential chain of
    ``kernels.nearest``, which dims 8 and 9 exercise.
    """
    rng = np.random.default_rng(70)
    for dim in (1, 3, 8, 9):
        small = rng.random((7, dim))
        yield pytest.param(small, range(1, 8), id=f"small-{dim}")
        yield pytest.param(np.round(small * 4.0) / 4.0, range(1, 8), id=f"small-quarter-{dim}")
        dup = rng.random((60, dim))[rng.integers(0, 60, size=240)]
        yield pytest.param(dup, (2, 5, 12), id=f"dup-{dim}")
        quarter = np.round(rng.random((400, dim)) * 4.0) / 4.0
        yield pytest.param(quarter, (3, 12), id=f"quarter-{dim}")
        yield pytest.param(rng.random((400, dim)), (6,), id=f"random-{dim}")


@pytest.mark.parametrize("codebook,ks", _parity_codebooks())
def test_kmeans_matches_numpy_sum_reference(codebook, ks):
    m = model_with(codebook)
    for k in ks:
        cm = kmeans_codebook(m, k, kmeans_seed=k)
        centroids, labels, inertia = _reference_kmeans(codebook, k, kmeans_seed=k)
        assert cm.neuron_labels.tobytes() == labels.tobytes(), k
        assert cm.centroids.tobytes() == centroids.tobytes(), k
        assert math.isclose(cm.inertia, inertia, rel_tol=1e-12, abs_tol=0.0), k


class TestClusterStats:
    def setup_clustered(self, rows, names, k=1):
        table = make_table(rows, names=names)
        model = train(normalize(table), HexGrid(3, 2), TrainingSchedule(epochs=3, seed=1))
        cm = kmeans_codebook(model, k, kmeans_seed=2)
        assignments = classify(model, table)
        return table, model, cluster_stats(cm, assignments, table)

    def test_two_rows_textbook_stats(self):
        with pytest.warns(UserWarning, match="'c' is quasi-constant"):  # normalize pins c
            table, model, stats = self.setup_clustered([[2.0, 5.0], [4.0, 5.0]], ["m", "c"])
        st = stats[0][0]
        assert st.count == 2
        assert st.mean == pytest.approx(3.0, abs=1e-12)
        assert st.std == pytest.approx(math.sqrt(2.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:attribute")  # 1-row table: all quasi-constant
    def test_single_row_flagged(self):
        table, model, stats = self.setup_clustered([[7.5, 1.0]], ["m", "c"])
        st = stats[0][0]
        assert st.count == 1
        assert st.std == 0.0

    def test_empty_cluster_absent_stats(self, rng):
        rows = rng.random((10, 2))
        table = make_table(rows)
        model = train(normalize(table), HexGrid(4, 2), TrainingSchedule(epochs=3, seed=4))
        cm = kmeans_codebook(model, 5, kmeans_seed=3)
        # classify only rows landing in one cluster: others stay empty
        one_row = make_table(rows[:1], names=table.names)
        assignments = classify(model, one_row)
        stats = cluster_stats(cm, assignments, one_row)
        hit = int(cm.neuron_labels[assignments[0]["neuron"]])
        for c in range(cm.k):
            st = stats[c][0]
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
        stats = cluster_stats(cm, assignments, table)
        for attr in range(table.n_attrs):
            assert sum(stats[c][attr].count for c in range(cm.k)) == 30

    def test_length_mismatch(self, rng):
        rows = rng.random((5, 2))
        table = make_table(rows)
        model = train(normalize(table), HexGrid(2, 2), TrainingSchedule(epochs=2, seed=1))
        cm = kmeans_codebook(model, 2, kmeans_seed=0)
        assignments = classify(model, table)[:-1]
        with pytest.raises(ValueError, match="assignments"):
            cluster_stats(cm, assignments, table)


def _reference_cluster_stats(clusters, assignments, table) -> tuple:
    """Per-cluster statistics read one attribute column at a time."""
    row_labels = clusters.neuron_labels[assignments["neuron"]]
    stats = []
    for c in range(clusters.k):
        members = table.rows[row_labels == c]
        per_attr = []
        for i in range(table.n_attrs):
            col = members[:, i]
            if col.size == 0:
                per_attr.append(AttributeStats(count=0, mean=None, std=None))
            elif col.size == 1:
                per_attr.append(AttributeStats(count=1, mean=float(col[0]), std=0.0))
            else:
                mean, std = float(col.mean()), float(col.std(ddof=1))
                per_attr.append(AttributeStats(count=col.size, mean=mean, std=std))
        stats.append(tuple(per_attr))
    return tuple(stats)


@pytest.mark.parametrize("n_rows", [2, 9, 300, 20001])
def test_cluster_stats_match_per_column_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # Neurons 0-1 are cluster 0, neuron 2 cluster 1, neurons 3-4 cluster 3;
    # neuron 5 is cluster 2, which no row reaches.
    clusters = ClusterModel(
        centroids=np.zeros((4, 5)), neuron_labels=np.array([0, 0, 1, 3, 3, 2]), inertia=0.0
    )
    scales = np.array([1e-3, 1.0, 37.5, 1e6, 0.0])  # attribute 4 is constant
    for _ in range(10):
        rows = rng.normal(size=(n_rows, 5)) * scales + rng.normal(size=5) * 10.0 * scales
        rows[:, 4] = 42.0
        rows[0, 0] = -0.0  # row 0 alone in cluster 1: its mean keeps the sign
        assignments = np.zeros(n_rows, dtype=analysis.ASSIGNMENT)
        assignments["neuron"] = rng.choice([0, 1, 1, 3, 4], size=n_rows)
        assignments["neuron"][0] = 2
        table = make_table(rows)
        fast = cluster_stats(clusters, assignments, table)
        reference = _reference_cluster_stats(clusters, assignments, table)
        assert written(tmp_path / "a.csv", stats_rows(fast, table.names)) == written(
            tmp_path / "b.csv", stats_rows(reference, table.names)
        )


def test_duplicated_planes_correlate_exactly_after_training(rng):
    base = rng.random((40, 1))
    rows = np.hstack([base, base])
    table = make_table(rows, names=["a", "a2"])
    ntable = normalize(table)
    grid = HexGrid(4, 4)
    sched = TrainingSchedule(epochs=6, seed=3).resolved(grid)
    from som_atlas.som import init_codebook

    init = init_codebook(grid, 2, sched.seed)
    init[:, 1] = init[:, 0]
    model = train(ntable, grid, sched, initial_weights=init)
    report = plane_correlation(model)
    assert report.matrix[0, 1] == 1.0
