"""Post-training analytics over a trained map.

Classification scales raw rows with the stored training ranges
(``ingest.apply_schema``, the one normalization path) and finds every row's
best matching unit with the batched ``kernels.bmu``, a chunk of rows at a
time, so memory stays bounded however long the log; forward prediction uses
the same two calls on one masked row. Component planes slice one attribute out of
the codebook for rendering; their pairwise Pearson coefficients quantify the
"two planes look alike" judgement, including inverse relations at r close to
-1. K-means over the codebook groups neurons into operating regimes, and the
two prediction queries walk the pipeline forward (partial settings to the
expected cluster and its statistics) and backward (cluster to the weight
ranges that reach it).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import SchemaMismatchError
from .ingest import DataTable, apply_schema, denormalize
from .som import SomModel, find_bmu

# Rows normalized and searched per batch in ``classify``; bounds the
# normalized copy whatever the table length.
_CLASSIFY_CHUNK = 4096


@dataclass(frozen=True)
class BmuAssignment:
    """One classified row: its winning neuron and masked/clamped status."""

    row: int
    neuron: int
    distance: float
    clamped: bool


@dataclass(frozen=True)
class ComponentPlane:
    """One attribute's coordinate across the whole map, in grid shape."""

    attribute: int
    values: np.ndarray  # (height, width), values[row][col]


@dataclass(frozen=True)
class CorrelationReport:
    """Neuron-wise Pearson coefficients between all component-plane pairs."""

    names: tuple[str, ...]
    matrix: np.ndarray  # (n, n) floats in [-1, 1]; 0.0 where invalid
    valid: np.ndarray  # (n, n) bools; False where a plane has zero variance

    def strong_pairs(self, threshold: float = 0.8) -> list[tuple[int, int, float]]:
        """Attribute pairs (i < j) whose |r| meets the threshold."""
        out = []
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                if self.valid[i, j] and abs(self.matrix[i, j]) >= threshold:
                    out.append((i, j, float(self.matrix[i, j])))
        return out


@dataclass(frozen=True)
class AttributeStats:
    """Per-cluster raw-unit statistics of one attribute."""

    count: int
    mean: float | None
    std: float | None
    single_sample: bool = False


@dataclass(frozen=True)
class ClusterModel:
    """K-means partition of the codebook, optionally with data statistics."""

    k: int
    centroids: np.ndarray  # (k, dim), normalized units
    neuron_labels: np.ndarray  # (n_neurons,) ints in [0, k)
    inertia: float
    stats: tuple[tuple[AttributeStats, ...], ...] | None = None  # [cluster][attribute]


@dataclass(frozen=True)
class ForwardPrediction:
    neuron: int
    distance: float
    cluster: int
    target: str
    stats: AttributeStats
    clamped: bool


@dataclass(frozen=True)
class AttributeRange:
    """Raw-unit span of one attribute over a cluster's neurons."""

    name: str
    low: float
    high: float
    mean: float
    quasi_constant: bool = False


def _require_schema(model: SomModel) -> None:
    if model.schema is None:
        raise ValueError("model has no attribute schema; train or load one first")


def classify(model: SomModel, table: DataTable) -> list[BmuAssignment]:
    """Assign every raw row to its best matching unit.

    The table schema must match the model's by name and order. Values outside
    the training range are clamped to the range edge and flagged, never
    rejected: a slightly out-of-range reading is still worth mapping.
    """
    _require_schema(model)
    model_names = [a.name for a in model.schema]
    table_names = table.names
    if len(table_names) != len(model_names):
        raise SchemaMismatchError(
            f"table has {len(table_names)} columns, model expects {len(model_names)}"
        )
    for pos, (got, want) in enumerate(zip(table_names, model_names)):
        if got != want:
            raise SchemaMismatchError(f"column {pos}: got {got!r}, model expects {want!r}")

    out = []
    for start in range(0, table.n_rows, _CLASSIFY_CHUNK):
        x, clamped = apply_schema(model.schema, table.rows[start : start + _CLASSIFY_CHUNK])
        neurons, distances = kernels.bmu(model.weights, x)
        batch = zip(neurons.tolist(), distances.tolist(), clamped.tolist())
        for row, (neuron, distance, flag) in enumerate(batch, start):
            out.append(BmuAssignment(row=row, neuron=neuron, distance=distance, clamped=flag))
    return out


def component_plane(model: SomModel, attribute: int) -> ComponentPlane:
    """Extract one weight coordinate across all neurons, reshaped to the grid."""
    if not (0 <= attribute < model.dim):
        raise ValueError(f"attribute index {attribute} out of range for dim {model.dim}")
    values = model.weights[:, attribute].reshape(model.grid.height, model.grid.width).copy()
    return ComponentPlane(attribute=attribute, values=values)


def plane_correlation(model: SomModel) -> CorrelationReport:
    """Pearson coefficients between every pair of component planes.

    A plane with zero variance has no defined correlation; its entries are
    flagged invalid (value 0.0) instead of propagating NaN.
    """
    _require_schema(model)
    n = model.dim
    if n < 2:
        raise ValueError("plane correlation needs at least two attributes")
    if model.n_neurons < 2:
        raise ValueError("plane correlation needs at least two neurons")

    centered = []
    var_sums = []
    for i in range(n):
        col = model.weights[:, i]
        dx = col - col.mean()
        centered.append(dx)
        var_sums.append(float(np.dot(dx, dx)))

    matrix = np.zeros((n, n))
    valid = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i, n):
            if var_sums[i] == 0.0 or var_sums[j] == 0.0:
                continue
            num = float(np.dot(centered[i], centered[j]))
            r = num / math.sqrt(var_sums[i] * var_sums[j])
            r = min(1.0, max(-1.0, r))
            matrix[i, j] = matrix[j, i] = r
            valid[i, j] = valid[j, i] = True

    names = tuple(a.name for a in model.schema)
    return CorrelationReport(names=names, matrix=matrix, valid=valid)


def kmeans_codebook(
    model: SomModel, k: int, kmeans_seed: int = 7, max_iters: int = 300, n_init: int = 10
) -> ClusterModel:
    """Lloyd's algorithm over the neuron weight vectors, k-means++ seeded.

    Runs ``n_init`` independent seeded starts and keeps the lowest-inertia
    result; a single start can stall in a local optimum. Deterministic for
    fixed inputs: restart seeds derive from ``kmeans_seed``, assignment ties
    break toward the lower cluster index, and an emptied cluster is reseeded
    with the point farthest from its own centroid. Each start stops when
    labels repeat or at ``max_iters``.
    """
    n = model.n_neurons
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    points = model.weights

    best: ClusterModel | None = None
    for restart in range(n_init):
        rng = np.random.default_rng(np.random.SeedSequence(kmeans_seed, spawn_key=(restart,)))
        centroids = _kmeans_pp_init(points, k, rng)
        labels = _assign(points, centroids)
        for _ in range(max_iters):
            centroids = _update_centroids(points, labels, k, centroids)
            new_labels = _assign(points, centroids)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels

        diffs = points - centroids[labels]
        inertia = float(np.sum(diffs * diffs))
        if best is None or inertia < best.inertia:
            best = ClusterModel(k=k, centroids=centroids, neuron_labels=labels, inertia=inertia)
    return best


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    for i in range(1, k):
        dsq = _sq_distances(points, centroids[:i]).min(axis=1)
        total = float(dsq.sum())
        if total == 0.0:
            # All points coincide with chosen centroids; any pick is as good.
            centroids[i] = points[int(rng.integers(n))]
            continue
        centroids[i] = points[int(rng.choice(n, p=dsq / total))]
    return centroids


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diffs = points[:, None, :] - centroids[None, :, :]
    return np.sum(diffs * diffs, axis=2)


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_distances(points, centroids), axis=1)


def _update_centroids(
    points: np.ndarray, labels: np.ndarray, k: int, previous: np.ndarray
) -> np.ndarray:
    centroids = previous.copy()
    empty = []
    for c in range(k):
        members = points[labels == c]
        if members.shape[0]:
            centroids[c] = members.mean(axis=0)
        else:
            empty.append(c)
    if empty:
        # Reseed each empty cluster with the point currently worst served.
        dist_to_own = np.sum((points - centroids[labels]) ** 2, axis=1)
        taken: set[int] = set()
        for c in empty:
            order = np.argsort(-dist_to_own, kind="stable")
            far = next(int(i) for i in order if int(i) not in taken)
            taken.add(far)
            centroids[c] = points[far]
    return centroids


def cluster_stats(
    clusters: ClusterModel,
    assignments: Sequence[BmuAssignment],
    table: DataTable,
    model: SomModel,
) -> ClusterModel:
    """Fold classified data rows into per-cluster, per-attribute statistics.

    Each row inherits its neuron's cluster label. Means and sample standard
    deviations are over raw units; a single-member cluster reports std 0 with
    a flag, an empty one reports absent stats.
    """
    _require_schema(model)
    if len(assignments) != table.n_rows:
        raise ValueError(
            f"{len(assignments)} assignments for {table.n_rows} rows; "
            "classify the same table first"
        )
    neurons = np.fromiter((a.neuron for a in assignments), dtype=np.intp, count=len(assignments))
    row_labels = clusters.neuron_labels[neurons]

    stats: list[tuple[AttributeStats, ...]] = []
    for c in range(clusters.k):
        member_rows = table.rows[row_labels == c]
        count = member_rows.shape[0]
        per_attr = []
        for i in range(table.n_attrs):
            if count == 0:
                per_attr.append(AttributeStats(count=0, mean=None, std=None))
            elif count == 1:
                per_attr.append(
                    AttributeStats(
                        count=1, mean=float(member_rows[0, i]), std=0.0, single_sample=True
                    )
                )
            else:
                col = member_rows[:, i]
                per_attr.append(
                    AttributeStats(
                        count=count, mean=float(col.mean()), std=float(col.std(ddof=1))
                    )
                )
        stats.append(tuple(per_attr))
    return replace(clusters, stats=tuple(stats))


def predict_forward(
    model: SomModel,
    clusters: ClusterModel,
    values: Mapping[str, float],
    target: str,
) -> ForwardPrediction:
    """Partial settings in, expected cluster out.

    ``values`` names any non-empty subset of schema attributes; the best
    matching unit is found over those dimensions only, and the winning
    neuron's cluster supplies the reported statistics for ``target``.
    """
    _require_schema(model)
    if clusters.stats is None:
        raise ValueError("cluster statistics not computed; run cluster_stats first")
    if not values:
        raise ValueError("at least one attribute value is required")
    index_of = {a.name: a.index for a in model.schema}
    if target not in index_of:
        raise ValueError(f"unknown target attribute {target!r}")

    for name, value in values.items():
        if name not in index_of:
            raise ValueError(f"unknown attribute {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"attribute {name!r}: non-finite value {value!r}")
    mask = sorted(index_of[name] for name in values)
    schema = [model.schema[i] for i in mask]
    normalized, clamped = apply_schema(schema, [[values[spec.name] for spec in schema]])
    x = np.zeros(model.dim)
    x[mask] = normalized[0]

    neuron, distance = find_bmu(model, x, mask=mask)
    cluster = int(clusters.neuron_labels[neuron])
    return ForwardPrediction(
        neuron=neuron,
        distance=distance,
        cluster=cluster,
        target=target,
        stats=clusters.stats[cluster][index_of[target]],
        clamped=bool(clamped[0]),
    )


def predict_reverse(
    model: SomModel, clusters: ClusterModel, target_cluster: int
) -> list[AttributeRange]:
    """Cluster in, candidate operating ranges out.

    Reports, per attribute, the min/max/mean of the denormalized weights of
    the neurons labeled ``target_cluster``: the settings region the map
    associates with that cluster.
    """
    _require_schema(model)
    if not (0 <= target_cluster < clusters.k):
        raise ValueError(f"cluster id {target_cluster} out of range for k={clusters.k}")
    members = model.weights[clusters.neuron_labels == target_cluster]
    if members.shape[0] == 0:
        raise ValueError(f"cluster {target_cluster} has no neurons")

    out = []
    for i, spec in enumerate(model.schema):
        if spec.quasi_constant:
            value = (spec.raw_min + spec.raw_max) / 2.0
            out.append(
                AttributeRange(name=spec.name, low=value, high=value, mean=value, quasi_constant=True)
            )
            continue
        col = members[:, i]
        out.append(
            AttributeRange(
                name=spec.name,
                low=denormalize(float(col.min()), spec),
                high=denormalize(float(col.max()), spec),
                mean=denormalize(float(col.mean()), spec),
            )
        )
    return out


def correlation_to_csv(report: CorrelationReport) -> str:
    """CSV matrix with attribute names on both axes; invalid cells left empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(report.names))
    for i, name in enumerate(report.names):
        row = [name]
        for j in range(len(report.names)):
            row.append(repr(float(report.matrix[i, j])) if report.valid[i, j] else "")
        writer.writerow(row)
    return buf.getvalue()


def assignments_to_csv(
    assignments: Sequence[BmuAssignment], clusters: ClusterModel | None = None
) -> str:
    """Rows as CSV; with clusters given, include each row's cluster label."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if clusters is None:
        writer.writerow(["row", "neuron", "distance", "clamped"])
        for a in assignments:
            writer.writerow([a.row, a.neuron, repr(a.distance), int(a.clamped)])
    else:
        writer.writerow(["row", "neuron", "cluster", "distance", "clamped"])
        for a in assignments:
            writer.writerow(
                [a.row, a.neuron, int(clusters.neuron_labels[a.neuron]), repr(a.distance), int(a.clamped)]
            )
    return buf.getvalue()


def stats_to_csv(clusters: ClusterModel, names: Sequence[str]) -> str:
    """Per-cluster attribute statistics as CSV (empty mean/std when absent)."""
    if clusters.stats is None:
        raise ValueError("cluster statistics not computed; run cluster_stats first")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cluster", "attribute", "count", "mean", "std"])
    for c, per_attr in enumerate(clusters.stats):
        for name, st in zip(names, per_attr):
            writer.writerow(
                [
                    c,
                    name,
                    st.count,
                    "" if st.mean is None else repr(st.mean),
                    "" if st.std is None else repr(st.std),
                ]
            )
    return buf.getvalue()
