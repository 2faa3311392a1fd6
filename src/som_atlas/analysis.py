"""Post-training analytics over a trained map.

Classification scales raw rows with the stored training ranges
(``ingest.apply_schema``, the one normalization path) and finds every row's
best matching unit with the batched ``kernels.bmu``, a chunk of rows at a
time, straight into one structured ``ASSIGNMENT`` record: only that record,
17 bytes a row, grows with the log. The ``*_rows`` functions yield the CSV
tables one row at a time for ``fileio.atomic_write_csv``, so writing them
out holds nothing more. A component plane is one attribute of the codebook
as a ``(height, width)`` array; the planes' pairwise Pearson coefficients
(NaN for a constant plane) quantify the "two planes look alike" judgement,
including inverse relations at r close to -1. K-means over the codebook
groups neurons into operating regimes, on the squared sums of
``kernels.nearest``, the search under ``kernels.bmu``; ``cluster_stats``
returns the data's statistics per cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import SchemaMismatchError
from .ingest import DataTable, apply_schema
from .som import SomModel

# Rows normalized and searched per batch in ``classify``; bounds the
# normalized copy whatever the table length.
_CLASSIFY_CHUNK = 4096

# One classified row: its best matching unit, the distance to it, and whether
# any raw value lay outside the training range. Element i is table row i.
ASSIGNMENT = np.dtype([("neuron", np.intp), ("distance", np.float64), ("clamped", bool)])

# |r| at or above which two component planes count as strongly correlated.
STRONG_CORRELATION = 0.8

# Seeded k-means starts per clustering; a single start can stall in a local optimum.
KMEANS_RESTARTS = 10


@dataclass(frozen=True)
class CorrelationReport:
    """Neuron-wise Pearson coefficients between all component-plane pairs."""

    names: tuple[str, ...]
    matrix: np.ndarray  # (n, n) floats in [-1, 1]; NaN where a plane has zero variance

    def strong_pairs(self) -> list[tuple[int, int, float]]:
        """Attribute pairs (i < j) whose |r| is at least ``STRONG_CORRELATION`` (NaN never is)."""
        out = []
        n = len(self.names)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(self.matrix[i, j]) >= STRONG_CORRELATION:
                    out.append((i, j, float(self.matrix[i, j])))
        return out


@dataclass(frozen=True)
class AttributeStats:
    """Per-cluster raw-unit statistics of one attribute."""

    count: int
    mean: float | None
    std: float | None


@dataclass(frozen=True)
class ClusterModel:
    """K-means partition of the codebook."""

    centroids: np.ndarray  # (k, dim), normalized units
    neuron_labels: np.ndarray  # (n_neurons,) ints in [0, k)
    inertia: float

    @property
    def k(self) -> int:
        """Number of clusters: one centroid each."""
        return self.centroids.shape[0]


def classify(model: SomModel, table: DataTable) -> np.ndarray:
    """Assign every raw row to its best matching unit: one ``ASSIGNMENT`` per row.

    The table schema must match the model's by name and order. Values outside
    the training range are clamped to the range edge and flagged, never
    rejected: a slightly out-of-range reading is still worth mapping.
    """
    model_names = [a.name for a in model.schema]
    table_names = table.names
    if len(table_names) != len(model_names):
        raise SchemaMismatchError(
            f"table has {len(table_names)} columns, model expects {len(model_names)}"
        )
    for pos, (got, want) in enumerate(zip(table_names, model_names)):
        if got != want:
            raise SchemaMismatchError(f"column {pos}: got {got!r}, model expects {want!r}")

    out = np.empty(table.n_rows, dtype=ASSIGNMENT)
    for start in range(0, table.n_rows, _CLASSIFY_CHUNK):
        stop = start + _CLASSIFY_CHUNK
        chunk = out[start:stop]
        x, chunk["clamped"] = apply_schema(model.schema, table.rows[start:stop])
        chunk["neuron"], chunk["distance"] = kernels.bmu(model.weights, x)
    return out


def component_plane(model: SomModel, attribute: int) -> np.ndarray:
    """One weight coordinate across all neurons, as a ``(height, width)`` copy."""
    if not (0 <= attribute < model.dim):
        raise ValueError(f"attribute index {attribute} out of range for dim {model.dim}")
    return model.weights[:, attribute].reshape(model.grid.height, model.grid.width).copy()


def plane_correlation(model: SomModel) -> CorrelationReport:
    """Pearson coefficients between every pair of component planes.

    A plane with zero variance has no defined correlation: its row and
    column of the matrix are NaN.
    """
    n = model.dim
    if n < 2:
        raise ValueError("plane correlation needs at least two attributes")
    if model.n_neurons < 2:
        raise ValueError("plane correlation needs at least two neurons")

    # One contiguous row per plane, whose mean rounds as its column's alone.
    centered = model.weights.T.copy()
    centered -= centered.mean(axis=1, keepdims=True)
    var_sums = [float(np.dot(dx, dx)) for dx in centered]

    matrix = np.full((n, n), math.nan)
    for i in range(n):
        for j in range(i, n):
            if var_sums[i] == 0.0 or var_sums[j] == 0.0:
                continue
            num = float(np.dot(centered[i], centered[j]))
            r = num / math.sqrt(var_sums[i] * var_sums[j])
            r = min(1.0, max(-1.0, r))
            matrix[i, j] = matrix[j, i] = r

    return CorrelationReport(names=tuple(a.name for a in model.schema), matrix=matrix)


def kmeans_codebook(
    model: SomModel, k: int, kmeans_seed: int = 7, max_iters: int = 300
) -> ClusterModel:
    """``k`` clusters of the neuron weight vectors: Lloyd's algorithm, k-means++ seeded.

    Runs ``KMEANS_RESTARTS`` independent seeded starts and keeps the
    lowest-inertia result. Deterministic for fixed inputs: restart seeds
    derive from ``kmeans_seed``, assignment ties break toward the lower
    cluster index, and an emptied cluster is reseeded with the point farthest
    from its own centroid. Each start stops when labels repeat or at
    ``max_iters``.
    """
    n = model.n_neurons
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if kmeans_seed < 0:
        raise ValueError(f"kmeans_seed must be >= 0, got {kmeans_seed}")
    points = model.weights

    best: ClusterModel | None = None
    for restart in range(KMEANS_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence(kmeans_seed, spawn_key=(restart,)))
        centroids = _kmeans_pp_init(points, k, rng)
        labels = kernels.nearest(centroids, points)[0]
        for _ in range(max_iters):
            centroids = _update_centroids(points, labels, k, centroids)
            new_labels, dsq = kernels.nearest(centroids, points)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels

        # Left to right, as ``quantization_error`` adds distances.
        inertia = float(np.add.accumulate(dsq)[-1])
        if best is None or inertia < best.inertia:
            best = ClusterModel(centroids=centroids, neuron_labels=labels, inertia=inertia)
    return best


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    for i in range(1, k):
        dsq = kernels.nearest(centroids[:i], points)[1]
        total = float(dsq.sum())
        if total == 0.0:
            # All points coincide with chosen centroids; any pick is as good.
            centroids[i] = points[int(rng.integers(n))]
            continue
        centroids[i] = points[int(rng.choice(n, p=dsq / total))]
    return centroids


def _update_centroids(
    points: np.ndarray, labels: np.ndarray, k: int, previous: np.ndarray
) -> np.ndarray:
    centroids = previous.copy()
    # bincount, not np.unique, which imports numpy.ma (15-36 ms a process).
    counts = np.bincount(labels, minlength=k)
    present = np.flatnonzero(counts)
    empty = np.flatnonzero(counts == 0)
    dsq = np.empty(points.shape[0])  # each point's sum to its own centroid
    for c in present:
        own = labels == c
        centroids[c] = points[own].mean(axis=0)
        if empty.size:
            dsq[own] = kernels.nearest(centroids[c, None], points[own])[1]
    if empty.size:
        # Reseed with the points worst served, farthest first, lower index on a tie.
        centroids[empty] = points[np.argsort(-dsq, kind="stable")[: empty.size]]
    return centroids


def cluster_stats(
    clusters: ClusterModel, assignments: np.ndarray, table: DataTable
) -> tuple[tuple[AttributeStats, ...], ...]:
    """Fold classified data rows into per-cluster, per-attribute statistics.

    Returns ``stats[cluster][attribute]``. Each row inherits its neuron's
    cluster label. Means and sample standard deviations are over raw units; a
    single-member cluster reports std 0 (``count`` 1), an empty one reports
    absent stats (``count`` 0).
    """
    if len(assignments) != table.n_rows:
        raise ValueError(
            f"{len(assignments)} assignments for {table.n_rows} rows; "
            "classify the same table first"
        )
    row_labels = clusters.neuron_labels[assignments["neuron"]]

    stats: list[tuple[AttributeStats, ...]] = []
    for c in range(clusters.k):
        # Transposed, so each attribute is one contiguous row whose axis=1 sums
        # round as a sum over its column alone; mean(axis=0) rounds otherwise.
        members = table.rows[row_labels == c].T.copy()
        count = members.shape[1]
        if count == 0:
            per_attr = [AttributeStats(count=0, mean=None, std=None)] * table.n_attrs
        elif count == 1:  # the value itself, so -0.0 keeps its sign
            values = members[:, 0].tolist()
            per_attr = [AttributeStats(1, v, 0.0) for v in values]
        else:
            means, stds = members.mean(axis=1).tolist(), members.std(axis=1, ddof=1).tolist()
            per_attr = [AttributeStats(count, m, d) for m, d in zip(means, stds)]
        stats.append(tuple(per_attr))
    return tuple(stats)


def correlation_rows(report: CorrelationReport):
    """CSV rows of the matrix with attribute names on both axes; undefined cells empty."""
    # ``csv`` writes a Python float as its ``repr`` and None as an empty cell.
    yield ["", *report.names]
    for name, values in zip(report.names, report.matrix.tolist()):
        yield [name, *(None if math.isnan(v) else v for v in values)]


def assignment_rows(assignments: np.ndarray, clusters: ClusterModel | None = None):
    """CSV rows of the assignments; with clusters given, each row's cluster label too."""
    neurons = assignments["neuron"]
    header = ["row", "neuron", "distance", "clamped"]
    # ``csv`` writes each value's ``str``: Python floats keep the text to
    # Python's shortest round-trip ``repr``, not numpy's formatter, and numpy
    # bools would read ``True``. Converted as the rows are written, so no
    # column of Python objects is held.
    columns = [
        range(len(assignments)),
        neurons,
        map(float, assignments["distance"]),
        map(int, assignments["clamped"]),
    ]
    if clusters is not None:
        header.insert(2, "cluster")
        columns.insert(2, clusters.neuron_labels[neurons])
    yield header
    yield from zip(*columns)


def stats_rows(stats: Sequence[Sequence[AttributeStats]], names: Sequence[str]):
    """CSV rows of ``cluster_stats``' statistics (empty mean/std when absent)."""
    yield ["cluster", "attribute", "count", "mean", "std"]
    for c, per_attr in enumerate(stats):
        for name, st in zip(names, per_attr):
            yield [c, name, st.count, st.mean, st.std]  # ``csv`` writes None as an empty cell
