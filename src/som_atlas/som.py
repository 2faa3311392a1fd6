"""Kohonen map training: codebook, competition, cooperation, epoch loop.

Training presents every table row to the map once per epoch. Each
presentation finds the best matching unit by Euclidean distance, then pulls
every neuron toward the row by ``theta(u, v, s) * alpha(s)``, where theta is
a Gaussian over hex-lattice distance whose radius shrinks linearly to zero
across the epochs before the last one. The final epoch is purely competitive:
only the winning neuron moves. Given the same table, grid and schedule the
result is bit-identical between runs and between kernel backends.

A ``SomModel`` is whole, as a model file stores it; a bare codebook is an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .hexgrid import HexGrid
from .ingest import AttributeSpec, NormalizedTable, require_unique_names


@dataclass(frozen=True)
class TrainingSchedule:
    """Epoch count, learning-rate ramp, Gaussian radius and RNG seed.

    ``sigma0`` is the starting radius of theta in lattice-hop units;
    ``None`` means "half the larger grid side", resolved against the grid at
    training time. ``alpha`` decays linearly from ``alpha0`` at the first
    presentation to ``alpha_end`` at the last.
    """

    epochs: int = 200
    alpha0: float = 0.5
    alpha_end: float = 0.01
    sigma0: float | None = None
    shuffle: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 < self.alpha0 <= 1.0):
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if not (0.0 < self.alpha_end <= self.alpha0):
            raise ValueError(
                f"alpha_end must be in (0, alpha0={self.alpha0}], got {self.alpha_end}"
            )
        if self.sigma0 is not None and not (0.0 < self.sigma0 < math.inf):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit an unsigned 64-bit integer")

    def resolved(self, grid: HexGrid) -> "TrainingSchedule":
        """Fill the grid-dependent sigma0 default."""
        if self.sigma0 is not None:
            return self
        return replace(self, sigma0=max(grid.width, grid.height) / 2.0)


@dataclass
class SomModel:
    """A codebook with its attribute schema and resolved training schedule:
    exactly what a model file holds."""

    grid: HexGrid
    weights: np.ndarray
    schema: tuple[AttributeSpec, ...]
    schedule: TrainingSchedule

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"weights shape {w.shape} is not {self.grid.n_nodes} neurons x attributes"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if w.size and not (w.min() >= 0.0 and w.max() <= 1.0):
            raise ValueError("codebook weights must be finite and lie in [0, 1]")
        self.schema = tuple(self.schema)
        if len(self.schema) != w.shape[1]:
            raise ValueError(f"schema has {len(self.schema)} attributes, weights {w.shape[1]}")
        require_unique_names([a.name for a in self.schema])
        if not isinstance(self.schedule, TrainingSchedule):
            raise TypeError(f"schedule must be a TrainingSchedule, got {self.schedule!r}")
        if self.schedule.sigma0 is None:
            raise ValueError("schedule sigma0 must be resolved against the grid")
        self.weights = w

    @property
    def dim(self) -> int:
        """Attributes per neuron: the codebook's column count."""
        return self.weights.shape[1]

    @property
    def n_neurons(self) -> int:
        return self.grid.n_nodes


def init_codebook(grid: HexGrid, dim: int, seed: int) -> np.ndarray:
    """Random ``(n_neurons, dim)`` codebook, every weight i.i.d. uniform on [0, 1).

    The generator is numpy's PCG64 so identical (grid, dim, seed) give a
    bit-identical codebook on any platform.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return rng.random((grid.n_nodes, dim))


def train(table: NormalizedTable, grid: HexGrid, schedule: TrainingSchedule) -> SomModel:
    """Train a map on a normalized table.

    Rows are presented in a per-epoch shuffled order derived from the
    schedule seed (file order when ``shuffle`` is off), one
    ``kernels.train_loop`` call per epoch on ``grid``, starting from
    ``init_codebook(grid, table.n_attrs, schedule.seed)``.
    """
    if table.n_rows == 0:
        raise ValueError("cannot train on an empty table")
    schedule = schedule.resolved(grid)
    n_rows = table.n_rows
    weights = init_codebook(grid, table.n_attrs, schedule.seed)

    # Spawn key 1 keeps the shuffle stream independent of the codebook stream.
    rng = np.random.default_rng(np.random.SeedSequence(schedule.seed, spawn_key=(1,)))
    for start in range(0, schedule.epochs * n_rows, n_rows):
        order = rng.permutation(n_rows) if schedule.shuffle else np.arange(n_rows)
        alphas, sigmas, cooperative = _rates(schedule, n_rows, start, start + n_rows)
        kernels.train_loop(weights, table.rows, order.astype(np.int64, copy=False), grid,
                           alphas, sigmas, cooperative)
    return SomModel(grid, weights, table.schema, schedule)


def quantization_error(model: SomModel, table: NormalizedTable) -> float:
    """Mean best-matching-unit distance over the table rows."""
    if table.n_rows == 0:
        raise ValueError("quantization error of an empty table is undefined")
    if table.n_attrs != model.dim:
        raise ValueError(f"table has {table.n_attrs} attributes, model expects {model.dim}")
    _, dist = kernels.bmu(model.weights, table.rows)
    # Left to right, as a per-row loop adds them: numpy's pairwise sum, and
    # from Python 3.12 the builtin ``sum``, round differently.
    return float(np.add.accumulate(dist)[-1]) / table.n_rows


def _rates(
    schedule: TrainingSchedule, n_rows: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(alphas, sigmas, cooperative) at global steps ``start .. stop - 1``.

    alpha is linear from alpha0 to alpha_end over all steps; sigma is linear
    from sigma0 to zero at the final epoch, which is purely competitive (sigma
    0); ``cooperative`` counts the range's steps before it.
    """
    lam = schedule.epochs * n_rows
    if not (0 <= start < stop <= lam):
        raise ValueError(f"iterations [{start}, {stop}) outside [0, {lam})")
    s = np.arange(start, stop, dtype=np.float64)
    # Constant schedules must stay exactly constant (lerp would wobble by an
    # ulp mid-ramp, e.g. 0.7 + 0.3 != 1.0).
    if lam == 1 or schedule.alpha_end == schedule.alpha0:
        alphas = np.full(s.size, schedule.alpha0)
    else:
        t = s / (lam - 1)
        alphas = schedule.alpha0 * (1.0 - t) + schedule.alpha_end * t
    competitive_start = (schedule.epochs - 1) * n_rows
    cooperative = min(max(competitive_start - start, 0), stop - start)
    sigmas = np.zeros(s.size)
    sigmas[:cooperative] = schedule.sigma0 * (1.0 - s[:cooperative] / competitive_start)
    return alphas, sigmas, cooperative
