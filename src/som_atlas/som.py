"""Kohonen map training: codebook, competition, neighborhood, epoch loop.

Training presents every table row to the map once per epoch. Each
presentation finds the best matching unit by Euclidean distance, then pulls
every neuron toward the row by ``theta(u, v, s) * alpha(s)``, where theta is
a Gaussian over hex-lattice distance whose radius shrinks linearly to zero
across the epochs before the last one. The final epoch is purely competitive:
only the winning neuron moves. Given the same table, grid and schedule the
result is bit-identical between runs and between kernel backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .hexgrid import HexGrid, axial_coords
from .ingest import AttributeSpec, NormalizedTable

DEFAULT_EPOCHS = 200
DEFAULT_SEED = 42


@dataclass(frozen=True)
class TrainingSchedule:
    """Epoch count, learning-rate ramp, neighborhood radius and RNG seed.

    ``sigma0`` is the starting neighborhood radius in lattice-hop units;
    ``None`` means "half the larger grid side", resolved against the grid at
    training time. ``alpha`` decays linearly from ``alpha0`` at the first
    presentation to ``alpha_end`` at the last.
    """

    epochs: int = DEFAULT_EPOCHS
    alpha0: float = 0.5
    alpha_end: float = 0.01
    sigma0: float | None = None
    shuffle: bool = True
    seed: int = DEFAULT_SEED

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
    """A trained (or freshly initialized) codebook plus its provenance."""

    grid: HexGrid
    dim: int
    weights: np.ndarray
    schema: tuple[AttributeSpec, ...] | None = None
    schedule: TrainingSchedule | None = None
    epochs_run: int = 0

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (self.grid.n_nodes, self.dim):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"{self.grid.n_nodes} neurons x {self.dim} attributes"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if w.size and not (w.min() >= 0.0 and w.max() <= 1.0):
            raise ValueError("codebook weights must be finite and lie in [0, 1]")
        if self.schema is not None:
            self.schema = tuple(self.schema)
            if len(self.schema) != self.dim:
                raise ValueError("schema length does not match dim")
        self.weights = w

    @property
    def n_neurons(self) -> int:
        return self.grid.n_nodes


def init_codebook(grid: HexGrid, dim: int, seed: int) -> SomModel:
    """Random codebook, every weight i.i.d. uniform on [0, 1).

    The generator is numpy's PCG64 so identical (grid, dim, seed) give a
    bit-identical codebook on any platform.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    weights = rng.random((grid.n_nodes, dim))
    return SomModel(grid=grid, dim=dim, weights=weights)


def find_bmu(model: SomModel, x, mask=None) -> tuple[int, float]:
    """Best matching unit for ``x``: (neuron index, Euclidean distance).

    ``mask`` restricts the distance to a subset of attribute indices; ties
    break toward the lowest neuron index.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"input has shape {x.shape}, model expects ({model.dim},)")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.intp)
        if mask.size == 0:
            raise ValueError("mask must name at least one attribute")
        if len(np.unique(mask)) != mask.size:
            raise ValueError("mask contains duplicate attribute indices")
        if mask.min() < 0 or mask.max() >= model.dim:
            raise ValueError("mask index out of range")
        mask = np.sort(mask)
    idx, dist = kernels.bmu(model.weights, x[None, :], mask)
    return int(idx[0]), float(dist[0])


def learning_rate(s: int, schedule: TrainingSchedule, n_rows: int) -> float:
    """Learning rate at presentation ``s``; linear from alpha0 to alpha_end."""
    # alpha does not depend on the radius, which only a grid can resolve.
    schedule = replace(schedule, sigma0=schedule.sigma0 or 1.0)
    return float(_rates(schedule, n_rows, s, s + 1)[0][0])


def neighborhood(
    grid: HexGrid, u: int, v: int, s: int, schedule: TrainingSchedule, n_rows: int
) -> float:
    """Cooperation factor theta(u, v, s) in [0, 1].

    Gaussian in hex distance with radius sigma(s) shrinking linearly to zero
    at the start of the final epoch; within the final epoch, or when
    ``2 * sigma**2`` underflows to zero, it degenerates to 1 for v == u and 0
    otherwise, as in the training kernels.
    """
    sigma = float(_rates(schedule.resolved(grid), n_rows, s, s + 1)[1][0])
    d = grid.distance(u, v)
    return float(kernels.theta_table(sigma, d)[d])


def update_step(
    model: SomModel, x, s: int, schedule: TrainingSchedule, n_rows: int
) -> SomModel:
    """Apply one presentation of ``x`` at iteration ``s``, mutating the codebook.

    Every neuron v moves by ``theta(u, v, s) * alpha(s) * (x - w_v)`` with u
    the best matching unit, so the winner receives the largest pull and a
    unit coefficient copies ``x`` exactly.
    """
    # Copy: the kernel mutates the codebook while reading x, so the two must
    # never alias (e.g. when a caller passes a codebook row as the input).
    x = np.array(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"input has shape {x.shape}, model expects ({model.dim},)")
    alphas, sigmas, cooperative = _rates(schedule.resolved(model.grid), n_rows, s, s + 1)
    kernels.train_loop(
        model.weights,
        x[None, :],
        np.zeros(1, dtype=np.int64),
        axial_coords(model.grid),
        alphas,
        sigmas,
        cooperative,
    )
    return model


def train(
    table: NormalizedTable,
    grid: HexGrid,
    schedule: TrainingSchedule,
    initial_weights: np.ndarray | None = None,
) -> SomModel:
    """Train a map on a normalized table.

    Rows are presented in a per-epoch shuffled order derived from the
    schedule seed (file order when ``shuffle`` is off). ``initial_weights``
    overrides the seeded random codebook; tests use it to start from
    prepared states.
    """
    if table.n_rows == 0:
        raise ValueError("cannot train on an empty table")
    schedule = schedule.resolved(grid)
    dim = table.n_attrs
    n_rows = table.n_rows

    if initial_weights is None:
        weights = init_codebook(grid, dim, schedule.seed).weights
    else:
        # Copied, because the kernel mutates it, then checked as a codebook.
        weights = np.array(initial_weights, dtype=np.float64)
        weights = SomModel(grid=grid, dim=dim, weights=weights).weights

    coords = axial_coords(grid)
    # Spawn key 1 keeps the shuffle stream independent of the codebook stream.
    rng = np.random.default_rng(np.random.SeedSequence(schedule.seed, spawn_key=(1,)))
    for start in range(0, schedule.epochs * n_rows, n_rows):
        order = rng.permutation(n_rows) if schedule.shuffle else np.arange(n_rows)
        alphas, sigmas, cooperative = _rates(schedule, n_rows, start, start + n_rows)
        kernels.train_loop(weights, table.rows, order.astype(np.int64, copy=False), coords,
                           alphas, sigmas, cooperative)
    return SomModel(
        grid=grid,
        dim=dim,
        weights=weights,
        schema=table.schema,
        schedule=schedule,
        epochs_run=schedule.epochs,
    )


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
