"""Pure-numpy training kernels; the reference the compiled C kernel mirrors.

Numerical lockstep contract: every floating-point operation here must happen
in the same order, with the same intermediate roundings, as in ``_kernel.c``.
Each formula is written once: ``_sq_distances``, the distance scan of both
``train_loop`` and ``bmu``, adds dimensions left to right (one strict chain
per neuron); ``theta_table``, the neighborhood of both ``train_loop`` and
``som.neighborhood``, is built with libm ``exp`` per hop distance; the update
is three separately rounded elementwise steps. Change both files together or
not at all; ``tests/test_kernels.py`` pins bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np


# Rows per ``bmu`` chunk are chosen so that its two scratch buffers together
# hold at most this many float64 values (but always at least one row).
BMU_SCRATCH = 2**17


def _sq_distances(w3, x3, buf, out):
    """Squared distances of rows ``x3`` (dim, rows, 1) to neurons ``w3`` (dim, 1, n).

    Writes ``out`` (rows, n) through the scratch ``buf`` (dim, rows, n): the
    axis-0 reduction adds the (rows, n) slabs of dimensions in order.
    """
    np.subtract(w3, x3, out=buf)
    buf *= buf
    if w3.shape[2] == 1:
        # numpy sums a lone neuron's dimensions pairwise, which rounds
        # differently; accumulate stays sequential.
        out[:] = np.add.accumulate(buf, axis=0)[-1]
    else:
        np.add.reduce(buf, axis=0, out=out)
    return out


def bmu(weights: np.ndarray, X: np.ndarray, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Best matching units of the rows of ``X``: (intp indices, float64 distances).

    ``X`` is 2-D, one row per query. ``mask``, when given, is an ascending
    array of attribute indices; distances are computed over those dimensions
    only, with the training scan. Ties break toward the lowest neuron index;
    the distance is the square root of the winner's sum. Rows are scanned in
    chunks of ``max(1, BMU_SCRATCH // ((dim + 1) * n_neurons))``, so scratch
    stays bounded however many rows there are.
    """
    n = weights.shape[0]
    rows = X.shape[0]
    cols = slice(None) if mask is None else mask
    w3 = np.ascontiguousarray(weights.T[cols])[:, None, :]
    x3 = X[:, cols].T[:, :, None]
    dim = w3.shape[0]
    chunk = max(1, min(BMU_SCRATCH // ((dim + 1) * n), rows))
    buf = np.empty((dim, chunk, n))
    acc = np.empty((chunk, n))
    idx = np.empty(rows, dtype=np.intp)
    dist = np.empty(rows)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        a = _sq_distances(w3, x3[:, start:stop], buf[:, : stop - start], acc[: stop - start])
        a.argmin(axis=1, out=idx[start:stop])
        np.minimum.reduce(a, axis=1, out=dist[start:stop])  # the winner's sum
    return idx, np.sqrt(dist, out=dist)


def max_hops(coords: np.ndarray) -> int:
    """Largest hop distance between two of the axial ``coords``; sizes theta."""
    q, r = coords.astype(np.int64)
    return int(max(np.ptp(q), np.ptp(r), np.ptp(q + r)))


def theta_table(sigma: float, max_dist: int) -> np.ndarray:
    """Gaussian ``exp(-d**2 / (2 sigma**2))`` for hop distances d = 0 .. max_dist.

    When ``2 * sigma**2`` underflows to zero it is the Gaussian's limit, the
    Kronecker delta.
    """
    denom = 2.0 * sigma * sigma
    if denom == 0.0:
        return np.array([1.0] + [0.0] * max_dist)
    return np.array([math.exp(-(d * d) / denom) for d in range(max_dist + 1)])


def train_loop(
    weights: np.ndarray,
    data: np.ndarray,
    order: np.ndarray,
    coords: np.ndarray,
    alphas: np.ndarray,
    sigmas: np.ndarray,
    competitive_start: int,
) -> np.ndarray:
    """Run a sequence of presentations, mutating ``weights`` in place.

    One step s: present row ``order[s]``, find its best matching unit u, then
    pull every neuron v toward the row by ``theta(u, v, s) * alphas[s]``, theta
    being ``theta_table(sigmas[s], ...)`` at the hop distance
    ``max(|dq|, |dr|, |dq + dr|)`` between their axial ``coords`` (2, n). For
    s >= ``competitive_start`` only u itself moves (theta collapses to a
    Kronecker delta) and ``sigmas[s]`` is ignored.
    """
    n_neurons, dim = weights.shape
    max_dist = max_hops(coords)
    q, r = coords.astype(np.intp)
    cube = np.stack([q, r, q + r])  # hop distance: largest |difference| of a row

    wt = np.ascontiguousarray(weights.T)  # (dim, n_neurons): per-dimension rows
    w3, x3 = wt[:, None, :], data.T[:, :, None]
    buf = np.empty((dim, 1, n_neurons))
    acc = np.empty((1, n_neurons))
    coef = np.empty(n_neurons)
    tdim = np.empty(dim)

    for s in range(order.shape[0]):
        row = int(order[s])
        x, x_col = data[row], x3[:, row : row + 1]
        u = int(_sq_distances(w3, x_col, buf, acc).argmin())
        alpha = float(alphas[s])
        if s < competitive_start:
            theta = theta_table(float(sigmas[s]), max_dist)
            np.take(theta, np.abs(cube - cube[:, u, None]).max(axis=0), out=coef)
            coef *= alpha
            np.subtract(x_col, w3, out=buf)
            buf *= coef
            w3 += buf
        else:
            col = wt[:, u]
            np.subtract(x, col, out=tdim)
            tdim *= alpha
            col += tdim
        if alpha == 1.0:
            # Unit coefficient must reproduce the input bit-exactly.
            wt[:, u] = x

    weights[:, :] = wt.T
    return weights
