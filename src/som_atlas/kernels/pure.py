"""Pure-numpy training kernels; the reference the compiled C kernel mirrors.

Numerical lockstep contract: every floating-point operation here must happen
in the same order, with the same intermediate roundings, as in ``_kernel.c``.
That is why best-matching-unit distances are an axis-0 reduction over
(dim, n_neurons) rows, which adds dimensions left to right (one strict chain
per neuron), why the neighborhood factor is looked up by hop distance from
the axial ``coords`` in a per-step table built with libm ``exp``, and why the
update is three separately rounded elementwise steps. Change both files
together or not at all; ``tests/test_kernels.py`` pins bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np


# Rows per ``bmu`` chunk are chosen so that one (rows, neurons) scratch
# buffer holds at most this many float64 values (but always at least one row).
BMU_SCRATCH = 2**16


def bmu(weights: np.ndarray, X: np.ndarray, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Best matching units of the rows of ``X``: (intp indices, float64 distances).

    ``X`` is 2-D, one row per query. ``mask``, when given, is an ascending
    array of attribute indices; distances are computed over those dimensions
    only. Each neuron's squared distance starts from 0 and adds
    ``(w[:, j] - x[j])**2`` over the columns j in ascending order, the
    rounding chain of the training scan; ties break toward the lowest neuron
    index, and the distance is the square root of the winner's sum.

    Rows are scanned in chunks of ``max(1, BMU_SCRATCH // n_neurons)``, so the
    two (chunk, n_neurons) scratch buffers stay bounded however many rows
    there are.
    """
    n = weights.shape[0]
    rows = X.shape[0]
    cols = range(weights.shape[1]) if mask is None else mask
    wt = np.ascontiguousarray(weights.T)  # (dim, n_neurons): per-dimension rows
    chunk = max(1, min(BMU_SCRATCH // n, rows))
    acc = np.empty((chunk, n))
    buf = np.empty((chunk, n))
    idx = np.empty(rows, dtype=np.intp)
    dist = np.empty(rows)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        a, b = acc[: stop - start], buf[: stop - start]
        a.fill(0.0)
        for j in cols:
            np.subtract(wt[j], X[start:stop, j, None], out=b)
            b *= b
            a += b
        np.argmin(a, axis=1, out=idx[start:stop])
        np.sqrt(a[np.arange(stop - start), idx[start:stop]], out=dist[start:stop])
    return idx, dist


def max_hops(coords: np.ndarray) -> int:
    """Largest hop distance between two of the axial ``coords``; sizes theta."""
    q, r = coords.astype(np.int64)
    return int(max(np.ptp(q), np.ptp(r), np.ptp(q + r)))


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
    being a Gaussian of radius ``sigmas[s]`` in the hop distance
    ``max(|dq|, |dr|, |dq + dr|)`` between their axial ``coords`` (2, n). For
    s >= ``competitive_start`` only u itself moves (theta collapses to a
    Kronecker delta) and ``sigmas[s]`` is ignored. A radius so small that
    ``2 * sigma**2`` underflows to zero also gives the Kronecker delta, the
    Gaussian's limit.
    """
    n_neurons, dim = weights.shape
    max_dist = max_hops(coords)
    q, r = coords.astype(np.intp)
    cube = np.stack([q, r, q + r])  # hop distance: largest |difference| of a row

    wt = np.ascontiguousarray(weights.T)  # (dim, n_neurons): per-dimension rows
    buf = np.empty_like(wt)
    acc = np.empty(n_neurons)
    coef = np.empty(n_neurons)
    theta = np.empty(max_dist + 1)
    tdim = np.empty(dim)

    for s in range(order.shape[0]):
        x = data[order[s]]

        # Competition: the axis-0 reduction adds dimension rows left to right,
        # so each neuron sees the identical rounding chain as the C scan.
        np.subtract(wt, x[:, None], out=buf)
        buf *= buf
        np.add.reduce(buf, axis=0, out=acc)
        u = int(np.argmin(acc))

        alpha = float(alphas[s])
        if s < competitive_start:
            sigma = float(sigmas[s])
            denom = 2.0 * sigma * sigma
            if denom == 0.0:
                # 2 sigma^2 underflowed: the Gaussian's limit is a Kronecker delta.
                theta[:] = 0.0
                theta[0] = 1.0
            else:
                theta[:] = [math.exp(-(d * d) / denom) for d in range(max_dist + 1)]
            np.take(theta, np.abs(cube - cube[:, u, None]).max(axis=0), out=coef)
            coef *= alpha
            np.subtract(x[:, None], wt, out=buf)
            buf *= coef
            wt += buf
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
