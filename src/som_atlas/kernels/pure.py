"""Pure-numpy training kernels; the reference the compiled C kernel mirrors.

Numerical lockstep contract: every floating-point operation here must happen
in the same order, with the same intermediate roundings, as in ``_kernel.c``.
That is why best-matching-unit distances accumulate dimension by dimension
(one strict left-to-right chain per neuron), why the neighborhood factor is
looked up from a per-step table built with libm ``exp``, and why the update
is three separately rounded elementwise steps. Change both files together or
not at all; ``tests/test_kernels.py`` pins bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np


def bmu(weights: np.ndarray, x: np.ndarray, mask=None) -> tuple[int, float]:
    """Best matching unit of ``x``: (linear index, Euclidean distance).

    ``mask``, when given, is an ascending array of attribute indices; the
    distance is computed over those dimensions only. Ties break toward the
    lowest linear index.
    """
    n = weights.shape[0]
    acc = np.zeros(n)
    buf = np.empty(n)
    cols = range(weights.shape[1]) if mask is None else mask
    for j in cols:
        np.subtract(weights[:, j], x[j], out=buf)
        buf *= buf
        acc += buf
    u = int(np.argmin(acc))
    return u, math.sqrt(float(acc[u]))


def train_loop(
    weights: np.ndarray,
    data: np.ndarray,
    order: np.ndarray,
    grid_dist: np.ndarray,
    alphas: np.ndarray,
    sigmas: np.ndarray,
    competitive_start: int,
) -> np.ndarray:
    """Run the full presentation loop, mutating ``weights`` in place.

    One step s: present row ``order[s]``, find its best matching unit u, then
    pull every neuron v toward the row by ``theta(u, v, s) * alphas[s]``. For
    s >= ``competitive_start`` only u itself moves (theta collapses to a
    Kronecker delta). ``sigmas[s]`` is the neighborhood radius for the
    cooperative steps; entries past ``competitive_start`` are ignored. A
    radius so small that ``2 * sigma**2`` underflows to zero also gives the
    Kronecker delta, the Gaussian's limit.
    """
    n_neurons, dim = weights.shape
    max_dist = int(grid_dist.max())

    wt = np.ascontiguousarray(weights.T)  # (dim, n_neurons): per-dimension rows
    acc = np.empty(n_neurons)
    dbuf = np.empty(n_neurons)
    coef = np.empty(n_neurons)
    theta = np.empty(max_dist + 1)
    tdim = np.empty(dim)

    for s in range(order.shape[0]):
        x = data[order[s]]

        # Competition: squared distances accumulated per dimension so each
        # neuron sees the identical rounding chain as the C scan.
        acc[:] = 0.0
        for j in range(dim):
            np.subtract(wt[j], x[j], out=dbuf)
            dbuf *= dbuf
            acc += dbuf
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
                for d in range(max_dist + 1):
                    theta[d] = math.exp(-(d * d) / denom)
            np.take(theta, grid_dist[u], out=coef)
            coef *= alpha
            for j in range(dim):
                np.subtract(x[j], wt[j], out=dbuf)
                dbuf *= coef
                wt[j] += dbuf
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
