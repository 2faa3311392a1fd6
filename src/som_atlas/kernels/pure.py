"""Pure-numpy training kernels; the reference the compiled C kernel mirrors.

Numerical lockstep contract: every floating-point operation here must happen
in the same order, with the same intermediate roundings, as in ``_kernel.c``.
Each formula is written once: ``_sq_distances``, the distance scan of both
``train_loop`` and ``nearest``, adds dimensions left to right (one strict
chain per neuron); a step's winner is ``np.argmin``'s, the first NaN sum
if any sum is NaN, else the lowest index of the smallest sum;
``theta_table``, the Gaussian theta that ``train_loop`` scales by each
step's alpha, is built with libm ``exp`` per hop distance; the
update is three separately rounded elementwise steps. The C loop scans the
same (dim, n) layout as ``_sq_distances``: it transposes the codebook once
per call and adds each dimension's row to every neuron's sum in turn, over
blocks of 32 neurons whose sums stay in registers, its rows padded to whole
blocks with neurons that no result reads; its update runs over the same
blocks. Change both files together or not at all; ``tests/test_kernels.py``
pins bit-identical outputs. Both loops take their hop distances from
``check_arguments``: ``hexgrid.hop_table``, built once per grid size; a
winner's hop row is a slice of it.

``train_loop`` moves the work that does not depend on the step out of it,
without changing a rounding:
- theta, times alpha, is built for a block of cooperative steps at once: the
  same libm ``exp`` per entry and the same product ``theta[h] * alpha`` the C
  loop takes per hop distance. A block holds at most ``THETA_BLOCK`` values.
- The scan leaves ``w - x`` in its buffer, and the update reuses it:
  ``w - coef (w - x)``, the C loop's update, in the same three roundings.

``nearest`` first screens rows with one BLAS matrix product, whose summation
order is not ours. The screen is only a bound: it decides which rows may skip
the full scan, never a returned index or sum, which ``_sq_distances``
computes for every row.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.ctypeslib import ndpointer

from ..hexgrid import HexGrid, hop_row, hop_table


# ``nearest`` screens rows in chunks whose ``[x, 1]`` rows and screen values
# together hold at most this many float64 values, and scans undecided rows in
# chunks whose two scratch buffers together do (but always at least one row).
# 2**16 values are 512 KiB, a block that stays in a 2 MiB L2 cache beside the
# screen matrix it is multiplied with. In-process medians of 9 on a 2-vCPU
# Xeon (AVX-512, 2 MiB L2 a core), 8 attributes, for 2**15 / 2**16 / 2**17:
# 20k rows x 1600 neurons 68.3 / 53.5 / 66.4 ms; 500 x 4900 5.7 / 4.9 / 5.7 ms;
# 5000 x 400 5.5 / 5.0 / 7.5 ms; k-means of 1600 neurons at k = 6 316 / 311 /
# 319 ms.
BMU_SCRATCH = 2**16

# ``train_loop`` builds theta, times alpha, for blocks of cooperative steps
# holding at most this many values (but always at least one step).
THETA_BLOCK = 2**12

# weights, data, order, alphas, sigmas, as ctypes passes them to the C loop;
# ``check_arguments`` holds both loops' arguments to them.
_VECTOR = ndpointer(np.float64, 1, flags="C_CONTIGUOUS")
ARRAYS = (ndpointer(np.float64, 2, flags="C_CONTIGUOUS,WRITEABLE"),
          ndpointer(np.float64, 2, flags="C_CONTIGUOUS"),
          ndpointer(np.int64, 1, flags="C_CONTIGUOUS"), _VECTOR, _VECTOR)


def _sq_distances(w3, x3, buf, out, sq=None):
    """Squared distances of rows ``x3`` (dim, rows, 1) to neurons ``w3`` (dim, 1, n).

    Writes ``out`` (rows, n): ``buf`` (dim, rows, n) receives the differences
    ``w3 - x3`` and ``sq`` (``buf`` itself by default) their squares, whose
    axis-0 reduction adds the (rows, n) slabs of dimensions in order. With a
    separate ``sq``, ``buf`` keeps the differences for the caller. With
    ``w3`` of shape (dim, rows, 1) it gives each row's distance to its own
    neuron.
    """
    np.subtract(w3, x3, out=buf)
    sq = buf if sq is None else sq
    np.multiply(buf, buf, out=sq)
    if w3.shape[2] == 1:
        # numpy sums a lone neuron's dimensions pairwise, which rounds
        # differently; accumulate stays sequential.
        out[:] = np.add.accumulate(sq, axis=0)[-1]
    else:
        np.add.reduce(sq, axis=0, out=out)
    return out


def _screen_margins(wt: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The screen matrix ``[-2 w^T; |w|^2]`` (dim + 1, n) and each row's margin.

    Screen value s_j = |w_j|^2 - 2 x.w_j is the exact chain's sum D_j minus
    the row's constant |x|^2. With u = 2**-53, M = max |w_j|, R = M + |x|
    and Higham's gamma(k) = k u / (1 - k u), which bounds k roundings:
    - s_j, a length-(dim + 1) product of rows holding the rounded |w_j|^2,
      is within gamma(2 dim + 1) R^2 of its exact value in any summation
      order, FMA or not (Higham, Accuracy and Stability, 3.1 and 3.5).
    - The chain's sum of dim rounded squares of rounded differences is within
      gamma(dim + 2) D_j <= gamma(dim + 2) R^2 of D_j.
    So when s_2 - s_1 (runner-up minus winner) exceeds
    2 (gamma(2 dim + 1) + gamma(dim + 2)) R^2 the screen's winner has the
    smallest chain sum, strictly, so the full scan would return it too. The
    margin 4 gamma(2 dim + 5) R^2 exceeds that by about (2 dim + 14) u R^2,
    which covers the rounding of M, |x|, R^2, the margin and the gap. Every
    product that underflows adds at most 2**-1075 more: under
    (3 dim + 1) 2**-1074 over both screen values and both chains, below the
    8 dim 2**-1074 added. (2 R)^2 overflows, and the margin is inf, before
    any value here can; a NaN makes it NaN. A gap must exceed the margin, so
    a row with a tie, an overflow, an inf or a NaN is never decided.
    """
    dim, n = wt.shape
    ku = (2 * dim + 5) * 2.0**-53  # gamma(2 dim + 5) = ku / (1 - ku)
    screen = np.empty((dim + 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(wt, -2.0, out=screen[:dim])
        norms = np.einsum("ij,ij->j", wt, wt, out=screen[dim])
        reach = np.sqrt(norms.max()) + np.sqrt(np.einsum("ij,ij->i", x, x))
        margin = ku / (1.0 - ku) * np.square(2.0 * reach) + 8.0 * dim * 2.0**-1074
    return screen, margin


def nearest(weights: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neurons of the rows of ``X``: (intp indices, float64 squared sums).

    ``X`` is 2-D, one row per query, with the columns of ``weights``; a search
    over some attributes only passes both sliced to them. Ties break toward
    the lowest neuron index; the sum is the winner's, from the training scan.

    One matrix product of the rows ``[x, 1]`` with ``_screen_margins``'
    matrix screens each chunk of ``max(1, BMU_SCRATCH // (dim + 1 + n))``
    rows. A row whose runner-up trails the screen's winner by more than its
    margin is decided: the winner is its nearest neuron. Every other row goes
    through the full training scan, ``max(1, BMU_SCRATCH // ((dim + 1) * n))``
    rows at a time. Then the training scan of each row's winner alone gives
    its sum. The screen is a bound, never a value: every returned index and
    sum is the full scan's, bit for bit. Both inputs are cast to float64 at
    entry, the rounding the margin bounds. The passes read views of
    ``weights``, and the full scan's buffer exists only once a row is
    undecided; the final scan of the winners holds two arrays like ``X``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n, dim = weights.shape
    rows = X.shape[0]
    wt = weights.T
    w3, x3 = wt[:, None, :], X.T[:, :, None]
    screen, margin = _screen_margins(wt, X)
    chunk = max(1, min(BMU_SCRATCH // (dim + 1 + n), rows))
    scan = max(1, BMU_SCRATCH // ((dim + 1) * n))
    xs = np.empty((chunk, dim + 1))
    xs[:, dim] = 1.0
    a = np.empty((chunk, n))
    lane = np.arange(chunk)
    buf = None
    idx = np.empty(rows, dtype=np.intp)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        k = stop - start
        xs[:k, :dim] = X[start:stop]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow, inf - inf: undecided
            s = np.matmul(xs[:k], screen, out=a[:k])
            u = s.argmin(axis=1, out=idx[start:stop])
            best = s[lane[:k], u]
            s[lane[:k], u] = np.inf
            undecided = np.flatnonzero(~(s.min(axis=1) - best > margin[start:stop]))
        for i in range(0, undecided.size, scan):
            buf = np.empty((dim, min(scan, chunk), n)) if buf is None else buf
            sub = undecided[i : i + scan] + start
            full = _sq_distances(w3, x3[:, sub], buf[:, : sub.size], a[: sub.size])
            idx[sub] = full.argmin(axis=1)
    # Each row's sum, once: the training scan of its winner alone, the same
    # chain the full scan adds for that neuron.
    dist = np.empty(rows)
    pair = weights[idx].T[:, :, None]
    _sq_distances(pair, x3, pair, dist[:, None])
    return idx, dist


def bmu(weights: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best matching units of the rows of ``X``: ``nearest``'s indices and the roots of its sums."""
    idx, dist = nearest(weights, X)
    return idx, np.sqrt(dist, out=dist)


def check_arguments(weights, data, order, grid, alphas, sigmas, competitive_start):
    """Check ``train_loop``'s arguments for both backends, before a weight is read.

    Returns ``competitive_start`` clamped to [0, len(order)], the grid's
    ``hexgrid.hop_table`` and its largest entry. ``grid`` must have one node
    per row of ``weights``. Raises ``TypeError`` (ctypes' message) for an
    array ``ARRAYS`` refuses, ``ValueError`` when shapes or node counts
    disagree and ``IndexError`` when ``order`` leaves the data.
    """
    for kind, array in zip(ARRAYS, (weights, data, order, alphas, sigmas)):
        kind.from_param(array)
    n_neurons, dim = weights.shape
    total = order.shape[0]
    if data.shape[1] != dim or alphas.shape != (total,) or sigmas.shape != (total,):
        raise ValueError("train_loop argument shapes disagree")
    if grid.n_nodes != n_neurons:
        raise ValueError(f"a {grid.width}x{grid.height} grid has no {n_neurons} neurons")
    if total and not (0 <= order.min() and order.max() < data.shape[0]):
        raise IndexError(f"order holds a row index outside [0, {data.shape[0]})")
    hops = hop_table(grid.width, grid.height)
    return min(max(int(competitive_start), 0), total), hops, int(hops.max())


def theta_table(sigmas: np.ndarray, max_dist: int) -> np.ndarray:
    """Gaussians ``exp(-d**2 / (2 sigma**2))``, one row per sigma, for d = 0 .. max_dist.

    Each entry is one libm ``exp`` of ``float(-(d * d)) / (2.0 * sigma * sigma)``.
    When ``2 * sigma**2`` underflows to zero the row is the Gaussian's limit,
    the Kronecker delta.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    denom = (2.0 * sigmas * sigmas)[:, None]
    # A subnormal denominator overflows the quotient to -inf, whose exp is 0;
    # the rows of a zero denominator are replaced below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        args = -np.square(np.arange(max_dist + 1, dtype=np.float64)) / denom
    theta = np.fromiter(map(math.exp, args.ravel().tolist()), np.float64, args.size)
    theta = theta.reshape(args.shape)
    delta = denom[:, 0] == 0.0
    theta[delta] = 0.0
    theta[delta, 0] = 1.0
    return theta


def train_loop(
    weights: np.ndarray,
    data: np.ndarray,
    order: np.ndarray,
    grid: HexGrid,
    alphas: np.ndarray,
    sigmas: np.ndarray,
    competitive_start: int,
) -> np.ndarray:
    """Run a sequence of presentations, mutating ``weights`` in place.

    One step s: present row ``order[s]``, find its best matching unit u, then
    pull every neuron v toward the row by ``theta(u, v, s) * alphas[s]``, theta
    being ``theta_table(sigmas[s], ...)`` at the hop distance between u and v
    on ``grid`` (``hexgrid.hop_table``), which has one node per neuron (see
    ``check_arguments``). For s >= ``competitive_start`` (clamped to the
    steps) only u itself moves (theta collapses to a Kronecker delta) and
    ``sigmas[s]`` is ignored. Overflow and invalid operations (squares of
    huge values, ``inf - inf``, ``0 * inf``) warn nowhere, as in the C loop.
    """
    competitive_start, hops, max_dist = check_arguments(
        weights, data, order, grid, alphas, sigmas, competitive_start
    )
    n_neurons, dim = weights.shape
    total = order.shape[0]
    width, height = grid.width, grid.height
    # Steps per theta block: bounds the table however long the log is.
    block = max(1, THETA_BLOCK // (max_dist + 1))

    wt = np.ascontiguousarray(weights.T)  # (dim, n_neurons): per-dimension rows
    w3 = wt[:, None, :]
    x3 = np.empty((dim, 1, 1))
    x = x3[:, 0, 0]
    diff = np.empty((dim, 1, n_neurons))  # w - x, kept from the scan for the update
    sq = np.empty((dim, 1, n_neurons))
    acc = np.empty((1, n_neurons))
    coef = np.empty((height, width))
    tdim = np.empty(dim)

    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, block):
            stop = min(start + block, total)
            rows = order[start:stop].tolist()
            rates = alphas[start:stop].tolist()
            cooperative = min(max(competitive_start - start, 0), stop - start)
            # theta * alpha, the product the C loop takes per hop distance.
            thetas = theta_table(sigmas[start : start + cooperative], max_dist)
            thetas *= alphas[start : start + cooperative, None]
            for i, (row, alpha) in enumerate(zip(rows, rates)):
                x[:] = data[row]
                u = int(_sq_distances(w3, x3, diff, acc, sq).argmin())
                if i < cooperative:
                    thetas[i].take(hop_row(hops, *divmod(u, width)), out=coef, mode="clip")
                    # w - coef (w - x), the C loop's update.
                    diff *= coef.reshape(n_neurons)
                    w3 -= diff
                else:
                    np.multiply(diff[:, 0, u], alpha, out=tdim)
                    wt[:, u] -= tdim
                if alpha == 1.0:
                    # Unit coefficient must reproduce the input bit-exactly.
                    wt[:, u] = x

    weights[:, :] = wt.T
    return weights
