"""Kernel backend selection.

The hot training loop exists twice: a small C file (``_kernel.c``) and a
numpy reference (``pure``) that produce bit-identical results. Training
calls it once per epoch with the map's ``HexGrid``, so no argument grows
with the epoch count or the square of the map. ``setup.py`` compiles the C
file, when a compiler is available, into a shared library next to this
module; ``load`` binds such a library through ``ctypes``. The library is
used if it loads, ``pure`` otherwise; nothing is compiled at import.
``BACKEND`` names the choice, and ``pure`` stays importable as the
reference either way. ``nearest``, the batched nearest-neuron search on the
training scan behind ``bmu`` and k-means, and ``theta_table`` have one
implementation, in ``pure``. ``nearest`` screens rows with a matrix product
first; the screen is a rounding bound, never a value it returns.

Both loops accept exactly the arguments ``pure.check_arguments`` accepts,
and both read their hop distances from the one ``pure.hop_table`` of the
grid, built once per call: the winner's hop row is a slice of it.
"""

import ctypes
import os
import sysconfig
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from . import pure
from .pure import bmu, check_arguments, hop_table, nearest, theta_table

_LIBRARY = Path(__file__).with_name("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))

# weights, data, order, alphas, sigmas: the C loop's array arguments.
_ARRAYS = (
    ndpointer(np.float64, 2, flags="C_CONTIGUOUS,WRITEABLE"),
    ndpointer(np.float64, 2, flags="C_CONTIGUOUS"),
    ndpointer(np.int64, 1, flags="C_CONTIGUOUS"),
    ndpointer(np.float64, 1, flags="C_CONTIGUOUS"),
    ndpointer(np.float64, 1, flags="C_CONTIGUOUS"),
)


def load(path):
    """Bind the compiled kernel at ``path`` as a ``pure.train_loop`` twin.

    Raises ``OSError`` when the library cannot be loaded.
    """
    c_loop = ctypes.CDLL(os.fspath(path)).train_loop
    c_loop.restype = None
    c_loop.argtypes = [*_ARRAYS, ndpointer(np.int64, 3, flags="C_CONTIGUOUS"),
                       ndpointer(np.float64, 1), *[ctypes.c_int64] * 6]

    def train_loop(weights, data, order, grid, alphas, sigmas, competitive_start):
        for kind, array in zip(_ARRAYS, (weights, data, order, alphas, sigmas)):
            kind.from_param(array)  # dtype, ndim and layout, before shapes are read
        # Clamped, because ctypes truncates integers to 64 bits silently.
        competitive_start = check_arguments(
            weights, data, order, grid, alphas, sigmas, competitive_start
        )
        hops = hop_table(grid.width, grid.height)
        max_dist = int(hops.max())  # bounds every hop the loop reads, so theta is never overrun
        c_loop(weights, data, order, alphas, sigmas, hops, np.empty(max_dist + 1), max_dist,
               grid.width, grid.height, weights.shape[1], order.shape[0], competitive_start)
        return weights

    train_loop.__doc__ = pure.train_loop.__doc__
    return train_loop


try:
    train_loop = load(_LIBRARY)
    BACKEND = "native"
except OSError:
    train_loop = pure.train_loop
    BACKEND = "python"

__all__ = ["BACKEND", "bmu", "load", "nearest", "theta_table", "train_loop"]
