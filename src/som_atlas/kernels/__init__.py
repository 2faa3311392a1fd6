"""Kernel backend selection.

The hot training loop exists twice: a small C file (``_kernel.c``) and a
numpy reference (``pure``) that produce bit-identical results. Training
calls it once per epoch with the map's axial lattice coordinates, so no
argument grows with the epoch count or the square of the map. ``setup.py``
compiles the C file, when a compiler is available, into a shared library
next to this module; ``load`` binds such a library through ``ctypes``. The
library is used if it loads, ``pure`` otherwise; nothing is compiled at
import. ``BACKEND`` names the choice, and ``pure`` stays importable as the
reference either way. ``bmu``, the batched best-matching-unit search on the
training scan, and ``theta_table`` have one implementation, in ``pure``.
"""

import ctypes
import os
import sysconfig
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from . import pure
from .pure import bmu, max_hops, theta_table

_LIBRARY = Path(__file__).with_name("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))

# weights, data, order, coords, alphas, sigmas: the C loop's array arguments.
_ARRAYS = (
    ndpointer(np.float64, 2, flags="C_CONTIGUOUS,WRITEABLE"),
    ndpointer(np.float64, 2, flags="C_CONTIGUOUS"),
    ndpointer(np.int64, 1, flags="C_CONTIGUOUS"),
    ndpointer(np.int32, 2, flags="C_CONTIGUOUS"),
    ndpointer(np.float64, 1, flags="C_CONTIGUOUS"),
    ndpointer(np.float64, 1, flags="C_CONTIGUOUS"),
)


def load(path):
    """Bind the compiled kernel at ``path`` as a ``pure.train_loop`` twin.

    Raises ``OSError`` when the library cannot be loaded.
    """
    c_loop = ctypes.CDLL(os.fspath(path)).train_loop
    c_loop.restype = None
    c_loop.argtypes = [*_ARRAYS, ndpointer(np.float64, 1), *[ctypes.c_int64] * 5]

    def train_loop(weights, data, order, coords, alphas, sigmas, competitive_start):
        for kind, array in zip(_ARRAYS, (weights, data, order, coords, alphas, sigmas)):
            kind.from_param(array)  # dtype, ndim and layout, before shapes are read
        n_neurons, dim = weights.shape
        total = order.shape[0]
        if (
            data.shape[1] != dim
            or coords.shape != (2, n_neurons)
            or alphas.shape != (total,)
            or sigmas.shape != (total,)
        ):
            raise ValueError("train_loop argument shapes disagree")
        if total and not (0 <= order.min() and order.max() < data.shape[0]):
            raise IndexError(f"order holds a row index outside [0, {data.shape[0]})")
        # Bounds every hop value the C loop computes, so theta is never overrun.
        max_dist = max_hops(coords)
        # ctypes truncates integers to 64 bits silently; clamping keeps the meaning.
        competitive_start = min(max(int(competitive_start), 0), total)
        c_loop(weights, data, order, coords, alphas, sigmas, np.empty(max_dist + 1),
               max_dist, n_neurons, dim, total, competitive_start)
        return weights

    train_loop.__doc__ = pure.train_loop.__doc__
    return train_loop


try:
    train_loop = load(_LIBRARY)
    BACKEND = "native"
except OSError:
    train_loop = pure.train_loop
    BACKEND = "python"

__all__ = ["BACKEND", "bmu", "load", "theta_table", "train_loop"]
