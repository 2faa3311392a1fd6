"""Kernel backend selection.

The hot training loop exists twice: a small C file (``_kernel.c``) and a
numpy reference (``pure``) that produce bit-identical results. Training
calls it once per epoch with the map's ``HexGrid``, so no argument grows
with the epoch count or the square of the map. ``load`` binds a compiled
library through ``ctypes``. The import binds the library ``build``
compiles from ``_kernel.c`` into the user cache, ``$XDG_CACHE_HOME/som-atlas``
(``~/.cache/som-atlas`` by default): the first import compiles it and every
later one reuses it. It selects ``pure`` when that fails: no compiler, a
compile error or timeout, or a cache directory that cannot be written.

The cached library is named by the SHA-256 of the source and the compile
command, so an edited ``_kernel.c`` is compiled anew, never bound stale.
Nothing is printed either way. ``BACKEND`` names the choice, ``LIBRARY``
the bound library's path (``None`` for ``pure``), and ``pure`` stays
importable as the reference either way. ``nearest``, the batched
nearest-neuron search on the training scan behind ``bmu`` and k-means, has
one implementation, in ``pure``. ``nearest`` and ``bmu`` take a codebook
and rows of the same columns, nothing else; a search over some attributes
passes both sliced to them. ``nearest`` screens rows with a matrix product
first; the screen is a rounding bound, never a value it returns.

Both loops accept exactly the arguments ``pure.check_arguments`` accepts
and read their hop distances from the one ``hexgrid.hop_table`` it returns,
cached per grid size: the winner's hop row is a slice of it.
Both work in the (dim, n) layout of ``pure._sq_distances`` and take
``np.argmin``'s winner: the first NaN sum if any sum is NaN, else the lowest
index of the smallest sum. The C loop scans and updates whole blocks of
``block_neurons`` neurons held in registers across the dimensions; a block
holding a subnormal coefficient takes a second update loop, which skips the
multiplies that cannot move a weight and leaves the same bits. The wrapper
from ``load`` allocates the C loop's scratch per call (theta, the transposed
codebook, 64-byte aligned, and two per-neuron rows, all padded to whole
blocks: O(n dim)), so the C file allocates nothing.

The library is compiled with no ``-march`` flag, so one cached file runs on
every CPU. On x86-64 with glibc, gcc >= 6 and clang >= 14 compile the loop
once per instruction set (``target_clones``), and the loader picks the
widest the CPU has when the library is loaded; elsewhere the one plain loop
is compiled. Every variant runs the same rounded operations, so the choice
never changes a result and needs no setting.
"""

import ctypes
import os
import shlex
import sysconfig
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from . import pure
from .pure import bmu, check_arguments, nearest

_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
_SOURCE = Path(__file__).with_name("_kernel.c")

# -ffp-contract=off keeps the numpy reference bit-identical by forbidding
# fused multiply-adds in the hot loop.
COMPILE_FLAGS = ("-O3", "-ffp-contract=off")
# A compile that outlasts this many seconds fails the build.
BUILD_TIMEOUT_S = 60

# theta, wt, acc, coef: scratch the wrapper allocates for each call.
_SCRATCH = ndpointer(np.float64, 1, flags="C_CONTIGUOUS,WRITEABLE")


def load(path):
    """Bind the compiled kernel at ``path`` as a ``pure.train_loop`` twin.

    Raises ``OSError`` when the library cannot be loaded.
    """
    library = ctypes.CDLL(os.fspath(path))
    block = ctypes.c_int64.in_dll(library, "block_neurons").value
    c_loop = library.train_loop
    c_loop.restype = None
    c_loop.argtypes = [*pure.ARRAYS, ndpointer(np.int64, 3, flags="C_CONTIGUOUS"),
                       *[_SCRATCH] * 4, *[ctypes.c_int64] * 7]

    def train_loop(weights, data, order, grid, alphas, sigmas, competitive_start):
        # Clamped, because ctypes truncates integers to 64 bits silently;
        # max_dist bounds every hop the loop reads, so theta is never overrun.
        competitive_start, hops, max_dist = check_arguments(
            weights, data, order, grid, alphas, sigmas, competitive_start
        )
        n, dim = weights.shape
        stride = -(-n // block) * block
        # On 64-byte lines (8 doubles), as are its rows of whole blocks: numpy
        # gave 0, 32 or 48 mod 64, and blocks at 32 ran 16% slower at 70x70.
        wt = np.zeros(stride * dim + 7)
        wt = wt[-wt.ctypes.data // 8 % 8 :][: stride * dim]
        c_loop(weights, data, order, alphas, sigmas, hops,
               np.empty(max_dist + 1), wt, np.empty(stride), np.zeros(stride),
               max_dist, grid.width, grid.height, stride, dim, order.shape[0], competitive_start)
        return weights

    train_loop.__doc__ = pure.train_loop.__doc__
    return train_loop


def build(directory) -> Path:
    """Compile ``_kernel.c`` into ``directory``, unless it holds this build; return its path.

    The library is ``_kernel-<digest>`` plus the extension suffix, the digest
    being the SHA-256 of the source bytes and the compile command, so an
    edited source or another compiler or flag gives another file. The
    compiler writes a file of this process's own, which then replaces the
    target in one step: processes that build together each leave a whole
    library. Raises ``OSError`` when no compiler is configured or found, the
    compile fails or outlasts ``BUILD_TIMEOUT_S``, or ``directory`` cannot
    be written; the compiler's output is kept in the message, never printed.
    """
    try:  # CPython's built-in SHA-256: hashlib would load OpenSSL into every process
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # a CPython built without it

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise OSError("no C compiler configured")
    command = [*cc, *COMPILE_FLAGS, "-shared", "-fPIC"]
    source = _SOURCE.read_bytes()
    digest = sha256(b"\0".join([source, *map(str.encode, command)])).hexdigest()
    library = Path(directory, f"_kernel-{digest}{_SUFFIX}")
    if library.exists():
        return library

    import subprocess

    partial = library.with_name(f".{library.name}.{os.getpid()}")
    try:
        subprocess.run([*command, "-o", partial, _SOURCE, "-lm"],
                       capture_output=True, check=True, timeout=BUILD_TIMEOUT_S)
        os.replace(partial, library)
    except subprocess.SubprocessError as err:
        output = (err.stderr or b"").decode(errors="replace")
        raise OSError(f"cannot compile {_SOURCE}: {err}\n{output}") from err
    finally:
        partial.unlink(missing_ok=True)
    return library


def _cache_directory() -> Path:
    """``$XDG_CACHE_HOME/som-atlas``, or ``~/.cache/som-atlas``; made with mode 0o700."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.expanduser("~/.cache")
    if not os.path.isabs(base):
        raise OSError("no home directory for the kernel cache")
    directory = Path(base, "som-atlas")
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    return directory


def _select():
    """``(train_loop, library)``: the build in the user cache, else ``pure``."""
    try:
        library = build(_cache_directory())
        return load(library), library
    except OSError:
        return pure.train_loop, None


train_loop, LIBRARY = _select()
BACKEND = "python" if LIBRARY is None else "native"

__all__ = ["BACKEND", "LIBRARY", "bmu", "build", "load", "nearest", "train_loop"]
