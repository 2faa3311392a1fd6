"""Hexagonal lattice geometry.

The map is a ``height`` x ``width`` lattice of pointy-top hexagons in odd-r
offset layout: odd rows are shifted half a cell to the right. A node is
addressed either by (row, col) or by the linear index ``row * width + col``.

Interior nodes have exactly six neighbors, the nodes one hop away. ``hops``
is the one hop-distance formula, in closed form on offset differences.
``hop_table``, which both training kernels read, applies it to every offset
a grid size allows, and ``hop_row`` cuts one node's distances from it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

# ``hop_table`` keeps the tables of this many grid sizes.
HOP_TABLES = 4
# ``hop_table`` fills its rows in blocks of at most this many entries (but
# always at least one row), so ``hops``' temporaries stay small.
HOP_BLOCK = 2**12


@dataclass(frozen=True)
class HexGrid:
    """Immutable descriptor of an odd-r, pointy-top hexagonal lattice."""

    width: int
    height: int

    def __post_init__(self) -> None:
        for field in ("width", "height"):
            value = getattr(self, field)
            # Stored as a Python int: numpy integers pass; floats and bools do not.
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise TypeError(f"grid {field} must be an integer, got {value!r}")
            object.__setattr__(self, field, operator.index(value))
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"grid dimensions must be at least 1x1, got {self.width}x{self.height}"
            )

    @property
    def n_nodes(self) -> int:
        return self.width * self.height


def hops(parity, dr, dc):
    """Hops across ``dr`` rows and ``dc`` columns from a node in a row of parity ``parity``.

    Python ints or broadcasting int64 arrays; ``max(|dq|, |dr|, |dq + dr|)`` in axial terms.
    """
    dq = dc - (parity + dr) // 2
    return np.maximum(np.maximum(np.abs(dq), np.abs(dr)), np.abs(dq + dr))


@functools.lru_cache(maxsize=HOP_TABLES)
def hop_table(width: int, height: int) -> np.ndarray:
    """Hop distances in a ``width`` x ``height`` odd-r grid, by offset difference.

    Entry [p, dr + height - 1, dc + width - 1] of this (2, 2 height - 1,
    2 width - 1) int64 table is ``hops(p, dr, dc)``. Both training loops read
    it; ``hop_row`` cuts one node's row from it. The table is read-only and
    cached: repeated calls return the same array.
    """
    dr = np.arange(1 - height, height, dtype=np.int64)[:, None]
    dc = np.arange(1 - width, width, dtype=np.int64)
    table = np.empty((2, dr.size, dc.size), dtype=np.int64)
    step = max(1, HOP_BLOCK // dc.size)
    for parity in (0, 1):
        for start in range(0, dr.size, step):
            table[parity, start : start + step] = hops(parity, dr[start : start + step], dc)
    table.setflags(write=False)
    return table


def hop_row(table: np.ndarray, row: int, col: int) -> np.ndarray:
    """Hop distances from node (``row``, ``col``) to every node, as a view of ``table``.

    The view is (height, width), so raveled it is indexed by linear node index.
    """
    _, rows, cols = table.shape
    return table[row & 1, rows // 2 - row : rows - row, cols // 2 - col : cols - col]
