"""Hexagonal lattice geometry.

The map is a ``height`` x ``width`` lattice of pointy-top hexagons in odd-r
offset layout: odd rows are shifted half a cell to the right. A node is
addressed either by (row, col) or by the linear index ``row * width + col``.

Interior nodes have exactly six neighbors. Distances are exact hop counts,
computed in closed form through the offset -> axial -> cube conversion, so a
single query is O(1) instead of a lattice search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Axial-coordinate steps to the six neighbors of any hexagon.
_AXIAL_DIRECTIONS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


@dataclass(frozen=True)
class HexGrid:
    """Immutable descriptor of an odd-r, pointy-top hexagonal lattice."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"grid dimensions must be at least 1x1, got {self.width}x{self.height}"
            )

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def to_rowcol(self, idx: int) -> tuple[int, int]:
        self._check_index(idx)
        return divmod(idx, self.width)

    def to_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValueError(f"(row, col) = ({row}, {col}) outside {self.width}x{self.height} grid")
        return row * self.width + col

    def neighbors(self, idx: int) -> list[int]:
        """In-bounds hex neighbors of ``idx``, sorted ascending by linear index."""
        row, col = self.to_rowcol(idx)
        q, r = _offset_to_axial(row, col)
        out = []
        for dq, dr in _AXIAL_DIRECTIONS:
            nrow, ncol = _axial_to_offset(q + dq, r + dr)
            if 0 <= nrow < self.height and 0 <= ncol < self.width:
                out.append(nrow * self.width + ncol)
        out.sort()
        return out

    def distance(self, a: int, b: int) -> int:
        """Minimum number of neighbor hops between nodes ``a`` and ``b``."""
        self._check_index(a)
        self._check_index(b)
        qa, ra = _offset_to_axial(*divmod(a, self.width))
        qb, rb = _offset_to_axial(*divmod(b, self.width))
        dq = qa - qb
        dr = ra - rb
        # Cube coordinates: x = q, z = r, y = -x - z; distance is max |component|.
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    def _check_index(self, idx: int) -> None:
        if not (0 <= idx < self.n_nodes):
            raise ValueError(f"node index {idx} out of range for {self.width}x{self.height} grid")


def _offset_to_axial(row: int, col: int) -> tuple[int, int]:
    # odd-r: odd rows sit half a cell to the right.
    return col - (row - (row & 1)) // 2, row


def _axial_to_offset(q: int, r: int) -> tuple[int, int]:
    return r, q + (r - (r & 1)) // 2


def axial_coords(grid: HexGrid) -> np.ndarray:
    """Axial (q, r) of every node as a (2, n_nodes) int32 array, by linear index.

    The hop distance between two nodes is ``max(|dq|, |dr|, |dq + dr|)`` of
    their coordinate difference, the same value ``HexGrid.distance`` returns.
    """
    rows, cols = np.divmod(np.arange(grid.n_nodes), grid.width)
    return np.array(_offset_to_axial(rows, cols), dtype=np.int32)
