"""Lattice geometry: adjacency, closed-form distance vs a BFS oracle, metric axioms."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.hexgrid import HexGrid, hop_table

# (row, col) steps to the six neighbors in odd-r layout, by row parity: odd
# rows sit half a cell to the right. Written out here, apart from the module.
ODD_R_STEPS = (
    ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, -1), (1, 0)),  # even rows
    ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0), (1, 1)),  # odd rows
)


def bfs_distances(grid: HexGrid, start: int) -> list[int]:
    """Hop counts from ``start`` over the literal ``ODD_R_STEPS`` adjacency; the oracle."""
    dist = [-1] * grid.n_nodes
    dist[start] = 0
    queue = deque([start])
    while queue:
        node = queue.popleft()
        row, col = divmod(node, grid.width)
        for drow, dcol in ODD_R_STEPS[row & 1]:
            nrow, ncol = row + drow, col + dcol
            nb = nrow * grid.width + ncol
            if 0 <= nrow < grid.height and 0 <= ncol < grid.width and dist[nb] < 0:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return dist


def test_single_node_has_no_neighbors():
    assert HexGrid(1, 1).neighbors(0) == []


def test_interior_node_has_six_neighbors():
    grid = HexGrid(3, 3)
    assert grid.neighbors(4) == [1, 2, 3, 5, 7, 8]


def test_even_row_interior_node_has_six_neighbors():
    # Node 9 is (row 2, col 1): an even row, so its diagonal neighbors lean left.
    assert HexGrid(4, 5).neighbors(9) == [4, 5, 8, 10, 12, 13]


def test_neighbor_counts_on_border():
    grid = HexGrid(3, 3)
    for idx in range(grid.n_nodes):
        n = len(grid.neighbors(idx))
        assert n <= 6
        if idx != 4:
            assert n < 6


def test_neighbors_sorted_and_in_bounds():
    grid = HexGrid(7, 4)
    for idx in range(grid.n_nodes):
        nbs = grid.neighbors(idx)
        assert nbs == sorted(nbs)
        assert all(0 <= n < grid.n_nodes for n in nbs)
        assert idx not in nbs


def test_neighbor_symmetry_sweep_10x10():
    grid = HexGrid(10, 10)
    for idx in range(grid.n_nodes):
        for nb in grid.neighbors(idx):
            assert idx in grid.neighbors(nb)


def test_distance_identity_and_adjacency():
    grid = HexGrid(5, 5)
    for idx in range(grid.n_nodes):
        assert grid.distance(idx, idx) == 0
        for nb in grid.neighbors(idx):
            assert grid.distance(idx, nb) == 1


@pytest.mark.parametrize("width,height", [(1, 1), (5, 1), (1, 5), (4, 6), (7, 3), (10, 10)])
def test_distance_matches_bfs_oracle(width, height):
    grid = HexGrid(width, height)
    for a in range(grid.n_nodes):
        oracle = bfs_distances(grid, a)
        for b in range(grid.n_nodes):
            assert grid.distance(a, b) == oracle[b], (a, b)


def test_one_query_builds_no_table():
    grid = HexGrid(10**6, 10**6)
    tables = hop_table.cache_info().currsize
    d = grid.distance(0, grid.n_nodes - 1)
    assert d == 1499999 and type(d) is int
    assert hop_table.cache_info().currsize == tables


def test_distance_one_iff_neighbor():
    grid = HexGrid(6, 5)
    for a in range(grid.n_nodes):
        nbs = set(grid.neighbors(a))
        for b in range(grid.n_nodes):
            assert (grid.distance(a, b) == 1) == (b in nbs)


@settings(max_examples=200)
@given(st.data())
def test_metric_axioms(data):
    width = data.draw(st.integers(1, 10), label="width")
    height = data.draw(st.integers(1, 10), label="height")
    grid = HexGrid(width, height)
    node = st.integers(0, grid.n_nodes - 1)
    a, b, c = data.draw(node), data.draw(node), data.draw(node)
    assert grid.distance(a, a) == 0
    assert grid.distance(a, b) == grid.distance(b, a)
    assert grid.distance(a, c) <= grid.distance(a, b) + grid.distance(b, c)
    if a != b:
        assert grid.distance(a, b) >= 1


def test_index_out_of_range():
    grid = HexGrid(3, 3)
    with pytest.raises(ValueError):
        grid.neighbors(9)
    with pytest.raises(ValueError):
        grid.neighbors(-1)
    with pytest.raises(ValueError):
        grid.distance(0, 9)


def test_bad_dimensions():
    with pytest.raises(ValueError):
        HexGrid(0, 3)
    with pytest.raises(ValueError):
        HexGrid(3, -1)


@pytest.mark.parametrize(
    "width, height, field",
    [(2.5, 2, "width"), (3, 2.0, "height"), (True, 3, "width"), (3, False, "height"),
     (np.float64(4), 4, "width"), (4, np.True_, "height"), ("3", 3, "width"), (3, None, "height")],
    ids=repr,
)
def test_non_integer_dimensions_raise_typeerror_naming_the_field(width, height, field):
    with pytest.raises(TypeError, match=f"grid {field} must be an integer"):
        HexGrid(width, height)


def test_numpy_integer_dimensions_are_stored_as_int():
    grid = HexGrid(np.int64(4), np.int32(3))
    assert (grid.width, grid.height, grid.n_nodes) == (4, 3, 12)
    assert type(grid.width) is int and type(grid.height) is int
    assert grid == HexGrid(4, 3)


def test_index_rowcol_bijection():
    grid = HexGrid(5, 3)
    seen = set()
    for idx in range(grid.n_nodes):
        row, col = grid.to_rowcol(idx)
        assert grid.to_index(row, col) == idx
        seen.add((row, col))
    assert len(seen) == grid.n_nodes
