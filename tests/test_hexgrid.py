"""Lattice geometry: hop distances vs a BFS oracle, adjacency as one hop, metric axioms."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.hexgrid import HexGrid, hop_row, hop_table, hops

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


def hop_matrix(grid: HexGrid) -> np.ndarray:
    """Hops between every pair of nodes: row u is node u's ``hop_row``, raveled."""
    table = hop_table(grid.width, grid.height)
    return np.array([hop_row(table, *divmod(u, grid.width)).ravel() for u in range(grid.n_nodes)])


def adjacent(grid: HexGrid, u: int) -> list[int]:
    """The nodes one hop from ``u`` by its ``hop_row``, ascending."""
    row = hop_row(hop_table(grid.width, grid.height), *divmod(u, grid.width))
    return np.flatnonzero(row == 1).tolist()


def bfs_neighbors(grid: HexGrid, u: int) -> list[int]:
    return [v for v, d in enumerate(bfs_distances(grid, u)) if d == 1]


def test_single_node_has_no_neighbors():
    assert adjacent(HexGrid(1, 1), 0) == []


def test_interior_node_has_six_neighbors():
    assert adjacent(HexGrid(3, 3), 4) == [1, 2, 3, 5, 7, 8]


def test_even_row_interior_node_has_six_neighbors():
    # Node 9 is (row 2, col 1): an even row, so its diagonal neighbors lean left.
    assert adjacent(HexGrid(4, 5), 9) == [4, 5, 8, 10, 12, 13]


def test_neighbor_counts_on_border():
    grid = HexGrid(3, 3)
    for idx in range(grid.n_nodes):
        n = len(adjacent(grid, idx))
        assert n <= 6
        if idx != 4:
            assert n < 6


def test_neighbors_sorted_and_in_bounds():
    # A hop row covers exactly the grid, in linear index order, and is 0 only at its node.
    grid = HexGrid(7, 4)
    table = hop_table(grid.width, grid.height)
    for idx in range(grid.n_nodes):
        row = hop_row(table, *divmod(idx, grid.width))
        assert row.shape == (grid.height, grid.width)
        assert np.flatnonzero(row == 0).tolist() == [idx]


def test_neighbor_symmetry_sweep_10x10():
    adjacency = hop_matrix(HexGrid(10, 10)) == 1
    assert (adjacency == adjacency.T).all()
    assert adjacency.sum(axis=1).max() == 6


def test_distance_identity_and_adjacency():
    grid = HexGrid(5, 5)
    matrix = hop_matrix(grid)
    for idx in range(grid.n_nodes):
        assert matrix[idx, idx] == 0
        assert (matrix[idx, bfs_neighbors(grid, idx)] == 1).all()


@pytest.mark.parametrize("width,height", [(1, 1), (5, 1), (1, 5), (4, 6), (7, 3), (10, 10)])
def test_distance_matches_bfs_oracle(width, height):
    grid = HexGrid(width, height)
    row, col = np.divmod(np.arange(grid.n_nodes), width)
    for a in range(grid.n_nodes):
        assert hops(row[a] & 1, row - row[a], col - col[a]).tolist() == bfs_distances(grid, a), a


@pytest.mark.parametrize("width,height", [(1, 1), (3, 3), (6, 5), (2, 7), (7, 2), (4, 6)])
def test_hop_rows_are_lattice_distances(width, height):
    grid = HexGrid(width, height)
    table = hop_table(width, height)
    widest = 0
    for u in range(grid.n_nodes):
        row = hop_row(table, *divmod(u, width))
        assert row.shape == (height, width)
        distances = bfs_distances(grid, u)
        assert row.ravel().tolist() == distances
        widest = max(widest, *distances)
    assert table.max() == widest


@pytest.mark.parametrize("width,height", [(100, 50), (3, 3000), (9000, 2)])
def test_hop_table_built_in_blocks_is_the_hops_formula(width, height):
    # Filled a block of rows at a time; (100, 50) and (3, 3000) take several
    # blocks, (9000, 2) one row per block.
    dr = np.arange(1 - height, height)[None, :, None]
    dc = np.arange(1 - width, width)[None, None, :]
    whole = hops(np.arange(2)[:, None, None], dr, dc)
    table = hop_table.__wrapped__(width, height)
    assert table.dtype == np.int32
    assert table.tobytes() == whole.astype(np.int32).tobytes()


def test_hop_table_memory_is_the_table():
    # Through hops' broadcast temporaries the whole table peaked at 4 tables.
    hop_table.__wrapped__(20, 20)
    tracemalloc.start()
    try:
        table = hop_table.__wrapped__(150, 150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, peak / table.nbytes


def test_one_query_builds_no_table():
    tables = hop_table.cache_info().currsize
    # From node (0, 0) to the far corner of a 10**6 x 10**6 grid, in closed form.
    assert hops(0, 10**6 - 1, 10**6 - 1) == 1499999
    assert hop_table.cache_info().currsize == tables


def test_distance_one_iff_neighbor():
    # Adjacency as training's hop rows give it is exactly the BFS oracle's, in both row parities.
    grid = HexGrid(6, 5)
    for a in range(grid.n_nodes):
        assert adjacent(grid, a) == bfs_neighbors(grid, a), a


@settings(max_examples=200)
@given(st.data())
def test_metric_axioms(data):
    width = data.draw(st.integers(1, 10), label="width")
    height = data.draw(st.integers(1, 10), label="height")
    grid = HexGrid(width, height)
    matrix = hop_matrix(grid)
    node = st.integers(0, grid.n_nodes - 1)
    a, b, c = data.draw(node), data.draw(node), data.draw(node)
    assert matrix[a, a] == 0
    assert matrix[a, b] == matrix[b, a]
    assert matrix[a, c] <= matrix[a, b] + matrix[b, c]
    if a != b:
        assert matrix[a, b] >= 1


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
