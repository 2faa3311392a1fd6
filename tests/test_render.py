"""Heatmap rendering: the colour ramp and byte-exact SVG/PPM output."""

import hashlib
import math

import numpy as np
import pytest

from som_atlas import render
from som_atlas.hexgrid import HexGrid
from som_atlas.render import (
    _SQRT3,
    CLUSTER_PALETTE,
    _canvas_size,
    _hex_center,
    colormap,
    render_cluster_map,
    render_plane,
)

GRID = HexGrid(3, 2)
PLANE = np.array([[0.0, 0.25, 0.5], [0.75, 1.0, 0.1]])
LABELS = [0, 1, 2, 0, 1, 13]  # 13 wraps around the 12-colour palette

# sha256 of the image bytes at the default cell radius.
DIGESTS = {
    ("plane", "svg"): "ac726661fca620112f97756e60c7398dbba8c6dc434db8a7d23a31733861a8bc",
    ("plane", "ppm"): "19b4313a26156215d4967a9fd2f7db66ee0f79516cd11527aa75237eff1a33d0",
    ("clusters", "svg"): "5e6e33494c2d6f8488904434479715b09f11f93fa2461c4298a1f092450c8e45",
    ("clusters", "ppm"): "664100491b9fd8e71ec54100003647faffe9e1d1165cbeb7ec3542a68ae8bff5",
}


@pytest.mark.parametrize("t,rgb", [(0.0, (0, 0, 0)), (0.5, (255, 0, 0)), (1.0, (255, 255, 0)),
                                   (0.75, (255, 128, 0))])  # fmt: skip
def test_colormap_points(t, rgb):
    assert colormap(t) == rgb


@pytest.mark.parametrize("kind,fmt", list(DIGESTS))
def test_image_bytes_are_pinned(kind, fmt):
    if kind == "plane":
        data = render_plane(PLANE, GRID, format=fmt)
    else:
        data = render_cluster_map(LABELS, GRID, format=fmt)
    assert hashlib.sha256(data).hexdigest() == DIGESTS[kind, fmt]


@pytest.mark.parametrize(
    "fmt,radius",
    [(fmt, r) for fmt in ("svg", "ppm") for r in (0.0, -1.0, math.nan, math.inf, -math.inf)]
    # A canvas wider than float64 holds, or PPM pixel extents wider than intp.
    + [("svg", 1e308), ("ppm", 1e308), ("ppm", 1e300), ("ppm", 1e20)],
)
def test_radius_must_be_positive_and_finite(fmt, radius):
    with pytest.raises(ValueError, match="cell_radius"):
        render_plane(PLANE, GRID, format=fmt, cell_radius=radius)
    with pytest.raises(ValueError, match="cell_radius"):
        render_cluster_map(LABELS, GRID, format=fmt, cell_radius=radius)


def _reference_ppm(fills, grid, r) -> bytes:
    """Rasterizer the batched one replaced: hexagons painted in index order,
    each over its bounding box, so a later hexagon overwrites a shared pixel."""
    w, h = _canvas_size(grid, r)
    pw, ph = math.ceil(w), math.ceil(h)
    raster = np.full((ph, pw, 3), 255, dtype=np.uint8)

    half_width = _SQRT3 * r / 2.0
    for idx in range(grid.n_nodes):
        row, col = divmod(idx, grid.width)
        cx, cy = _hex_center(row, col, r)
        y0 = max(0, math.floor(cy - r))
        y1 = min(ph, math.ceil(cy + r))
        x0 = max(0, math.floor(cx - half_width))
        x1 = min(pw, math.ceil(cx + half_width))
        dy = (np.arange(y0, y1) + 0.5)[:, None] - cy
        dx = (np.arange(x0, x1) + 0.5)[None, :] - cx
        inside = (abs(dx) <= half_width) & (abs(dy) <= r - abs(dx) / _SQRT3)
        raster[y0:y1, x0:x1][inside] = fills[idx]

    pixels = [f"{red} {green} {blue}" for red, green, blue in raster.reshape(-1, 3).tolist()]
    return "\n".join([f"P3\n{pw} {ph}\n255", *pixels, ""]).encode("ascii")


# At r = 1/sqrt(3) odd-row hexagons share vertical edges through pixel
# centres, so two hexagons claim those pixels and ownership shows in the bytes.
RADII = [1e-300, 0.3, 0.57735, 1 / math.sqrt(3), 1.0, 2.5, 6.0, 12.0, 17.3]


@pytest.mark.parametrize("radius", RADII)
def test_ppm_matches_per_pixel_reference(radius):
    # Distinct colours per hexagon, so a pixel given to the wrong one of two
    # overlapping hexagons changes the bytes.
    rng = np.random.default_rng(int(radius * 1000))
    for width in range(1, 9):
        for height in range(1, 8):
            grid = HexGrid(width, height)
            plane = rng.random((height, width))
            fills = [colormap(float(v)) for v in plane.reshape(-1)]
            assert render_plane(plane, grid, format="ppm", cell_radius=radius) == _reference_ppm(
                fills, grid, radius
            ), (width, height)
            labels = rng.permutation(grid.n_nodes)
            fills = [CLUSTER_PALETTE[lab % len(CLUSTER_PALETTE)] for lab in labels]
            assert render_cluster_map(
                labels, grid, format="ppm", cell_radius=radius
            ) == _reference_ppm(fills, grid, radius), (width, height)


def _reference_svg(fills, grid, r, caption) -> bytes:
    """Polygon-by-polygon writer: each hexagon's six corners from its centre
    and per-corner trigonometry, each coordinate formatted on its own."""
    w, h = _canvas_size(grid, r)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.6f}" height="{h:.6f}" '
        f'viewBox="0 0 {w:.6f} {h:.6f}">',
    ]
    if caption is not None:
        lines.append(f"<!-- {caption} -->")
    for idx in range(grid.n_nodes):
        row, col = divmod(idx, grid.width)
        cx, cy = _hex_center(row, col, r)
        corners = []
        for i in range(6):
            ang = math.radians(60.0 * i - 30.0)
            corners.append(f"{cx + r * math.cos(ang):.6f},{cy + r * math.sin(ang):.6f}")
        red, green, blue = fills[idx]
        lines.append(f'<polygon points="{" ".join(corners)}" fill="rgb({red},{green},{blue})"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("radius", RADII)
def test_svg_matches_per_polygon_reference(radius):
    rng = np.random.default_rng(int(radius * 1000))
    for width in range(1, 9):
        for height in range(1, 8):
            grid = HexGrid(width, height)
            plane = rng.random((height, width))
            flat = plane.reshape(-1)
            fills = [colormap(float(v)) for v in flat]
            caption = f"values min={flat.min():.6f} max={flat.max():.6f}"
            assert render_plane(plane, grid, format="svg", cell_radius=radius) == _reference_svg(
                fills, grid, radius, caption
            ), (width, height)
            labels = rng.permutation(grid.n_nodes)
            fills = [CLUSTER_PALETTE[lab % len(CLUSTER_PALETTE)] for lab in labels]
            assert render_cluster_map(
                labels, grid, format="svg", cell_radius=radius
            ) == _reference_svg(fills, grid, radius, None), (width, height)


def test_cached_geometry_gives_cold_cache_bytes():
    rng = np.random.default_rng(5)
    cases = [
        (fmt, HexGrid(w, h), r, rng.random((h, w)))
        for fmt in ("ppm", "svg") for w, h in ((3, 2), (5, 4)) for r in (2.5, 6.0)
    ]  # fmt: skip

    def draw(fmt, grid, r, plane):
        return render_plane(plane, grid, format=fmt, cell_radius=r)

    cold = []
    for case in cases:
        render._ppm_owner.cache_clear()
        render._svg_polygons.cache_clear()
        cold.append(draw(*case))
    # Interleaved: between two renders of one size the others are drawn, and
    # the second pass finds every size's geometry cached.
    for _ in range(2):
        assert [draw(*case) for case in cases] == cold


def test_cached_owner_raster_is_read_only():
    render_plane(PLANE, GRID, format="ppm")
    owner = render._ppm_owner(GRID, 12.0)
    assert render._ppm_owner(GRID, 12.0) is owner
    with pytest.raises(ValueError, match="read-only"):
        owner[0, 0] = 0
