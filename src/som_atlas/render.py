"""Deterministic heatmap rendering of planes and cluster maps.

Values map through a black -> red -> yellow ramp: black at 0, pure red at
0.5, yellow at 1, with the blue channel fixed at zero. Maps are drawn as
pointy-top hexagons in odd-r offset layout. All output is byte-deterministic:
fixed element order, fixed 6-digit decimal formatting, no timestamps.

The geometry (PPM owner raster, SVG polygon text) is drawn once per grid
and cell radius and cached read-only, so each image only colours it.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Sequence

import numpy as np

from .hexgrid import HexGrid

_SQRT3 = math.sqrt(3.0)

# Candidate pixels tested per batch of hexagons in ``_render_ppm`` (at least
# one hexagon's bounding box); bounds its temporaries on large maps.
_PPM_SCRATCH = 2**16

# Categorical colors for cluster maps; cycled when k exceeds 12.
CLUSTER_PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
    (140, 86, 75),
    (227, 119, 194),
    (127, 127, 127),
    (188, 189, 34),
    (23, 190, 207),
    (174, 199, 232),
    (255, 187, 120),
)


def colormap(t: float) -> tuple[int, int, int]:
    """Map t in [0, 1] to the black/red/yellow ramp.

    Piecewise linear: red rises over [0, 0.5], green over (0.5, 1]. Rounding
    is half away from zero so 0.75 lands on (255, 128, 0). Out-of-range
    inputs clamp with a warning; NaN is an error.
    """
    if math.isnan(t):
        raise ValueError("colormap input is NaN")
    if t < 0.0 or t > 1.0:
        warnings.warn(f"colormap input {t} outside [0, 1]; clamped", stacklevel=2)
        t = min(1.0, max(0.0, t))
    if t <= 0.5:
        return (_round_half_away(510.0 * t), 0, 0)
    return (255, _round_half_away(510.0 * (t - 0.5)), 0)


def _round_half_away(x: float) -> int:
    # x is non-negative here, so half away from zero is floor(x + 0.5).
    return int(math.floor(x + 0.5))


def render_plane(values, grid: HexGrid, format: str = "svg", cell_radius: float = 12.0) -> bytes:
    """Render one ``(height, width)`` component plane as a hex heatmap; returns image bytes."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.height, grid.width):
        raise ValueError(
            f"plane shape {values.shape} does not match grid "
            f"{grid.height}x{grid.width} (rows x cols)"
        )
    flat = values.reshape(-1)
    fills = [colormap(float(v)) for v in flat]
    caption = f"values min={flat.min():.6f} max={flat.max():.6f}"
    return _render(fills, grid, format, cell_radius, caption)


def render_cluster_map(
    labels: Sequence[int], grid: HexGrid, format: str = "svg", cell_radius: float = 12.0
) -> bytes:
    """Render cluster labels as a categorical hex map."""
    labels = np.asarray(labels)
    if labels.shape != (grid.n_nodes,):
        raise ValueError(f"{labels.shape[0] if labels.ndim else 0} labels for {grid.n_nodes} neurons")
    fills = [CLUSTER_PALETTE[int(lab) % len(CLUSTER_PALETTE)] for lab in labels]
    return _render(fills, grid, format, cell_radius, None)


def _render(fills, grid, format, cell_radius, caption):
    if not (math.isfinite(cell_radius) and cell_radius > 0):
        raise ValueError(f"cell_radius must be a positive finite number, got {cell_radius}")
    # An SVG canvas must be finite; PPM pixel extents must also fit intp.
    limit = np.iinfo(np.intp).max if format == "ppm" else math.inf
    if not max(_canvas_size(grid, cell_radius)) < limit:
        raise ValueError(f"cell_radius {cell_radius} gives a canvas too large to draw")
    if format == "svg":
        return _render_svg(fills, grid, cell_radius, caption)
    if format == "ppm":
        return _render_ppm(fills, _ppm_owner(grid, cell_radius))
    raise ValueError(f"unknown format {format!r}; expected 'svg' or 'ppm'")


def _canvas_size(grid: HexGrid, r: float) -> tuple[float, float]:
    return _SQRT3 * r * (grid.width + 0.5), r * (1.5 * (grid.height - 1) + 2.0)


def _hex_center(row: int, col: int, r: float) -> tuple[float, float]:
    cx = _SQRT3 * r * (col + 0.5 * (row & 1)) + _SQRT3 * r * 0.5
    cy = 1.5 * r * row + r
    return cx, cy


def _render_svg(fills, grid, r, caption) -> bytes:
    w, h = _canvas_size(grid, r)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.6f}" height="{h:.6f}" '
        f'viewBox="0 0 {w:.6f} {h:.6f}">',
    ]
    if caption is not None:
        lines.append(f"<!-- {caption} -->")
    heads = _svg_polygons(grid, r)
    lines += [f'{head}{red},{green},{blue})"/>' for head, (red, green, blue) in zip(heads, fills)]
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


# Each cache keeps four (grid, radius) pairs; a 100x100 raster at r = 12 is 25 MB.
@functools.lru_cache(maxsize=4)
def _svg_polygons(grid: HexGrid, r: float) -> tuple[str, ...]:
    """Each hexagon's ``<polygon`` element up to its fill colour, in index order."""
    # Corner i is the centre plus (r cos a, r sin a) for a = -30 + 60i degrees.
    angles = [math.radians(60.0 * i - 30.0) for i in range(6)]
    offsets = np.array([(r * math.cos(a), r * math.sin(a)) for a in angles])
    rows, cols = np.divmod(np.arange(grid.n_nodes), grid.width)
    corners = np.stack(_hex_center(rows, cols, r), axis=1)[:, None, :] + offsets
    head = '<polygon points="' + " ".join(["%.6f,%.6f"] * 6) + '" fill="rgb('
    return tuple(head % tuple(xy) for xy in corners.reshape(-1, 12).tolist())


def _render_ppm(fills, owner: np.ndarray) -> bytes:
    """P3 raster of ``owner``, each pixel in its hexagon's fill, white where none."""
    ph, pw = owner.shape
    # One line per fill and white last, so an unowned pixel's -1 picks white.
    table = np.array([f"{red} {green} {blue}" for red, green, blue in fills] + ["255 255 255"],
                     dtype=object)
    lines = ["P3", f"{pw} {ph}", "255", *table[owner.ravel()], ""]
    return "\n".join(lines).encode("ascii")


@functools.lru_cache(maxsize=4)
def _ppm_owner(grid: HexGrid, r: float) -> np.ndarray:
    """Read-only pixel raster of the hexagon whose cell holds each pixel centre; -1 if none.

    Hexagons are tested with the point-in-hexagon expressions below, each
    over its bounding box, a batch of hexagons at a time. Neighbours share
    edges, so a pixel centre on an edge can pass two tests: the highest hex
    index owns it, as if the hexagons were painted in index order.
    """
    w, h = _canvas_size(grid, r)
    pw, ph = math.ceil(w), math.ceil(h)
    half_width = _SQRT3 * r / 2.0

    rows, cols = np.divmod(np.arange(grid.n_nodes), grid.width)
    cx, cy = _hex_center(rows, cols, r)
    y0 = np.maximum(0, np.floor(cy - r).astype(np.intp))
    y1 = np.minimum(ph, np.ceil(cy + r).astype(np.intp))
    x0 = np.maximum(0, np.floor(cx - half_width).astype(np.intp))
    x1 = np.minimum(pw, np.ceil(cx + half_width).astype(np.intp))
    box_h = int((y1 - y0).max())
    box_w = int((x1 - x0).max())

    owner = np.full((ph, pw), -1, dtype=np.intp)
    batch = max(1, _PPM_SCRATCH // max(1, box_h * box_w))
    for start in range(0, grid.n_nodes, batch):
        hexes = slice(start, start + batch)
        py = y0[hexes, None] + np.arange(box_h)  # (hexes, box_h)
        px = x0[hexes, None] + np.arange(box_w)  # (hexes, box_w)
        adx = np.abs((px + 0.5) - cx[hexes, None])
        ady = np.abs((py + 0.5) - cy[hexes, None])
        # Point-in-hexagon for a pointy-top cell of circumradius r.
        inside = (
            (py < y1[hexes, None])[:, :, None]
            & ((px < x1[hexes, None]) & (adx <= half_width))[:, None, :]
            & (ady[:, :, None] <= (r - adx / _SQRT3)[:, None, :])
        )
        k, a, b = np.nonzero(inside)
        np.maximum.at(owner, (py[k, a], px[k, b]), k + start)
    owner.setflags(write=False)
    return owner
