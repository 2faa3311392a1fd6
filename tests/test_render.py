"""Heatmap rendering: the colour ramp and byte-exact SVG/PPM output."""

import hashlib

import numpy as np
import pytest

from som_atlas.analysis import ComponentPlane
from som_atlas.hexgrid import HexGrid
from som_atlas.render import colormap, render_cluster_map, render_plane

GRID = HexGrid(3, 2)
PLANE = ComponentPlane(attribute=0, values=np.array([[0.0, 0.25, 0.5], [0.75, 1.0, 0.1]]))
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
