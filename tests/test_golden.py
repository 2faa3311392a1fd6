"""Golden digests: trained weights must stay byte-identical to recorded history.

Each case trains a map with ``train()`` and compares the SHA-256 of the
weight bytes with a digest recorded before the kernels were last rewritten.
Backend parity alone cannot catch a change both backends make together; this
can. The numpy reference always runs; the C kernel runs whenever a compiler
can build it.
"""

import hashlib

import numpy as np
import pytest

from som_atlas import kernels
from som_atlas.hexgrid import HexGrid
from som_atlas.kernels import pure
from som_atlas.som import TrainingSchedule, train

from conftest import unit_table

# name: (grid, dim, n_rows, schedule overrides, sha256 of the trained weights)
CASES = {
    "single-neuron": (
        (1, 1), 2, 5, dict(epochs=3),
        "e025f1bf89744e48bcee4d1cb968c4bfbcf6cb5f203ab52f189a72a5a4038dc0",
    ),
    "non-square": (
        (5, 3), 3, 17, dict(epochs=6),
        "b2165fccb68f5bdf01060b9a65ba8fcddfd417e329f222fb5e342f49557e3d75",
    ),
    "competitive-only": (
        (8, 2), 7, 9, dict(epochs=1),
        "cb3ea05e43374f9064888fffff2c8385ae33998fb60036fb7cc442d4bf8f83cf",
    ),
    "unit-alpha": (
        (4, 4), 3, 8, dict(epochs=4, alpha0=1.0, alpha_end=1.0),
        "a2dda1fa0cbf9b8fafa0c3cde93d2d77709545ddb36ed3114c65859a59d4cb56",
    ),
    "file-order": (
        (6, 7), 4, 23, dict(epochs=5, shuffle=False, sigma0=2.5),
        "cda524102d98a439acfb99458571c3b7457e09f75714c168b5415ead63a659ec",
    ),
    "map-20x20-dim8": (
        (20, 20), 8, 150, dict(epochs=4),
        "52f98712d825429923a5f742b68f04f28776d95f5c8d35aca282980d15e77133",
    ),
}


@pytest.fixture(params=["python", "native"])
def backend(request, monkeypatch):
    """Route ``train()`` through one kernel backend."""
    if request.param == "python":
        impl = pure.train_loop
    else:
        impl = request.getfixturevalue("native_train_loop")
    monkeypatch.setattr(kernels, "train_loop", impl)
    return request.param


@pytest.mark.parametrize("name", list(CASES))
def test_trained_weights_match_recorded_digest(name, backend):
    (width, height), dim, n_rows, overrides, digest = CASES[name]
    rows = np.random.default_rng(7).random((n_rows, dim))
    table = unit_table(rows)
    model = train(table, HexGrid(width, height), TrainingSchedule(seed=11, **overrides))
    assert hashlib.sha256(model.weights.tobytes()).hexdigest() == digest
