"""Seeded synthetic sensor logs for the benchmark.

A log walks through a few fixed operating regimes (idle, warm-up, full load,
cool-down), dwelling a seeded number of rows in each, with Gaussian noise on
every channel and one channel (``temp_c``) drifting slowly over the whole
log. The regime centres are constants and dwell times scale with the log, so
logs of different seeds share their structure and the maps trained on them
are of comparable quality; the seed picks the regime sequence, the dwell
times and the noise.

For classification inputs a small share of rows can be pushed out of the
training range (the program clamps them) or written malformed (the program
drops them under ``--drop-bad-rows``). Same arguments, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COLUMNS = (
    "temp_c",
    "pressure_bar",
    "flow_lpm",
    "rpm",
    "vibration_mm_s",
    "current_a",
    "voltage_v",
    "humidity_pct",
)

# One row per regime, one column per attribute in COLUMNS order.
_CENTRES = np.array(
    [
        [22.0, 1.0, 0.0, 0.0, 0.2, 0.5, 230.0, 45.0],  # idle
        [45.0, 3.5, 40.0, 1500.0, 2.0, 12.0, 228.0, 40.0],  # warm-up
        [78.0, 6.0, 95.0, 2900.0, 4.5, 31.0, 224.0, 33.0],  # full load
        [55.0, 2.0, 20.0, 800.0, 1.2, 6.0, 229.0, 38.0],  # cool-down
    ]
)
_NOISE = np.array([1.5, 0.15, 3.0, 60.0, 0.3, 1.0, 1.5, 2.0])
# Allowed next regimes: idle -> warm-up -> full load -> cool-down -> idle or warm-up.
_NEXT = ((1,), (2,), (3,), (0, 1))
# Rows per regime visit: uniform between these shares of the log, so that a
# log of any length visits about 40 regimes and its regime mix is stable.
_DWELL_SHARE = (1 / 125, 1 / 25)
_DRIFT_C = 12.0  # temp_c rises this much from the first row to the last

# Malformed-row templates: a text cell, a missing field, a non-finite value.
_BAD_CELLS = ("n/a", None, "nan")


@dataclass(frozen=True)
class SensorLog:
    """A generated log: its CSV text and what the checker needs to know."""

    text: str
    n_rows: int  # data rows written, malformed ones included
    n_malformed: int
    n_out_of_range: int


def _regime_rows(seed: int, n_rows: int, stream: int = 0) -> np.ndarray:
    """Well-formed readings, shape (n_rows, len(COLUMNS))."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, 0)))
    labels = np.empty(n_rows, dtype=np.intp)
    lo = max(1, round(n_rows * _DWELL_SHARE[0]))
    hi = max(lo, round(n_rows * _DWELL_SHARE[1]))
    pos, regime = 0, int(rng.integers(len(_CENTRES)))
    while pos < n_rows:
        dwell = int(rng.integers(lo, hi + 1))
        labels[pos : pos + dwell] = regime
        pos += dwell
        choices = _NEXT[regime]
        regime = choices[int(rng.integers(len(choices)))]
    rows = _CENTRES[labels] + rng.standard_normal((n_rows, len(COLUMNS))) * _NOISE
    rows[:, 0] += _DRIFT_C * np.arange(n_rows) / max(n_rows - 1, 1)
    # Every channel is a physical magnitude: no negative readings.
    np.maximum(rows, 0.0, out=rows)
    return rows


def make_log(
    seed: int,
    n_rows: int,
    stream: int = 0,
    out_of_range_share: float = 0.0,
    malformed_share: float = 0.0,
) -> SensorLog:
    """CSV log of ``n_rows`` data rows under a header of COLUMNS.

    ``stream`` tells apart the logs one seed makes for different roles.
    Out-of-range rows have one attribute pushed 50% beyond the highest value
    any regime produces; malformed rows carry one of the ``_BAD_CELLS``.
    Both are placed at seeded, disjoint row positions.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, 1)))
    rows = _regime_rows(seed, n_rows, stream)
    n_oor = int(round(out_of_range_share * n_rows))
    n_bad = int(round(malformed_share * n_rows))
    picked = rng.permutation(n_rows)[: n_oor + n_bad]
    oor, bad = picked[:n_oor], set(picked[n_oor:].tolist())
    cols = rng.integers(len(COLUMNS), size=n_oor)
    rows[oor, cols] = 1.5 * (_CENTRES[:, cols].max(axis=0) + 4.0 * _NOISE[cols])
    bad_kind = {int(r): _BAD_CELLS[int(rng.integers(len(_BAD_CELLS)))] for r in sorted(bad)}

    lines = [",".join(COLUMNS)]
    for r in range(n_rows):
        cells = [f"{v:.4f}" for v in rows[r]]
        if r in bad_kind:
            kind = bad_kind[r]
            if kind is None:
                cells.pop()
            else:
                cells[r % len(cells)] = kind
        lines.append(",".join(cells))
    return SensorLog(
        text="\n".join(lines) + "\n", n_rows=n_rows, n_malformed=n_bad, n_out_of_range=n_oor
    )
