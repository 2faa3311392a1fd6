"""Pressure-curve features for valve pulse measurements.

A recorded curve is treated as piecewise linear between its samples. Four
scalars summarize it: the pressure just before the pulse opens, the minimum
reached while the valve is open, and the areas under the curve over the pulse
window and over a fixed-length regeneration window that follows it. Training
downstream models on these features instead of whole curves keeps the input
space small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurveError
from .ingest import DataTable


@dataclass(frozen=True)
class PulseCurve:
    """Sampled pressure trace plus the pulse and regeneration windows.

    Times must be strictly increasing and both windows must lie inside the
    sampled range; the regeneration window is [t_close, t_close + regen_duration].
    Samples that break this raise ``CurveError``, windows that are themselves
    invalid ``ValueError``.
    """

    times: np.ndarray
    pressures: np.ndarray
    t_open: float
    t_close: float
    regen_duration: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        pressures = np.asarray(self.pressures, dtype=np.float64)
        if times.ndim != 1 or times.shape != pressures.shape:
            raise ValueError("times and pressures must be 1-D arrays of equal length")
        if times.size < 2:
            raise CurveError("a curve needs at least two samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(pressures))):
            raise CurveError("curve contains non-finite samples")
        if not np.all(np.diff(times) > 0):
            raise CurveError("sample times must be strictly increasing")
        if not (self.t_open < self.t_close):
            raise ValueError(f"t_open {self.t_open} must precede t_close {self.t_close}")
        if not (self.regen_duration >= 0):
            raise ValueError("regen_duration must be non-negative")
        if not np.all(np.isfinite([self.t_open, self.t_close, self.regen_duration])):
            raise ValueError("t_open, t_close and regen_duration must be finite")
        if self.t_open < times[0]:
            raise CurveError(f"pulse window opens at {self.t_open}, before the first sample {times[0]}")
        if self.t_close + self.regen_duration > times[-1]:
            raise CurveError(
                f"regeneration window ends at {self.t_close + self.regen_duration}, "
                f"after the last sample {times[-1]}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pressures", pressures)


@dataclass(frozen=True)
class PulseFeatures:
    p_start: float
    p_min: float
    pulse_area: float
    regen_area: float


def curve_from_table(table: DataTable, t_open: float, t_close: float, regen_duration: float) -> PulseCurve:
    """Build a curve from a two-column (time, pressure) table."""
    if table.n_attrs != 2:
        raise CurveError(f"pulse curve table needs exactly 2 columns, got {table.n_attrs}")
    return PulseCurve(
        times=table.rows[:, 0],
        pressures=table.rows[:, 1],
        t_open=t_open,
        t_close=t_close,
        regen_duration=regen_duration,
    )


def extract_pulse_features(curve: PulseCurve) -> PulseFeatures:
    """Compute the four curve features.

    p_start is the pressure at the last sample at or before the pulse opens;
    p_min the minimum of the interpolated curve over the open window; the two
    areas are trapezoidal integrals of the piecewise-linear curve over the
    pulse and regeneration windows.
    """
    times, pressures = curve.times, curve.pressures

    start_idx = int(np.searchsorted(times, curve.t_open, side="right")) - 1
    p_start = float(pressures[start_idx])

    inside = pressures[(times > curve.t_open) & (times < curve.t_close)]
    edge_vals = np.interp([curve.t_open, curve.t_close], times, pressures)
    p_min = float(min(edge_vals.min(), inside.min()) if inside.size else edge_vals.min())

    pulse_area = _window_area(times, pressures, curve.t_open, curve.t_close)
    regen_area = _window_area(
        times, pressures, curve.t_close, curve.t_close + curve.regen_duration
    )
    return PulseFeatures(p_start=p_start, p_min=p_min, pulse_area=pulse_area, regen_area=regen_area)


def _window_area(times: np.ndarray, pressures: np.ndarray, a: float, b: float) -> float:
    """Integral of the piecewise-linear curve over [a, b], trapezoid rule."""
    if a == b:
        return 0.0
    inner = times[(times > a) & (times < b)]
    knots = np.concatenate(([a], inner, [b]))
    vals = np.interp(knots, times, pressures)
    return float(np.trapezoid(vals, knots))
