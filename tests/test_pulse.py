"""Pulse-curve features against an independent trapezoid-rule summation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from som_atlas.errors import CurveError
from som_atlas.pulse import PulseCurve, curve_from_table, extract_pulse_features

from conftest import make_table


def trapezoid_oracle(times, pressures, a, b):
    """Textbook trapezoid sum over the interpolated curve; the oracle."""

    def value_at(t):
        for i in range(len(times) - 1):
            if times[i] <= t <= times[i + 1]:
                frac = (t - times[i]) / (times[i + 1] - times[i])
                return pressures[i] + frac * (pressures[i + 1] - pressures[i])
        raise AssertionError("t outside samples")

    knots = [a] + [t for t in times if a < t < b] + [b]
    total = 0.0
    for left, right in zip(knots, knots[1:]):
        total += 0.5 * (value_at(left) + value_at(right)) * (right - left)
    return total


def test_constant_curve():
    c = 10.0
    curve = PulseCurve(
        times=np.arange(0.0, 11.0),
        pressures=np.full(11, c),
        t_open=2.0,
        t_close=5.0,
        regen_duration=1.0,
    )
    feats = extract_pulse_features(curve)
    assert feats.p_start == c
    assert feats.p_min == c
    assert feats.pulse_area == pytest.approx(c * 3.0, abs=1e-12)
    assert feats.regen_area == pytest.approx(c * 1.0, abs=1e-12)


def test_triangular_dip():
    # 10 bar, dipping linearly to 6 at t=4 and back to 10 at t=6.
    times = np.array([0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
    pressures = np.array([10.0, 10.0, 6.0, 10.0, 10.0, 10.0])
    curve = PulseCurve(times=times, pressures=pressures, t_open=2.0, t_close=6.0, regen_duration=2.0)
    feats = extract_pulse_features(curve)
    assert feats.p_start == 10.0
    assert feats.p_min == 6.0
    assert feats.pulse_area == pytest.approx(trapezoid_oracle(times, pressures, 2.0, 6.0), abs=1e-9)
    assert feats.regen_area == pytest.approx(trapezoid_oracle(times, pressures, 6.0, 8.0), abs=1e-9)


def test_window_edges_interpolated():
    # Window endpoints between samples: the piecewise-linear curve decides.
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    pressures = np.array([4.0, 8.0, 2.0, 6.0, 6.0])
    curve = PulseCurve(times=times, pressures=pressures, t_open=0.5, t_close=2.5, regen_duration=1.0)
    feats = extract_pulse_features(curve)
    assert feats.p_start == 4.0  # last sample at or before t_open
    assert feats.p_min == 2.0
    assert feats.pulse_area == pytest.approx(trapezoid_oracle(times, pressures, 0.5, 2.5), abs=1e-9)
    # min can sit on an interpolated edge when no sample falls inside
    narrow = PulseCurve(times=times, pressures=pressures, t_open=1.2, t_close=1.8, regen_duration=0.5)
    nf = extract_pulse_features(narrow)
    assert nf.p_min == pytest.approx(8.0 + 0.8 * (2.0 - 8.0), abs=1e-12)


def test_invariant_under_outside_samples():
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    pressures = np.array([9.0, 7.0, 3.0, 5.0, 8.0, 8.0])
    base = PulseCurve(times=times, pressures=pressures, t_open=2.0, t_close=4.0, regen_duration=1.0)
    extended = PulseCurve(
        times=np.concatenate(([0.0, 0.5], times, [7.0])),
        pressures=np.concatenate(([1.0, 2.0], pressures, [0.0])),
        t_open=2.0,
        t_close=4.0,
        regen_duration=1.0,
    )
    assert extract_pulse_features(base) == extract_pulse_features(extended)


@settings(max_examples=100)
@given(st.data())
def test_area_additivity_at_interior_sample(data):
    n = data.draw(st.integers(5, 12), label="n_samples")
    pressures = data.draw(
        st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=n, max_size=n),
        label="pressures",
    )
    times = np.arange(float(n))
    split = data.draw(st.integers(1, n - 3), label="split")
    curve = PulseCurve(
        times=times,
        pressures=np.array(pressures),
        t_open=0.0,
        t_close=float(n - 2),
        regen_duration=1.0,
    )
    feats = extract_pulse_features(curve)
    left = trapezoid_oracle(times, pressures, 0.0, float(split))
    right = trapezoid_oracle(times, pressures, float(split), float(n - 2))
    assert feats.pulse_area == pytest.approx(left + right, abs=1e-12)


def test_window_validation():
    # Samples that miss the windows are CurveErrors; windows that are
    # invalid on their own are plain ValueErrors.
    times = np.arange(0.0, 5.0)
    flat = np.full(5, 1.0)
    with pytest.raises(CurveError, match="before the first sample"):
        PulseCurve(times=times, pressures=flat, t_open=-1.0, t_close=2.0, regen_duration=1.0)
    with pytest.raises(CurveError, match="after the last sample"):
        PulseCurve(times=times, pressures=flat, t_open=1.0, t_close=3.0, regen_duration=5.0)
    with pytest.raises(CurveError, match="strictly increasing"):
        PulseCurve(times=np.array([0.0, 0.0, 1.0]), pressures=np.ones(3), t_open=0.0, t_close=0.5, regen_duration=0.1)
    with pytest.raises(CurveError, match="at least two samples"):
        PulseCurve(times=np.zeros(1), pressures=np.ones(1), t_open=0.0, t_close=0.5, regen_duration=0.1)
    with pytest.raises(ValueError, match="precede") as info:
        PulseCurve(times=times, pressures=flat, t_open=3.0, t_close=3.0, regen_duration=0.5)
    assert not isinstance(info.value, CurveError)
    with pytest.raises(ValueError, match="regen_duration must be non-negative") as info:
        PulseCurve(times=times, pressures=flat, t_open=1.0, t_close=2.0, regen_duration=float("nan"))
    assert not isinstance(info.value, CurveError)
    for window in ((-np.inf, 2.0, 1.0), (1.0, np.inf, 1.0), (1.0, 2.0, np.inf)):
        with pytest.raises(ValueError, match="must be finite") as info:
            PulseCurve(times, flat, *window)
        assert not isinstance(info.value, CurveError)


def test_curve_from_table_requires_two_columns():
    good = make_table([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], names=["t", "p"])
    curve = curve_from_table(good, t_open=0.0, t_close=1.0, regen_duration=1.0)
    assert curve.times.tolist() == [0.0, 1.0, 2.0]
    bad = make_table([[0.0], [1.0]], names=["t"])
    with pytest.raises(CurveError, match="2 columns"):
        curve_from_table(bad, t_open=0.0, t_close=1.0, regen_duration=0.5)
