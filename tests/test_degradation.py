import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ganstress import (
    DegradationParams,
    DeviceState,
    apply_stress_step,
    delta_r_fraction,
    stress_slope,
)
from ganstress.degradation import K_BOLTZMANN_EV
from ganstress.errors import InvalidParameterError

# Frozen by an independent high-precision scalar evaluation:
#   slope = b * ln(1 + exp((100 - 100)/10)) * sqrt(298.15) * exp(0.092/(8.617e-5 * 298.15))
#         = 2e-5 * ln 2 * sqrt(298.15) * exp(3.58093...)
SLOPE_100V_298K = 8.595178553652787e-3
DELTA_100V_298K_100MIN = 0.039667784888876956  # slope * ln(101)

DEFAULTS = DegradationParams()


def test_default_parameter_values():
    assert DEFAULTS.a == 0.0
    assert DEFAULTS.b == 2.0e-5
    assert DEFAULTS.hbar_omega_lo == 0.092
    assert DEFAULTS.v_fd == 100.0
    assert DEFAULTS.alpha == 10.0
    assert DEFAULTS.t0 == 1.0
    assert K_BOLTZMANN_EV == 8.617e-5
    assert DEFAULTS.vertical_offset == 0.0


def test_slope_zero_coefficient():
    params = DegradationParams(b=0.0)
    assert stress_slope(params, 500.0, 400.0) == 0.0


def test_slope_at_full_depletion_knee():
    assert stress_slope(DEFAULTS, 100.0, 298.15) == pytest.approx(SLOPE_100V_298K, rel=1e-12)


def test_slope_voltage_acceleration():
    assert stress_slope(DEFAULTS, 40.0, 298.15) < stress_slope(DEFAULTS, 100.0, 298.15)


def test_slope_overflow_safe_for_extreme_voltage():
    # softplus switches to its linear asymptote; exp() must not overflow
    s = stress_slope(DEFAULTS, 1e6, 298.15)
    linear = DEFAULTS.b * ((1e6 - 100.0) / 10.0) * math.sqrt(298.15) * math.exp(
        0.092 / (8.617e-5 * 298.15)
    )
    assert math.isfinite(s)
    assert s == pytest.approx(linear, rel=1e-9)


def test_slope_rejects_bad_temperature():
    with pytest.raises(InvalidParameterError):
        stress_slope(DEFAULTS, 100.0, 0.0)
    with pytest.raises(InvalidParameterError):
        stress_slope(DEFAULTS, 100.0, -10.0)


def test_slope_rejects_non_finite_voltage():
    with pytest.raises(InvalidParameterError):
        stress_slope(DEFAULTS, float("inf"), 298.15)


def test_negative_temperature_coefficient_on_grid():
    # sqrt(T) * exp(hw/kT) falls with T everywhere below 2*hw/k ~ 2135 K
    temps = [250.0 + 10.0 * k for k in range(21)]
    for v_ds in (40.0, 70.0, 100.0):
        slopes = [stress_slope(DEFAULTS, v_ds, t) for t in temps]
        assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_delta_zero_time():
    assert delta_r_fraction(DEFAULTS, 100.0, 298.15, 0.0) == 0.0


def test_delta_one_log_unit():
    t = math.e - 1.0
    assert delta_r_fraction(DEFAULTS, 100.0, 298.15, t) == pytest.approx(
        stress_slope(DEFAULTS, 100.0, 298.15), rel=1e-12
    )


def test_delta_frozen_at_100_minutes():
    assert delta_r_fraction(DEFAULTS, 100.0, 298.15, 100.0) == pytest.approx(
        DELTA_100V_298K_100MIN, rel=1e-12
    )


def test_delta_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        delta_r_fraction(DEFAULTS, 100.0, 298.15, -1.0)


def test_vertical_offset_shifts_curve_only():
    offset = DegradationParams(vertical_offset=1e-3)
    base = delta_r_fraction(DEFAULTS, 100.0, 298.15, 50.0)
    assert delta_r_fraction(offset, 100.0, 298.15, 50.0) == pytest.approx(base + 1e-3, rel=1e-12)
    # slope untouched
    assert stress_slope(offset, 100.0, 298.15) == stress_slope(DEFAULTS, 100.0, 298.15)


def test_apply_stress_step_no_degradation_when_b_zero():
    state = DeviceState()
    params = DegradationParams(b=0.0)
    out = apply_stress_step(state, params, 100.0, 298.15, 10.0)
    assert out.delta_r_fraction == 0.0
    assert out.stress_time == 10.0


def test_apply_stress_step_split_equals_single_step():
    state = DeviceState()
    one = apply_stress_step(state, DEFAULTS, 100.0, 298.15, 100.0)
    two = apply_stress_step(
        apply_stress_step(state, DEFAULTS, 100.0, 298.15, 50.0), DEFAULTS, 100.0, 298.15, 50.0
    )
    assert abs(one.delta_r_fraction - two.delta_r_fraction) <= 1e-12
    assert one.stress_time == two.stress_time == 100.0


def test_apply_stress_step_sequence_concave_increasing():
    state = DeviceState()
    deltas = []
    for _ in range(12):
        state = apply_stress_step(state, DEFAULTS, 100.0, 298.15, 1.0)
        deltas.append(state.delta_r_fraction)
    increments = [b - a for a, b in zip(deltas, deltas[1:])]
    assert all(d > 0 for d in increments)
    assert all(b < a for a, b in zip(increments, increments[1:]))


def test_apply_stress_step_never_decreases_after_stress_relief():
    state = apply_stress_step(DeviceState(), DEFAULTS, 110.0, 298.15, 100.0)
    relaxed = apply_stress_step(state, DEFAULTS, 20.0, 298.15, 1.0)
    assert relaxed.delta_r_fraction >= state.delta_r_fraction


def test_apply_stress_step_rejects_bad_dt():
    with pytest.raises(InvalidParameterError):
        apply_stress_step(DeviceState(), DEFAULTS, 100.0, 298.15, 0.0)


def test_apply_stress_step_refuses_a_nan_law_value():
    """Finite parameters can still make the law NaN: a knee width so small
    that the softplus gate overflows, times b = 0. The step must refuse it,
    not keep the previous fraction."""
    params = DegradationParams(a=0.01, b=0.0, alpha=1e-310)
    assert math.isnan(stress_slope(params, 110.0, 298.15))
    with pytest.raises(InvalidParameterError, match="delta_r_fraction must be >= 0 and finite"):
        apply_stress_step(DeviceState(), params, 110.0, 298.15, 10.0)


def test_log_linearity_far_above_reference_time():
    # secant slope of delta vs ln(t) within 1% of the stress slope for t >= 100*t0
    s = stress_slope(DEFAULTS, 100.0, 298.15)
    d1 = delta_r_fraction(DEFAULTS, 100.0, 298.15, 100.0)
    d2 = delta_r_fraction(DEFAULTS, 100.0, 298.15, 10000.0)
    secant = (d2 - d1) / (math.log(10000.0) - math.log(100.0))
    assert secant == pytest.approx(s, rel=0.01)


@given(lo=st.floats(-200.0, 300.0), gap=st.floats(1e-6, 100.0))
def test_slope_strictly_increasing_in_voltage(lo, gap):
    assert stress_slope(DEFAULTS, lo + gap, 298.15) > stress_slope(DEFAULTS, lo, 298.15)


@given(
    t1=st.floats(0.0, 1e4),
    t2=st.floats(0.0, 1e4),
    v=st.floats(20.0, 120.0),
)
def test_delta_nondecreasing_and_concave_in_time(t1, t2, v):
    lo, hi = sorted((t1, t2))
    d_lo = delta_r_fraction(DEFAULTS, v, 298.15, lo)
    d_hi = delta_r_fraction(DEFAULTS, v, 298.15, hi)
    assert d_hi >= d_lo
    mid = 0.5 * (lo + hi)
    d_mid = delta_r_fraction(DEFAULTS, v, 298.15, mid)
    assert d_mid >= 0.5 * (d_lo + d_hi) - 1e-15
