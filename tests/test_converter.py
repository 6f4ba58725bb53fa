import io
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ganstress import (
    CircuitParams,
    DeviceState,
    DriveSignal,
    SimConfig,
    Waveform,
    extract_rds_on,
    ideal_boost_vout,
    periodic_steady_state,
    simulate,
    steady_state_metrics,
)
from ganstress.converter import (
    _CSV_CHUNK_ROWS,
    WAVEFORM_CSV_HEADER,
    _integrate,
    _solve_orbit,
    _window_metrics,
    write_waveform_csv,
)
from ganstress.errors import (
    DomainDivisionError,
    InsufficientDataError,
    InvalidParameterError,
    NumericInstabilityError,
)
from helpers import (
    reference_integrate,
    reference_write_waveform_csv,
    worst_charge_balance,
    worst_volt_second,
)

# Near-ideal switch for the lossless transfer-law checks.
IDEAL_SWITCH = DeviceState(rds_on_nominal=1e-9)


# Lossless boost with a resistive load; CCM at duties 0.3 to 0.7.
LOADED_BOOST = CircuitParams(vin=10.0, l_drain=100e-6, c_out=4.7e-6, v_supply=1000.0,
                             diode_vf=0.0, series_r=0.0, r_load=100.0)


def loaded_boost(duty, n_periods=500, settle=0.7, spp=1000):
    circuit = LOADED_BOOST
    drive = DriveSignal(frequency=100e3, duty=duty)
    sim = SimConfig(steps_per_period=spp, n_periods=n_periods, settle_fraction=settle)
    w = simulate(circuit, drive, IDEAL_SWITCH, sim)
    return w, circuit, drive, sim


def test_ideal_boost_vout_half_duty():
    assert ideal_boost_vout(10.0, 0.5) == pytest.approx(20.0, rel=1e-15)


def test_ideal_boost_vout_high_duty_endpoint():
    assert ideal_boost_vout(10.0, 0.9) == pytest.approx(100.0, rel=1e-12)


@given(vin=st.floats(-1e6, 1e6))
def test_ideal_boost_vout_identity_at_zero_duty(vin):
    assert ideal_boost_vout(vin, 0.0) == vin


def test_ideal_boost_vout_pole_and_domain():
    with pytest.raises(DomainDivisionError):
        ideal_boost_vout(10.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ideal_boost_vout(10.0, 1.5)
    with pytest.raises(InvalidParameterError):
        ideal_boost_vout(10.0, -0.1)
    with pytest.raises(InvalidParameterError):
        ideal_boost_vout(float("nan"), 0.5)


def test_duty_zero_unloaded_settles_at_source_minus_diode_drop():
    circuit = CircuitParams()
    drive = DriveSignal(duty=0.0)
    sim = SimConfig(n_periods=10)
    w = simulate(circuit, drive, DeviceState(), sim)
    assert w.v_out.min() == w.v_out.max() == pytest.approx(circuit.vin - circuit.diode_vf)
    assert w.i_l.max() == 0.0


def test_boost_law_ccm_half_duty():
    w, circuit, drive, sim = loaded_boost(0.5)
    m = steady_state_metrics(w, sim)
    start = len(w) - 150 * sim.steps_per_period
    avg = float(w.v_out[start:].mean())
    assert avg == pytest.approx(ideal_boost_vout(circuit.vin, 0.5), rel=0.02)
    assert w.i_l[start:].min() > 0  # continuous conduction
    # volt-second balance ties the mean drain voltage to the source
    assert m.v_in_avg == pytest.approx(circuit.vin, rel=0.02)


def test_boost_ratio_monotone_in_duty():
    w3, _, d3, s3 = loaded_boost(0.3, n_periods=400)
    w5, _, d5, s5 = loaded_boost(0.5, n_periods=400)
    start3 = len(w3) - 100 * s3.steps_per_period
    start5 = len(w5) - 100 * s5.steps_per_period
    assert w3.v_out[start3:].mean() < w5.v_out[start5:].mean()


def test_flat_drain_mean_does_not_round_above_its_peak():
    """At duty 0 the drain is flat at vin; the float mean of 30 001 copies of
    76.422 rounds above 76.422, which the metrics must not report."""
    circuit = CircuitParams(vin=76.422)
    drive = DriveSignal(duty=0.0)
    sim = SimConfig()
    m = steady_state_metrics(simulate(circuit, drive, DeviceState(), sim), sim)
    assert m.v_in_avg == m.v_max == 76.422


def test_stress_circuit_drain_clamped_near_supply():
    # stress configuration: drain spikes flow into the 100 V supply
    circuit = CircuitParams()  # vin=10, L=10u, c_out=25p, v_supply=100, vf=0.5
    drive = DriveSignal(frequency=100e3, duty=0.7)
    sim = SimConfig(steps_per_period=1000, n_periods=60)
    w = simulate(circuit, drive, DeviceState(), sim)
    m = steady_state_metrics(w, sim)
    assert m.v_max >= circuit.v_supply
    assert m.v_max <= (circuit.v_supply + circuit.diode_vf) * 1.01


def test_waveform_current_never_negative():
    w, *_ = loaded_boost(0.7, n_periods=120, settle=0.5)
    assert w.i_l.min() >= 0.0


def test_balances_in_stress_regime():
    circuit = CircuitParams(vin=18.9, v_supply=59.0)
    drive = DriveSignal(frequency=2.5e6, duty=0.7)
    sim = SimConfig(steps_per_period=400, n_periods=140)
    w = simulate(circuit, drive, DeviceState(), sim)
    assert worst_volt_second(w, sim, circuit) <= 0.01
    assert worst_charge_balance(w, sim, circuit) <= 0.01


def test_step_halving_convergence():
    circuit = CircuitParams(vin=18.9, v_supply=59.0)
    drive = DriveSignal(frequency=2.5e6, duty=0.7)
    metrics = []
    for spp in (400, 800):
        sim = SimConfig(steps_per_period=spp, n_periods=140)
        w = simulate(circuit, drive, DeviceState(), sim)
        metrics.append(steady_state_metrics(w, sim))
    m1, m2 = metrics
    assert abs(m2.v_max - m1.v_max) / m1.v_max <= 0.005
    assert abs(m2.v_in_avg - m1.v_in_avg) / m1.v_in_avg <= 0.005


@settings(max_examples=40, deadline=None)
@given(v_stress=st.floats(50.0, 110.0), rds_on=st.floats(1.0, 10.0),
       i_on=st.floats(0.35, 0.5), on_steps=st.integers(240, 300))
def test_solved_steady_state_extracts_rds_on(v_stress, rds_on, i_on, on_steps):
    """Clamped continuous conduction at 5 MHz: the solved period is exact,
    so extraction with shape factor 1 returns the device's rds_on."""
    spp = 400
    duty = on_steps / spp
    vf = 0.5
    circuit = CircuitParams(vin=duty * i_on * rds_on + (1.0 - duty) * v_stress,
                            v_supply=v_stress - 2.0 * vf, diode_vf=vf)
    drive = DriveSignal(frequency=5e6, duty=duty)
    m, fallback = periodic_steady_state(circuit, drive, DeviceState(rds_on_nominal=rds_on),
                                        SimConfig(steps_per_period=spp))
    assert fallback is None
    r = extract_rds_on(m.v_in_avg, m.v_max, duty, m.i_avg, 1.0)
    assert r == pytest.approx(rds_on, rel=1e-12)


@pytest.mark.parametrize("circuit, frequency, event", [
    (CircuitParams(), 100e3, "current reaches zero"),
    (CircuitParams(vin=18.9, v_supply=59.0, r_load=1e4), 5e6, "output leaves the clamp"),
])
def test_unsolvable_steady_state_falls_back_to_march(circuit, frequency, event):
    drive = DriveSignal(frequency=frequency, duty=0.7)
    sim = SimConfig(steps_per_period=400, n_periods=10)
    m, fallback = periodic_steady_state(circuit, drive, DeviceState(), sim)
    assert fallback == event
    assert m == steady_state_metrics(simulate(circuit, drive, DeviceState(), sim), sim)


def test_stiff_step_falls_back_to_march():
    """An on-phase h*(series_r + rds_on)/L of 1 or more is outside the closed form."""
    circuit = CircuitParams(vin=18.9, v_supply=59.0, l_drain=1.5e-9)  # h*rds_on/L = 1.1
    drive = DriveSignal(frequency=5e6, duty=0.7)
    sim = SimConfig(steps_per_period=400, n_periods=10)
    m, fallback = periodic_steady_state(circuit, drive, DeviceState(), sim)
    assert fallback == "step too stiff for the closed form"
    assert m == steady_state_metrics(simulate(circuit, drive, DeviceState(), sim), sim)


def test_clipped_off_predictor_falls_back_to_march():
    """Every sample of this circuit's affine orbit is positive (i* = 1.4 mA),
    but the last off-step predictor is -1.8 mA, which the kernel clips, so
    the step is not affine there."""
    circuit = CircuitParams(vin=10.0, l_drain=8e-9, v_supply=9.1795, series_r=0.5)
    drive = DriveSignal(frequency=5e6, duty=0.8)
    device = DeviceState(rds_on_nominal=2.0)
    sim = SimConfig(steps_per_period=100, n_periods=40)
    m, fallback = periodic_steady_state(circuit, drive, device, sim)
    assert fallback == "current reaches zero"
    assert m == steady_state_metrics(simulate(circuit, drive, device, sim), sim)


@settings(max_examples=150, deadline=None)
@given(spp=st.sampled_from([100, 400]), duty=st.floats(0.3, 0.8), rds_on=st.floats(0.1, 10.0),
       series_r=st.one_of(st.just(0.0), st.floats(0.1, 10.0)), stiffness=st.floats(1e-4, 0.9),
       vin=st.floats(1.0, 100.0), valley=st.floats(0.05, 3.0))
def test_closed_form_orbit_matches_stepped_period(spp, duty, rds_on, series_r, stiffness, vin, valley):
    """From the closed-form i*, one period stepped by the kernel stays in
    the clamped continuous-conduction topology, returns to i*, and its
    half-open samples reduce to the closed-form metrics.

    The circuit is built around an orbit: the period-start current is
    ``valley`` times the on-phase limit ``vin / (series_r + rds_on)``
    (above 1 the on-phase falls and the off-phase rises), and the clamp is
    set so that the off-phase returns the on-phase end current to it.
    ``stiffness`` is the on-phase ``h * (series_r + rds_on) / l_drain``.
    """
    frequency, vf = 5e6, 0.5
    h = 1.0 / (frequency * spp)
    l_drain = h * (series_r + rds_on) / stiffness
    n_on = round(duty * spp)
    n_off = spp - n_on
    i_fix = vin / (series_r + rds_on)
    i_valley = valley * i_fix
    i_top = i_fix + (i_valley - i_fix) * (1.0 - stiffness + 0.5 * stiffness**2) ** n_on
    if series_r == 0.0:
        g_off = (i_valley - i_top) / (n_off * h)  # a linear ramp
    else:
        x_off = h * series_r / l_drain
        a_off = (1.0 - x_off + 0.5 * x_off**2) ** n_off
        g_off = (i_valley - i_top * a_off) / (1.0 - a_off) * series_r / l_drain
    clamp = vin - vf - g_off * l_drain
    assume(clamp >= 0.0)
    circuit = CircuitParams(vin=vin, l_drain=l_drain, v_supply=clamp - vf, diode_vf=vf,
                            series_r=series_r)
    drive = DriveSignal(frequency=frequency, duty=duty)
    device = DeviceState(rds_on_nominal=rds_on)
    solved = _solve_orbit(circuit, drive, device, spp)
    assume(not isinstance(solved, str))  # a predictor below zero on a steep ramp
    i_star, metrics = solved

    i_l, v_out, v_ds, gate_on = run_kernel(_integrate, circuit, drive, device, spp, 1, i_star,
                                           circuit.clamp_voltage)
    assert (i_l > 0.0).all() and (v_out == circuit.clamp_voltage).all()
    assert i_l[-1] == pytest.approx(i_star, rel=1e-10)
    stepped = _window_metrics(v_ds[:spp], i_l[:spp], gate_on[:spp])
    assert astuple(metrics) == pytest.approx(astuple(stepped), rel=1e-10)


def run_kernel(kernel, circuit, drive, device, spp, n_periods, i, v):
    """Records of ``n_periods`` periods (rounded to whole steps) stepped by
    ``kernel`` from ``(i, v)``."""
    n = round(n_periods * spp) + 1
    records = (np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool))
    kernel(circuit, drive, device, spp, i, v, *records)
    return records


def quiescent_v(circuit):
    """Start voltage of a ``simulate`` run."""
    return min(max(circuit.vin - circuit.diode_vf, 0.0), circuit.clamp_voltage)


_STRESS_5MHZ = CircuitParams(vin=18.9, v_supply=59.0)

# Source above the clamp: the diode branch conducts at zero current.
_FORWARD_OPEN = CircuitParams(vin=50.0, v_supply=20.0)


@pytest.mark.parametrize("circuit, drive, device, spp, n_periods, i, v", [
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), 1000, 60, 0.0,
                 quiescent_v(CircuitParams()), id="default-simulate-dcm"),
    pytest.param(_STRESS_5MHZ, DriveSignal(frequency=5e6), DeviceState(), 400, 3, 0.4,
                 _STRESS_5MHZ.clamp_voltage, id="clamped-ccm-5mhz"),
    pytest.param(LOADED_BOOST, DriveSignal(duty=0.5), IDEAL_SWITCH, 1000, 20, 0.0, 10.0,
                 id="loaded-boost"),
    pytest.param(LOADED_BOOST, DriveSignal(duty=0.5), IDEAL_SWITCH, 1000, 20.3, 0.0, 10.0,
                 id="loaded-boost-ends-in-on-phase"),
    pytest.param(CircuitParams(series_r=2.0), DriveSignal(), DeviceState(), 1000, 10, 0.0,
                 quiescent_v(CircuitParams()), id="series-r"),
    pytest.param(CircuitParams(r_load=1e3), DriveSignal(duty=0.0), DeviceState(), 400, 10, 0.0,
                 quiescent_v(CircuitParams()), id="duty-0"),
    pytest.param(CircuitParams(), DriveSignal(duty=1.0), DeviceState(), 400, 10, 0.0,
                 quiescent_v(CircuitParams()), id="duty-1"),
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), 400, 3, 0.0,
                 CircuitParams().clamp_voltage + 10.0, id="unloaded-start-above-clamp"),
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), 1000, 5, -0.0,
                 CircuitParams().clamp_voltage, id="dcm-from-negative-zero-current"),
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), 400, 4, 0.0, -0.0,
                 id="unloaded-from-negative-zero-output"),
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), 1000, 5.85, 0.0,
                 quiescent_v(CircuitParams()), id="dcm-truncated-last-period"),
    pytest.param(_STRESS_5MHZ, DriveSignal(frequency=5e6), DeviceState(), 400, 40, 0.0,
                 quiescent_v(_STRESS_5MHZ), id="march-reaches-clamp-5mhz"),
    pytest.param(_STRESS_5MHZ, DriveSignal(frequency=5e6), DeviceState(), 400, 3, 0.01,
                 _STRESS_5MHZ.clamp_voltage, id="pinned-current-reaches-zero"),
    pytest.param(CircuitParams(v_supply=-0.5, diode_vf=0.5), DriveSignal(frequency=5e6),
                 DeviceState(), 400, 3, 0.1, 0.0, id="zero-clamp"),
    pytest.param(_FORWARD_OPEN, DriveSignal(frequency=5e6, duty=0.0), DeviceState(), 400, 3, 0.0,
                 _FORWARD_OPEN.clamp_voltage, id="pinned-forward-open"),
    pytest.param(_FORWARD_OPEN, DriveSignal(frequency=5e6, duty=0.0), DeviceState(), 400, 3, -0.1,
                 _FORWARD_OPEN.clamp_voltage, id="pinned-forward-open-from-negative-current"),
    # i * series_r outweighs the forward drive, and the step is stiff enough that the
    # predicted current clips to zero while the branch stays forward-open.
    pytest.param(CircuitParams(vin=50.0, v_supply=20.0, series_r=1000.0, l_drain=2.78e-7),
                 DriveSignal(frequency=5e6, duty=0.0), DeviceState(), 400, 3, 0.1,
                 _FORWARD_OPEN.clamp_voltage, id="pinned-forward-open-predictor-clipped"),
])
def test_kernel_matches_reference_stepper(circuit, drive, device, spp, n_periods, i, v):
    """The phase-split kernel reproduces the per-step reference bit for bit
    (bytes, so the sign of a zero counts)."""
    got = run_kernel(_integrate, circuit, drive, device, spp, n_periods, i, v)
    want = run_kernel(reference_integrate, circuit, drive, device, spp, n_periods, i, v)
    for name, a, b in zip(("i_l", "v_out", "v_ds", "gate_on"), got, want):
        assert a.tobytes() == b.tobytes(), name


def kernel_outcome(kernel, *args):
    """Records as bytes, or the step a NumericInstabilityError names."""
    try:
        return [a.tobytes() for a in run_kernel(kernel, *args)]
    except NumericInstabilityError as exc:
        return exc.step


@settings(max_examples=60, deadline=None)
@given(vin=st.floats(1.0, 80.0), stiffness=st.floats(0.01, 2.5), c_out=st.floats(1e-12, 1e-8),
       v_supply=st.floats(-0.5, 150.0), series_r=st.sampled_from([0.0, 0.7, 3.0]),
       r_load=st.one_of(st.none(), st.floats(10.0, 1e4)), rds_on=st.floats(0.01, 10.0),
       frequency=st.floats(1e5, 5e6), duty=st.floats(0.0, 1.0), i_scale=st.floats(0.0, 2.0),
       v_scale=st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
def test_kernel_matches_reference_on_random_circuits(vin, stiffness, c_out, v_supply, series_r, r_load,
                                                     rds_on, frequency, duty, i_scale, v_scale):
    """Bit-identical records, or the same failing step, on random circuits.

    ``stiffness`` is the on-phase ``h * (series_r + rds_on) / l_drain``:
    near 1 a one-ulp change in the predictor survives into the recorded
    current (past 2 the step is unstable and the run fails). Start currents
    reach twice the on-phase limit ``vin / (series_r + rds_on)``.
    ``v_supply`` starts at ``-diode_vf``, the lowest valid clamp (0 V).
    Many runs start on the clamp, where an unloaded off-phase steps the
    current alone.
    """
    spp = 100
    h = 1.0 / (frequency * spp)
    l_drain = h * (series_r + rds_on) / stiffness
    circuit = CircuitParams(vin=vin, l_drain=l_drain, c_out=c_out, v_supply=v_supply,
                            series_r=series_r, r_load=r_load)
    i0 = i_scale * vin / (series_r + rds_on)
    v0 = v_scale * circuit.clamp_voltage
    args = (circuit, DriveSignal(frequency=frequency, duty=duty), DeviceState(rds_on_nominal=rds_on),
            spp, 3, i0, v0)
    assert kernel_outcome(_integrate, *args) == kernel_outcome(reference_integrate, *args)


def test_instability_reports_step():
    """A blow-up in either gate phase, loaded or not, or in an off-phase
    pinned at the clamp, raises at the reference stepper's step."""
    drive = DriveSignal(duty=0.7)
    sim = SimConfig(n_periods=2)
    spp = sim.steps_per_period
    on_steps = round(drive.duty * spp)
    for circuit, in_on_phase in [
        (CircuitParams(l_drain=1e-300), True),
        (CircuitParams(c_out=1e-320), False),  # the diode current overflows dv = i / c_out
        (replace(LOADED_BOOST, l_drain=1e-300), True),
    ]:
        with pytest.raises(NumericInstabilityError) as excinfo:
            simulate(circuit, drive, DeviceState(), sim)
        with pytest.raises(NumericInstabilityError) as ref:
            run_kernel(reference_integrate, circuit, drive, DeviceState(), spp, sim.n_periods,
                       0.0, quiescent_v(circuit))
        assert "step" in str(excinfo.value)
        assert excinfo.value.step == ref.value.step
        assert (excinfo.value.step % spp < on_steps) == in_on_phase
        with pytest.raises(NumericInstabilityError):
            periodic_steady_state(circuit, drive, DeviceState(), sim)
    pinned = CircuitParams(l_drain=1e-320)
    args = (pinned, DriveSignal(duty=0.0), DeviceState(), spp, sim.n_periods, 1.0,
            pinned.clamp_voltage)
    assert kernel_outcome(_integrate, *args) == kernel_outcome(reference_integrate, *args) == 0


def make_waveform(v_ds, i_l=None, gate_on=None, dt=1e-6):
    n = len(v_ds)
    v_ds = np.asarray(v_ds, dtype=float)
    return Waveform(
        t=np.arange(n) * dt,
        v_ds=v_ds,
        i_l=np.zeros(n) if i_l is None else np.asarray(i_l, dtype=float),
        v_out=v_ds.copy(),
        gate_on=np.zeros(n, dtype=bool) if gate_on is None else np.asarray(gate_on, dtype=bool),
    )


def test_metrics_constant_waveform():
    spp = 100
    w = make_waveform([5.0] * (4 * spp + 1))
    sim = SimConfig(steps_per_period=spp, n_periods=4, settle_fraction=0.25)
    m = steady_state_metrics(w, sim)
    assert m.v_max == 5.0
    assert m.v_in_avg == pytest.approx(5.0, rel=1e-12)
    assert m.i_avg == 0.0


def test_metrics_square_plus_triangle_matches_transition_average():
    # 70% of the period at 0 V, then a symmetric triangle peaking at 60 V:
    # period average must equal 60 * (1 - 0.7) / 2 = 9 V
    spp = 1000
    on = int(0.7 * spp)
    period = np.zeros(spp)
    ramp = np.linspace(0.0, 1.0, (spp - on) // 2, endpoint=False)
    tri = 60.0 * np.concatenate([ramp, 1.0 - ramp])
    period[on:] = tri
    v_ds = np.concatenate([np.tile(period, 4), [0.0]])
    gate = np.concatenate([np.tile(np.arange(spp) < on, 4), [True]])
    w = make_waveform(v_ds, gate_on=gate)
    sim = SimConfig(steps_per_period=spp, n_periods=4, settle_fraction=0.0)
    m = steady_state_metrics(w, sim)
    assert m.v_max == pytest.approx(60.0, rel=0.01)
    assert m.v_in_avg == pytest.approx(9.0, rel=0.01)


def test_metrics_insufficient_data():
    spp = 100
    w = make_waveform([1.0] * (spp + 1))
    sim = SimConfig(steps_per_period=spp, n_periods=4, settle_fraction=0.5)
    with pytest.raises(InsufficientDataError):
        steady_state_metrics(w, sim)


def test_waveform_rejects_negative_current():
    with pytest.raises(InvalidParameterError):
        make_waveform([0.0, 0.0], i_l=[0.0, -1e-9])


@pytest.mark.parametrize("column", ["t", "v_ds", "i_l", "v_out"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_waveform_rejects_non_finite_columns(column, value):
    columns = dict(t=np.arange(3) * 1e-6, v_ds=np.zeros(3), i_l=np.zeros(3), v_out=np.zeros(3),
                   gate_on=np.zeros(3, dtype=bool))
    columns[column][-1] = value
    with pytest.raises(InvalidParameterError, match=f"waveform {column} must be finite"):
        Waveform(**columns)


def test_waveform_rejects_integer_gate():
    # Indexed by a 0/1 integer gate, i_l[gate] picks samples 0 and 1, not the
    # on-samples, so the metrics would be wrong: refuse the gate instead.
    n = 401
    gate = (np.arange(n) % 100) < 70
    columns = dict(t=np.arange(n) * 1e-8, v_ds=np.zeros(n), i_l=np.linspace(1.0, 2.0, n),
                   v_out=np.zeros(n))
    with pytest.raises(InvalidParameterError, match="gate_on must be boolean"):
        Waveform(**columns, gate_on=gate.astype(int))
    w = Waveform(**columns, gate_on=gate)
    assert _window_metrics(w.v_ds, w.i_l, w.gate_on).i_avg == pytest.approx(w.i_l[gate].mean())


def test_waveform_accepts_rounded_times_of_an_offset_grid():
    # Each time is rounded at the size of 1e3, so a step of 1e-8 varies by
    # about 1e-5 of itself: uniform up to the rounding of the times.
    t = 1e3 + np.arange(1000) * 1e-8
    assert np.ptp(np.diff(t)) > 1e-9 * 1e-8
    Waveform(t=t, v_ds=np.zeros(1000), i_l=np.zeros(1000), v_out=np.zeros(1000),
             gate_on=np.zeros(1000, dtype=bool))


@pytest.mark.parametrize("start", [0.0, 1e3])
def test_waveform_rejects_a_step_off_by_one_part_in_a_million(start):
    dt = np.full(999, 1e-8 if start == 0.0 else 1e-3)
    dt[500] *= 1.0 + 1e-6
    t = start + np.concatenate([[0.0], np.cumsum(dt)])
    with pytest.raises(InvalidParameterError, match="time step must be uniform"):
        Waveform(t=t, v_ds=np.zeros(1000), i_l=np.zeros(1000), v_out=np.zeros(1000),
                 gate_on=np.zeros(1000, dtype=bool))


def test_waveform_csv_header_and_determinism():
    w, *_ = loaded_boost(0.5, n_periods=5, settle=0.0, spp=100)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_waveform_csv(w, buf1)
    write_waveform_csv(w, buf2)
    text = buf1.getvalue()
    assert text.splitlines()[0] == WAVEFORM_CSV_HEADER
    assert len(text.splitlines()) == len(w) + 1
    assert text == buf2.getvalue()
    row = text.splitlines()[1].split(",")
    assert len(row) == 5
    assert row[4] in ("0", "1")


def _write(writer, w):
    buf = io.StringIO()
    writer(w, buf)
    return buf.getvalue()


@pytest.mark.parametrize("circuit, drive, device, sim", [
    pytest.param(CircuitParams(), DriveSignal(), DeviceState(), SimConfig(), id="default-simulate"),
    pytest.param(LOADED_BOOST, DriveSignal(duty=0.5), IDEAL_SWITCH, SimConfig(n_periods=20),
                 id="loaded-boost"),
    pytest.param(_STRESS_5MHZ, DriveSignal(frequency=5e6), DeviceState(),
                 SimConfig(steps_per_period=400, n_periods=60), id="clamped-ccm-5mhz"),
    pytest.param(CircuitParams(), DriveSignal(frequency=5e6), DeviceState(),
                 SimConfig(steps_per_period=400), id="default-5mhz-400"),
    pytest.param(CircuitParams(), DriveSignal(frequency=123457), DeviceState(), SimConfig(),
                 id="default-123457hz"),
])
def test_waveform_csv_matches_reference_writer(circuit, drive, device, sim):
    w = simulate(circuit, drive, device, sim)
    assert _write(write_waveform_csv, w) == _write(reference_write_waveform_csv, w)


# Values whose repr or bit pattern a column-wise writer could get wrong.
_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                     1e22, 1e16, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1]),
       dt=st.floats(1e-12, 1e3), palettes=st.lists(st.lists(_CSV_VALUES, min_size=1, max_size=6),
                                                   min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_waveform_csv_matches_reference_on_built_waveforms(n, dt, palettes, seed):
    """Columns drawn from a few values, mixing signed zeros, subnormals,
    extremes and repeats, over lengths that end on either side of a chunk."""
    rng = np.random.default_rng(seed)
    v_ds, i_l, v_out = (np.array(p)[rng.integers(len(p), size=n)] for p in palettes)
    i_l = np.where(i_l < 0.0, -i_l, i_l)  # the waveform rejects i_l < 0; -0.0 passes
    w = Waveform(t=np.arange(n) * dt, v_ds=v_ds, i_l=i_l, v_out=v_out,
                 gate_on=rng.integers(2, size=n).astype(bool))
    assert _write(write_waveform_csv, w) == _write(reference_write_waveform_csv, w)


# Time steps m * 10**e: small mantissas over exponents that take a run
# across the 1e-4 switch to fixed-point, or up to and past 1e16, and one
# 16-digit step just past the 15 digits that a double always round-trips.
_DECIMAL_STEPS = st.one_of(
    st.tuples(st.sampled_from([1, 2, 5, 25, 125, 3]), st.integers(-10, 0)),
    st.tuples(st.sampled_from([1, 2, 5, 25, 125, 3]), st.integers(11, 13)),
    st.just((1234567890123457, -16)),
)


@settings(max_examples=60, deadline=None)
@given(step=_DECIMAL_STEPS, start=st.sampled_from([0.0, -0.0, 1e3, 0.25]),
       n=st.sampled_from([1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS + 1]),
       seed=st.integers(0, 2**32 - 1))
@example(step=(1, -7), start=0.0, n=_CSV_CHUNK_ROWS + 1, seed=0)  # crosses 1e-4
@example(step=(1, 13), start=0.0, n=_CSV_CHUNK_ROWS - 1, seed=0)  # crosses 1e16
@example(step=(1234567890123457, -16), start=0.0, n=_CSV_CHUNK_ROWS - 1, seed=0)
@example(step=(1, -1), start=0.0, n=_CSV_CHUNK_ROWS - 1, seed=0)  # one decimal place
@example(step=(1, -23), start=0.0, n=_CSV_CHUNK_ROWS - 1, seed=0)  # 10.0**23 is inexact
def test_waveform_csv_time_column_matches_reference(step, start, n, seed):
    """Times on a grid of decimal steps, mostly exact short decimals that
    the writer builds from integers, written as the reference writes them."""
    m, e = step
    h = m / 10.0**-e if e < 0 else m * 10.0**e  # the correctly rounded m * 10**e
    t = start + np.arange(n) * h
    t[0] = start  # keeps a -0.0 start
    rng = np.random.default_rng(seed)
    w = Waveform(t=t, v_ds=rng.normal(size=n), i_l=np.zeros(n), v_out=np.ones(n),
                 gate_on=rng.integers(2, size=n).astype(bool))
    assert _write(write_waveform_csv, w) == _write(reference_write_waveform_csv, w)


def test_sim_config_bounds():
    with pytest.raises(InvalidParameterError):
        SimConfig(steps_per_period=50)
    with pytest.raises(InvalidParameterError):
        SimConfig(n_periods=1)
    with pytest.raises(InvalidParameterError):
        SimConfig(settle_fraction=1.0)


def test_drive_bounds():
    with pytest.raises(InvalidParameterError):
        DriveSignal(duty=1.2)
    with pytest.raises(InvalidParameterError):
        DriveSignal(frequency=0.0)
    with pytest.raises(InvalidParameterError):
        DriveSignal(v_gate_low=1.0)


def test_circuit_bounds():
    with pytest.raises(InvalidParameterError):
        CircuitParams(vin=0.0)
    with pytest.raises(InvalidParameterError):
        CircuitParams(l_drain=-1e-6)
    with pytest.raises(InvalidParameterError):
        CircuitParams(diode_vf=-0.1)
    with pytest.raises(InvalidParameterError):
        CircuitParams(r_load=0.0)


@pytest.mark.parametrize("field", ["vin", "l_drain", "c_out", "v_supply", "diode_vf", "series_r"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_circuit_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        CircuitParams(**{field: value})


def test_circuit_rejects_clamp_below_ground():
    with pytest.raises(InvalidParameterError, match="clamp"):
        CircuitParams(v_supply=-0.6, diode_vf=0.5)
    assert CircuitParams(v_supply=-0.5, diode_vf=0.5).clamp_voltage == 0.0
