
from dataclasses import astuple, replace

import numpy as np
import pytest

from ganstress import (
    EPC2038,
    CircuitParams,
    DegradationParams,
    DeviceState,
    RdsSample,
    SimConfig,
    StressCell,
    apply_stress_step,
    extract_rds_on,
    periodic_steady_state,
    run_cell,
    run_matrix,
    simulate,
    steady_state_metrics,
    stress_slope,
)
from ganstress import campaign, converter
from ganstress.campaign import (
    CAMPAIGN_DRIVE,
    CAMPAIGN_SIM,
    cell_circuit,
    default_sample_times,
    tune_vin,
)
from ganstress.config import parse_config
from ganstress.errors import InvalidParameterError

CIRCUIT = CircuitParams()
DEG_DEFAULTS = DegradationParams()

SHORT_TIMES = tuple(float(t) for t in np.logspace(1, 3, 7))  # 10 .. 1000 min


def make_cell(v_stress, temp=298.15, times=SHORT_TIMES, **kw):
    return StressCell(v_stress=v_stress, temp=temp, sample_times=times, **kw)


@pytest.fixture(scope="module")
def cell60_result():
    return run_cell(make_cell(60.0), CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)


def test_no_degradation_gives_flat_series(cell60_result):
    deg_off = DegradationParams(b=0.0)
    res = run_cell(make_cell(60.0), CIRCUIT, CAMPAIGN_DRIVE, EPC2038, deg_off, CAMPAIGN_SIM)
    values = [s.rds_on for s in res.samples]
    assert max(values) - min(values) <= 0.005 * min(values)
    assert res.fit is not None
    assert abs(res.fit.slope) <= 1e-9


def test_first_sample_close_to_nominal(cell60_result):
    res = cell60_result
    assert not res.aborted
    assert len(res.samples) == len(SHORT_TIMES)
    first = res.samples[0].rds_on
    assert first == pytest.approx(EPC2038.rds_on_nominal, rel=0.05)


def test_measured_peak_matches_stress_level(cell60_result):
    assert cell60_result.v_max_measured == pytest.approx(60.0, rel=1e-3)


def test_tuned_current_hits_target(cell60_result):
    circ = replace(cell_circuit(make_cell(60.0), CIRCUIT), vin=cell60_result.vin_tuned)
    w = simulate(circ, CAMPAIGN_DRIVE, DeviceState(rds_on_nominal=3.3), CAMPAIGN_SIM)
    m = steady_state_metrics(w, CAMPAIGN_SIM, CAMPAIGN_DRIVE)
    assert m.i_avg == pytest.approx(0.4, rel=0.02)


def test_samples_monotone_nondecreasing(cell60_result):
    values = [s.rds_on for s in cell60_result.samples]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_fit_tracks_degradation_slope(cell60_result):
    fit = cell60_result.fit
    expected = EPC2038.rds_on_nominal * stress_slope(DEG_DEFAULTS, 60.0, 298.15)
    assert fit is not None
    assert fit.slope == pytest.approx(expected, rel=0.05)
    assert fit.r_squared >= 0.99


def test_slopes_ordered_by_stress_voltage(cell60_result):
    res85 = run_cell(make_cell(85.0), CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    res110 = run_cell(make_cell(110.0), CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    slopes = [cell60_result.fit.slope, res85.fit.slope, res110.fit.slope]
    assert slopes[0] < slopes[1] < slopes[2]


def test_higher_temperature_lowers_slope(cell60_result):
    hot = run_cell(make_cell(60.0, temp=398.15), CIRCUIT, CAMPAIGN_DRIVE, EPC2038,
                   DEG_DEFAULTS, CAMPAIGN_SIM)
    assert hot.fit.slope < cell60_result.fit.slope


def test_matrix_order_and_determinism():
    cells = [make_cell(60.0, times=SHORT_TIMES[:3]), make_cell(60.0, times=SHORT_TIMES[:3])]
    result = run_matrix(cells, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    a, b = result.cells
    assert a.samples == b.samples
    assert a.fit == b.fit
    assert a.vin_tuned == b.vin_tuned


def test_single_cell_matrix_wraps_run_cell():
    cell = make_cell(60.0, times=SHORT_TIMES[:3])
    direct = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    wrapped = run_matrix([cell], CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert wrapped.cells[0] == direct


def test_soa_violations_recorded_run_continues():
    cell = make_cell(130.0, times=SHORT_TIMES[:3])  # beyond the 120 V pulsed limit
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert not res.aborted
    assert len(res.samples) == 3
    assert any(v.limit == "vds_max_pulsed" for _, v in res.soa_violations)


def test_unstable_cell_aborts_without_failing_matrix():
    bad_circuit = CircuitParams(l_drain=1e-300)
    cells = [make_cell(60.0, times=SHORT_TIMES[:3])]
    result = run_matrix(cells, bad_circuit, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert result.cells[0].aborted
    assert result.cells[0].abort_reason


def test_default_schedule_is_log_spaced():
    times = default_sample_times(1000.0)
    assert len(times) == 61
    assert times[0] == pytest.approx(1.0, rel=1e-9)
    assert times[-1] == pytest.approx(1000.0, rel=1e-9)
    ratios = [b / a for a, b in zip(times, times[1:])]
    assert max(ratios) - min(ratios) < 1e-6


def test_cell_validation():
    with pytest.raises(InvalidParameterError):
        StressCell(v_stress=60.0, temp=298.15, duty=1.0)
    with pytest.raises(InvalidParameterError):
        StressCell(v_stress=60.0, temp=298.15, duration=0.0)
    with pytest.raises(InvalidParameterError):
        StressCell(v_stress=60.0, temp=298.15, sample_times=(10.0, 5.0))
    with pytest.raises(InvalidParameterError):
        StressCell(v_stress=60.0, temp=298.15, sample_times=(10.0, 2000.0))


def count_measurements(monkeypatch) -> list:
    """Record every campaign measurement as (args, fallback)."""
    calls = []

    def counting(*args):
        m, fallback = periodic_steady_state(*args)
        calls.append((args, fallback))
        return m, fallback

    monkeypatch.setattr(campaign, "periodic_steady_state", counting)
    return calls


def test_default_matrix_steps_nothing(monkeypatch):
    """Every measurement of the default matrix is solved in closed form, so
    the step loop never runs."""
    measurements = count_measurements(monkeypatch)
    steps = []
    real_integrate = converter._integrate

    def counting_integrate(*args):
        steps.append(args)
        real_integrate(*args)

    monkeypatch.setattr(converter, "_integrate", counting_integrate)
    cfg = parse_config("", "campaign")
    result = run_matrix(cfg.cells, cfg.circuit, cfg.drive, cfg.ratings, cfg.degradation, cfg.sim)
    assert all(len(c.samples) == 61 and not c.quality_flags for c in result.cells)
    assert len(measurements) >= 3 * 61
    assert all(fallback is None for _, fallback in measurements)
    assert steps == []


def test_tune_vin_returns_first_guess_after_one_measurement(monkeypatch):
    calls = count_measurements(monkeypatch)
    cell = StressCell(v_stress=60.0, temp=298.15)
    device = DeviceState(rds_on_nominal=EPC2038.rds_on_nominal)
    vin = tune_vin(cell, cell_circuit(cell, CIRCUIT), CAMPAIGN_DRIVE, device, CAMPAIGN_SIM)
    assert len(calls) == 1
    assert vin == cell.duty * cell.i_drive * device.rds_on + (1.0 - cell.duty) * cell.v_stress


@pytest.mark.parametrize("v_stress", [60.0, 85.0, 110.0])
def test_solved_steady_state_matches_long_march(v_stress):
    """At the tuned vin of each default cell, the solved period equals the
    last half-open period of a 600-period march."""
    cell = StressCell(v_stress=v_stress, temp=298.15)
    device = DeviceState(rds_on_nominal=EPC2038.rds_on_nominal)
    circ = cell_circuit(cell, CIRCUIT)
    circ = replace(circ, vin=tune_vin(cell, circ, CAMPAIGN_DRIVE, device, CAMPAIGN_SIM))
    m, fallback = periodic_steady_state(circ, CAMPAIGN_DRIVE, device, CAMPAIGN_SIM)
    assert fallback is None

    spp = CAMPAIGN_SIM.steps_per_period
    w = simulate(circ, CAMPAIGN_DRIVE, device, SimConfig(steps_per_period=spp, n_periods=600))
    last = slice(len(w) - 1 - spp, len(w) - 1)
    on = w.gate_on[last]
    marched = (w.v_ds[last].max(), w.v_ds[last].mean(), w.i_l[last][on].mean(), w.i_l[last].max())
    assert astuple(m) == pytest.approx(marched, rel=1e-9)


def test_dcm_cell_falls_back_to_the_exact_march(monkeypatch):
    """The 120 V / 0.25 A cell's periodic orbit is discontinuous, so every
    measurement, tuning included, is the 140-period march of CAMPAIGN_SIM."""
    calls = count_measurements(monkeypatch)
    cell = make_cell(120.0, times=(10.0, 1000.0), i_drive=0.25)
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert not res.aborted
    assert [fallback for _, fallback in calls] == ["current reaches zero"] * len(calls)
    n_tuning = len(calls) - len(cell.schedule())
    assert n_tuning >= 1
    assert all(f.startswith("tuning (vin = ") for f in res.quality_flags[:n_tuning])
    assert res.quality_flags[n_tuning:] == [
        "sample 0 (t = 10 min): marched steady state (current reaches zero)",
        "sample 1 (t = 1000 min): marched steady state (current reaches zero)",
    ]

    circ = replace(cell_circuit(cell, CIRCUIT), vin=res.vin_tuned)
    state = DeviceState(rds_on_nominal=EPC2038.rds_on_nominal)
    expected = []
    t_prev = 0.0
    for t in cell.schedule():
        state = apply_stress_step(state, DEG_DEFAULTS, cell.v_stress, cell.temp, t - t_prev)
        t_prev = t
        w = simulate(circ, CAMPAIGN_DRIVE, state, CAMPAIGN_SIM)
        m = steady_state_metrics(w, CAMPAIGN_SIM, CAMPAIGN_DRIVE)
        r = extract_rds_on(m.v_in_avg, m.v_max, cell.duty, m.i_avg, cell.shape_factor)
        expected.append(RdsSample(t, r))
    assert res.samples == expected
