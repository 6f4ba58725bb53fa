
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
    delta_r_fraction,
    extract_rds_on,
    fit_log_time,
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
    CampaignResult,
    cell_circuit,
    default_sample_times,
    tune_vin,
)
from ganstress.config import parse_config
from ganstress.errors import InsufficientDataError, InvalidParameterError
from ganstress.results import emit_results

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
    m = steady_state_metrics(w, CAMPAIGN_SIM)
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


def test_recovered_slope_is_explained_by_the_log_time_regressor():
    """The ln(t) fit of each default cell recovers the injected slope times
    the ln(t) slope of ln(1 + t/t0) over the schedule; refitting against
    ln(1 + t/t0) recovers the injected slope itself."""
    cfg = parse_config("", "campaign")
    result = run_matrix(cfg.cells, cfg.circuit, cfg.drive, cfg.ratings, cfg.degradation, cfg.sim)
    t0 = cfg.degradation.t0
    for res in result.cells:
        injected = cfg.ratings.rds_on_nominal * stress_slope(cfg.degradation, res.cell.v_stress,
                                                             res.cell.temp)
        regressor = fit_log_time([RdsSample(t, np.log1p(t / t0)) for t in res.cell.schedule()])
        assert res.fit.slope / injected == pytest.approx(regressor.slope, rel=1e-9)
        refit = fit_log_time([RdsSample(1.0 + s.t / t0, s.rds_on) for s in res.samples])
        assert refit.slope == pytest.approx(injected, rel=1e-11)


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


@pytest.fixture(scope="module")
def dcm_cell_result():
    """A cell whose measurements all leave flags (its orbit is discontinuous)
    and SOA records (``id_max`` lowered below its peak current)."""
    cell = make_cell(120.0, times=SHORT_TIMES[:5], i_drive=0.25)
    ratings = replace(EPC2038, id_max=0.3)
    return cell, ratings, run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, ratings, DEG_DEFAULTS,
                                   CAMPAIGN_SIM)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_failure_at_a_sample_keeps_what_was_measured(monkeypatch, dcm_cell_result, k):
    cell, ratings, solo = dcm_cell_result
    assert len(solo.samples) == 5 and len(solo.soa_violations) == 5 and not solo.aborted
    sample_calls = []

    def failing(circuit, drive, device, sim):
        if device.delta_r_fraction > 0.0:   # tuning measures the fresh device
            sample_calls.append(device)
            if len(sample_calls) == k + 1:
                raise InsufficientDataError("injected")
        return periodic_steady_state(circuit, drive, device, sim)

    monkeypatch.setattr(campaign, "periodic_steady_state", failing)
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, ratings, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert res.aborted
    assert res.abort_reason == f"sample {k} (t = {SHORT_TIMES[k]:g} min): injected"
    assert res.vin_tuned == solo.vin_tuned
    assert res.samples == solo.samples[:k]
    assert res.soa_violations == [(i, v) for i, v in solo.soa_violations if i < k]
    assert res.quality_flags == [f for f in solo.quality_flags
                                 if not f.startswith("sample ") or int(f.split()[1]) < k]
    assert res.fit == (fit_log_time(res.samples) if k >= 2 else None)
    assert (res.v_max_measured > 0.0) == (k > 0)


@pytest.mark.parametrize("bad, reason", [
    (dict(v_stress=0.25), "circuit set-up: clamp v_supply + diode_vf must be >= 0, got -0.25"),
    (dict(v_stress=60.0, temp=0.001),
     "sample 0 (t = 10 min): thermal factor overflows at temp = 0.001 K"),
], ids=["clamp-below-ground", "thermal-overflow"])
def test_failing_cell_names_its_stage_and_spares_the_next(bad, reason):
    bad_cell = make_cell(times=SHORT_TIMES[:3], **bad)
    good_cell = make_cell(85.0, times=SHORT_TIMES[:3])
    result = run_matrix([bad_cell, good_cell], CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS,
                        CAMPAIGN_SIM)
    aborted, good = result.cells
    assert aborted.aborted
    assert aborted.abort_reason == reason
    assert aborted.samples == [] and aborted.fit is None
    assert good == run_cell(good_cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS,
                            CAMPAIGN_SIM)


def test_nan_law_value_aborts_the_sample():
    """Finite parameters can still make the law NaN: a knee width so small
    that the softplus gate overflows, times b = 0. The cell must refuse it at
    the first sample, not keep the fresh device's fraction."""
    deg = DegradationParams(a=0.01, b=0.0, alpha=1e-310)
    assert np.isnan(stress_slope(deg, 110.0, 298.15))
    cell = make_cell(110.0, times=(1.0, 10.0))
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, deg, CAMPAIGN_SIM)
    assert res.aborted
    assert res.abort_reason == (
        "sample 0 (t = 1 min): delta_r_fraction must be >= 0 and finite, got nan")
    assert res.samples == [] and res.fit is None


def test_negative_law_keeps_the_fresh_device():
    """A law with a negative slope never lowers the device's fraction below
    the previous sample's: every sample measures the fresh device."""
    deg = DegradationParams(a=-1.0)
    assert stress_slope(deg, 110.0, 298.15) < -0.98
    cell = make_cell(110.0)
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, deg, CAMPAIGN_SIM)
    fresh = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DegradationParams(b=0.0),
                     CAMPAIGN_SIM)
    assert not res.aborted and not res.quality_flags
    assert len({s.rds_on for s in res.samples}) == 1
    assert res.samples == fresh.samples and res.fit == fresh.fit
    assert res.fit.slope == 0.0 and res.fit.r_squared == 0.0
    assert res.fit.intercept == res.samples[0].rds_on


def test_non_positive_extraction_skips_the_sample(tmp_path):
    """A shape factor of 0.5 makes every extraction negative: each sample is
    flagged and skipped, so the cell keeps no samples and has no fit but is
    not aborted, and its summary row leaves the fit columns empty."""
    cell = make_cell(60.0, shape_factor=0.5)
    res = run_cell(cell, CIRCUIT, CAMPAIGN_DRIVE, EPC2038, DEG_DEFAULTS, CAMPAIGN_SIM)
    assert not res.aborted and res.samples == [] and res.fit is None
    assert len(res.quality_flags) == len(cell.schedule())
    for idx, (t, flag) in enumerate(zip(cell.schedule(), res.quality_flags)):
        stage, r = flag.split(": non-positive extraction ")
        assert stage == f"sample {idx} (t = {t:g} min)"
        assert -61.2 < float(r) < -61.0
    emit_results(CampaignResult(cells=[res]), tmp_path)
    assert (tmp_path / "summary.csv").read_text().splitlines()[1] == "cell00,60.0,60.0,298.15,,,"


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
    flags = []
    vin = tune_vin(cell, cell_circuit(cell, CIRCUIT), CAMPAIGN_DRIVE, device, CAMPAIGN_SIM, flags)
    assert len(calls) == 1 and flags == []
    assert vin == cell.duty * cell.i_drive * device.rds_on + (1.0 - cell.duty) * cell.v_stress


@pytest.mark.parametrize("v_stress", [60.0, 85.0, 110.0])
def test_solved_steady_state_matches_long_march(v_stress):
    """At the tuned vin of each default cell, the solved period equals the
    last half-open period of a 600-period march."""
    cell = StressCell(v_stress=v_stress, temp=298.15)
    device = DeviceState(rds_on_nominal=EPC2038.rds_on_nominal)
    circ = cell_circuit(cell, CIRCUIT)
    circ = replace(circ, vin=tune_vin(cell, circ, CAMPAIGN_DRIVE, device, CAMPAIGN_SIM, []))
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
    for t in cell.schedule():
        state = DeviceState(rds_on_nominal=state.rds_on_nominal,
                            delta_r_fraction=delta_r_fraction(DEG_DEFAULTS, cell.v_stress,
                                                              cell.temp, t))
        w = simulate(circ, CAMPAIGN_DRIVE, state, CAMPAIGN_SIM)
        m = steady_state_metrics(w, CAMPAIGN_SIM)
        r = extract_rds_on(m.v_in_avg, m.v_max, cell.duty, m.i_avg, cell.shape_factor)
        expected.append(RdsSample(t, r))
    assert res.samples == expected
