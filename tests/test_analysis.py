import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ganstress import (
    DegradationParams,
    FitResult,
    RdsSample,
    extract_rds_on,
    fit_log_time,
    normalize_series,
    predict_avg_vin,
    stress_slope,
)
from ganstress.errors import (
    DegenerateRegressionError,
    DomainDivisionError,
    InsufficientDataError,
    InvalidParameterError,
)
from ganstress.results import RDS_CSV_HEADER, fit_report, read_rds_csv


def test_predict_reported_operating_point():
    # 0.4 * 3.39 * 0.7 + 60 * 0.3 / 2
    assert predict_avg_vin(0.4, 3.39, 0.7, 60.0) == pytest.approx(9.9492, rel=1e-12)


def test_predict_full_duty_drops_transition_term():
    assert predict_avg_vin(0.4, 3.39, 1.0, 60.0) == pytest.approx(0.4 * 3.39, rel=1e-12)


def test_predict_zero_duty_is_half_peak():
    assert predict_avg_vin(0.4, 3.39, 0.0, 60.0) == pytest.approx(30.0, rel=1e-12)


def test_predict_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        predict_avg_vin(float("inf"), 3.39, 0.7, 60.0)
    with pytest.raises(InvalidParameterError):
        predict_avg_vin(0.4, 3.39, 1.2, 60.0)
    with pytest.raises(InvalidParameterError):
        predict_avg_vin(0.4, 3.39, 0.7, 60.0, shape_factor=0.0)


def test_extract_worked_example():
    # (9.95 - 9) / 0.28
    assert extract_rds_on(9.95, 60.0, 0.7, 0.4) == pytest.approx(3.392857142857143, abs=1e-12)


def test_extract_zero_numerator():
    assert extract_rds_on(9.0, 60.0, 0.7, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_extract_negative_returned_as_is():
    assert extract_rds_on(5.0, 60.0, 0.7, 0.4) < 0.0


def test_extract_divide_by_zero():
    with pytest.raises(DomainDivisionError):
        extract_rds_on(9.95, 60.0, 0.7, 0.0)
    with pytest.raises(DomainDivisionError):
        extract_rds_on(9.95, 60.0, 0.0, 0.4)
    with pytest.raises(InvalidParameterError):
        extract_rds_on(9.95, 60.0, 1.2, 0.4)


@given(
    i=st.floats(0.05, 1.0),
    r=st.floats(0.1, 10.0),
    duty=st.floats(0.05, 0.95),
    v_max=st.floats(1.0, 120.0),
    shape=st.floats(1.0, 3.0),
)
def test_round_trip_identity(i, r, duty, v_max, shape):
    v = predict_avg_vin(i, r, duty, v_max, shape)
    assert extract_rds_on(v, v_max, duty, i, shape) == pytest.approx(r, rel=1e-9)


def test_normalize_reference_pair():
    out = normalize_series([RdsSample(1.0, 3.39), RdsSample(10.0, 3.56)])
    assert out[0].rds_on == 1.0
    assert out[1].rds_on == pytest.approx(3.56 / 3.39, rel=1e-12)
    assert [s.t for s in out] == [1.0, 10.0]


def test_normalize_single_and_constant():
    assert normalize_series([RdsSample(5.0, 2.2)])[0].rds_on == 1.0
    out = normalize_series([RdsSample(t, 7.7) for t in (1.0, 2.0, 3.0)])
    assert all(s.rds_on == 1.0 for s in out)


def test_normalize_empty_is_error():
    with pytest.raises(InsufficientDataError):
        normalize_series([])


@given(st.lists(st.tuples(st.floats(0.1, 1e4), st.floats(0.1, 100.0)), min_size=2, max_size=20))
def test_normalize_preserves_ratios(pairs):
    samples = [RdsSample(float(i + 1), r) for i, (_, r) in enumerate(pairs)]
    out = normalize_series(samples)
    for a, b, na, nb in zip(samples, samples[1:], out, out[1:]):
        assert nb.rds_on / na.rds_on == pytest.approx(b.rds_on / a.rds_on, rel=1e-9)


def test_fit_exact_log_line():
    samples = [RdsSample(t, 2.0 + 0.5 * math.log(t)) for t in (1.0, 10.0, 100.0)]
    fit = fit_log_time(samples)
    assert fit.slope == pytest.approx(0.5, rel=1e-12)
    assert fit.intercept == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 3
    assert fit.slope_log10 == pytest.approx(0.5 * math.log(10.0), rel=1e-12)


def test_fit_constant_series_convention():
    fit = fit_log_time([RdsSample(t, 3.3) for t in (1.0, 10.0, 100.0)])
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0
    assert fit.intercept == pytest.approx(3.3)


def test_fit_drops_time_zero_samples():
    samples = [RdsSample(0.0, 9.9)] + [
        RdsSample(t, 2.0 + 0.5 * math.log(t)) for t in (1.0, 10.0, 100.0)
    ]
    fit = fit_log_time(samples)
    assert fit.n == 3
    assert fit.n_dropped == 1
    assert fit.slope == pytest.approx(0.5, rel=1e-12)


def test_fit_degenerate_times():
    with pytest.raises(DegenerateRegressionError):
        fit_log_time([RdsSample(5.0, 1.0), RdsSample(5.0, 2.0)])


def test_fit_too_few_samples():
    with pytest.raises(InsufficientDataError):
        fit_log_time([RdsSample(1.0, 1.0)])
    with pytest.raises(InsufficientDataError):
        fit_log_time([RdsSample(0.0, 1.0), RdsSample(0.0, 2.0)])


def test_fit_synthetic_degradation_series_matches_closed_form():
    params = DegradationParams()
    slope = stress_slope(params, 100.0, 298.15)
    r_nominal = 3.3
    times = np.logspace(1, 3, 41)
    samples = [RdsSample(float(t), r_nominal * (1.0 + slope * math.log1p(t))) for t in times]
    fit = fit_log_time(samples)
    assert fit.r_squared >= 0.99
    assert fit.slope == pytest.approx(r_nominal * slope, rel=0.02)


@given(scale=st.floats(0.01, 100.0))
def test_fit_time_rescale_invariance(scale):
    # pseudo-noisy but deterministic series
    base = [
        RdsSample(t, 2.0 + 0.5 * math.log(t) + 0.05 * math.sin(3.0 * t))
        for t in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0)
    ]
    scaled = [RdsSample(s.t * scale, s.rds_on) for s in base]
    f0 = fit_log_time(base)
    f1 = fit_log_time(scaled)
    assert f1.slope == pytest.approx(f0.slope, rel=1e-9)
    assert f1.r_squared == pytest.approx(f0.r_squared, rel=1e-9)
    assert f1.intercept == pytest.approx(f0.intercept - f0.slope * math.log(scale), rel=1e-7, abs=1e-9)


def test_fit_report_record_keys():
    fit = FitResult(slope=0.5, intercept=2.0, r_squared=1.0, n=3)
    text = fit_report(fit)
    for key in ("slope = ", "intercept = ", "r_squared = ", "n = 3", "slope_log10 = "):
        assert key in text


def test_rds_csv_round_trip():
    samples = [RdsSample(1.0, 3.39), RdsSample(10.0, 3.56), RdsSample(100.0, 3.61)]
    text = "t_min,rds_on_ohm\n1.0,3.39\n10.0,3.56\n100.0,3.61\n"
    assert text.splitlines()[0] == RDS_CSV_HEADER
    assert read_rds_csv(io.StringIO(text)) == samples


def test_rds_csv_rejects_wrong_header():
    with pytest.raises(InvalidParameterError):
        read_rds_csv(io.StringIO("time,ohms\n1.0,3.3\n"))


def test_rds_csv_rejects_bad_row():
    with pytest.raises(InvalidParameterError):
        read_rds_csv(io.StringIO(RDS_CSV_HEADER + "\n1.0\n"))
    with pytest.raises(InvalidParameterError):
        read_rds_csv(io.StringIO(RDS_CSV_HEADER + "\n1.0,abc\n"))


def test_rds_csv_reads_campaign_cell_columns():
    cell = "t_min,rds_on_ohm,rds_norm\n1.0,3.3,1.0\n10.0,3.63,1.1\n"
    assert read_rds_csv(io.StringIO(cell)) == [RdsSample(1.0, 3.3), RdsSample(10.0, 3.63)]
    with pytest.raises(InvalidParameterError, match="expected 3 columns"):
        read_rds_csv(io.StringIO("t_min,rds_on_ohm,rds_norm\n1.0,3.3\n"))
    with pytest.raises(InvalidParameterError, match="expected 2 columns"):
        read_rds_csv(io.StringIO(RDS_CSV_HEADER + "\n1.0,3.3,1.0\n"))
    with pytest.raises(InvalidParameterError, match="rds_norm"):
        read_rds_csv(io.StringIO("time,ohms\n1.0,3.3\n"))


def test_sample_invariants():
    with pytest.raises(InvalidParameterError):
        RdsSample(-1.0, 3.3)
    with pytest.raises(InvalidParameterError):
        RdsSample(1.0, 0.0)
