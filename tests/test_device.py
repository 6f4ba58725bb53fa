import pytest
from hypothesis import given
from hypothesis import strategies as st

from ganstress import (
    EPC2038,
    DeviceRatings,
    DeviceState,
    SoaViolation,
    check_soa,
)
from ganstress.errors import InvalidParameterError

# Independent scalar oracle: 2e-5 * ln 2 * sqrt(298.15) * exp(0.092 / (8.617e-5 * 298.15)),
# the accumulated delta-R fraction after (e - 1) minutes at 100 V, 298.15 K.
DELTA_E_MINUS_1 = 8.595178553652787e-3


def test_epc2038_table_values():
    assert EPC2038.vds_max_pulsed == 120.0
    assert EPC2038.vds_max_continuous == 100.0
    assert EPC2038.id_max == 0.5
    assert EPC2038.vgs_max == 6.0
    assert EPC2038.vgs_min == -5.0
    assert EPC2038.tj_min == pytest.approx(233.15)
    assert EPC2038.tj_max == pytest.approx(423.15)
    assert EPC2038.rds_on_nominal == 3.3


def test_soa_at_peak_stress_point():
    assert check_soa(EPC2038, 110.0, 0.4, 298.0) == []


def test_soa_zero_stress():
    assert check_soa(EPC2038, 0.0, 0.0, 298.0) == []


def test_soa_double_violation_names_limits_and_excess():
    violations = check_soa(EPC2038, 130.0, 0.6, 298.0)
    assert len(violations) == 2
    by_limit = {v.limit: v for v in violations}
    assert by_limit["vds_max_pulsed"].excess == pytest.approx(10.0)
    assert by_limit["id_max"].excess == pytest.approx(0.1)
    assert by_limit["vds_max_pulsed"] == SoaViolation("vds_max_pulsed", 130.0, 120.0, 10.0)


def test_soa_temperature_bounds():
    assert check_soa(EPC2038, 0.0, 0.0, 200.0)[0].limit == "tj_min"
    assert check_soa(EPC2038, 0.0, 0.0, 500.0)[0].limit == "tj_max"


def test_soa_rejects_non_finite():
    with pytest.raises(InvalidParameterError):
        check_soa(EPC2038, float("nan"), 0.0, 298.0)


@given(
    vds=st.floats(0.0, 119.9),
    idp=st.floats(0.0, 0.499),
    tj=st.floats(234.0, 423.0),
)
def test_soa_empty_inside_all_limits(vds, idp, tj):
    assert check_soa(EPC2038, vds, idp, tj) == []


@given(excess=st.floats(0.01, 1000.0))
def test_soa_flags_any_single_exceeded_limit(excess):
    assert len(check_soa(EPC2038, 120.0 + excess, 0.0, 298.0)) == 1
    assert len(check_soa(EPC2038, 0.0, 0.5 + excess / 1000.0, 298.0)) == 1
    assert len(check_soa(EPC2038, 0.0, 0.0, 423.15 + excess)) == 1


def test_effective_rds_on_zero_degradation():
    assert DeviceState(rds_on_nominal=3.3).rds_on == 3.3


def test_effective_rds_on_ten_percent():
    state = DeviceState(rds_on_nominal=3.3, delta_r_fraction=0.1)
    assert state.rds_on == pytest.approx(3.63, rel=1e-12)


def test_effective_rds_on_after_one_log_unit_of_stress():
    state = DeviceState(rds_on_nominal=3.3, delta_r_fraction=DELTA_E_MINUS_1)
    assert state.rds_on == pytest.approx(3.3283640892270543, rel=1e-12)


def test_effective_rds_on_rejects_bad_nominal():
    for nominal in (0.0, -1.0, float("inf")):
        with pytest.raises(InvalidParameterError):
            DeviceState(rds_on_nominal=nominal)


@given(lo=st.floats(0.0, 5.0), gap=st.floats(1e-9, 5.0), nominal=st.floats(0.01, 100.0))
def test_effective_rds_on_monotone_in_delta(lo, gap, nominal):
    r_lo = DeviceState(rds_on_nominal=nominal, delta_r_fraction=lo).rds_on
    r_hi = DeviceState(rds_on_nominal=nominal, delta_r_fraction=lo + gap).rds_on
    assert r_hi > r_lo


@given(delta=st.floats(0.0, 5.0), nominal=st.floats(0.01, 100.0), scale=st.floats(0.1, 10.0))
def test_effective_rds_on_linear_in_nominal(delta, nominal, scale):
    scaled = DeviceState(rds_on_nominal=nominal * scale, delta_r_fraction=delta)
    assert scaled.rds_on == pytest.approx(
        scale * DeviceState(rds_on_nominal=nominal, delta_r_fraction=delta).rds_on, rel=1e-12
    )


def test_device_state_effective_property_matches_invariant():
    state = DeviceState(rds_on_nominal=3.3, delta_r_fraction=0.25)
    assert state.rds_on == pytest.approx(3.3 * 1.25, rel=1e-15)


def test_ratings_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        DeviceRatings(vds_max_pulsed=90.0, vds_max_continuous=100.0)
    with pytest.raises(InvalidParameterError):
        DeviceRatings(vgs_min=1.0)
    with pytest.raises(InvalidParameterError):
        DeviceRatings(rds_on_nominal=0.0)


@pytest.mark.parametrize("field", ["vds_max_pulsed", "vds_max_continuous", "id_max", "vgs_max",
                                   "vgs_min", "tj_min", "tj_max", "rds_on_nominal"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_ratings_reject_non_finite_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        DeviceRatings(**{field: value})


def test_state_invariants_enforced():
    with pytest.raises(InvalidParameterError):
        DeviceState(delta_r_fraction=-0.01)
    with pytest.raises(InvalidParameterError):
        DeviceState(rds_on_nominal=0.0)


@pytest.mark.parametrize("field", ["delta_r_fraction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_state_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        DeviceState(**{field: value})
