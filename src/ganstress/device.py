"""GaN switch device: datasheet ratings, live on-resistance, SOA checks.

The default ratings describe the EPC2038 enhancement-mode part used as the
device under test. Its datasheet quotes 3.3 ohm nominal on-resistance; some
published material rounds the same figure to 3.33 ohm. 3.3 is used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParameterError, require_finite

CELSIUS_OFFSET = 273.15


def celsius_to_kelvin(temp_c: float) -> float:
    return temp_c + CELSIUS_OFFSET


@dataclass(frozen=True)
class DeviceRatings:
    """Datasheet limits of the switch device.

    Voltages in volts, currents in amperes, temperatures in kelvin,
    resistance in ohms.
    """

    vds_max_pulsed: float = 120.0
    vds_max_continuous: float = 100.0
    id_max: float = 0.5
    vgs_max: float = 6.0
    vgs_min: float = -5.0
    tj_min: float = celsius_to_kelvin(-40.0)
    tj_max: float = celsius_to_kelvin(150.0)
    rds_on_nominal: float = 3.3

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if not (self.vds_max_pulsed >= self.vds_max_continuous > 0.0):
            raise InvalidParameterError(
                "requires vds_max_pulsed >= vds_max_continuous > 0, got "
                f"{self.vds_max_pulsed} / {self.vds_max_continuous}"
            )
        if not (self.vgs_min < 0.0 < self.vgs_max):
            raise InvalidParameterError(
                f"requires vgs_min < 0 < vgs_max, got {self.vgs_min} / {self.vgs_max}"
            )
        if not self.rds_on_nominal > 0.0:
            raise InvalidParameterError(f"rds_on_nominal must be > 0, got {self.rds_on_nominal}")
        if not self.tj_min < self.tj_max:
            raise InvalidParameterError(f"requires tj_min < tj_max, got {self.tj_min} / {self.tj_max}")


#: Table-style defaults for the EPC2038 part.
EPC2038 = DeviceRatings()


@dataclass(frozen=True)
class DeviceState:
    """Live state of one switch: accumulated degradation and stress time.

    ``delta_r_fraction`` is the accumulated relative on-resistance increase
    (dimensionless, never decreasing over a campaign); ``stress_time`` is in
    minutes under the current stress condition.
    """

    rds_on_nominal: float = DeviceRatings.rds_on_nominal
    delta_r_fraction: float = 0.0
    stress_time: float = 0.0

    def __post_init__(self):
        if not (self.rds_on_nominal > 0.0 and math.isfinite(self.rds_on_nominal)):
            raise InvalidParameterError(
                f"rds_on_nominal must be positive and finite, got {self.rds_on_nominal}"
            )
        for name in ("delta_r_fraction", "stress_time"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise InvalidParameterError(f"{name} must be >= 0 and finite, got {value}")

    @property
    def rds_on(self) -> float:
        """Current effective on-resistance in ohms."""
        return self.rds_on_nominal * (1.0 + self.delta_r_fraction)


@dataclass(frozen=True)
class SoaViolation:
    """One exceeded safe-operating-area limit."""

    limit: str        # which rating was exceeded
    value: float      # observed operating value
    bound: float      # rating it was checked against
    excess: float     # how far outside the limit (positive)

    def __str__(self) -> str:
        return f"{self.limit}: {self.value:g} exceeds {self.bound:g} by {self.excess:g}"


def check_soa(ratings: DeviceRatings, vds_peak: float, id_peak: float, tj: float) -> list[SoaViolation]:
    """Check a peak operating point against the ratings envelope.

    Peak drain voltage is compared against the pulsed limit (cycle peaks are
    pulsed events); junction temperature against the rated range. Violations
    are data, not failures: an empty list means the point is inside the SOA.
    """
    require_finite(vds_peak=vds_peak, id_peak=id_peak, tj=tj)
    violations = []
    if vds_peak > ratings.vds_max_pulsed:
        violations.append(SoaViolation("vds_max_pulsed", vds_peak, ratings.vds_max_pulsed,
                                       vds_peak - ratings.vds_max_pulsed))
    if id_peak > ratings.id_max:
        violations.append(SoaViolation("id_max", id_peak, ratings.id_max, id_peak - ratings.id_max))
    if tj < ratings.tj_min:
        violations.append(SoaViolation("tj_min", tj, ratings.tj_min, ratings.tj_min - tj))
    elif tj > ratings.tj_max:
        violations.append(SoaViolation("tj_max", tj, ratings.tj_max, tj - ratings.tj_max))
    return violations
