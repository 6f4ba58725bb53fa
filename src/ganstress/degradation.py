"""Hot-carrier / trap-generation dynamic on-resistance model.

The relative on-resistance increase of a stressed switch grows with the
logarithm of stress time. The growth rate per unit log-time depends on the
off-state drain voltage and the device temperature:

    slope(V, T) = a + b * ln(1 + exp((V - v_fd) / alpha)) * sqrt(T) * exp(hw_lo / (k*T))

    delta_R/R(V, T, t) = slope(V, T) * ln(1 + t / t0) + vertical_offset

The softplus term gates the voltage acceleration around the full-depletion
knee ``v_fd``; the temperature factor falls with T everywhere below
2*hw_lo/k (about 2135 K), so the slope has a negative temperature
coefficient over any realistic junction temperature range. Switching
frequency and current do not change the slope; they only shift the curve
vertically, which is what ``vertical_offset`` models.

The law is a pure function of (V, T, t): it holds no device state. A
campaign cell evaluates it at each sample time and keeps the device's
fraction from falling (``campaign.run_cell``).

Natural logarithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParameterError, require_finite

#: Boltzmann constant in eV/K.
K_BOLTZMANN_EV = 8.617e-5

# ln(1 + e^x) ~ x beyond this; avoids overflow in exp().
_SOFTPLUS_LINEAR_ABOVE = 30.0


@dataclass(frozen=True)
class DegradationParams:
    """Parameters of the log-time degradation law.

    Defaults are the published values for 100 V fifth-generation
    enhancement-mode GaN FETs (the EPC2038 class).
    """

    a: float = 0.0                  # dimensionless offset on the slope
    b: float = 2.0e-5               # per sqrt-kelvin
    hbar_omega_lo: float = 0.092    # optical phonon energy, eV
    v_fd: float = 100.0             # full-depletion voltage, V
    alpha: float = 10.0             # exponential knee width, V
    t0: float = 1.0                 # log-law reference time, min
    vertical_offset: float = 0.0    # additive offset on delta_R/R (frequency/current effects)

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if self.b < 0.0:
            raise InvalidParameterError(f"b must be >= 0, got {self.b}")
        if not self.alpha > 0.0:
            raise InvalidParameterError(f"alpha must be > 0, got {self.alpha}")
        if not self.hbar_omega_lo > 0.0:
            raise InvalidParameterError(f"hbar_omega_lo must be > 0, got {self.hbar_omega_lo}")
        if not self.t0 > 0.0:
            raise InvalidParameterError(f"t0 must be > 0, got {self.t0}")


def _softplus(x: float) -> float:
    if x > _SOFTPLUS_LINEAR_ABOVE:
        return x
    return math.log1p(math.exp(x))


def stress_slope(params: DegradationParams, v_ds: float, temp: float) -> float:
    """Degradation slope per unit ln(time) at a stress point (volts, kelvin)."""
    if not temp > 0.0:
        raise InvalidParameterError(f"temp must be > 0 K, got {temp}")
    require_finite(v_ds=v_ds)
    gate = _softplus((v_ds - params.v_fd) / params.alpha)
    try:
        thermal = math.sqrt(temp) * math.exp(params.hbar_omega_lo / (K_BOLTZMANN_EV * temp))
    except OverflowError:
        raise InvalidParameterError(f"thermal factor overflows at temp = {temp} K") from None
    return params.a + params.b * gate * thermal


def delta_r_fraction(params: DegradationParams, v_ds: float, temp: float, t: float) -> float:
    """Accumulated relative on-resistance increase after ``t`` minutes of stress."""
    if t < 0.0:
        raise InvalidParameterError(f"t must be >= 0 min, got {t}")
    return stress_slope(params, v_ds, temp) * math.log1p(t / params.t0) + params.vertical_offset

