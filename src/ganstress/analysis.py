"""Averaged-voltage prediction, on-resistance extraction, and log-time fits.

The averaged drain voltage of the stress converter decomposes into the
on-state conduction drop plus the off-state transition term:

    v_in_avg = i_on * rds_on * duty + v_max * (1 - duty) / shape_factor

``shape_factor`` captures the off-state drain waveform shape: 2 for a
triangular rise/fall transition, approaching 1 when the output diode holds
the drain at v_max for the whole off-time. Inverting the relation for
rds_on gives the extraction used on measured (or simulated) waveforms.
Series files are read and written by ``results``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRegressionError,
    DomainDivisionError,
    InsufficientDataError,
    InvalidParameterError,
    require_finite,
)


@dataclass(frozen=True)
class RdsSample:
    """One extracted on-resistance point: minutes, ohms."""

    t: float
    rds_on: float

    def __post_init__(self):
        # Comparisons, not require_finite: a campaign builds two samples per measurement.
        if not 0.0 <= self.t < math.inf:
            raise InvalidParameterError(f"t must be >= 0 min and finite, got {self.t}")
        if not 0.0 < self.rds_on < math.inf:
            raise InvalidParameterError(f"rds_on must be > 0 and finite, got {self.rds_on}")


@dataclass(frozen=True)
class FitResult:
    """Ordinary least squares of rds_on against ln(t)."""

    slope: float       # ohm per ln-minute
    intercept: float   # ohm
    r_squared: float
    n: int
    n_dropped: int = 0  # t = 0 samples removed before fitting

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError(f"fit requires n >= 2, got {self.n}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise InvalidParameterError(f"r_squared must be in [0, 1], got {self.r_squared}")

    @property
    def slope_log10(self) -> float:
        """Slope per decade of time."""
        return self.slope * math.log(10.0)


def predict_avg_vin(i_on: float, rds_on: float, duty: float, v_max: float,
                    shape_factor: float = 2.0) -> float:
    """Forward model of the averaged drain voltage."""
    require_finite(i_on=i_on, rds_on=rds_on, duty=duty, v_max=v_max, shape_factor=shape_factor)
    if not 0.0 <= duty <= 1.0:
        raise InvalidParameterError(f"duty must be in [0, 1], got {duty}")
    if not shape_factor > 0.0:
        raise InvalidParameterError(f"shape_factor must be > 0, got {shape_factor}")
    return i_on * rds_on * duty + v_max * (1.0 - duty) / shape_factor


def extract_rds_on(v_in_avg: float, v_max: float, duty: float, i_avg: float,
                   shape_factor: float = 2.0) -> float:
    """Invert the averaged-voltage relation for the on-resistance.

    The result may be negative for mutually inconsistent inputs; it is
    returned as-is so the inconsistency stays visible (callers flag it).
    """
    require_finite(v_in_avg=v_in_avg, v_max=v_max, duty=duty, i_avg=i_avg,
                   shape_factor=shape_factor)
    if i_avg * duty == 0.0:
        raise DomainDivisionError("extraction diverges at i_avg * duty = 0")
    if not 0.0 < duty <= 1.0:
        raise InvalidParameterError(f"duty must be in (0, 1], got {duty}")
    if i_avg < 0.0:
        raise InvalidParameterError(f"i_avg must be > 0, got {i_avg}")
    if not shape_factor > 0.0:
        raise InvalidParameterError(f"shape_factor must be > 0, got {shape_factor}")
    return (v_in_avg - v_max * (1.0 - duty) / shape_factor) / (i_avg * duty)


def normalize_series(samples: list[RdsSample]) -> list[RdsSample]:
    """Divide every sample by the first sample's resistance (first becomes 1)."""
    if not samples:
        raise InsufficientDataError("cannot normalize an empty series")
    ref = samples[0].rds_on
    return [RdsSample(s.t, s.rds_on / ref) for s in samples]


def fit_log_time(samples: list[RdsSample]) -> FitResult:
    """OLS fit of rds_on against ln(t).

    Samples at t = 0 are dropped (ln undefined) and reported via
    ``n_dropped``. A constant target is fit with slope 0, the constant as
    intercept and, by convention, r_squared = 0.
    """
    kept = [s for s in samples if s.t > 0.0]
    n_dropped = len(samples) - len(kept)
    if len(kept) < 2:
        raise InsufficientDataError(
            f"fit needs >= 2 samples with t > 0, got {len(kept)} ({n_dropped} dropped)"
        )
    x = np.log([s.t for s in kept])
    y = np.array([s.rds_on for s in kept])
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateRegressionError("all samples share the same time; slope undefined")
    if (y == y[0]).all():  # values, not syy: the float mean of equal values may differ
        return FitResult(0.0, float(y[0]), 0.0, len(kept), n_dropped)
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    slope = sxy / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    syy = float(((y - y.mean()) ** 2).sum())
    resid = y - (intercept + slope * x)
    r_squared = 1.0 - float((resid ** 2).sum()) / syy if syy > 0.0 else 0.0  # spread underflowed
    r_squared = min(max(r_squared, 0.0), 1.0)
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared,
                     n=len(kept), n_dropped=n_dropped)
