"""Reverse-bias stress campaigns: a matrix of (voltage, temperature) cells.

Each cell alternates closed-form degradation marching with a periodic
simulated measurement: the converter's periodic steady state is solved with
the degraded on-resistance, its metrics are taken, and the on-resistance is
extracted back from the averaged drain voltage. Fitting the extracted
series against ln(t) reproduces the log-time analysis pipeline.

Measurement: ``periodic_steady_state`` computes the periodic orbit in
closed form while conduction is continuous and the output stays on the
clamp (there every integrator step is affine in the inductor current), and
takes the metrics of its one exact period. When the orbit leaves that
topology (the current reaches zero, the output leaves the clamp) or the
step is too stiff for the closed form, it falls back to marching
``sim.n_periods`` periods and averaging the part after
``sim.settle_fraction``; each fallback is recorded in the cell's
``quality_flags`` with the sample index, or "tuning", and the event. That
window is not checked for periodicity, and in discontinuous conduction it
is mostly still a transient (the 120 V / 0.25 A cells of a wide grid).

Operating regime: the campaign drives the converter in continuous
conduction with the output pinned at the stress level, so the drain sits at
v_max for the whole off-time. The matching extraction shape factor for that
waveform is 1 (the triangular-transition value 2 applies when the off-state
drain ramps up and back down instead of being held). The input voltage of
each cell is tuned once, on the fresh device, so the mean on-state inductor
current hits the cell's drive-current target.

Cells are pure functions of their inputs and safe to run concurrently;
this implementation runs them sequentially and preserves input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .analysis import FitResult, RdsSample, extract_rds_on, fit_log_time
from .converter import (
    CircuitParams,
    DriveSignal,
    SimConfig,
    periodic_steady_state,
)
from .degradation import DegradationParams, apply_stress_step
from .device import DeviceRatings, DeviceState, SoaViolation, check_soa
from .errors import GanStressError, InvalidParameterError, require_finite

#: Default sampling density for the log-spaced measurement schedule.
SAMPLES_PER_DECADE = 20
#: Decades below the cell duration covered by the default schedule.
DEFAULT_SCHEDULE_DECADES = 3.0

#: Campaign drive defaults: fast PWM keeps the switch in continuous
#: conduction so the clamp holds the drain at the stress level off-time.
#: The current stays continuous while the drive target exceeds about half
#: the off-phase ripple, which grows with stress voltage. With the default
#: inductor, 5 MHz keeps a 0.4 A drive continuous up to ~190 V stress but a
#: 0.25 A drive only up to ~118 V: the 120 V / 0.25 A cells are
#: discontinuous, and their measurements fall back to marching.
CAMPAIGN_DRIVE = DriveSignal(frequency=5e6, duty=0.7)
#: Campaign resolution; ``n_periods`` and ``settle_fraction`` size only the
#: march a measurement falls back to.
CAMPAIGN_SIM = SimConfig(steps_per_period=400, n_periods=140, settle_fraction=0.5)

_TUNE_TOLERANCE = 0.02
_TUNE_MAX_ITERATIONS = 20


def default_sample_times(duration: float) -> list[float]:
    """Log-spaced schedule: SAMPLES_PER_DECADE points per decade ending at
    ``duration`` and spanning DEFAULT_SCHEDULE_DECADES decades."""
    n = round(SAMPLES_PER_DECADE * DEFAULT_SCHEDULE_DECADES) + 1
    lo = math.log10(duration) - DEFAULT_SCHEDULE_DECADES
    return [float(t) for t in np.logspace(lo, math.log10(duration), n)]


@dataclass(frozen=True)
class StressCell:
    """One campaign cell: stress level, temperature, drive target, schedule."""

    v_stress: float                 # output clamp / stress level, V
    temp: float                     # K
    i_drive: float = 0.4            # on-time average inductor current target, A
    duty: float = 0.7
    duration: float = 1000.0        # min
    sample_times: Optional[tuple[float, ...]] = None  # minutes; default log schedule
    shape_factor: float = 1.0       # extraction shape factor for the clamp-held waveform

    def __post_init__(self):
        require_finite(v_stress=self.v_stress, temp=self.temp, i_drive=self.i_drive,
                       duty=self.duty, duration=self.duration, shape_factor=self.shape_factor)
        if not self.duration > 0.0:
            raise InvalidParameterError(f"duration must be > 0 min, got {self.duration}")
        if not 0.0 < self.duty < 1.0:
            raise InvalidParameterError(f"duty must be in (0, 1), got {self.duty}")
        if not self.v_stress > 0.0:
            raise InvalidParameterError(f"v_stress must be > 0, got {self.v_stress}")
        if not self.temp > 0.0:
            raise InvalidParameterError(f"temp must be > 0 K, got {self.temp}")
        if not self.i_drive > 0.0:
            raise InvalidParameterError(f"i_drive must be > 0, got {self.i_drive}")
        if not self.shape_factor > 0.0:
            raise InvalidParameterError(f"shape_factor must be > 0, got {self.shape_factor}")
        if self.sample_times is not None:
            ts = tuple(float(t) for t in self.sample_times)
            if not ts:
                raise InvalidParameterError("sample_times must be non-empty when given")
            require_finite(**{f"sample_times[{i}]": t for i, t in enumerate(ts)})
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise InvalidParameterError("sample_times must be strictly increasing")
            if ts[0] <= 0.0 or ts[-1] > self.duration:
                raise InvalidParameterError(
                    f"sample_times must lie in (0, {self.duration}], got [{ts[0]}, {ts[-1]}]"
                )
            object.__setattr__(self, "sample_times", ts)

    def schedule(self) -> list[float]:
        if self.sample_times is not None:
            return list(self.sample_times)
        return default_sample_times(self.duration)


@dataclass
class CellResult:
    """Everything one cell produced, including partial results on abort."""

    cell: StressCell
    samples: list[RdsSample]
    v_max_measured: float
    vin_tuned: float
    fit: Optional[FitResult]
    soa_violations: list[tuple[int, SoaViolation]]  # (sample index, violation)
    quality_flags: list[str] = field(default_factory=list)
    aborted: bool = False
    abort_reason: str = ""


@dataclass
class CampaignResult:
    """Ordered per-cell results plus the config hash of the run."""

    cells: list[CellResult]
    config_hash: str = ""


def cell_circuit(cell: StressCell, circuit: CircuitParams) -> CircuitParams:
    """Shared circuit adapted to one cell: supply set so the drain clamp
    lands exactly at the cell's stress level (clamp + diode drop = v_max)."""
    return replace(circuit, v_supply=cell.v_stress - 2.0 * circuit.diode_vf, r_load=None)


def tune_vin(cell: StressCell, circuit: CircuitParams, drive: DriveSignal,
             device: DeviceState, sim: SimConfig,
             flags: Optional[list[str]] = None) -> float:
    """Secant search for the input voltage that hits the cell's on-time
    average current target within ``_TUNE_TOLERANCE`` (relative).

    The averaged-voltage relation makes the current nearly linear in vin, so
    the search converges in a few measurements, and a first guess that
    already meets the target is returned after one. Measurements that fall
    back to marching are appended to ``flags`` when it is given. Raises if
    the target is not met within ``_TUNE_MAX_ITERATIONS``.
    """
    target = cell.i_drive

    def run(vin: float) -> float:
        m, fallback = periodic_steady_state(replace(circuit, vin=vin), drive, device, sim)
        if fallback is not None and flags is not None:
            flags.append(f"tuning (vin = {vin!r} V): marched steady state ({fallback})")
        return m.i_avg - target

    x0 = cell.duty * target * device.rds_on + (1.0 - cell.duty) * cell.v_stress
    f0 = run(x0)
    if abs(f0) <= _TUNE_TOLERANCE * target:
        return x0
    x1 = 1.1 * x0
    f1 = run(x1)
    for _ in range(_TUNE_MAX_ITERATIONS):
        if abs(f1) <= _TUNE_TOLERANCE * target:
            return x1
        if f1 == f0:
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        if x1 <= 0.0:
            x1 = 0.5 * x0
        f0, f1 = f1, run(x1)
    if abs(f1) <= _TUNE_TOLERANCE * target:
        return x1
    raise InvalidParameterError(
        f"drive-current tuning did not reach {target} A within {_TUNE_MAX_ITERATIONS} iterations"
    )


def run_cell(cell: StressCell, circuit: CircuitParams, drive: DriveSignal,
             ratings: DeviceRatings, deg: DegradationParams,
             sim: SimConfig = CAMPAIGN_SIM) -> CellResult:
    """Run one stress cell: degradation march + periodic steady-state extraction.

    Degradation is evaluated at the cell's stress level (the clamp pins the
    measured v_max there). SOA violations are recorded per sample and the
    run continues. Any workbench error aborts the cell: ``abort_reason``
    names the stage ("circuit set-up", "drive tuning" or "sample N (t = T
    min)"), and the samples, flags and SOA records taken before it are kept,
    the samples fitted if there are two. Deterministic for identical inputs.
    """
    flags: list[str] = []
    samples: list[RdsSample] = []
    violations: list[tuple[int, SoaViolation]] = []
    v_max_measured = 0.0
    vin = float("nan")
    abort_reason = ""
    stage = "circuit set-up"
    try:
        circ = cell_circuit(cell, circuit)
        drv = replace(drive, duty=cell.duty)
        state = DeviceState(rds_on_nominal=ratings.rds_on_nominal)
        stage = "drive tuning"
        vin = tune_vin(cell, circ, drv, state, sim, flags=flags)
        circ = replace(circ, vin=vin)
        t_prev = 0.0
        for idx, t_k in enumerate(cell.schedule()):
            stage = f"sample {idx} (t = {t_k:g} min)"
            state = apply_stress_step(state, deg, cell.v_stress, cell.temp, t_k - t_prev)
            t_prev = t_k
            m, fallback = periodic_steady_state(circ, drv, state, sim)
            if fallback is not None:
                flags.append(f"{stage}: marched steady state ({fallback})")
            v_max_measured = max(v_max_measured, m.v_max)
            for viol in check_soa(ratings, m.v_max, m.i_peak, cell.temp):
                violations.append((idx, viol))
            r = extract_rds_on(m.v_in_avg, m.v_max, cell.duty, m.i_avg, cell.shape_factor)
            if r <= 0.0:
                flags.append(f"{stage}: non-positive extraction {r!r}")
                continue
            samples.append(RdsSample(t_k, r))
    except GanStressError as exc:
        abort_reason = f"{stage}: {exc}"

    fit = fit_log_time(samples) if len(samples) >= 2 else None
    return CellResult(cell=cell, samples=samples, v_max_measured=v_max_measured,
                      vin_tuned=vin, fit=fit, soa_violations=violations,
                      quality_flags=flags, aborted=bool(abort_reason),
                      abort_reason=abort_reason)


def run_matrix(cells: list[StressCell], circuit: CircuitParams, drive: DriveSignal,
               ratings: DeviceRatings, deg: DegradationParams,
               sim: SimConfig = CAMPAIGN_SIM) -> CampaignResult:
    """Run every cell independently; output order matches the input order.

    ``run_cell`` records a cell's abort in that cell's result, so one cell
    never fails the matrix."""
    return CampaignResult(cells=[run_cell(cell, circuit, drive, ratings, deg, sim)
                                 for cell in cells])
