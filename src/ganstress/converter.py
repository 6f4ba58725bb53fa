"""Switched piecewise-linear simulation of the stress boost converter.

Topology (all values configurable):

    vin --- series_r --- L ---+--- switch (rds_on) --- gnd
                              |
                            diode (constant diode_vf drop)
                              |
                      output node: c_out, optional r_load,
                      hard-clamped at v_supply + diode_vf

State is the pair (inductor current, output capacitor voltage). The
inductor/diode path is unidirectional: when the switch is off and the
current reaches zero with the diode reverse-biased, the current is held at
zero until the next on-edge (discontinuous conduction). When the output
node would exceed the clamp level the excess charge flows into the
high-voltage supply and the node voltage stays pinned, which is how the
reverse-bias stress circuit holds the drain at the stress level.

The drain-source voltage is derived from the state: ``i*rds_on`` while the
gate is on, output voltage plus the diode drop while the diode conducts,
and the source voltage while the branch is open.

Integration is fixed-step explicit trapezoidal with steps aligned to the
PWM edges, so switching instants fall exactly on grid points. The duty
cycle is quantized to the step grid (one part in ``steps_per_period``).
The step loop (``_integrate``) performs the float operations of a plain
per-step loop in the same order, so its records are bit-identical to that
loop's. Without a load resistor the output update is exactly zero in
the on-phase, and in an off-phase that starts with the output on the clamp
(the spill rule zeroes it there), so those runs step the current alone:
once an unloaded march reaches the clamp, its output stays there.
``v_ds`` is not stepped: it is computed after stepping, in one numpy pass
over the finished current, voltage and gate records. A step depends only
on the state ``(i, v)`` and its phase within the period, so once a period
starts in a state bitwise equal to the previous period's start, every
later period repeats that one and the loop copies it instead of stepping
it (a default ``simulate`` run in discontinuous conduction repeats from
its second period on). The two entry points:

- ``simulate`` marches ``n_periods`` periods from the quiescent point and
  returns the whole waveform; ``steady_state_metrics`` averages the part
  after ``settle_fraction``. The ``simulate`` command uses this pair.
- ``periodic_steady_state`` is the campaign measurement. With the output
  on the clamp and the current continuous, every step is affine in the
  current, so it computes the periodic orbit and the metrics of its one
  period in closed form, stepping nothing. It falls back to the march
  above when the orbit leaves that topology or the step is too stiff for
  the closed form (see its docstring). ``n_periods`` and
  ``settle_fraction`` apply only to ``simulate`` and that fallback, which
  averages its window unchecked: in discontinuous conduction the march
  has mostly not reached a repeating period, so it measures a transient.

Files are written by ``results``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .device import DeviceState
from .errors import (
    DomainDivisionError,
    InsufficientDataError,
    InvalidParameterError,
    NumericInstabilityError,
    require_finite,
)

#: Bit layout of an integrator state ``(i, v)``, for the period-repeat check.
_STATE_BITS = struct.Struct("dd")


@dataclass(frozen=True)
class CircuitParams:
    """Component values of the stress converter (SI units).

    ``c_in`` is carried for completeness; the input node is treated as stiff
    and the small input capacitor does not enter the two-state model.
    ``r_load`` is an optional resistive load on the output node; ``None``
    leaves the output open, which is the reverse-bias stress configuration.
    """

    vin: float = 10.0
    l_drain: float = 10e-6
    c_in: float = 100e-12
    c_out: float = 25e-12
    v_supply: float = 100.0
    diode_vf: float = 0.5
    series_r: float = 0.0
    r_load: Optional[float] = None

    def __post_init__(self):
        require_finite(vin=self.vin, l_drain=self.l_drain, c_in=self.c_in, c_out=self.c_out,
                       v_supply=self.v_supply, diode_vf=self.diode_vf, series_r=self.series_r,
                       r_load=self.r_load)
        if not self.vin > 0.0:
            raise InvalidParameterError(f"vin must be > 0, got {self.vin}")
        if not self.l_drain > 0.0:
            raise InvalidParameterError(f"l_drain must be > 0, got {self.l_drain}")
        if not self.c_out > 0.0:
            raise InvalidParameterError(f"c_out must be > 0, got {self.c_out}")
        if self.diode_vf < 0.0:
            raise InvalidParameterError(f"diode_vf must be >= 0, got {self.diode_vf}")
        if self.series_r < 0.0:
            raise InvalidParameterError(f"series_r must be >= 0, got {self.series_r}")
        if self.r_load is not None and not self.r_load > 0.0:
            raise InvalidParameterError(f"r_load must be > 0 or None, got {self.r_load}")
        if self.clamp_voltage < 0.0:
            raise InvalidParameterError(
                f"clamp v_supply + diode_vf must be >= 0, got {self.clamp_voltage}"
            )

    @property
    def clamp_voltage(self) -> float:
        """Level the output node is pinned at by the high-voltage supply path."""
        return self.v_supply + self.diode_vf


@dataclass(frozen=True)
class DriveSignal:
    """PWM gate drive: frequency in hertz, duty in [0, 1], gate levels in volts."""

    frequency: float = 100e3
    duty: float = 0.7
    v_gate_high: float = 5.0
    v_gate_low: float = 0.0

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if not self.frequency > 0.0:
            raise InvalidParameterError(f"frequency must be > 0, got {self.frequency}")
        if not 0.0 <= self.duty <= 1.0:
            raise InvalidParameterError(f"duty must be in [0, 1], got {self.duty}")
        if not (self.v_gate_low <= 0.0 <= self.v_gate_high):
            raise InvalidParameterError(
                f"requires v_gate_low <= 0 <= v_gate_high, got {self.v_gate_low} / {self.v_gate_high}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Run length and resolution. ``settle_fraction`` of the run is discarded
    before steady-state metrics are taken. ``periodic_steady_state`` uses
    only ``steps_per_period`` unless it falls back to marching."""

    steps_per_period: int = 1000
    n_periods: int = 60
    settle_fraction: float = 0.5

    def __post_init__(self):
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        if self.steps_per_period < 100:
            raise InvalidParameterError(f"steps_per_period must be >= 100, got {self.steps_per_period}")
        if self.n_periods < 2:
            raise InvalidParameterError(f"n_periods must be >= 2, got {self.n_periods}")
        if not 0.0 <= self.settle_fraction < 1.0:
            raise InvalidParameterError(f"settle_fraction must be in [0, 1), got {self.settle_fraction}")


@dataclass
class Waveform:
    """Uniformly sampled run record: time, v_ds, inductor current, output
    voltage, and the gate state of the interval starting at each sample."""

    t: np.ndarray
    v_ds: np.ndarray
    i_l: np.ndarray
    v_out: np.ndarray
    gate_on: np.ndarray

    def __post_init__(self):
        n = len(self.t)
        if any(len(a) != n for a in (self.v_ds, self.i_l, self.v_out, self.gate_on)):
            raise InvalidParameterError("waveform columns must have equal length")
        if self.gate_on.dtype != bool:
            raise InvalidParameterError(f"waveform gate_on must be boolean, got {self.gate_on.dtype}")
        for name in ("t", "v_ds", "i_l", "v_out"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidParameterError(f"waveform {name} must be finite at all samples")
        if n >= 2:
            dt = np.diff(self.t)
            if not (dt > 0).all():
                raise InvalidParameterError("waveform time must be strictly increasing")
            # Each step is the difference of two rounded times, so it may
            # also be off by an ulp of the largest time.
            ulp = math.ulp(max(abs(self.t[0]), abs(self.t[-1])))
            if not np.allclose(dt, dt[0], rtol=1e-9, atol=4.0 * ulp):
                raise InvalidParameterError("waveform time step must be uniform")
        if (self.i_l < 0).any():
            raise InvalidParameterError("waveform i_l must be >= 0 at all samples")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class SteadyStateMetrics:
    """Post-settle scalars: peak and mean drain voltage, mean on-time
    inductor current, peak inductor current."""

    v_max: float
    v_in_avg: float
    i_avg: float
    i_peak: float

    def __post_init__(self):
        if not (self.v_max >= self.v_in_avg >= 0.0):
            raise InvalidParameterError(
                f"requires v_max >= v_in_avg >= 0, got {self.v_max} / {self.v_in_avg}"
            )


def ideal_boost_vout(vin: float, duty: float) -> float:
    """Ideal continuous-conduction transfer: vin / (1 - duty)."""
    require_finite(vin=vin)
    if duty == 1.0:
        raise DomainDivisionError("boost transfer diverges at duty = 1")
    if not 0.0 <= duty < 1.0:
        raise InvalidParameterError(f"duty must be in [0, 1), got {duty}")
    return vin / (1.0 - duty)


def _integrate(circuit: CircuitParams, drive: DriveSignal, device: DeviceState, spp: int,
               i: float, v: float, i_arr: np.ndarray, v_arr: np.ndarray,
               vds_arr: np.ndarray, gate_arr: np.ndarray) -> None:
    """Step the converter from state ``(i, v)`` at a period start.

    This is the one trapezoid step loop of the package. It fills the record
    arrays with the start sample and one sample per step, ``len(i_arr) - 1``
    steps in all, and raises NumericInstabilityError at the first step that
    leaves the finite range.

    Each period is an on-phase of ``on_steps`` steps and then the
    off-phase; the gate column is filled by slice. Invariant: every step
    performs the float operations of the plain per-step loop (``deriv``
    twice, a clipped predictor, the trapezoid average, the finiteness
    check, the clip; tests/helpers.py keeps that loop as
    ``reference_integrate``) in the same order on the same operands, so
    the records are bit-identical to it and the error names the same
    step. Only exact subexpressions are hoisted (``rs + rds``,
    ``0.5 * h``, ``vin - vf``); a reordering such as ``h / ell`` would
    change the rounding.

    Three step loops walk a period. Two are elisions under ``hold_v``: no
    load, and ``v`` in ``[0, clamp]`` (the clamp is finite, so NaN and
    ±inf fail the test) and not ``-0.0`` (which an update by ``+0.0``
    turns into ``0.0``); the clip keeps ``v`` there once it starts there.
    They carry nearly every step of a campaign's march and test no gate.

    - Unloaded on-phase: the output update ``v + h*(-0.0)`` is exactly
      ``v``, so the current is stepped alone.
    - Pinned off-phase: one that starts with ``v == clamp`` and ``i >= 0``.
      Both output slopes are then ``±0.0`` (the spill rule zeroes a
      positive one), so ``v`` stays on the clamp for the whole phase, and
      the predictor ``pv`` equals ``v``. The current is stepped alone with
      the same operations, ``vin - vf - v > 0`` standing for the
      forward-open test on both ``v`` and ``pv``. A current that leaves
      the finite range raises at the same step, since the reference's
      check fails on it too. A negative start current (only a caller's
      start state can be negative) would move ``v``, so it is stepped in
      full.
    - Two-state loop: every other step, the current and the output
      stepped together. It walks the whole period of a loaded circuit, or
      the off-phase that follows an unloaded on-phase when it is not
      pinned. It tests the gate at each step (``on = k < on_end``): no
      benchmark workload runs a loaded circuit, and one loop is less code
      than one per phase.

    ``v_ds`` is computed after stepping, in one numpy pass over the
    finished records: ``i * rds`` where the gate is on, else ``v + vf``
    where ``i > 0``, else ``min(vin, v + vf)``. numpy float64 ``*`` and
    ``+`` round like Python floats, and ``fmin(vin, x)`` equals
    ``min(vin, x)`` for the positive finite ``vin`` (a NaN ``x`` included),
    so the column is bit-identical to the reference's per-step one.

    Period-repeat shortcut: a step reads only ``(i, v)`` and the phase, so
    when a period starts in a state bitwise equal to the previous period's
    start state, that period and every later one repeat the previous one
    exactly. The rest of the current, voltage and gate records, the closing
    sample included (it is the sample at its phase), are then copied from
    the previous period by slice, a truncated last period included. States
    are compared by their bits, not by ``==``, which equates ``0.0`` and
    ``-0.0`` although they can step to different records. A repeated period
    stayed finite, so no copied step could have raised.
    """
    vin = circuit.vin
    ell = circuit.l_drain
    cap = circuit.c_out
    vf = circuit.diode_vf
    rs = circuit.series_r
    rds = device.rds_on
    rsd = rs + rds
    v_open = vin - vf
    clamp = circuit.clamp_voltage
    g_load = 0.0 if circuit.r_load is None else 1.0 / circuit.r_load
    isfinite = math.isfinite
    hold_v = circuit.r_load is None and 0.0 <= v <= clamp and math.copysign(1.0, v) > 0.0
    open_fwd = v_open - clamp > 0.0
    mi, mv = memoryview(i_arr), memoryview(v_arr)

    n = len(i_arr) - 1
    h = 1.0 / (drive.frequency * spp)
    hh = 0.5 * h
    on_steps = round(drive.duty * spp)

    last_state = None
    for start in range(0, n, spp):
        state = _STATE_BITS.pack(i, v)
        if state == last_state:
            for arr in (i_arr, v_arr, gate_arr):
                _tile_period(arr, start, spp)
            break
        last_state = state
        on_end = min(start + on_steps, n)
        off_end = min(start + spp, n)
        gate_arr[start:on_end] = True
        gate_arr[on_end:off_end] = False
        if hold_v:
            v_arr[start:on_end] = v
            for k in range(start, on_end):
                mi[k] = i
                d1i = (vin - i * rsd) / ell
                pi = i + h * d1i
                if pi < 0.0:
                    pi = 0.0
                i += hh * (d1i + (vin - pi * rsd) / ell)
                if not isfinite(i):
                    raise NumericInstabilityError(k)
                if i < 0.0:
                    i = 0.0
        if hold_v and v == clamp and i >= 0.0:  # pinned off-phase: v stays on the clamp
            v_arr[on_end:off_end] = v
            for k in range(on_end, off_end):
                mi[k] = i
                if i > 0.0 or open_fwd:
                    d1i = (vin - i * rs - vf - v) / ell
                else:
                    d1i = 0.0
                pi = i + h * d1i
                if pi < 0.0:
                    pi = 0.0
                if pi > 0.0 or open_fwd:
                    d2i = (vin - pi * rs - vf - v) / ell
                else:
                    d2i = 0.0
                i += hh * (d1i + d2i)
                if not isfinite(i):
                    raise NumericInstabilityError(k)
                if i < 0.0:
                    i = 0.0
            continue
        for k in range(on_end if hold_v else start, off_end):
            mi[k] = i
            mv[k] = v
            on = k < on_end
            if on:
                d1i = (vin - i * rsd) / ell
                d1v = (-v * g_load) / cap
            elif i > 0.0 or v_open - v > 0.0:
                d1v = (i - v * g_load) / cap
                if v >= clamp and d1v > 0.0:
                    d1v = 0.0  # excess charge spills into the supply
                d1i = (vin - i * rs - vf - v) / ell
            else:
                d1i = 0.0  # branch open: current held at zero
                d1v = (-v * g_load) / cap
            pi = i + h * d1i
            pv = v + h * d1v
            if pi < 0.0:
                pi = 0.0
            if pv > clamp:
                pv = clamp
            elif pv < 0.0:
                pv = 0.0
            if on:
                d2i = (vin - pi * rsd) / ell
                d2v = (-pv * g_load) / cap
            elif pi > 0.0 or v_open - pv > 0.0:
                d2v = (pi - pv * g_load) / cap
                if pv >= clamp and d2v > 0.0:
                    d2v = 0.0
                d2i = (vin - pi * rs - vf - pv) / ell
            else:
                d2i = 0.0
                d2v = (-pv * g_load) / cap
            i += hh * (d1i + d2i)
            v += hh * (d1v + d2v)
            if not (isfinite(i) and isfinite(v)):
                raise NumericInstabilityError(k)
            if i < 0.0:
                i = 0.0
            if v > clamp:
                v = clamp
            elif v < 0.0:
                v = 0.0
    else:  # no period repeated: record the closing sample
        mi[n] = i
        mv[n] = v
        gate_arr[n] = n % spp < on_steps

    # fmin, not minimum: like min(vin, x) it gives vin for a NaN x.
    np.add(v_arr, vf, out=vds_arr)
    np.fmin(vin, vds_arr, out=vds_arr, where=~(i_arr > 0.0))
    np.multiply(i_arr, rds, out=vds_arr, where=gate_arr)


def _tile_period(arr: np.ndarray, start: int, spp: int) -> None:
    """Fill ``arr[start:]`` with repeats of the period ``arr[start - spp:start]``."""
    whole, rest = divmod(len(arr) - start, spp)
    period = arr[start - spp:start]
    arr[start:start + whole * spp].reshape(whole, spp)[:] = period
    arr[start + whole * spp:] = period[:rest]


def simulate(circuit: CircuitParams, drive: DriveSignal, device: DeviceState,
             sim: SimConfig) -> Waveform:
    """Integrate the switched converter and return the sampled waveform.

    The run starts from the quiescent pre-switching operating point (zero
    inductor current, output charged to vin - diode_vf through the inductor
    and diode) and lasts ``sim.n_periods`` periods.
    """
    spp = sim.steps_per_period
    n = sim.n_periods * spp
    h = 1.0 / (drive.frequency * spp)
    t = np.arange(n + 1) * h
    i_arr = np.empty(n + 1)
    v_arr = np.empty(n + 1)
    vds_arr = np.empty(n + 1)
    gate_arr = np.empty(n + 1, dtype=bool)
    v0 = min(max(circuit.vin - circuit.diode_vf, 0.0), circuit.clamp_voltage)
    _integrate(circuit, drive, device, spp, 0.0, v0, i_arr, v_arr, vds_arr, gate_arr)
    return Waveform(t=t, v_ds=vds_arr, i_l=i_arr, v_out=v_arr, gate_on=gate_arr)


def settle_start_index(sim: SimConfig) -> int:
    """First sample index after the settle window, aligned to a period start."""
    return round(sim.settle_fraction * sim.n_periods) * sim.steps_per_period


def _window_metrics(v_ds: np.ndarray, i_l: np.ndarray, on: np.ndarray) -> SteadyStateMetrics:
    i_avg = float(i_l[on].mean()) if on.any() else 0.0
    v_max = float(v_ds.max())
    return SteadyStateMetrics(
        v_max=v_max,
        v_in_avg=min(float(v_ds.mean()), v_max),  # the summed mean of a flat drain can round above it
        i_avg=i_avg,
        i_peak=float(i_l.max()),
    )


def steady_state_metrics(w: Waveform, sim: SimConfig) -> SteadyStateMetrics:
    """Reduce a waveform to its post-settle steady-state scalars.

    ``i_avg`` is the mean inductor current over on-gate samples; for a run
    with no on-time (duty 0) it is reported as 0.

    The window runs from the settle start through the closing sample of the
    run, which is an on-gate sample: with the campaign settings that is
    28 001 samples, one more than the 28 000 of the 70 whole periods. The
    extra sample tilts the off-time share of ``v_in_avg`` by one part in
    28 001, and that alone accounts for the whole on-resistance extraction
    error of campaigns that measured this way (1.27e-3 relative in the
    default 110 V cell). The window is kept because ``metrics.txt`` of the
    ``simulate`` command is a stable format; ``periodic_steady_state``
    reduces a half-open period instead.
    """
    start = settle_start_index(sim)
    spp = sim.steps_per_period
    if len(w) - 1 < start:
        raise InsufficientDataError(
            f"waveform has {len(w)} samples, shorter than the settle window ({start})"
        )
    if len(w) - 1 - start < 2 * spp:
        raise InsufficientDataError(
            f"waveform covers {(len(w) - 1 - start) / spp:.2f} periods after settling; need >= 2"
        )
    return _window_metrics(w.v_ds[start:], w.i_l[start:], w.gate_on[start:])


def _trapezoid_step(x: float, hg: float) -> tuple[float, float]:
    """``(d, B)`` of one trapezoid step ``i -> (1 - d)*i + B`` on
    ``di/dt = g - c*i`` with no clipping, where ``x = h*c`` and
    ``hg = h*g``: ``A = 1 - d = 1 - x + x**2/2`` and ``B = h*g*(1 - x/2)``."""
    half = 1.0 - 0.5 * x
    return x * half, hg * half


def _run_of_steps(d: float, b: float, n: int) -> tuple[float, float, float]:
    """``(log(A**n), 1 - A**n, q)`` of ``n`` steps ``i -> (1 - d)*i + b``, which
    map ``i`` to ``A**n * i + q``. ``1 - A**n`` comes from ``log1p`` and
    ``expm1``: rounding ``A = 1 - d`` first loses about 4 digits of it at
    the campaign's ``d`` of 1.6e-4."""
    log_a = n * math.log1p(-d)
    rise = -math.expm1(log_a)
    return log_a, rise, (b * rise / d if d > 0.0 else n * b)


def _solve_orbit(circuit: CircuitParams, drive: DriveSignal, device: DeviceState,
                 spp: int) -> tuple[float, SteadyStateMetrics] | str:
    """Closed-form clamped continuous-conduction periodic orbit.

    Returns the orbit's period-start current ``i*`` and the metrics of its
    ``spp`` half-open samples, or the event that rules the orbit out.
    """
    if circuit.r_load is not None:
        return "output leaves the clamp"
    h = 1.0 / (drive.frequency * spp)
    n_on = round(drive.duty * spp)
    n_off = spp - n_on
    vin, ell, rs, rds = circuit.vin, circuit.l_drain, circuit.series_r, device.rds_on
    clamp, vf = circuit.clamp_voltage, circuit.diode_vf
    x_on = h * (rs + rds) / ell
    if not x_on < 1.0:  # the off-phase x = h*series_r/L is no larger
        return "step too stiff for the closed form"
    d_on, b_on = _trapezoid_step(x_on, h * vin / ell)
    d_off, b_off = _trapezoid_step(h * rs / ell, h * (vin - vf - clamp) / ell)
    log_on, rise_on, q_on = _run_of_steps(d_on, b_on, n_on)
    log_off, _, q_off = _run_of_steps(d_off, b_off, n_off)

    # Period map i -> a*i + b, on-phase then off-phase; i* = b / (1 - a).
    log_a = log_on + log_off
    i_star = (math.exp(log_off) * q_on + q_off) / -math.expm1(log_a) if log_a < 0.0 else math.inf
    if not math.isfinite(i_star):
        return "period map does not contract"
    # A > 0, so each phase runs monotonically between its end values, i*
    # and the first off sample i_mid > 0: every sample is positive with i*.
    if not i_star > 0.0:
        return "current reaches zero"
    i_mid = math.exp(log_on) * i_star + q_on
    if n_off:
        # A predictor is increasing in i (x < 1): a falling off-phase puts its
        # smallest one on the last step, and the kernel would clip it at 0.
        i_last = (i_star - b_off) / (1.0 - d_off)
        if not i_last + h * ((vin - i_last * rs - vf - clamp) / ell) > 0.0:
            return "current reaches zero"

    # The on-phase currents i_k = F + (i* - F)*A**k, about the fixed point
    # F = vin/(series_r + rds), sum to i*·S + F·(n_on - S), S = sum of A**k.
    f_on = vin / (rs + rds)
    s_on = rise_on / d_on if n_on else 0.0
    i_sum = i_star * s_on + f_on * (n_on - s_on)
    v_off = clamp + vf
    # A falling on-phase peaks at its first sample. A rising one stays below
    # F, so rds*i < vin - series_r*i, and the off-phase then falls, so
    # vin - series_r*i < clamp + vf: its drain stays below the off-phase's.
    v_max = max(([rds * i_star] if n_on else []) + ([v_off] if n_off else []))
    return i_star, SteadyStateMetrics(
        v_max=v_max,
        v_in_avg=min((rds * i_sum + n_off * v_off) / spp, v_max),
        i_avg=i_sum / n_on if n_on else 0.0,
        i_peak=max(i_star, i_mid),
    )


def periodic_steady_state(circuit: CircuitParams, drive: DriveSignal, device: DeviceState,
                          sim: SimConfig) -> tuple[SteadyStateMetrics, Optional[str]]:
    """Steady-state metrics of the periodic orbit with the output on the clamp.

    Returns ``(metrics, fallback)``. While the inductor current stays
    positive and the output stays pinned at the clamp, one trapezoid step
    is ``i -> A*i + B`` with ``A = 1 - x + x**2/2`` and
    ``B = h*g*(1 - x/2)``, where ``x = h*c`` and ``di/dt = g - c*i`` is the
    phase's inductor equation: ``c = (series_r + rds_on)/L``, ``g = vin/L``
    in the on-phase and ``c = series_r/L``, ``g = (vin - vf - clamp)/L`` in
    the off-phase. The period map, its fixed point ``i*`` and the sums over
    the orbit's ``steps_per_period`` half-open samples (no closing sample)
    are then geometric, and the metrics are computed in closed form,
    without stepping: the piecewise-linear treatment of Maksimovic et al.,
    Proc. IEEE 89(6), 2001. ``fallback`` is None in that case.

    The orbit is ruled out, in this order, by a load resistor (the output
    leaves the clamp), an on-phase ``x >= 1`` (the step too stiff for the
    closed form), a period map that does not contract (or a fixed point
    that overflows), or a current that reaches zero: ``i* <= 0``, or a
    last off-step predictor ``<= 0``, which the kernel would clip. The
    result is then ``steady_state_metrics(simulate(...))`` under ``sim``,
    and ``fallback`` names the event. ``sim.n_periods`` and
    ``sim.settle_fraction`` matter only on that path, which raises
    NumericInstabilityError on a blow-up.
    """
    solved = _solve_orbit(circuit, drive, device, sim.steps_per_period)
    if isinstance(solved, str):
        return steady_state_metrics(simulate(circuit, drive, device, sim), sim), solved
    return solved[1], None
