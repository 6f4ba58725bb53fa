"""Shared checks for the physics invariants of simulated waveforms, the
closure-based reference stepper that ``converter._integrate`` must match,
and the per-row reference writer that ``write_waveform_csv`` must match."""

import math
from typing import TextIO

import numpy as np

from ganstress import CircuitParams, DeviceState, DriveSignal, SimConfig, Waveform
from ganstress.converter import settle_start_index
from ganstress.errors import NumericInstabilityError
from ganstress.results import WAVEFORM_CSV_HEADER


def worst_volt_second(w: Waveform, sim: SimConfig, circuit: CircuitParams) -> float:
    """Worst per-period |mean inductor voltage| / vin over post-settle periods.

    The mean inductor voltage over one period is L * delta(i) / T, so this
    is a periodicity check on the inductor current.
    """
    spp = sim.steps_per_period
    start = settle_start_index(sim)
    dt = w.t[1] - w.t[0]
    period = spp * dt
    worst = 0.0
    for a in range(start, len(w) - spp, spp):
        dv = abs(circuit.l_drain * (w.i_l[a + spp] - w.i_l[a]) / period)
        worst = max(worst, dv / circuit.vin)
    return worst


def worst_charge_balance(w: Waveform, sim: SimConfig, circuit: CircuitParams) -> float:
    """Worst per-period |net charge into c_out| / per-cycle charge throughput.

    Throughput is the diode charge delivered during the period (current while
    the gate is off and the branch conducts). Clamp spill keeps the capacitor
    voltage pinned, so net charge is measured as C * delta(v_out).
    """
    spp = sim.steps_per_period
    start = settle_start_index(sim)
    dt = w.t[1] - w.t[0]
    worst = 0.0
    for a in range(start, len(w) - spp, spp):
        sl = slice(a, a + spp)
        conducting = (~w.gate_on[sl]) & (w.i_l[sl] > 0)
        throughput = float(w.i_l[sl][conducting].sum()) * dt
        net = abs(circuit.c_out * (w.v_out[a + spp] - w.v_out[a]))
        if throughput > 0:
            worst = max(worst, net / throughput)
        else:
            worst = max(worst, net / max(circuit.c_out * circuit.vin, 1e-30))
    return worst


def post_settle_periods(w: Waveform, sim: SimConfig) -> int:
    return (len(w) - 1 - settle_start_index(sim)) // sim.steps_per_period


def clamp_margin(w: Waveform, circuit: CircuitParams) -> float:
    """Max v_ds relative to the clamp bound v_supply + diode_vf."""
    return float(w.v_ds.max()) / (circuit.v_supply + circuit.diode_vf)


def reference_integrate(circuit: CircuitParams, drive: DriveSignal, device: DeviceState, spp: int,
                        i: float, v: float, i_arr: np.ndarray, v_arr: np.ndarray,
                        vds_arr: np.ndarray, gate_arr: np.ndarray) -> None:
    """Test-only reference for ``converter._integrate``: the plain per-step
    trapezoid loop with ``deriv`` / ``v_drain`` closures and the gate
    recomputed at every step. Same signature and contract; the production
    kernel must reproduce its records bit for bit and raise
    NumericInstabilityError at the same step."""
    vin = circuit.vin
    ell = circuit.l_drain
    cap = circuit.c_out
    vf = circuit.diode_vf
    rs = circuit.series_r
    rds = device.rds_on
    clamp = circuit.clamp_voltage
    g_load = 0.0 if circuit.r_load is None else 1.0 / circuit.r_load

    n = len(i_arr) - 1
    h = 1.0 / (drive.frequency * spp)
    on_steps = round(drive.duty * spp)

    def deriv(i: float, v: float, gate: bool) -> tuple[float, float]:
        if gate:
            return (vin - i * (rs + rds)) / ell, (-v * g_load) / cap
        if i > 0.0 or vin - vf - v > 0.0:
            dv = (i - v * g_load) / cap
            if v >= clamp and dv > 0.0:
                dv = 0.0  # excess charge spills into the supply
            return (vin - i * rs - vf - v) / ell, dv
        return 0.0, (-v * g_load) / cap  # branch open: current held at zero

    def v_drain(i: float, v: float, gate: bool) -> float:
        if gate:
            return i * rds
        if i > 0.0:
            return v + vf
        return min(vin, v + vf)

    gate = 0 < on_steps
    i_arr[0], v_arr[0], vds_arr[0], gate_arr[0] = i, v, v_drain(i, v, gate), gate

    for k in range(n):
        gate = (k % spp) < on_steps
        d1i, d1v = deriv(i, v, gate)
        pi = i + h * d1i
        pv = v + h * d1v
        if pi < 0.0:
            pi = 0.0
        if pv > clamp:
            pv = clamp
        elif pv < 0.0:
            pv = 0.0
        d2i, d2v = deriv(pi, pv, gate)
        i += 0.5 * h * (d1i + d2i)
        v += 0.5 * h * (d1v + d2v)
        if not (math.isfinite(i) and math.isfinite(v)):
            raise NumericInstabilityError(k)
        if i < 0.0:
            i = 0.0
        if v > clamp:
            v = clamp
        elif v < 0.0:
            v = 0.0
        g_next = ((k + 1) % spp) < on_steps
        i_arr[k + 1] = i
        v_arr[k + 1] = v
        vds_arr[k + 1] = v_drain(i, v, g_next)
        gate_arr[k + 1] = g_next


def reference_write_waveform_csv(w: Waveform, stream: TextIO) -> None:
    """Test-only reference for ``converter.write_waveform_csv``: one f-string
    and one write per row. The production writer must produce the same text."""
    stream.write(WAVEFORM_CSV_HEADER + "\n")
    t, v_ds, i_l, v_out = (a.tolist() for a in (w.t, w.v_ds, w.i_l, w.v_out))
    gate = w.gate_on.astype(int).tolist()
    for k in range(len(t)):
        stream.write(f"{t[k]!r},{v_ds[k]!r},{i_l[k]!r},{v_out[k]!r},{gate[k]}\n")
