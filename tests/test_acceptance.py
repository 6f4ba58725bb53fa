"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ganstress import (
    EPC2038,
    CircuitParams,
    DegradationParams,
    DeviceState,
    DriveSignal,
    RdsSample,
    SimConfig,
    extract_rds_on,
    fit_log_time,
    ideal_boost_vout,
    predict_avg_vin,
    simulate,
    steady_state_metrics,
    stress_slope,
)
from ganstress.campaign import CAMPAIGN_DRIVE, CAMPAIGN_SIM, StressCell, cell_circuit, tune_vin
from ganstress.cli import cli
from helpers import clamp_margin, worst_charge_balance, worst_volt_second

IDEAL_SWITCH = DeviceState(rds_on_nominal=1e-9)
DEG_DEFAULTS = DegradationParams()

# 15 log-spaced measurement times spanning 10 to 1000 minutes.
ACCEPTANCE_TIMES = [round(float(t), 6) for t in np.logspace(1, 3, 15)]

ACCEPTANCE_CAMPAIGN_YAML = (
    "cells:\n"
    + "".join(
        f"  - {{v_stress: {v}, temp_c: 25, sample_times_min: {ACCEPTANCE_TIMES}}}\n"
        for v in (60, 85, 110)
    )
)


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


# --- shared fixtures ---------------------------------------------------------

@pytest.fixture(scope="module")
def boost_runs():
    """Ideal-component boost simulations at the three acceptance duties."""
    circuit = CircuitParams(vin=10.0, l_drain=100e-6, c_out=4.7e-6, v_supply=1000.0,
                            diode_vf=0.0, series_r=0.0, r_load=100.0)
    sim = SimConfig(steps_per_period=800, n_periods=700, settle_fraction=0.75)
    runs = {}
    t0 = time.monotonic()
    for duty in (0.3, 0.5, 0.7):
        drive = DriveSignal(frequency=100e3, duty=duty)
        runs[duty] = (simulate(circuit, drive, IDEAL_SWITCH, sim), circuit, drive, sim)
    runs["elapsed"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def campaign_cli_runs(tmp_path_factory):
    """The acceptance campaign config run twice through the CLI."""
    base = tmp_path_factory.mktemp("acceptance_campaign")
    config = base / "campaign.yaml"
    config.write_text(ACCEPTANCE_CAMPAIGN_YAML)
    runner = CliRunner()
    dirs = []
    elapsed = []
    for name in ("run_a", "run_b"):
        out = base / name
        t0 = time.monotonic()
        result = runner.invoke(cli, ["campaign", "--config", str(config), "--out", str(out)])
        elapsed.append(time.monotonic() - t0)
        assert result.exit_code == 0, result.output
        dirs.append(out)
    return dirs, elapsed


def read_summary(out_dir: Path) -> list[dict]:
    lines = (out_dir / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[1:]]


# --- criteria ----------------------------------------------------------------

def test_criterion_1_worked_example_extraction():
    runner = CliRunner()
    result = runner.invoke(cli, ["extract", "--vin-avg", "9.95", "--vmax", "60",
                                 "--duty", "0.7", "--iavg", "0.4"])
    value = float(result.output.split("=")[1].strip())
    ok = result.exit_code == 0 and abs(value - 3.39) <= 0.005
    report(1, ok, f"extract CLI returned {value:.6f} ohm (target 3.39 +/- 0.005)")


def test_criterion_2_boost_law(boost_runs):
    details = []
    ok = True
    for duty in (0.3, 0.5, 0.7):
        w, circuit, drive, sim = boost_runs[duty]
        start = len(w) - 100 * sim.steps_per_period
        avg = float(w.v_out[start:].mean())
        target = ideal_boost_vout(circuit.vin, duty)
        err = abs(avg - target) / target
        ok = ok and err <= 0.02
        details.append(f"D={duty}: {avg:.3f} V vs {target:.3f} V ({err * 100:.2f}%)")
    elapsed = boost_runs["elapsed"]
    ok = ok and elapsed < 10.0
    report(2, ok, "; ".join(details) + f"; runtime {elapsed:.1f} s")


def test_criterion_3_round_trip_identity():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        i = rng.uniform(0.05, 1.0)
        r = rng.uniform(0.1, 10.0)
        duty = rng.uniform(0.05, 0.95)
        v_max = rng.uniform(1.0, 120.0)
        recovered = extract_rds_on(predict_avg_vin(i, r, duty, v_max, 2.0), v_max, duty, i, 2.0)
        worst = max(worst, abs(recovered - r) / r)
    report(3, worst <= 1e-9, f"worst relative recovery error {worst:.3e} over 1000 tuples")


def test_criterion_4_log_law_property():
    slope = stress_slope(DEG_DEFAULTS, 100.0, 298.15)
    r_nominal = EPC2038.rds_on_nominal
    samples = [
        RdsSample(float(t), r_nominal * (1.0 + slope * math.log1p(t)))
        for t in np.logspace(1, 3, 41)
    ]
    fit = fit_log_time(samples)
    closed_form = r_nominal * slope
    err = abs(fit.slope - closed_form) / closed_form
    ok = fit.r_squared >= 0.99 and err <= 0.02
    report(4, ok, f"r^2 = {fit.r_squared:.5f}, slope {fit.slope:.4e} vs closed form "
                  f"{closed_form:.4e} ({err * 100:.2f}%)")


def test_criterion_5_voltage_ordering(campaign_cli_runs):
    dirs, elapsed = campaign_cli_runs
    rows = read_summary(dirs[0])
    slopes = [float(r["slope_ohm_per_ln_min"]) for r in rows]
    stresses = [float(r["v_stress_V"]) for r in rows]
    ok = stresses == [60.0, 85.0, 110.0] and slopes[0] < slopes[1] < slopes[2]
    ok = ok and elapsed[0] < 60.0
    report(5, ok, f"fitted slopes {[f'{s:.3e}' for s in slopes]} for v_max {stresses}; "
                  f"runtime {elapsed[0]:.1f} s")


def test_criterion_6_negative_temperature_coefficient():
    temps = np.linspace(250.0, 450.0, 21)
    ok = True
    for v_ds in (40.0, 70.0, 100.0):
        slopes = [stress_slope(DEG_DEFAULTS, v_ds, float(t)) for t in temps]
        ok = ok and all(b < a for a, b in zip(slopes, slopes[1:]))
    report(6, ok, "stress slope strictly decreasing on 21-point grid over [250 K, 450 K] "
                  "at 40/70/100 V")


def test_criterion_7_physics_invariants(boost_runs):
    details = []
    ok = True
    # volt-second, charge balance, current sign, clamp on the boost-law runs
    for duty in (0.3, 0.5, 0.7):
        w, circuit, drive, sim = boost_runs[duty]
        vs = worst_volt_second(w, sim, circuit)
        qb = worst_charge_balance(w, sim, circuit)
        ok = ok and vs <= 0.01 and qb <= 0.01 and w.i_l.min() >= 0.0
        ok = ok and clamp_margin(w, circuit) <= 1.01
        details.append(f"D={duty}: volt-sec {vs * 100:.3f}%, charge {qb * 100:.3f}%")
    # same invariants plus step-halving on a stress-campaign cell
    cell = StressCell(v_stress=60.0, temp=298.15, sample_times=(10.0,))
    circ = cell_circuit(cell, CircuitParams())
    vin = tune_vin(cell, circ, CAMPAIGN_DRIVE, DeviceState(rds_on_nominal=3.3), CAMPAIGN_SIM)
    circ = replace(circ, vin=vin)
    metrics = []
    for spp in (CAMPAIGN_SIM.steps_per_period, 2 * CAMPAIGN_SIM.steps_per_period):
        sim = SimConfig(steps_per_period=spp, n_periods=CAMPAIGN_SIM.n_periods,
                        settle_fraction=CAMPAIGN_SIM.settle_fraction)
        w = simulate(circ, CAMPAIGN_DRIVE, DeviceState(rds_on_nominal=3.3), sim)
        vs = worst_volt_second(w, sim, circ)
        qb = worst_charge_balance(w, sim, circ)
        ok = ok and vs <= 0.01 and qb <= 0.01 and w.i_l.min() >= 0.0
        ok = ok and clamp_margin(w, circ) <= 1.01
        metrics.append(steady_state_metrics(w, sim))
    dv_max = abs(metrics[1].v_max - metrics[0].v_max) / metrics[0].v_max
    dv_avg = abs(metrics[1].v_in_avg - metrics[0].v_in_avg) / metrics[0].v_in_avg
    ok = ok and dv_max <= 0.005 and dv_avg <= 0.005
    details.append(f"cell: halving dv_max {dv_max * 100:.3f}%, dv_avg {dv_avg * 100:.3f}%")
    report(7, ok, "; ".join(details))


def test_criterion_8_campaign_determinism(campaign_cli_runs):
    dirs, _ = campaign_cli_runs
    names = sorted(p.name for p in dirs[0].iterdir())
    ok = names == sorted(p.name for p in dirs[1].iterdir()) and len(names) == 4
    identical = []
    for name in names:
        same = (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        identical.append(f"{name}: {'identical' if same else 'DIFFERS'}")
        ok = ok and same
    report(8, ok, "; ".join(identical))
