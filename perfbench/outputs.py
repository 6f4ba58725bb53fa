"""Output checks and digests for the files the CLI writes.

A campaign cell fails its check when its CSV or summary row is malformed,
a sample is missing or non-positive, the fit is missing, the measured
``v_max`` is not the clamp level, or the extraction / fit error against the
injected degradation exceeds ``RDS_REL_TOL`` / ``SLOPE_REL_TOL``. A simulate
command fails when its files are malformed or disagree with each other.

Digests are SHA-256 prefixes over exactly the bytes a cell or a simulate
command contributes, so they can be compared against the seed-commit table
in ``seed_digests.json`` whatever position a cell takes in a config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import RDS_NOMINAL

CELL_HEADER = "t_min,rds_on_ohm,rds_norm"
SUMMARY_HEADER = "cell,v_stress_V,v_max_V,temp_K,slope_ohm_per_ln_min,intercept_ohm,r_squared"
WAVEFORM_HEADER = "t_s,v_ds_V,i_l_A,v_out_V,gate_on"
METRICS_KEYS = ("v_max_V", "v_in_avg_V", "i_avg_A", "i_peak_A")

#: Largest accepted |extracted - injected| / injected rds_on of one sample.
RDS_REL_TOL = 1e-2
#: Largest accepted |fitted - injected| / |injected| log-time slope of one cell.
SLOPE_REL_TOL = 1e-2

# Program defaults of the simulate command (README "Configuration").
SIM_DIODE_VF = 0.5
SIM_CLAMP = 100.0 + SIM_DIODE_VF
SIM_PERIODS = 60
SIM_STEPS = SIM_PERIODS * 1000
SIM_SETTLE_START = SIM_STEPS // 2
SIM_PERIOD_S = 1.0 / 100e3
SIMULATE_KEY = "simulate:defaults"

_REL = 1e-9


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
        h.update(b"\0")
    return h.hexdigest()[:16]


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@dataclass
class CampaignCheck:
    failures: dict = field(default_factory=dict)   # cell index -> reason
    digests: dict = field(default_factory=dict)    # cell key -> digest
    rds_rel_err_max: float = 0.0
    slope_rel_err_max: float = 0.0


class CheckError(Exception):
    pass


def _read_lines(path: Path) -> list:
    try:
        return path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc


def _floats(line: str, n: int, where: str) -> list:
    parts = line.split(",")
    if len(parts) != n:
        raise CheckError(f"{where}: expected {n} columns, got {line!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CheckError(f"{where}: {exc}") from exc


def _check_cell(idx: int, cell, cell_lines: list, row: str, api) -> tuple:
    """Check one cell's files; return its (rds_rel_err_max, slope_rel_err)
    against the injected degradation, which the caller holds to tolerance."""
    name = f"cell{idx:02d}"
    if not cell_lines or cell_lines[0] != CELL_HEADER:
        raise CheckError(f"{name}.csv: bad header")
    rows = [_floats(line, 3, f"{name}.csv") for line in cell_lines[1:]]
    if len(rows) != len(cell.schedule):
        raise CheckError(f"{name}.csv: {len(rows)} samples, expected {len(cell.schedule)}")
    t = [r[0] for r in rows]
    rds = [r[1] for r in rows]
    for got, want in zip(t, cell.schedule):
        if not _close(got, want):
            raise CheckError(f"{name}.csv: sample at t = {got!r}, expected {want!r}")
    if not all(math.isfinite(r) and r > 0.0 for r in rds):
        raise CheckError(f"{name}.csv: non-positive or non-finite rds_on")
    for _, r, norm in rows:
        if not _close(norm, r / rds[0]):
            raise CheckError(f"{name}.csv: rds_norm {norm!r} is not rds_on / first")

    parts = row.split(",")
    if len(parts) != 7 or parts[0] != name:
        raise CheckError(f"summary.csv: bad row for {name}: {row!r}")
    v_stress, v_max, temp = _floats(",".join(parts[1:4]), 3, f"summary.csv {name}")
    if not all(parts[4:]):
        raise CheckError(f"summary.csv: {name} has no fit")
    slope, intercept, r2 = _floats(",".join(parts[4:]), 3, f"summary.csv {name}")
    if v_stress != cell.v_stress or not _close(temp, cell.temp_k):
        raise CheckError(f"summary.csv: {name} stress point {v_stress!r} V / {temp!r} K")
    if not _close(v_max, cell.v_stress):
        raise CheckError(f"summary.csv: {name} v_max {v_max!r} is not the clamp {cell.v_stress!r}")
    if not 0.0 <= r2 <= 1.0:
        raise CheckError(f"summary.csv: {name} r_squared {r2!r} outside [0, 1]")
    refit = api.fit_log_time([api.RdsSample(a, b) for a, b in zip(t, rds)])
    if not (_close(refit.slope, slope) and _close(refit.intercept, intercept)):
        raise CheckError(f"summary.csv: {name} fit disagrees with its own samples")

    deg = api.DegradationParams()
    injected = [RDS_NOMINAL * (1.0 + api.delta_r_fraction(deg, cell.v_stress, cell.temp_k, x))
                for x in t]
    rds_err = max(abs(r - q) / q for r, q in zip(rds, injected))
    inj_slope = api.fit_log_time([api.RdsSample(a, b) for a, b in zip(t, injected)]).slope
    return rds_err, abs(slope - inj_slope) / abs(inj_slope)


def check_campaign(out_dir: Path, cells: list, api) -> CampaignCheck:
    """Check a campaign output directory against the cells of its config."""
    res = CampaignCheck()
    try:
        summary = _read_lines(out_dir / "summary.csv")
        if not summary or summary[0] != SUMMARY_HEADER:
            raise CheckError("summary.csv: bad header")
        rows = summary[1:]
        if len(rows) != len(cells):
            raise CheckError(f"summary.csv: {len(rows)} rows for {len(cells)} cells")
    except CheckError as exc:
        res.failures = {idx: str(exc) for idx in range(len(cells))}
        return res
    for idx, (cell, row) in enumerate(zip(cells, rows)):
        path = out_dir / f"cell{idx:02d}.csv"
        try:
            lines = _read_lines(path)
            rds_err, slope_err = _check_cell(idx, cell, lines, row, api)
        except (CheckError, ValueError, ArithmeticError) as exc:
            res.failures[idx] = str(exc)
            continue
        res.rds_rel_err_max = max(res.rds_rel_err_max, rds_err)
        res.slope_rel_err_max = max(res.slope_rel_err_max, slope_err)
        res.digests[cell.key] = digest(path.read_bytes(), row.split(",", 1)[1].encode())
        if rds_err > RDS_REL_TOL:
            res.failures[idx] = f"rds_on error {rds_err:.3e} > {RDS_REL_TOL:g}"
        elif slope_err > SLOPE_REL_TOL:
            res.failures[idx] = f"slope error {slope_err:.3e} > {SLOPE_REL_TOL:g}"
    return res


def simulate_digest(out_dir: Path) -> str:
    return digest((out_dir / "waveform.csv").read_bytes(), (out_dir / "metrics.txt").read_bytes())


def check_simulate(out_dir: Path) -> None:
    """Full check of one simulate command's files; raises CheckError."""
    lines = _read_lines(out_dir / "metrics.txt")
    metrics = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckError(f"metrics.txt: bad line {line!r}")
        metrics[key] = float(value)
    if tuple(metrics) != METRICS_KEYS:
        raise CheckError(f"metrics.txt: keys {tuple(metrics)}, expected {METRICS_KEYS}")

    path = out_dir / "waveform.csv"
    with open(path) as stream:
        if stream.readline().rstrip("\n") != WAVEFORM_HEADER:
            raise CheckError("waveform.csv: bad header")
        try:
            data = np.loadtxt(stream, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"waveform.csv: {exc}") from exc
    if data.shape != (SIM_STEPS + 1, 5):
        raise CheckError(f"waveform.csv: shape {data.shape}, expected {(SIM_STEPS + 1, 5)}")
    t, v_ds, i_l, v_out, gate = data.T
    dt = np.diff(t)
    if not ((dt > 0).all() and np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)):
        raise CheckError("waveform.csv: time is not uniform and increasing")
    if not _close(t[-1], SIM_PERIODS * SIM_PERIOD_S, 1e-9):
        raise CheckError(f"waveform.csv: run ends at {t[-1]!r} s")
    if not np.isin(gate, (0.0, 1.0)).all():
        raise CheckError("waveform.csv: gate_on is not 0/1")
    if (i_l < 0).any() or (v_out < 0).any() or (v_out > SIM_CLAMP).any():
        raise CheckError("waveform.csv: state outside i_l >= 0, 0 <= v_out <= clamp")
    if (v_ds > SIM_CLAMP + SIM_DIODE_VF).any():
        raise CheckError("waveform.csv: v_ds above clamp + diode drop")
    s = SIM_SETTLE_START
    on = gate[s:] == 1.0
    expect = {"v_max_V": v_ds[s:].max(), "v_in_avg_V": v_ds[s:].mean(),
              "i_avg_A": i_l[s:][on].mean(), "i_peak_A": i_l[s:].max()}
    for key, want in expect.items():
        if not _close(metrics[key], float(want), 1e-6):
            raise CheckError(f"metrics.txt: {key} = {metrics[key]!r}, waveform gives {want!r}")
