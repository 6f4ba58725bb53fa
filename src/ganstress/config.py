"""Configuration ingestion: YAML documents with engineering-notation numbers.

Component values may be written the way schematics label them (``10u``,
``100p``, ``25p``); plain YAML numbers work too. Temperatures are accepted
in Celsius (``*_c`` keys) or kelvin (``*_k`` keys) and held internally in
kelvin. Every omitted field falls back to the published defaults for the
stress circuit: device ratings, circuit component values, degradation
parameters, 0.7 duty, 0.4 A drive target.

Unknown keys and out-of-range values are hard errors; nothing is silently
clamped.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .campaign import CAMPAIGN_DRIVE, CAMPAIGN_SIM, StressCell
from .converter import CircuitParams, DriveSignal, SimConfig
from .degradation import DegradationParams
from .device import CELSIUS_OFFSET, DeviceRatings
from .errors import ConfigurationError, GanStressError

MODES = ("simulate", "campaign")

_ENG_SUFFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "m": 1e-3, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}
#: libyaml's C loader and emitter where the platform has them: the same
#: documents and the same text as the pure-Python safe ones, at a fraction
#: of the cost.
if yaml.__with_libyaml__:
    _YAML_LOADER, _YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _YAML_LOADER, _YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper

_ENG_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*([fpnuµmkMGT])?\s*$")

#: The three reported stress classes, run at room temperature by default.
DEFAULT_CELLS = (
    dict(v_stress=60.0, temp_c=25.0),
    dict(v_stress=85.0, temp_c=25.0),
    dict(v_stress=110.0, temp_c=25.0),
)

#: Mode-specific drive/sim defaults. Campaign cells run fast PWM so the
#: converter stays in continuous conduction (see campaign module).
_DRIVE_DEFAULTS = {"campaign": CAMPAIGN_DRIVE, "default": DriveSignal()}
_SIM_DEFAULTS = {"campaign": CAMPAIGN_SIM, "default": SimConfig()}


def parse_quantity(value: Any, path: str) -> float:
    """Parse a numeric field: plain number or engineering-suffixed string."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{path}: expected a number, got boolean {value}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        m = _ENG_RE.match(value)
        if m:
            return float(m.group(1)) * _ENG_SUFFIXES.get(m.group(2) or "", 1.0)
        raise ConfigurationError(f"{path}: cannot parse number {value!r}")
    raise ConfigurationError(f"{path}: expected a number, got {type(value).__name__}")


def _parse_int(value: Any, path: str) -> int:
    x = parse_quantity(value, path)
    if x != int(x):
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return int(x)


@dataclass
class RunConfig:
    """Fully resolved run description for one CLI invocation."""

    mode: str
    circuit: CircuitParams
    drive: DriveSignal
    sim: SimConfig
    ratings: DeviceRatings
    degradation: DegradationParams
    cells: list[StressCell] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")


class _Section:
    """One config mapping with known-key bookkeeping."""

    def __init__(self, name: str, data: Any):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigurationError(f"{name}: expected a mapping, got {type(data).__name__}")
        self.name = name
        self.data = dict(data)
        self.seen: set[str] = set()

    def number(self, key: str, default: float, aliases: tuple[str, ...] = ()) -> float:
        for k in (key, *aliases):
            if k in self.data:
                self.seen.add(k)
                return parse_quantity(self.data[k], f"{self.name}.{k}")
        return default

    def integer(self, key: str, default: int) -> int:
        if key in self.data:
            self.seen.add(key)
            return _parse_int(self.data[key], f"{self.name}.{key}")
        return default

    def optional_number(self, key: str, default: Optional[float]) -> Optional[float]:
        if key in self.data:
            self.seen.add(key)
            if self.data[key] is None:
                return None
            return parse_quantity(self.data[key], f"{self.name}.{key}")
        return default

    def temperature(self, stem: str, default_k: float) -> float:
        """Accept ``<stem>_c`` (Celsius) or ``<stem>_k`` (kelvin)."""
        has_c = f"{stem}_c" in self.data
        has_k = f"{stem}_k" in self.data
        if has_c and has_k:
            raise ConfigurationError(f"{self.name}: give only one of {stem}_c / {stem}_k")
        if has_c:
            self.seen.add(f"{stem}_c")
            return parse_quantity(self.data[f"{stem}_c"], f"{self.name}.{stem}_c") + CELSIUS_OFFSET
        if has_k:
            self.seen.add(f"{stem}_k")
            return parse_quantity(self.data[f"{stem}_k"], f"{self.name}.{stem}_k")
        return default_k

    def number_list(self, key: str) -> Optional[list[float]]:
        if key not in self.data:
            return None
        self.seen.add(key)
        raw = self.data[key]
        if not isinstance(raw, list):
            raise ConfigurationError(f"{self.name}.{key}: expected a list")
        return [parse_quantity(v, f"{self.name}.{key}[{i}]") for i, v in enumerate(raw)]

    def unknown(self) -> list[str]:
        return [f"{self.name}.{k}" for k in self.data if k not in self.seen]


def _build(section: _Section, cls, **kwargs):
    try:
        return cls(**kwargs)
    except GanStressError as exc:
        raise ConfigurationError(f"{section.name}: {exc}") from exc


def _parse_cell(sec: _Section) -> StressCell:
    times = sec.number_list("sample_times_min")
    return _build(
        sec, StressCell,
        v_stress=sec.number("v_stress", 60.0, aliases=("v_supply",)),
        temp=sec.temperature("temp", 298.15),
        i_drive=sec.number("i_drive", 0.4),
        duty=sec.number("duty", 0.7),
        duration=sec.number("duration_min", 1000.0, aliases=("duration",)),
        sample_times=tuple(times) if times is not None else None,
        shape_factor=sec.number("shape_factor", 1.0),
    )


def _load_yaml(text: str, what: str) -> Any:
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def parse_config(text: str, mode: str) -> RunConfig:
    """Parse and fully validate a config document for the given mode.

    Empty or absent documents resolve to the published defaults. Unknown
    keys are an error listing every offender; bound violations name the
    field and the bound.
    """
    doc = _load_yaml(text, "config document") if text.strip() else {}
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(doc).__name__}")

    known_sections = {"circuit", "drive", "sim", "device", "degradation", "cells"}
    unknown = [k for k in doc if k not in known_sections]

    circ = _Section("circuit", doc.get("circuit"))
    circuit = _build(
        circ, CircuitParams,
        vin=circ.number("vin", 10.0),
        l_drain=circ.number("l_drain", 10e-6),
        c_in=circ.number("c_in", 100e-12),
        c_out=circ.number("c_out", 25e-12),
        v_supply=circ.number("v_supply", 100.0),
        diode_vf=circ.number("diode_vf", 0.5),
        series_r=circ.number("series_r", 0.0),
        r_load=circ.optional_number("r_load", None),
    )

    drv_defaults = _DRIVE_DEFAULTS["campaign" if mode == "campaign" else "default"]
    drv = _Section("drive", doc.get("drive"))
    drive = _build(
        drv, DriveSignal,
        frequency=drv.number("frequency", drv_defaults.frequency),
        duty=drv.number("duty", drv_defaults.duty),
        v_gate_high=drv.number("v_gate_high", drv_defaults.v_gate_high),
        v_gate_low=drv.number("v_gate_low", drv_defaults.v_gate_low),
    )

    sim_defaults = _SIM_DEFAULTS["campaign" if mode == "campaign" else "default"]
    simsec = _Section("sim", doc.get("sim"))
    sim = _build(
        simsec, SimConfig,
        steps_per_period=simsec.integer("steps_per_period", sim_defaults.steps_per_period),
        n_periods=simsec.integer("n_periods", sim_defaults.n_periods),
        settle_fraction=simsec.number("settle_fraction", sim_defaults.settle_fraction),
    )

    dev = _Section("device", doc.get("device"))
    ratings = _build(
        dev, DeviceRatings,
        vds_max_pulsed=dev.number("vds_max_pulsed", 120.0),
        vds_max_continuous=dev.number("vds_max_continuous", 100.0),
        id_max=dev.number("id_max", 0.5),
        vgs_max=dev.number("vgs_max", 6.0),
        vgs_min=dev.number("vgs_min", -5.0),
        tj_min=dev.temperature("tj_min", -40.0 + CELSIUS_OFFSET),
        tj_max=dev.temperature("tj_max", 150.0 + CELSIUS_OFFSET),
        rds_on_nominal=dev.number("rds_on_nominal", 3.3),
    )

    deg = _Section("degradation", doc.get("degradation"))
    degradation = _build(
        deg, DegradationParams,
        a=deg.number("a", 0.0),
        b=deg.number("b", 2.0e-5),
        hbar_omega_lo=deg.number("hbar_omega_lo_ev", 0.092),
        v_fd=deg.number("v_fd", 100.0),
        alpha=deg.number("alpha", 10.0),
        t0=deg.number("t0_min", 1.0),
        vertical_offset=deg.number("vertical_offset", 0.0),
    )

    cells_doc = doc.get("cells", [dict(c) for c in DEFAULT_CELLS])
    if cells_doc is None:
        cells_doc = []
    if not isinstance(cells_doc, list):
        raise ConfigurationError("cells: expected a list of cell mappings")
    cells = []
    cell_sections = []
    for idx, cdoc in enumerate(cells_doc):
        sec = _Section(f"cells[{idx}]", cdoc)
        cells.append(_parse_cell(sec))
        cell_sections.append(sec)

    for sec in (circ, drv, simsec, dev, deg, *cell_sections):
        unknown.extend(sec.unknown())
    if unknown:
        raise ConfigurationError("unknown config keys: " + ", ".join(sorted(unknown)))

    return RunConfig(mode=mode, circuit=circuit, drive=drive, sim=sim,
                     ratings=ratings, degradation=degradation, cells=cells)


def apply_overrides(text: str, overrides: list[str]) -> str:
    """Fold ``section.key=value`` overrides into a config document.

    ``cell.<key>=value`` applies the override to every cell.
    """
    doc = (_load_yaml(text, "config document") if text.strip() else {}) or {}
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(doc).__name__}")
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        path, raw = item.split("=", 1)
        parts = path.strip().split(".")
        if len(parts) != 2:
            raise ConfigurationError(f"override {item!r} must use a section.key path")
        section, key = parts
        value = _load_yaml(raw, f"override value in {item!r}")
        if section == "cell":
            cells = doc.setdefault("cells", [dict(c) for c in DEFAULT_CELLS])
            if not isinstance(cells, list):
                raise ConfigurationError("cells: expected a list of cell mappings")
            for c in cells:
                c[key] = value
        else:
            target = doc.setdefault(section, {})
            if not isinstance(target, dict):
                raise ConfigurationError(f"{section}: expected a mapping")
            target[key] = value
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=True)


def emit_config(cfg: RunConfig) -> str:
    """Canonical echo of a resolved config; parse_config inverts it exactly.

    Temperatures are emitted in kelvin so the echo round-trips bit-exactly.
    """
    doc: dict[str, Any] = {
        "circuit": {
            "vin": cfg.circuit.vin,
            "l_drain": cfg.circuit.l_drain,
            "c_in": cfg.circuit.c_in,
            "c_out": cfg.circuit.c_out,
            "v_supply": cfg.circuit.v_supply,
            "diode_vf": cfg.circuit.diode_vf,
            "series_r": cfg.circuit.series_r,
            "r_load": cfg.circuit.r_load,
        },
        "drive": {
            "frequency": cfg.drive.frequency,
            "duty": cfg.drive.duty,
            "v_gate_high": cfg.drive.v_gate_high,
            "v_gate_low": cfg.drive.v_gate_low,
        },
        "sim": {
            "steps_per_period": cfg.sim.steps_per_period,
            "n_periods": cfg.sim.n_periods,
            "settle_fraction": cfg.sim.settle_fraction,
        },
        "device": {
            "vds_max_pulsed": cfg.ratings.vds_max_pulsed,
            "vds_max_continuous": cfg.ratings.vds_max_continuous,
            "id_max": cfg.ratings.id_max,
            "vgs_max": cfg.ratings.vgs_max,
            "vgs_min": cfg.ratings.vgs_min,
            "tj_min_k": cfg.ratings.tj_min,
            "tj_max_k": cfg.ratings.tj_max,
            "rds_on_nominal": cfg.ratings.rds_on_nominal,
        },
        "degradation": {
            "a": cfg.degradation.a,
            "b": cfg.degradation.b,
            "hbar_omega_lo_ev": cfg.degradation.hbar_omega_lo,
            "v_fd": cfg.degradation.v_fd,
            "alpha": cfg.degradation.alpha,
            "t0_min": cfg.degradation.t0,
            "vertical_offset": cfg.degradation.vertical_offset,
        },
        "cells": [
            {
                "v_stress": c.v_stress,
                "temp_k": c.temp,
                "i_drive": c.i_drive,
                "duty": c.duty,
                "duration_min": c.duration,
                **({"sample_times_min": list(c.sample_times)} if c.sample_times is not None else {}),
                "shape_factor": c.shape_factor,
            }
            for c in cfg.cells
        ],
    }
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    """Deterministic short identity of a resolved config."""
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]
