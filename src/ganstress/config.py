"""Configuration ingestion: YAML documents with engineering-notation numbers.

Component values may be written the way schematics label them (``10u``,
``100p``, ``25p``); plain YAML numbers work too. Temperatures are accepted
in Celsius (``*_c`` keys) or kelvin (``*_k`` keys) and held internally in
kelvin.

The key table (``_SECTIONS`` and ``_CELL_KEYS``) is the one place a config
key is defined: one row per dataclass field, giving its key, aliases and
kind. ``parse_config`` and ``emit_config`` both walk it. An omitted key
takes the default instance's value: the dataclass defaults (the campaign
drive and sim in campaign mode), ``EPC2038`` for the device.

Unknown keys and out-of-range values are hard errors; nothing is silently
clamped.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

import yaml

from .campaign import CAMPAIGN_DRIVE, CAMPAIGN_SIM, StressCell
from .converter import CircuitParams, DriveSignal, SimConfig
from .degradation import DegradationParams
from .device import CELSIUS_OFFSET, EPC2038, DeviceRatings
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

# Kinds of value a key holds.
_NUMBER, _INT, _OPTIONAL, _TEMPERATURE, _LIST = "number", "int", "optional", "temperature", "list"


class _Key(NamedTuple):
    """One row of the key table."""

    field: str                  # dataclass field the key sets
    kind: str
    names: tuple[str, ...]      # spellings read: the key, then its aliases
    echo: str                   # spelling emit_config writes


def _key(key: str, kind: str = _NUMBER, field: str = "", aliases: tuple[str, ...] = ()) -> _Key:
    """A table row. A temperature's ``key`` is the stem of its ``_c`` (Celsius)
    and ``_k`` (kelvin) spellings; the echo writes kelvin, which round-trips."""
    if kind == _TEMPERATURE:
        return _Key(field or key, kind, (f"{key}_c", f"{key}_k"), f"{key}_k")
    return _Key(field or key, kind, (key, *aliases), key)


#: Section name -> (RunConfig attribute, one row per field of its dataclass).
_SECTIONS = {
    "circuit": ("circuit", (
        _key("vin"), _key("l_drain"), _key("c_in"), _key("c_out"), _key("v_supply"),
        _key("diode_vf"), _key("series_r"), _key("r_load", _OPTIONAL),
    )),
    "drive": ("drive", (_key("frequency"), _key("duty"), _key("v_gate_high"), _key("v_gate_low"))),
    "sim": ("sim", (_key("steps_per_period", _INT), _key("n_periods", _INT), _key("settle_fraction"))),
    "device": ("ratings", (
        _key("vds_max_pulsed"), _key("vds_max_continuous"), _key("id_max"), _key("vgs_max"),
        _key("vgs_min"), _key("tj_min", _TEMPERATURE), _key("tj_max", _TEMPERATURE),
        _key("rds_on_nominal"),
    )),
    "degradation": ("degradation", (
        _key("a"), _key("b"), _key("hbar_omega_lo_ev", field="hbar_omega_lo"), _key("v_fd"),
        _key("alpha"), _key("t0_min", field="t0"), _key("vertical_offset"),
    )),
}
#: Rows of one ``cells`` entry (a StressCell).
_CELL_KEYS = (
    _key("v_stress", aliases=("v_supply",)), _key("temp", _TEMPERATURE), _key("i_drive"),
    _key("duty"), _key("duration_min", field="duration", aliases=("duration",)),
    _key("sample_times_min", _LIST, field="sample_times"), _key("shape_factor"),
)

#: Default instance per section; campaign mode runs the campaign drive and sim.
_DEFAULTS = {"circuit": CircuitParams(), "drive": DriveSignal(), "sim": SimConfig(),
             "device": EPC2038, "degradation": DegradationParams()}
_CAMPAIGN_DEFAULTS = {**_DEFAULTS, "drive": CAMPAIGN_DRIVE, "sim": CAMPAIGN_SIM}
_DEFAULT_CELL = StressCell(v_stress=60.0, temp=298.15)


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


def _read(key: _Key, name: str, value: Any, path: str) -> Any:
    """The field value of one key's spelling ``name``."""
    if key.kind == _INT:
        x = parse_quantity(value, path)
        if x != int(x):
            raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
        return int(x)
    if key.kind == _OPTIONAL and value is None:
        return None
    if key.kind == _LIST:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: expected a list")
        return tuple(parse_quantity(v, f"{path}[{i}]") for i, v in enumerate(value))
    x = parse_quantity(value, path)
    if key.kind == _TEMPERATURE and name == key.names[0]:   # the Celsius spelling
        return x + CELSIUS_OFFSET
    return x


def _parse_section(section: str, data: Any, keys: tuple[_Key, ...], default: Any,
                   unknown: list[str]) -> Any:
    """The default instance with the keys ``data`` gives; keys the table
    does not read are appended to ``unknown``."""
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigurationError(f"{section}: expected a mapping, got {type(data).__name__}")
    if not data:
        return default
    given = {}
    seen = set()
    for key in keys:
        present = [n for n in key.names if n in data]
        if not present:
            continue
        if key.kind == _TEMPERATURE and len(present) > 1:
            raise ConfigurationError(f"{section}: give only one of {present[0]} / {present[1]}")
        name = present[0]
        seen.add(name)
        given[key.field] = _read(key, name, data[name], f"{section}.{name}")
    unknown.extend(f"{section}.{k}" for k in data if k not in seen)
    try:
        return replace(default, **given)
    except GanStressError as exc:
        raise ConfigurationError(f"{section}: {exc}") from exc


def _echo(obj: Any, keys: tuple[_Key, ...]) -> dict[str, Any]:
    """Every field of ``obj`` under its echo key; an absent list is left out."""
    doc = {}
    for key in keys:
        value = getattr(obj, key.field)
        if key.kind == _LIST:
            if value is not None:
                doc[key.echo] = list(value)
        else:
            doc[key.echo] = value
    return doc


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

    unknown = [str(k) for k in doc if k not in _SECTIONS and k != "cells"]
    defaults = _CAMPAIGN_DEFAULTS if mode == "campaign" else _DEFAULTS
    sections = {attr: _parse_section(name, doc.get(name), keys, defaults[name], unknown)
                for name, (attr, keys) in _SECTIONS.items()}

    cells_doc = doc.get("cells", list(DEFAULT_CELLS))
    if cells_doc is None:
        cells_doc = []
    if not isinstance(cells_doc, list):
        raise ConfigurationError("cells: expected a list of cell mappings")
    cells = [_parse_section(f"cells[{i}]", c, _CELL_KEYS, _DEFAULT_CELL, unknown)
             for i, c in enumerate(cells_doc)]

    if unknown:
        raise ConfigurationError("unknown config keys: " + ", ".join(sorted(unknown)))
    return RunConfig(mode=mode, cells=cells, **sections)


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
    doc: dict[str, Any] = {name: _echo(getattr(cfg, attr), keys)
                           for name, (attr, keys) in _SECTIONS.items()}
    doc["cells"] = [_echo(c, _CELL_KEYS) for c in cfg.cells]
    return yaml.dump(doc, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    """Deterministic short identity of a resolved config."""
    return hashlib.sha256(emit_config(cfg).encode()).hexdigest()[:16]
