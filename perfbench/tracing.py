"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer replaces a function at the module attribute its caller looks it up
by (``ganstress.campaign.simulate`` is what ``run_cell`` and ``tune_vin``
call), so no program file changes. A call-site name that a later version
of the program no longer has is skipped and its counts read 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

SOA_LIMITS = ("vds_max_pulsed", "id_max", "tj_min", "tj_max")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sim_config(args, kwargs):
    """The SimConfig argument of a simulate call, found by its fields."""
    for a in (*args, *kwargs.values()):
        if hasattr(a, "steps_per_period") and hasattr(a, "n_periods"):
            return a
    return None


def _simulate_info(args, kwargs, result) -> dict:
    sim = _sim_config(args, kwargs)
    if sim is None:
        return {}
    steps = sim.n_periods * sim.steps_per_period
    kept = steps - round(sim.settle_fraction * sim.n_periods) * sim.steps_per_period
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)] \
        if hasattr(result, "__dict__") else []
    return {"steps": steps, "kept_steps": kept,
            "waveform_bytes": sum(a.nbytes for a in arrays)}


def _soa_info(args, kwargs, result) -> dict:
    return {f"violations.{v.limit}": 1 for v in result}


def _extract_info(args, kwargs, result) -> dict:
    return {"nonpositive": int(result <= 0.0)}


def _cell_info(args, kwargs, result) -> dict:
    return {"aborted": int(bool(getattr(result, "aborted", False)))}


def _csv_info(args, kwargs, result) -> dict:
    stream = args[1] if len(args) > 1 else kwargs.get("stream")
    try:
        return {"bytes": stream.tell()}
    except (AttributeError, OSError, ValueError):
        return {}


def _emit_info(args, kwargs, result) -> dict:
    return {"bytes": sum(p.stat().st_size for p in result)}


#: (module, attribute, layer name, counter function) for every wrapped call site.
CALL_SITES = (
    ("ganstress.cli", "parse_config", "config.parse_config", None),
    ("ganstress.cli", "run_matrix", "campaign.run_matrix", None),
    ("ganstress.cli", "simulate", "converter.simulate", _simulate_info),
    ("ganstress.cli", "steady_state_metrics", "converter.steady_state_metrics", None),
    ("ganstress.cli", "emit_results", "results.emit_results", _emit_info),
    ("ganstress.campaign", "run_cell", "campaign.run_cell", _cell_info),
    ("ganstress.campaign", "tune_vin", "campaign.tune_vin", None),
    ("ganstress.campaign", "simulate", "converter.simulate", _simulate_info),
    ("ganstress.campaign", "steady_state_metrics", "converter.steady_state_metrics", None),
    ("ganstress.campaign", "apply_stress_step", "degradation.apply_stress_step", None),
    ("ganstress.campaign", "check_soa", "device.check_soa", _soa_info),
    ("ganstress.campaign", "extract_rds_on", "analysis.extract_rds_on", _extract_info),
    ("ganstress.campaign", "fit_log_time", "analysis.fit_log_time", None),
    ("ganstress.results", "write_waveform_csv", "converter.write_waveform_csv", _csv_info),
)


class Tracer:
    """Records spans with parent ids while installed; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.info = counter(args, kwargs, result)
            return result
        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, counter in CALL_SITES:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def subtree(self, root: Span) -> list:
        """Spans below ``root``; spans are recorded in start order."""
        inside = {root.id}
        out = []
        for s in self.spans[root.id + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as stream:
            for s in self.spans:
                stream.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                         "start": s.start, "end": s.end, "info": s.info}) + "\n")


def _sum(spans, key) -> float:
    return sum(s.info.get(key, 0) for s in spans)


def iteration_layers(spans: list) -> tuple:
    """Per-layer (counts, times) of one workload iteration's spans.

    Counts are exact and must repeat run to run; times are seconds.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    names = {s.id: s.name for s in spans}
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def get(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in get(name))

    sims = get("converter.simulate")
    tune_sims = sum(1 for s in sims if names.get(s.parent) == "campaign.tune_vin")
    cell_sims = sum(1 for s in sims if names.get(s.parent) in ("campaign.tune_vin", "campaign.run_cell"))
    steps = _sum(sims, "steps")
    soa = get("device.check_soa")
    counts = {
        "converter.simulate.calls": len(sims),
        "converter.simulate.steps": steps,
        "converter.simulate.waveform_bytes": _sum(sims, "waveform_bytes"),
        "converter.steady_state_metrics.calls": len(get("converter.steady_state_metrics")),
        "converter.write_waveform_csv.bytes": _sum(get("converter.write_waveform_csv"), "bytes"),
        "campaign.tune_vin.calls": len(get("campaign.tune_vin")),
        "campaign.run_cell.calls": len(get("campaign.run_cell")),
        "campaign.cells_aborted": _sum(get("campaign.run_cell"), "aborted"),
        "degradation.apply_stress_step.calls": len(get("degradation.apply_stress_step")),
        "device.check_soa.calls": len(soa),
        **{f"device.check_soa.violations.{lim}": _sum(soa, f"violations.{lim}") for lim in SOA_LIMITS},
        "analysis.extract_rds_on.calls": len(get("analysis.extract_rds_on")),
        "analysis.extract_rds_on.nonpositive": _sum(get("analysis.extract_rds_on"), "nonpositive"),
        "analysis.fit_log_time.calls": len(get("analysis.fit_log_time")),
        "results.emit_results.bytes": _sum(get("results.emit_results"), "bytes"),
    }
    tunes = counts["campaign.tune_vin.calls"]
    counts["campaign.tune_vin.sims_per_call"] = tune_sims / tunes if tunes else 0.0
    counts["campaign.measurement_sims_ratio"] = (cell_sims - tune_sims) / cell_sims if cell_sims else 0.0
    counts["converter.steps_kept_ratio"] = _sum(sims, "kept_steps") / steps if steps else 0.0

    sim_busy = busy("converter.simulate")
    times = {
        "converter.simulate.busy_s": sim_busy,
        "converter.simulate.ns_per_step": sim_busy / steps * 1e9 if steps else 0.0,
        "converter.steady_state_metrics.busy_s": busy("converter.steady_state_metrics"),
        "converter.write_waveform_csv.busy_s": busy("converter.write_waveform_csv"),
        "campaign.tune_vin.busy_s": busy("campaign.tune_vin"),
        "campaign.run_cell.busy_s": busy("campaign.run_cell"),
        "campaign.run_cell.self_s": sum(s.duration - child_time.get(s.id, 0.0)
                                        for s in get("campaign.run_cell")),
        "campaign.run_matrix.busy_s": busy("campaign.run_matrix"),
        "degradation.apply_stress_step.busy_s": busy("degradation.apply_stress_step"),
        "analysis.extract_rds_on.busy_s": busy("analysis.extract_rds_on"),
        "analysis.fit_log_time.busy_s": busy("analysis.fit_log_time"),
        "config.parse_config.busy_s": busy("config.parse_config"),
        "results.emit_results.busy_s": busy("results.emit_results"),
    }
    return counts, times


def median_times(per_iteration: list) -> dict:
    return {k: statistics.median(t[k] for t in per_iteration) for k in per_iteration[0]}
