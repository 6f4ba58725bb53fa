"""Workload definitions: the commands each workload runs and the cells they cover.

Every workload is a closed loop with one client: the next command starts
only after the previous one returned. One *iteration* is the workload's
fixed unit of work:

- ``campaign_default``: one ``ganstress campaign`` with no config, i.e. the
  paper's three cells (60/85/110 V at 25 C, 0.4 A, 61 log-spaced samples).
- ``campaign_wide``: one ``ganstress campaign`` on a YAML config generated
  from the seed: twelve cells with short explicit schedules.
- ``simulate_cli``: a batch of ``SIM_BATCH`` ``ganstress simulate`` commands
  at the defaults (100 kHz, 1000 x 60 steps, discontinuous conduction).

Only campaign_wide's inputs depend on the seed; the other two workloads
are fixed by definition, so every seed gives them the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("campaign_default", "campaign_wide", "simulate_cli")

#: simulate commands per simulate_cli iteration.
SIM_BATCH = 10

#: Nominal on-resistance and degradation law every workload injects
#: (the program defaults; no workload overrides device or degradation).
RDS_NOMINAL = 3.3
KELVIN = 273.15

#: The paper's cells, as the program's defaults spell them.
DEFAULT_CELLS = (
    {"temp_c": 25.0, "v_stress": 60.0},
    {"temp_c": 25.0, "v_stress": 85.0},
    {"temp_c": 25.0, "v_stress": 110.0},
)
#: Default schedule: 20 points per decade over the three decades up to 1000 min.
DEFAULT_SCHEDULE_POINTS = 61

# campaign_wide domain. Every (v_stress, i_drive) pair appears once per
# config, so the worst-conditioned cell (120 V, 0.25 A) is present for
# every seed and the accuracy maxima are comparable across seeds; the seed
# draws temperature and schedule per cell and the cell order. 60-120 V at
# 0.25-0.45 A keeps 5 MHz conduction continuous with the default inductor.
WIDE_V_STRESS = (60.0, 80.0, 100.0, 120.0)
WIDE_I_DRIVE = (0.25, 0.35, 0.45)
WIDE_TEMPS_C = (25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
WIDE_DURATIONS = (300.0, 3000.0)
WIDE_SAMPLES = 5

#: Fixed one-cell campaign whose extraction and fit accuracy simulate_cli
#: reports, because a simulate command itself extracts and fits nothing.
PROBE_CELL = {"duration_min": 1000.0, "i_drive": 0.4,
              "sample_times_min": [1.0, 31.62, 1000.0], "temp_c": 25.0, "v_stress": 85.0}


@dataclass(frozen=True)
class Cell:
    """What the output checks need to know about one campaign cell."""

    doc: dict            # the cell mapping as written in the config
    v_stress: float
    temp_k: float
    schedule: tuple      # expected sample times, minutes

    @property
    def key(self) -> str:
        return cell_key(self.doc)


@dataclass
class Workload:
    name: str
    mode: str                       # config mode the CLI parses with
    config_text: str                # "" means no --config
    cells: list = field(default_factory=list)   # campaign cells, in output order


def cell_key(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def wide_schedule(duration: float) -> list:
    """WIDE_SAMPLES log-spaced times over three decades ending at ``duration``."""
    exps = np.linspace(-3.0, 0.0, WIDE_SAMPLES)
    return [float(f"{duration * 10.0 ** e:.4g}") for e in exps]


def default_schedule() -> tuple:
    return tuple(float(t) for t in np.logspace(0.0, 3.0, DEFAULT_SCHEDULE_POINTS))


def to_cell(doc: dict) -> Cell:
    times = doc.get("sample_times_min")
    return Cell(doc=doc, v_stress=float(doc["v_stress"]),
                temp_k=float(doc["temp_c"]) + KELVIN,
                schedule=tuple(times) if times is not None else default_schedule())


def wide_cell_docs(seed: int) -> list:
    rng = random.Random(seed)
    docs = []
    for v in WIDE_V_STRESS:
        for i in WIDE_I_DRIVE:
            duration = rng.choice(WIDE_DURATIONS)
            docs.append({"duration_min": duration, "i_drive": i,
                         "sample_times_min": wide_schedule(duration),
                         "temp_c": rng.choice(WIDE_TEMPS_C), "v_stress": v})
    rng.shuffle(docs)
    return docs


def wide_grid_docs() -> list:
    """Every cell campaign_wide can generate, for the seed-commit digest table."""
    return [{"duration_min": d, "i_drive": i, "sample_times_min": wide_schedule(d),
             "temp_c": t, "v_stress": v}
            for v in WIDE_V_STRESS for i in WIDE_I_DRIVE
            for t in WIDE_TEMPS_C for d in WIDE_DURATIONS]


def campaign_yaml(docs: list) -> str:
    """Config text for a campaign over ``docs``; JSON is valid YAML."""
    return json.dumps({"cells": docs}, sort_keys=True, indent=1) + "\n"


def make_workload(name: str, seed: int) -> Workload:
    if name == "campaign_default":
        return Workload(name, "campaign", "", [to_cell(d) for d in DEFAULT_CELLS])
    if name == "campaign_wide":
        docs = wide_cell_docs(seed)
        return Workload(name, "campaign", campaign_yaml(docs), [to_cell(d) for d in docs])
    if name == "simulate_cli":
        return Workload(name, "simulate", "")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
