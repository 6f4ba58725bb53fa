"""Result persistence: deterministic CSV and flat-record writers.

All numeric output uses the shortest round-trip decimal representation, so
identical inputs always produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .analysis import FitResult, fit_report, normalize_series
from .campaign import CampaignResult, CellResult
from .converter import SteadyStateMetrics, Waveform, write_waveform_csv

SUMMARY_HEADER = "cell,v_stress_V,v_max_V,temp_K,slope_ohm_per_ln_min,intercept_ohm,r_squared"
CELL_CSV_HEADER = "t_min,rds_on_ohm,rds_norm"

EmittableResult = Union[CampaignResult, Waveform]


def _write_text(path: Path, text: str) -> Path:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return path


def _cell_csv(result: CellResult) -> str:
    lines = [CELL_CSV_HEADER]
    norm = normalize_series(result.samples) if result.samples else []
    for s, ns in zip(result.samples, norm):
        lines.append(f"{s.t!r},{s.rds_on!r},{ns.rds_on!r}")
    return "\n".join(lines) + "\n"


def _summary_row(idx: int, result: CellResult) -> str:
    fit = result.fit
    slope = repr(fit.slope) if fit else ""
    intercept = repr(fit.intercept) if fit else ""
    r2 = repr(fit.r_squared) if fit else ""
    return (f"cell{idx:02d},{result.cell.v_stress!r},{result.v_max_measured!r},"
            f"{result.cell.temp!r},{slope},{intercept},{r2}")


def emit_campaign(result: CampaignResult, out_dir: Path) -> list[Path]:
    paths = []
    rows = [SUMMARY_HEADER]
    for idx, cell_result in enumerate(result.cells):
        paths.append(_write_text(out_dir / f"cell{idx:02d}.csv", _cell_csv(cell_result)))
        rows.append(_summary_row(idx, cell_result))
    paths.append(_write_text(out_dir / "summary.csv", "\n".join(rows) + "\n"))
    return paths


def emit_waveform(w: Waveform, out_dir: Path) -> list[Path]:
    path = out_dir / "waveform.csv"
    try:
        with open(path, "w") as stream:
            write_waveform_csv(w, stream)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return [path]


def emit_fit(fit: FitResult, out_dir: Path) -> list[Path]:
    return [_write_text(out_dir / "fit.txt", fit_report(fit))]


def emit_metrics(m: SteadyStateMetrics, out_dir: Path) -> list[Path]:
    text = (f"v_max_V = {m.v_max!r}\n"
            f"v_in_avg_V = {m.v_in_avg!r}\n"
            f"i_avg_A = {m.i_avg!r}\n"
            f"i_peak_A = {m.i_peak!r}\n")
    return [_write_text(out_dir / "metrics.txt", text)]


def emit_results(result: EmittableResult, out_dir: Path) -> list[Path]:
    """Write a result's files into ``out_dir`` and return the manifest."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise OSError(f"output directory {out_dir} does not exist")
    if isinstance(result, CampaignResult):
        return emit_campaign(result, out_dir)
    if isinstance(result, Waveform):
        return emit_waveform(result, out_dir)
    raise TypeError(f"cannot emit result of type {type(result).__name__}")
