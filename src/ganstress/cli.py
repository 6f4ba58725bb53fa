"""Command-line front end.

Subcommands: ``simulate``, ``campaign``, ``fit <csv>``, ``extract``.
Exit codes: 0 success, 2 validation error, 3 numeric instability.
"""

from __future__ import annotations

import io
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .analysis import extract_rds_on, fit_log_time
from .campaign import run_matrix
from .config import RunConfig, config_hash, parse_config
from .converter import simulate, steady_state_metrics
from .device import DeviceState
from .errors import GanStressError, InvalidParameterError, NumericInstabilityError
from .results import emit_fit, emit_metrics, emit_results, fit_report, read_rds_csv

EXIT_VALIDATION = 2
EXIT_INSTABILITY = 3


@contextmanager
def _exit_codes():
    """Exit 3 on a NumericInstabilityError, 2 on any other workbench error or an OSError, after
    ``error: ...`` on stderr; other exceptions are bugs and keep their traceback."""
    try:
        yield
    except (GanStressError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INSTABILITY if isinstance(exc, NumericInstabilityError) else EXIT_VALIDATION)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path} is not UTF-8 text: {exc}") from None


def _load_config(config_path, overrides, mode) -> RunConfig:
    return parse_config(_read_text(config_path) if config_path else "", mode, overrides)


def _prepare_out(out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="YAML config; omitted fields use the defaults.")(fn)
    fn = click.option("--out", "out", default="out", show_default=True,
                      help="Output directory (created if missing).")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="SECTION.KEY=VALUE",
                      help="Config override, may be repeated (cell.KEY hits every cell).")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Reserved; the engine is deterministic and ignores it.")(fn)
    return fn


@click.group()
def cli():
    """Stress-converter workbench: switched-circuit simulation, degradation
    injection, and log-time extraction analysis."""


@cli.command(name="simulate")
@common_options
def simulate_cmd(config_path, out, overrides, seed):
    """Run one converter simulation; write waveform.csv and metrics.txt."""
    with _exit_codes():
        cfg = _load_config(config_path, overrides, "simulate")
        device = DeviceState(rds_on_nominal=cfg.ratings.rds_on_nominal)
        wave = simulate(cfg.circuit, cfg.drive, device, cfg.sim)
        metrics = steady_state_metrics(wave, cfg.sim)
        out_dir = _prepare_out(out)
        paths = emit_results(wave, out_dir)
        paths += emit_metrics(metrics, out_dir)
    for p in paths:
        click.echo(str(p))


@cli.command()
@common_options
def campaign(config_path, out, overrides, seed):
    """Run the stress-cell matrix; write per-cell CSVs and summary.csv."""
    with _exit_codes():
        cfg = _load_config(config_path, overrides, "campaign")
        result = run_matrix(cfg.cells, cfg.circuit, cfg.drive, cfg.ratings,
                            cfg.degradation, cfg.sim)
        result.config_hash = config_hash(cfg)
        out_dir = _prepare_out(out)
        paths = emit_results(result, out_dir)
    click.echo(f"config_hash = {result.config_hash}")
    for idx, cell_result in enumerate(result.cells):
        if cell_result.aborted:
            click.echo(f"cell{idx:02d}: aborted ({cell_result.abort_reason})")
        elif cell_result.fit is not None:
            click.echo(f"cell{idx:02d}: slope = {cell_result.fit.slope!r} "
                       f"r_squared = {cell_result.fit.r_squared!r}")
    for p in paths:
        click.echo(str(p))


@cli.command()
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out", default=None, help="Also write fit.txt into this directory.")
def fit(csv_path, out):
    """Fit an on-resistance CSV (t_min,rds_on_ohm) against ln(t)."""
    with _exit_codes():
        result = fit_log_time(read_rds_csv(io.StringIO(_read_text(csv_path))))
        text = fit_report(result)
        if out is not None:
            emit_fit(result, _prepare_out(out))
    click.echo(text, nl=False)


@cli.command()
@click.option("--vin-avg", type=float, required=True, help="Averaged drain voltage, V.")
@click.option("--vmax", type=float, required=True, help="Peak drain voltage, V.")
@click.option("--duty", type=float, required=True, help="Duty cycle in (0, 1].")
@click.option("--iavg", type=float, required=True, help="On-time average current, A.")
@click.option("--shape-factor", type=float, default=2.0, show_default=True,
              help="Off-state transition shape factor (2 = triangular).")
def extract(vin_avg, vmax, duty, iavg, shape_factor):
    """Extract the on-resistance from averaged measurements."""
    with _exit_codes():
        value = extract_rds_on(vin_avg, vmax, duty, iavg, shape_factor)
    click.echo(f"rds_on_ohm = {value!r}")
    if value <= 0.0:
        click.echo("consistent = False  # non-positive extraction: inputs disagree")


def main():
    cli()


if __name__ == "__main__":
    main()
