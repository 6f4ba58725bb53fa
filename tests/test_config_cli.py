import dataclasses
import errno
import hashlib

import click
import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from ganstress import EPC2038, CircuitParams, DegradationParams, DriveSignal, SimConfig, config
from ganstress.campaign import CAMPAIGN_DRIVE, CAMPAIGN_SIM, CampaignResult, StressCell, run_matrix
from ganstress.cli import cli
from ganstress.config import (
    config_hash,
    emit_config,
    parse_config,
    parse_quantity,
)
from ganstress.errors import ConfigurationError
from ganstress.results import emit_results


def test_empty_document_resolves_to_defaults():
    for mode, drive, sim in (("simulate", DriveSignal(), SimConfig()),
                             ("campaign", CAMPAIGN_DRIVE, CAMPAIGN_SIM)):
        cfg = parse_config("", mode)
        assert cfg.circuit == CircuitParams()
        assert cfg.drive == drive
        assert cfg.sim == sim
        assert cfg.ratings == EPC2038
        assert cfg.degradation == DegradationParams()
        assert cfg.cells == [StressCell(v, 298.15) for v in (60.0, 85.0, 110.0)]


def test_engineering_suffixes():
    assert parse_quantity("10u", "x") == pytest.approx(10e-6)
    assert parse_quantity("100p", "x") == pytest.approx(100e-12)
    assert parse_quantity("25p", "x") == pytest.approx(25e-12)
    assert parse_quantity("100k", "x") == pytest.approx(100e3)
    assert parse_quantity("2.5M", "x") == pytest.approx(2.5e6)
    assert parse_quantity("1e-5", "x") == pytest.approx(1e-5)
    assert parse_quantity(3, "x") == 3.0
    with pytest.raises(ConfigurationError):
        parse_quantity("10x", "x")
    with pytest.raises(ConfigurationError):
        parse_quantity(True, "x")


def test_config_with_suffixed_components():
    cfg = parse_config(
        "circuit: {l_drain: 10u, c_in: 100p, c_out: 25p}\ndrive: {frequency: 100k}\n",
        "simulate",
    )
    assert cfg.circuit.l_drain == pytest.approx(10e-6)
    assert cfg.circuit.c_out == pytest.approx(25e-12)
    assert cfg.drive.frequency == pytest.approx(100e3)


def test_duty_bound_violation_names_field_and_bound():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config("drive: {duty: 1.5}\n", "simulate")
    msg = str(excinfo.value)
    assert "duty" in msg
    assert "[0, 1]" in msg


def test_stress_scenario_cell_mapping():
    text = "cells:\n  - {v_supply: 60, temp_c: 25, duration_min: 1000}\n"
    cfg = parse_config(text, "campaign")
    cell = cfg.cells[0]
    assert cell.v_stress == 60.0
    assert cell.temp == pytest.approx(298.15)
    assert cell.duration == 1000.0
    assert cell.duty == 0.7
    assert cell.i_drive == 0.4


def test_unknown_keys_listed():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config("circuit: {vinn: 10, extra: 2}\nbogus: {}\n", "simulate")
    msg = str(excinfo.value)
    for name in ("circuit.vinn", "circuit.extra", "bogus"):
        assert name in msg


def test_no_silent_clamping():
    with pytest.raises(ConfigurationError):
        parse_config("sim: {settle_fraction: 1.5}\n", "simulate")
    with pytest.raises(ConfigurationError):
        parse_config("degradation: {alpha: 0}\n", "simulate")
    with pytest.raises(ConfigurationError):
        parse_config("cells: [{v_stress: -5, temp_c: 25}]\n", "campaign")


def test_temperature_kelvin_and_celsius_exclusive():
    cfg = parse_config("cells: [{v_stress: 60, temp_k: 350}]\n", "campaign")
    assert cfg.cells[0].temp == 350.0
    with pytest.raises(ConfigurationError):
        parse_config("cells: [{v_stress: 60, temp_k: 350, temp_c: 25}]\n", "campaign")


def test_config_echo_round_trips_every_field():
    text = (
        "circuit: {vin: 12, l_drain: 22u, r_load: 150}\n"
        "drive: {frequency: 1M, duty: 0.65}\n"
        "sim: {steps_per_period: 500, n_periods: 80, settle_fraction: 0.4}\n"
        "device: {rds_on_nominal: 3.15}\n"
        "degradation: {b: 1.5e-5, vertical_offset: 1e-4}\n"
        "cells:\n"
        "  - {v_stress: 72, temp_c: 40, i_drive: 0.35, duration_min: 500,\n"
        "     sample_times_min: [10, 100, 500], shape_factor: 1.0}\n"
    )
    cfg = parse_config(text, "campaign")
    echoed = emit_config(cfg)
    cfg2 = parse_config(echoed, "campaign")
    assert cfg2 == cfg
    assert emit_config(cfg2) == echoed
    assert config_hash(cfg2) == config_hash(cfg)


def test_default_config_round_trips():
    for mode, digest in (("simulate", "17b740d86fe6e816"), ("campaign", "e8aac365b8fb0f1a")):
        cfg = parse_config("", mode)
        assert parse_config(emit_config(cfg), mode) == cfg
        assert config_hash(cfg) == digest


def test_config_table_covers_every_dataclass_field():
    """Each section's table sets every field of its dataclass, in field
    order, so a new field cannot go unparsed or unechoed."""
    for name, (_, keys) in config._SECTIONS.items():
        cls = type(config._DEFAULTS[name])
        assert [k.field for k in keys] == [f.name for f in dataclasses.fields(cls)], name
    assert [k.field for k in config._CELL_KEYS] == [f.name for f in dataclasses.fields(StressCell)]


REJECTIONS = [
    ("sim: {n_periods: 2.5}", "sim.n_periods: expected an integer, got 2.5"),
    ("sim: {steps_per_period: abc}", "sim.steps_per_period: cannot parse number 'abc'"),
    ("cells: [{sample_times_min: 5}]", "cells[0].sample_times_min: expected a list"),
    ("cells: [{sample_times_min: [1, x]}]", "cells[0].sample_times_min[1]: cannot parse number 'x'"),
    ("circuit: 5", "circuit: expected a mapping, got int"),
    ("cells: 5", "cells: expected a list of cell mappings"),
    ("cells: [5]", "cells[0]: expected a mapping, got int"),
    ("circuit: {vin: true}", "circuit.vin: expected a number, got boolean True"),
    ("circuit: {l_drain: x, vin: true}", "circuit.vin: expected a number, got boolean True"),
    ("cells: [{v_stress: 60, temp_c: 25, x: 1}]", "unknown config keys: cells[0].x"),
    ("cells: [{v_stress: 60, v_supply: 70}]", "unknown config keys: cells[0].v_supply"),
    ("1: 2\nbogus: 3", "unknown config keys: 1, bogus"),
    ("device: {tj_min_c: 1, tj_min_k: 3}", "device: give only one of tj_min_c / tj_min_k"),
    ("drive: {duty: 2}\ncircuit: {vin: -1}", "circuit: vin must be > 0, got -1.0"),
    ("drive: {duty: 2}\nbogus: 1", "drive: duty must be in [0, 1], got 2.0"),
    ("sim: {n_periods: .inf}", "sim.n_periods: expected an integer, got inf"),
    ("sim: {n_periods: 1e400}", "sim.n_periods: expected an integer, got '1e400'"),
    ("sim: {steps_per_period: .nan}", "sim.steps_per_period: expected an integer, got nan"),
    ("cells: [{sample_times_min: [1, .nan]}]", "cells[0]: sample_times[1] must be finite, got nan"),
]


@pytest.mark.parametrize("text, message", REJECTIONS,
                         ids=[text.replace("\n", "; ") for text, _ in REJECTIONS])
def test_rejection_messages(text, message):
    for mode in ("simulate", "campaign"):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(text, mode)
        assert str(excinfo.value) == message


def non_finite_cases():
    """A NaN and an infinity in every float field of every section and of a
    cell, each with the message naming the section and the field."""
    for value, shown in ((".nan", "nan"), (".inf", "inf")):
        for section, (_, keys) in config._SECTIONS.items():
            for key in keys:
                if key.kind != config._INT:
                    yield (f"{section}: {{{key.names[0]}: {value}}}",
                           f"{section}: {key.field} must be finite, got {shown}")
        for key in config._CELL_KEYS:
            if key.kind == config._LIST:
                yield (f"cells: [{{{key.names[0]}: [{value}]}}]",
                       f"cells[0]: {key.field}[0] must be finite, got {shown}")
            else:
                yield (f"cells: [{{{key.names[0]}: {value}}}]",
                       f"cells[0]: {key.field} must be finite, got {shown}")


@pytest.mark.parametrize("text, message", list(non_finite_cases()))
def test_non_finite_values_rejected_in_every_field(text, message):
    for mode in ("simulate", "campaign"):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_config(text, mode)
        assert str(excinfo.value) == message


def test_overrides_apply_to_sections_and_cells():
    cfg = parse_config("", "campaign", ["circuit.vin=12.5", "cell.duty=0.6"])
    assert cfg.circuit.vin == 12.5
    assert all(c.duty == 0.6 for c in cfg.cells)
    with pytest.raises(ConfigurationError):
        parse_config("", "campaign", ["novalue"])


_EXPLICIT_CELLS = "cells: [{v_stress: 72, temp_c: 40}, {v_stress: 90, i_drive: 0.3}]\n"


@pytest.mark.parametrize("text, overrides, written", [
    pytest.param("", ["circuit.vin=12.5", "drive.duty=0.6"],
                 "circuit: {vin: 12.5}\ndrive: {duty: 0.6}\n", id="section-keys"),
    pytest.param("sim: {n_periods: 80}\n", ["sim.n_periods=90"], "sim: {n_periods: 90}\n",
                 id="section-key-replaced"),
    pytest.param("", ["cell.i_drive=0.25"],
                 "cells: [{v_stress: 60, temp_c: 25, i_drive: 0.25},"
                 " {v_stress: 85, temp_c: 25, i_drive: 0.25},"
                 " {v_stress: 110, temp_c: 25, i_drive: 0.25}]\n", id="cell-key-default-cells"),
    pytest.param(_EXPLICIT_CELLS, ["cell.duty=0.6"],
                 "cells: [{v_stress: 72, temp_c: 40, duty: 0.6},"
                 " {v_stress: 90, i_drive: 0.3, duty: 0.6}]\n", id="cell-key-explicit-cells"),
    pytest.param("circuit:\nsim: {n_periods: 4}\n", ["circuit.vin=5"],
                 "circuit: {vin: 5}\nsim: {n_periods: 4}\n", id="null-section"),
])
def test_overrides_fold_like_the_written_document(text, overrides, written):
    """An override gives the config (and config hash) of the document with
    its value written in."""
    for mode in ("campaign", "simulate"):
        cfg, want = parse_config(text, mode, overrides), parse_config(written, mode)
        assert cfg == want
        assert config_hash(cfg) == config_hash(want)


# --- result emission ---------------------------------------------------------

def small_matrix(n_cells=1):
    times = tuple(float(t) for t in np.logspace(1, 2, 3))
    cells = [StressCell(v_stress=60.0, temp=298.15, sample_times=times) for _ in range(n_cells)]
    return run_matrix(cells, CircuitParams(), CAMPAIGN_DRIVE, EPC2038,
                      DegradationParams(), CAMPAIGN_SIM)


def test_emit_empty_campaign_header_only(tmp_path):
    paths = emit_results(CampaignResult(cells=[]), tmp_path)
    assert [p.name for p in paths] == ["summary.csv"]
    text = paths[0].read_text()
    assert text == "cell,v_stress_V,v_max_V,temp_K,slope_ohm_per_ln_min,intercept_ohm,r_squared\n"


def test_emit_one_cell_campaign_exactly_two_files(tmp_path):
    result = small_matrix()
    paths = emit_results(result, tmp_path)
    assert sorted(p.name for p in paths) == ["cell00.csv", "summary.csv"]
    cell_text = (tmp_path / "cell00.csv").read_text()
    assert cell_text.splitlines()[0] == "t_min,rds_on_ohm,rds_norm"
    assert len(cell_text.splitlines()) == 4
    first_norm = float(cell_text.splitlines()[1].split(",")[2])
    assert first_norm == 1.0


def test_emit_byte_deterministic(tmp_path):
    result = small_matrix()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    emit_results(result, d1)
    emit_results(result, d2)
    for name in ("cell00.csv", "summary.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emit_requires_existing_directory(tmp_path):
    with pytest.raises(OSError):
        emit_results(CampaignResult(cells=[]), tmp_path / "missing")


# --- CLI ---------------------------------------------------------------------

def test_cli_extract_worked_example():
    runner = CliRunner()
    result = runner.invoke(cli, ["extract", "--vin-avg", "9.95", "--vmax", "60",
                                 "--duty", "0.7", "--iavg", "0.4"])
    assert result.exit_code == 0
    value = float(result.output.split("=")[1].strip())
    assert abs(value - 3.39) <= 0.005


def test_cli_extract_flags_inconsistent_inputs():
    runner = CliRunner()
    result = runner.invoke(cli, ["extract", "--vin-avg", "5.0", "--vmax", "60",
                                 "--duty", "0.7", "--iavg", "0.4"])
    assert result.exit_code == 0
    assert "consistent = False" in result.output


def test_cli_extract_validation_exit_code():
    runner = CliRunner()
    result = runner.invoke(cli, ["extract", "--vin-avg", "9.95", "--vmax", "60",
                                 "--duty", "0", "--iavg", "0.4"])
    assert result.exit_code == 2


def test_cli_fit_round_trip(tmp_path):
    csv = tmp_path / "series.csv"
    csv.write_text("t_min,rds_on_ohm\n1.0,2.0\n10.0,3.1513\n100.0,4.3026\n")
    runner = CliRunner()
    result = runner.invoke(cli, ["fit", str(csv), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert "slope = " in result.output
    assert "slope_log10 = " in result.output
    assert (tmp_path / "out" / "fit.txt").exists()


def test_cli_fit_prints_fit_txt(tmp_path):
    csv = tmp_path / "series.csv"
    csv.write_text("t_min,rds_on_ohm\n0.0,9.9\n1.0,2.0\n10.0,3.1513\n100.0,4.3026\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(cli, ["fit", str(csv), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "n_dropped = 1" in result.output
    assert result.output == (out / "fit.txt").read_text()


def test_cli_fit_bad_header_exit_2(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("time,ohm\n1,2\n")
    runner = CliRunner()
    result = runner.invoke(cli, ["fit", str(csv)])
    assert result.exit_code == 2


def test_cli_simulate_writes_waveform_and_metrics(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(cli, ["simulate", "--out", str(out), "--seed", "7",
                                 "--set", "sim.n_periods=6"])
    assert result.exit_code == 0, result.output
    wave = (out / "waveform.csv").read_text()
    assert wave.splitlines()[0] == "t_s,v_ds_V,i_l_A,v_out_V,gate_on"
    metrics = (out / "metrics.txt").read_text()
    assert "v_max_V = " in metrics
    assert "i_avg_A = " in metrics


def test_cli_simulate_validation_error_exit_2(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli, ["simulate", "--out", str(tmp_path),
                                 "--set", "drive.duty=1.5"])
    assert result.exit_code == 2
    assert "duty" in result.output


@pytest.mark.parametrize("override, field", [
    ("circuit.v_supply=-5", "clamp"),
    ("circuit.diode_vf=.nan", "diode_vf"),
    ("device.rds_on_nominal=.inf", "rds_on_nominal"),
])
def test_cli_simulate_bad_circuit_exit_2(tmp_path, override, field):
    result = CliRunner().invoke(cli, ["simulate", "--out", str(tmp_path), "--set", override])
    assert result.exit_code == 2
    assert field in result.output


def test_cli_simulate_instability_exit_3(tmp_path):
    runner = CliRunner()
    result = runner.invoke(cli, ["simulate", "--out", str(tmp_path),
                                 "--set", "circuit.l_drain=1e-300",
                                 "--set", "sim.n_periods=2"])
    assert result.exit_code == 3


def test_cli_campaign_small_run(tmp_path):
    config = tmp_path / "c.yaml"
    config.write_text(
        "cells:\n  - {v_stress: 60, temp_c: 25, sample_times_min: [10, 100, 1000]}\n"
    )
    runner = CliRunner()
    out = tmp_path / "out"
    result = runner.invoke(cli, ["campaign", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "cell00.csv").exists()
    assert (out / "summary.csv").exists()
    assert "config_hash = " in result.output
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    fields = summary[1].split(",")
    assert fields[0] == "cell00"
    assert float(fields[1]) == 60.0


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    """``campaign`` and ``simulate`` at the defaults, each into its own directory."""
    runs = {}
    for command in ("campaign", "simulate"):
        out = tmp_path_factory.mktemp(command)
        result = CliRunner().invoke(cli, [command, "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs[command] = (out, result.output)
    return runs


#: SHA-256 (first 16 hex digits) of each file the default commands write.
#: A change that alters these bytes on purpose updates the digests here and
#: gives its reason in CHANGES.md.
DEFAULT_OUTPUT_DIGESTS = {
    "campaign": {"cell00.csv": "7d7fd9accd5f27b1", "cell01.csv": "22cc00616c4a94bf",
                 "cell02.csv": "a12f8bfd30dffbb1", "summary.csv": "10b9dcc218bdd702"},
    "simulate": {"waveform.csv": "443e4efeb6275356", "metrics.txt": "c0566e977bc5950a"},
}


def test_default_output_bytes_are_pinned(default_outputs):
    """The default ``campaign`` and ``simulate`` files keep their exact bytes."""
    for command, digests in DEFAULT_OUTPUT_DIGESTS.items():
        out, _ = default_outputs[command]
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in out.iterdir()}
        assert got == digests, command


def test_cli_fit_reads_campaign_cell_csv(default_outputs):
    """``fit`` on a campaign cell CSV reproduces that cell's summary row."""
    out, _ = default_outputs["campaign"]
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        cell, *_, slope, intercept, r_squared = row.split(",")
        result = CliRunner().invoke(cli, ["fit", str(out / f"{cell}.csv")])
        assert result.exit_code == 0, result.output
        record = dict(line.split(" = ") for line in result.output.splitlines())
        assert (record["slope"], record["intercept"], record["r_squared"]) == (
            slope, intercept, r_squared)


def test_campaign_ignores_drive_duty(default_outputs, tmp_path):
    """Each cell drives its own ``duty``: ``drive.duty`` moves only the config hash."""
    out, output = default_outputs["campaign"]
    result = CliRunner().invoke(cli, ["campaign", "--out", str(tmp_path),
                                      "--set", "drive.duty=0.3"])
    assert result.exit_code == 0, result.output
    assert output.splitlines()[0] == "config_hash = e8aac365b8fb0f1a"
    assert result.output.splitlines()[0] == "config_hash = 319c39bcd72e57e9"
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


def wide_grid_config() -> str:
    """The 144-cell grid of the wide benchmark workload: every stress level,
    drive, temperature and duration, each with five log-spaced samples."""
    cells = [{"v_stress": v, "i_drive": i, "temp_c": t, "duration_min": d,
              "sample_times_min": [float(f"{d * 10.0 ** e:.4g}") for e in np.linspace(-3.0, 0.0, 5)]}
             for v in (60.0, 80.0, 100.0, 120.0) for i in (0.25, 0.35, 0.45)
             for t in (25.0, 50.0, 75.0, 100.0, 125.0, 150.0) for d in (300.0, 3000.0)]
    return yaml.safe_dump({"cells": cells}, sort_keys=True)


@pytest.mark.parametrize("text", ["", wide_grid_config()], ids=["default", "wide-grid"])
def test_yaml_loader_and_dumper_match_the_python_safe_ones(text):
    """The config loader reads the same document as yaml.SafeLoader, and the
    echo is byte-identical to yaml.SafeDumper's text."""
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)
    for mode in ("campaign", "simulate"):
        echoed = emit_config(parse_config(text, mode))
        doc = yaml.load(echoed, Loader=yaml.SafeLoader)
        assert echoed == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=True,
                                   default_flow_style=False)


@pytest.mark.parametrize("text", ["circuit: [1, 2", "circuit: {vin: 1", "circuit:\n\tvin: 1",
                                  "a: b: c", "- x\ny: 1"])
def test_malformed_document_is_a_configuration_error(text):
    with pytest.raises(ConfigurationError, match="malformed config document"):
        parse_config(text, "simulate")
    with pytest.raises(ConfigurationError, match="malformed config document"):
        parse_config(text, "simulate", ["circuit.vin=5"])


def test_cli_malformed_config_exit_2(tmp_path):
    config_path = tmp_path / "c.yaml"
    config_path.write_text("circuit: {vin: 1\n")
    result = CliRunner().invoke(cli, ["campaign", "--config", str(config_path),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "malformed config document" in result.output


def test_cli_override_into_null_section(tmp_path):
    """``--set`` into a section the document gives as null runs like the
    document with the value written in."""
    runs = {}
    for name, text, overrides in (
        ("folded", "circuit:\nsim: {n_periods: 4}\n", ["--set", "circuit.vin=5"]),
        ("written", "circuit: {vin: 5}\nsim: {n_periods: 4}\n", []),
    ):
        config_path = tmp_path / f"{name}.yaml"
        config_path.write_text(text)
        out = tmp_path / name
        result = CliRunner().invoke(cli, ["simulate", "--config", str(config_path),
                                          "--out", str(out), *overrides])
        assert result.exit_code == 0, result.output
        runs[name] = [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]
    assert runs["folded"] == runs["written"]


def test_cli_malformed_override_value_exit_2(tmp_path):
    result = CliRunner().invoke(cli, ["simulate", "--out", str(tmp_path), "--set", "circuit.vin=["])
    assert result.exit_code == 2
    assert "malformed override value in 'circuit.vin=['" in result.output


def test_overrides_reject_a_non_mapping_root():
    with pytest.raises(ConfigurationError, match="config root must be a mapping"):
        parse_config("- 1\n- 2\n", "simulate", ["circuit.vin=5"])


#: (command, config file bytes or None, overrides, exit code, stderr text)
BAD_INPUTS = {
    "n_periods-inf": ("simulate", None, ["sim.n_periods=.inf"], 2,
                      "sim.n_periods: expected an integer, got inf"),
    "n_periods-1e400": ("simulate", None, ["sim.n_periods=1e400"], 2,
                        "sim.n_periods: expected an integer, got '1e400'"),
    "steps_per_period-nan": ("simulate", None, ["sim.steps_per_period=.nan"], 2,
                             "sim.steps_per_period: expected an integer, got nan"),
    "vin-401-digits": ("campaign", b"circuit: {vin: 1" + b"0" * 400 + b"}\n", [], 2,
                       "circuit.vin: integer too large for a float"),
    "config-not-utf8": ("campaign", b"circuit: {vin: \xff}\n", [], 2, "is not UTF-8 text"),
    "csv-not-utf8": ("fit", b"t_min,rds_on_ohm\n1,\xff\n", [], 2, "is not UTF-8 text"),
    "cell-override-on-non-mapping": ("campaign", b"cells: [5]\n", ["cell.duty=0.5"], 2,
                                     "cells[0]: expected a mapping, got int"),
    "degradation-a-nan": ("campaign", None, ["degradation.a=.nan"], 2,
                          "degradation: a must be finite, got nan"),
    "frequency-inf": ("campaign", None, ["drive.frequency=.inf"], 2,
                      "drive: frequency must be finite, got inf"),
    "sample-time-nan": ("campaign", b"cells: [{v_stress: 60, sample_times_min: [1, .nan]}]\n", [],
                        2, "cells[0]: sample_times[1] must be finite, got nan"),
    "c_in-nan": ("simulate", None, ["circuit.c_in=.nan"], 2,
                 "circuit: c_in must be finite, got nan"),
    "csv-nan-time": ("fit", b"t_min,rds_on_ohm\n1,3.3\nnan,3.3\n10,3.4\n", [], 2,
                     "line 3: t must be >= 0 min and finite, got nan"),
    "csv-inf-rds": ("fit", b"t_min,rds_on_ohm\n1,3.3\n10,inf\n100,3.4\n", [], 2,
                    "line 3: rds_on must be > 0 and finite, got inf"),
    "csv-inf-time": ("fit", b"t_min,rds_on_ohm\n1,3.3\ninf,3.3\n10,3.4\n", [], 2,
                     "line 3: t must be >= 0 min and finite, got inf"),
    "instability": ("simulate", None, ["circuit.l_drain=1e-300", "sim.n_periods=2"], 3,
                    "non-finite state at integration step"),
}


@pytest.mark.parametrize("command, document, overrides, code, text", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_cli_bad_input_exit_code(tmp_path, command, document, overrides, code, text):
    """Bad input and integrator blow-up end in ``error: ...`` on stderr and
    their exit code, never in a traceback."""
    args = [command]
    if document is not None:
        path = tmp_path / "input"
        path.write_bytes(document)
        args += [str(path)] if command == "fit" else ["--config", str(path)]
    if command != "fit":
        args += ["--out", str(tmp_path / "out")]
    for item in overrides:
        args += ["--set", item]
    result = CliRunner().invoke(cli, args)
    assert result.exc_info[0] is SystemExit
    assert result.exit_code == code
    assert result.stderr.startswith("error: ")
    assert text in result.stderr


def test_cli_closed_stdout_is_not_an_input_error(monkeypatch):
    """An echo to a closed stdout is outside the exit-code map: click's own
    handling exits 1 without an ``error:`` line."""
    echo = click.echo

    def closed_stdout(message=None, err=False, **kwargs):
        if not err:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        echo(message, err=err, **kwargs)

    monkeypatch.setattr(click, "echo", closed_stdout)
    result = CliRunner().invoke(cli, ["extract", "--vin-avg", "9.95", "--vmax", "60",
                                      "--duty", "0.7", "--iavg", "0.4"])
    assert result.exit_code == 1
    assert "error:" not in result.stderr
