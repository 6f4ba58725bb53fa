"""ganstress benchmark: one workload per run, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign_default --seed 1 --seconds 40 --trace 0

The benchmark is one process with no threads. It imports the program from
``src/`` next to this directory and drives it only through the public API
and the in-process CLI entry ``ganstress.cli.cli``; it writes only under
``.perfbench_out/``. A run sets the program up ``SETUPS`` times, warms
up, then runs iterations of the workload's fixed work (see
``workloads.py``) for up to ``--seconds`` seconds. It checks every output
and prints one JSON object as its last stdout line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end
times are scaled to a reference machine speed (see ``SpeedClock``); the
unscaled medians are printed on a comment line above the result.

A traced run runs its first iteration untraced, installs the span
recorder, and runs the rest traced: the traced outputs must be
byte-identical to the untraced ones, and the difference in iteration time
is the tracing overhead. Per-layer busy times are unscaled and include the
speed samples taken while a command runs (about 3 % of it).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# The program's third-party dependencies, imported before anything else
# so that their cost is measured once here and every set-up costs the same.
_t0 = time.perf_counter()
np = importlib.import_module("numpy")
importlib.import_module("yaml")
importlib.import_module("click")
DEPS_IMPORT_S = time.perf_counter() - _t0

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from outputs import (  # noqa: E402
    SIMULATE_KEY,
    CheckError,
    check_campaign,
    check_simulate,
    simulate_digest,
)
from tracing import Tracer, iteration_layers, median_times  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_CELL,
    SIM_BATCH,
    WORKLOADS,
    campaign_yaml,
    make_workload,
    to_cell,
)

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Set-ups per run; setup_s is their median.
SETUPS = 9
#: Thread CPU time of ``reference_kernel`` on the machine the baseline was
#: taken on (about its median there); reported times are scaled to it.
REF_SECONDS = 0.006
#: Interval of the speed samples taken while a measured command runs.
SAMPLE_INTERVAL_S = 0.2
SEED_DIGESTS = HERE / "seed_digests.json"
TRACED_MODULES = ("ganstress.cli", "ganstress.campaign", "ganstress.results")


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def reference_kernel() -> float:
    """A fixed scalar loop with the shape of the simulate step (trapezoid
    update, gate test, clamp) that also allocates and writes arrays of a
    campaign run's length; its run time measures machine speed."""
    arrays = [np.empty(56001) for _ in range(4)]
    i = v = 0.0
    h = 1e-9
    for k in range(4000):
        gate = (k % 1000) < 700
        d1 = (10.0 - i * 3.3) / 1e-5 if gate else (9.5 - v) / 1e-5
        p = max(i + h * d1, 0.0)
        d2 = (10.0 - p * 3.3) / 1e-5 if gate else (9.5 - v) / 1e-5
        i = max(i + 0.5 * h * (d1 + d2), 0.0)
        arrays[k & 3][(k * 14) % 56001] = i
    return i


class SpeedClock:
    """Scales measured intervals to the reference machine speed.

    On a shared virtual machine the same code can run up to twice as fast
    at one moment as at another, depending on what other tenants of the
    host are doing. So the reference kernel is timed right before and right after
    each measured interval and, from a SIGALRM handler, every
    SAMPLE_INTERVAL_S while it runs; the interval, less the time the samples
    took, is scaled by REF_SECONDS over the median sample. Samples are
    thread CPU time, so a program that keeps other cores busy does not slow
    them and cannot make itself look faster.
    """

    def __init__(self):
        self.samples: list = []
        self._first = 0
        self._spent = 0.0   # wall seconds spent sampling inside the interval

    def _sample(self) -> float:
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_kernel()
        self.samples.append(time.thread_time() - c0)
        return time.perf_counter() - w0

    def _on_alarm(self, signum, frame) -> None:
        self._spent += self._sample()

    def begin(self) -> None:
        self._first = len(self.samples)
        self._sample()
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def end(self, raw: float) -> tuple:
        """Close an interval measured as ``raw`` seconds since ``begin``:
        (seconds without the sampling, the same scaled to reference speed)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        net = raw - self._spent
        return net, net * REF_SECONDS / statistics.median(self.samples[self._first:])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def purge_program() -> None:
    for name in [m for m in sys.modules if m == "ganstress" or m.startswith("ganstress.")]:
        del sys.modules[name]


def run_command(cli, argv: list) -> tuple:
    """Run one CLI command in-process: (exit code, seconds, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            cli.main(argv, prog_name="ganstress", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed op, not a crashed benchmark
            code = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    return code, elapsed, err.getvalue()


class Run:
    """State of one benchmark run: commands, checks and their tallies."""

    def __init__(self, workload, cli, api, clock: SpeedClock, out_dir: Path, config_path):
        self.wl = workload
        self.cli = cli
        self.api = api
        self.clock = clock
        self.out_dir = out_dir
        self.config_path = config_path
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.latencies: list = []       # scaled to the reference speed
        self.raw_latencies: list = []   # the same, unscaled
        self.digests: dict = {}
        self.digest_mismatch = 0
        self.rds_rel_err_max = 0.0
        self.slope_rel_err_max = 0.0
        self.sim_checked = None   # digest of the fully checked simulate output

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)

    def note_digest(self, key: str, value: str) -> None:
        """Record an output digest; the same input must give the same bytes."""
        old = self.digests.setdefault(key, value)
        if old != value:
            self.digest_mismatch += 1

    def command(self, argv: list) -> tuple:
        """Run one command: (exit code, (scaled, unscaled) seconds, stderr text)."""
        self.clock.begin()
        code, raw, err = run_command(self.cli, argv)
        raw, scaled = self.clock.end(raw)
        return code, (scaled, raw), err

    def campaign(self, cells: list, config_path, out_dir: Path) -> tuple:
        argv = ["campaign", "--out", str(out_dir)]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        code, elapsed, err = self.command(argv)
        self.attempted += len(cells)
        if code != 0:
            self.fail(len(cells), f"campaign exit {code}: {err.strip()}")
            return elapsed
        chk = check_campaign(out_dir, cells, self.api)
        for idx, why in sorted(chk.failures.items()):
            self.fail(1, f"cell{idx:02d}: {why}")
        for key, value in chk.digests.items():
            self.note_digest(key, value)
        self.rds_rel_err_max = max(self.rds_rel_err_max, chk.rds_rel_err_max)
        self.slope_rel_err_max = max(self.slope_rel_err_max, chk.slope_rel_err_max)
        return elapsed

    def simulate(self) -> tuple:
        code, elapsed, err = self.command(["simulate", "--out", str(self.out_dir)])
        self.attempted += 1
        if code != 0:
            self.fail(1, f"simulate exit {code}: {err.strip()}")
            return elapsed
        value = simulate_digest(self.out_dir)
        if self.sim_checked is None:
            try:
                check_simulate(self.out_dir)
            except (CheckError, ValueError) as exc:
                self.fail(1, f"simulate: {exc}")
                return elapsed
            self.sim_checked = value
        if value != self.sim_checked:
            self.fail(1, "simulate: output differs from the first, checked command")
        self.note_digest(SIMULATE_KEY, value)
        return elapsed

    def iteration(self) -> float:
        """One unit of the workload's fixed work; returns its scaled command seconds."""
        if self.wl.mode == "campaign":
            lat = [self.campaign(self.wl.cells, self.config_path, self.out_dir)]
        else:
            lat = [self.simulate() for _ in range(SIM_BATCH)]
        self.latencies += [scaled for scaled, _ in lat]
        self.raw_latencies += [raw for _, raw in lat]
        return sum(scaled for scaled, _ in lat)

    def probe(self) -> None:
        """Accuracy probe for simulate_cli: one fixed single-cell campaign,
        run after the measured iterations and not timed."""
        path = OUT / "probe.yaml"
        path.write_text(campaign_yaml([PROBE_CELL]))
        probe_dir = OUT / "probe"
        probe_dir.mkdir()
        self.campaign([to_cell(PROBE_CELL)], path, probe_dir)


def tail(values: list) -> tuple:
    """Highest order statistic with at least ten samples above it (the
    maximum when there are ten or fewer), and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def digest_match(digests: dict) -> float:
    try:
        table = json.loads(SEED_DIGESTS.read_text())
    except (OSError, ValueError):
        return 0.0
    if not digests:
        return 0.0
    return sum(table.get(k) == v for k, v in digests.items()) / len(digests)


def set_up(wl, out_dir: Path) -> tuple:
    """Import the program afresh, parse the workload's config and prepare
    the output directory: (set-up seconds, import seconds)."""
    purge_program()
    t0 = time.perf_counter()
    importlib.import_module("ganstress.cli")
    t1 = time.perf_counter()
    importlib.import_module("ganstress.config").parse_config(wl.config_text, wl.mode)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    return time.perf_counter() - t0, t1 - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ganstress" / "cli.py").is_file():
        print(f"error: program source {SRC / 'ganstress'} not found", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    wl = make_workload(args.workload, args.seed)
    config_path = None
    if wl.config_text:
        config_path = OUT / "config.yaml"
        config_path.write_text(wl.config_text)

    clock = SpeedClock()
    out_dir = OUT / "out"
    setups, raw_setups, imports = [], [], []
    for _ in range(SETUPS):
        clock.begin()
        raw, imp = set_up(wl, out_dir)
        raw, scaled = clock.end(raw)
        raw_setups.append(raw)
        setups.append(scaled)
        imports.append(imp)
    api = sys.modules["ganstress"]
    if not Path(api.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ganstress from {api.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli = sys.modules["ganstress.cli"].cli
    code, _, err = run_command(cli, ["simulate", "--out", str(OUT / "warmup"),
                                     "--set", "sim.n_periods=4", "--set", "sim.steps_per_period=100"])
    if code != 0:
        print(f"error: warm-up simulate failed with exit {code}: {err}", file=sys.stderr)
        return 1

    run = Run(wl, cli, api, clock, out_dir, config_path)
    modules = {name: sys.modules[name] for name in TRACED_MODULES}
    tracer = Tracer()
    walls, traced_walls, totals = [], [], []
    roots = []
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        traced = args.trace == 1 and bool(totals)
        if traced:
            tracer.install(modules)
            roots.append(tracer.open("iteration"))
        wall = run.iteration()
        if traced:
            tracer.close(roots[-1])
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
        totals.append(time.perf_counter() - t_iter)
        elapsed = time.perf_counter() - start
        if args.trace == 1 and not traced:
            continue
        if elapsed + statistics.median(totals) > args.seconds:
            break
    if run.digest_mismatch:
        # With --trace 1 the first digest of each output is the untraced one.
        run.fail(run.digest_mismatch, "outputs of identical inputs differ between iterations")
    if wl.mode == "simulate":
        run.probe()

    for why in run.errors[:20]:
        print(f"check failed: {why}", file=sys.stderr)
    if args.trace == 0:
        p50 = statistics.median(run.latencies)
        op_tail, pct = tail(run.latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_s": p50,
            "op_tail_s": op_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "rds_rel_err_max": run.rds_rel_err_max,
            "slope_rel_err_max": run.slope_rel_err_max,
            "ops_ok_ratio": 1.0 - run.failed / run.attempted,
        }
        units = declared_units("end_to_end")
        print(f"# {len(walls)} iterations, {len(run.latencies)} command latencies; "
              f"op_tail_s is p{pct:.1f}; ops_failed_ratio = {run.failed / run.attempted!r}")
        print(f"# unscaled: setup_s = {statistics.median(raw_setups)!r}, "
              f"op_p50_s = {statistics.median(run.raw_latencies)!r}; reference kernel "
              f"median {statistics.median(clock.samples)!r} s against {REF_SECONDS} s")
    else:
        per_iter = [iteration_layers(tracer.subtree(r)) for r in roots]
        counts = per_iter[0][0]
        if any(c != counts for c, _ in per_iter[1:]):
            print("warning: exact counts differ between traced iterations", file=sys.stderr)
        metrics = {**counts, **median_times([t for _, t in per_iter]),
                   "cli.import_s": statistics.median(imports),
                   "cli.deps_import_s": DEPS_IMPORT_S,
                   "results.digest_match": digest_match(run.digests),
                   "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls)}
        units = declared_units("per_layer")
        tracer.dump(OUT / "spans.jsonl")
        print(f"# 1 untraced + {len(traced_walls)} traced iterations; counts are per iteration")
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
