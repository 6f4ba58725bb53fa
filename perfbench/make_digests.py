"""Regenerate ``seed_digests.json``: the digest of every output the
workloads can produce, taken on the current program.

Run from the repository root on the commit whose outputs are the
reference (the digest table is informational: ``results.digest_match``):

    python3 perfbench/make_digests.py

It runs the default campaign, one campaign over every cell the
campaign_wide generator can draw plus the simulate_cli probe cell, and one
default simulate command; every output must pass the benchmark's checks.
"""

from __future__ import annotations

import json
import sys

import run as bench
from outputs import SIMULATE_KEY, check_campaign, check_simulate, simulate_digest
from workloads import PROBE_CELL, campaign_yaml, make_workload, to_cell, wide_grid_docs


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    from ganstress.cli import cli
    import ganstress

    out = bench.OUT / "digests"
    out.mkdir(parents=True, exist_ok=True)
    table = {}
    docs = wide_grid_docs() + [PROBE_CELL]
    config = out / "grid.yaml"
    config.write_text(campaign_yaml(docs))
    jobs = [(make_workload("campaign_default", 0).cells, None),
            ([to_cell(d) for d in docs], config)]
    for cells, cfg in jobs:
        argv = ["campaign", "--out", str(out)] + (["--config", str(cfg)] if cfg else [])
        code, elapsed, err = bench.run_command(cli, argv)
        chk = check_campaign(out, cells, ganstress)
        if code != 0 or chk.failures:
            print(f"campaign failed (exit {code}): {err} {chk.failures}", file=sys.stderr)
            return 1
        print(f"{len(cells)} cells in {elapsed:.1f} s; rds_rel_err_max = {chk.rds_rel_err_max:.4e}, "
              f"slope_rel_err_max = {chk.slope_rel_err_max:.4e}")
        table.update(chk.digests)
    code, _, err = bench.run_command(cli, ["simulate", "--out", str(out)])
    if code != 0:
        print(f"simulate failed (exit {code}): {err}", file=sys.stderr)
        return 1
    check_simulate(out)
    table[SIMULATE_KEY] = simulate_digest(out)
    (bench.HERE / "seed_digests.json").write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
