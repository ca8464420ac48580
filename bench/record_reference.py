#!/usr/bin/env python3
"""Record the correctness gate's reference values.

    python3 bench/record_reference.py 0-31 9001

Runs each benchmark workload's command once per seed (workloads that share
inputs and sizes share one entry) and merges the output summaries into
``bench/reference.json``.  The recorded values are what ``check.py``
compares later commits against, so record only at a commit whose outputs
are trusted, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from flowuq import cli, gravity  # noqa: E402
from workloads import WORKLOADS, uq_world  # noqa: E402


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv)
    doc = json.loads(check.REFERENCE.read_text()) if check.REFERENCE.exists() else {}
    doc["tolerance_rel"] = check.REL_TOL
    work = ROOT / ".bench_run" / "reference"
    workloads = {check.reference_key(w): w for w in WORKLOADS.values() if w.workers == 1}
    try:
        for key, wl in workloads.items():
            table = doc.setdefault(key, {})
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                wl.write_inputs(seed, work / "in")
                with contextlib.redirect_stderr(io.StringIO()) as log:
                    rc = cli.main(wl.argv(seed, work / "in", work / "out"))
                if rc != 0:
                    print(f"{key} seed {seed}: exit {rc}: {log.getvalue()}", file=sys.stderr)
                    return 1
                if wl.command == "uq":
                    world, observed = uq_world(wl.n)
                    fit = gravity.fit_ppml(observed, world.log_costs)
                    table[str(seed)] = check.uq_summary(work / "out", fit)
                else:
                    table[str(seed)] = check.calibrate_summary(work / "out")
                print(f"{key} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_run").rmdir()
    for key in workloads:
        doc[key] = dict(sorted(doc[key].items(), key=lambda kv: int(kv[0])))
    check.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
