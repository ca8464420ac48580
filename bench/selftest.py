#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs the benchmark on n=10, B=40 uq workloads (serial and two workers) and a
small mirror panel, untraced and traced, for one second each, and asserts
that every metric named in ``BENCHMARK.json`` is emitted with its unit, that
the correctness gate and the span-coverage guard pass, and that the result
line has the required shape.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = (
    Workload("selftest-uq-n10", "uq", n=10, size=40),
    Workload("selftest-uq-n10-w2", "uq", n=10, size=40, workers=2),
    Workload("selftest-calibrate-n12", "calibrate", n=12, size=10),
)


def run_once(name: str, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = stdout.getvalue().splitlines()
    assert rc == 0, f"{name} trace={trace} exited {rc}:\n" + "\n".join(lines)
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert wanted[0] == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end drifted from run.py"
    for w in TINY:
        WORKLOADS[w.name] = w
    for w in TINY:
        for trace in (0, 1):
            result = run_once(w.name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (
                f"{w.name} trace={trace}: missing {sorted(set(wanted[trace]) - set(got))}, "
                f"extra {sorted(set(got) - set(wanted[trace]))}, or units differ"
            )
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {w.name:<24} trace={trace}  {len(got)} metrics", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
