"""Benchmark workloads: inputs generated from a seed, and the CLI argv that
runs the command under test on them.

Every workload writes its inputs as the files a user would hand to
``flowuq``; the program only ever sees those files and its argv.  One seed
gives byte-identical inputs on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowuq import dataio
from flowuq.scenarios import armington_world, mirror_world

# alpha/2 * B must be an integer so the c1 endpoints are order statistics:
# B is a multiple of 40 at alpha = 0.05.
UQ_ALPHA = 0.05
UQ_INCREASE = 0.1

MIRROR_P_ZERO = 0.1
MIRROR_B_ZERO = 0.05


@dataclass(frozen=True)
class Workload:
    """``n`` locations; ``size`` is the bootstrap B for uq and the number of
    panel periods T for calibrate."""

    name: str
    command: str  # "uq" or "calibrate"
    n: int
    size: int
    workers: int = 1

    def write_inputs(self, seed: int, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        if self.command == "uq":
            world, observed = uq_world(self.n)
            dataio.write_dyadic_csv(
                directory / "flows.csv", observed.labels, observed.values, "flow"
            )
            dataio.write_dyadic_csv(
                directory / "costs.csv", world.labels, np.exp(world.log_costs), "cost"
            )
            dataio.write_params_json(directory / "params.json", world.params)
        else:
            world = mirror_world(
                n=self.n, t=self.size, seed=seed, p_zero=MIRROR_P_ZERO, b_zero=MIRROR_B_ZERO
            )
            panel = world.panel
            dataio.write_mirror_csv(
                directory / "mirror.csv",
                panel.labels,
                panel.periods,
                panel.report1,
                panel.report2,
            )
            dataio.write_dyadic_csv(
                directory / "distances.csv", world.labels, world.distances.values, "distance"
            )

    def argv(self, seed: int, inputs: Path, out: Path, workers: int | None = None) -> list[str]:
        if self.command == "calibrate":
            return [
                "calibrate",
                "--mirror", str(inputs / "mirror.csv"),
                "--distances", str(inputs / "distances.csv"),
                "--output-dir", str(out),
            ]
        return [
            "uq",
            "--flows", str(inputs / "flows.csv"),
            "--params", str(inputs / "params.json"),
            "--costs", str(inputs / "costs.csv"),
            "--model", "armington",
            "--uniform-increase", repr(UQ_INCREASE),
            "--mode", "ee+me",
            "--interval", "c1",
            "--b", str(self.size),
            "--alpha", repr(UQ_ALPHA),
            "--seed", str(seed),
            "--workers", str(self.workers if workers is None else workers),
            "--output-dir", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's default pipeline: the Armington solve is ~80% of a draw
        # and PPML ~10-15%; the process pool is bypassed.
        Workload("uq-n30", "uq", n=30, size=40),
        # Mirror-panel calibration: CSV ingest, per-period OLS gravity and the
        # params.json write dominate; no solver and no PPML run.
        Workload("calibrate-mirror", "calibrate", n=60, size=20),
        # Same per-draw work as uq-n30 through the process pool, so any
        # difference isolates the pool and BLAS oversubscription.  Run by
        # hand only: its command time spreads too widely for a bound.
        Workload("uq-n30-w2", "uq", n=30, size=40, workers=2),
    )
}


def uq_world(n: int):
    """The Armington world ``armington_world(n)`` and one observed flow
    matrix drawn from it.

    Both are fixed; a uq workload's seed is the bootstrap seed, which picks
    every posterior flow draw and elasticity draw.  The observed matrix sets
    the elasticity estimate and through it the solver work of every draw:
    drawing it from the seed spreads a command's total solver iterations
    over a range of about 15% across seeds, against about 3% when only the
    bootstrap seed changes.
    """
    world = armington_world(n=n, cost_increase=UQ_INCREASE)
    _, observed = world.draw_world(np.random.default_rng(0))
    return world, observed
