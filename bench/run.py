#!/usr/bin/env python3
"""flowuq benchmark: one closed-loop client running ``flowuq`` commands.

    python3 bench/run.py --workload uq-n30 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from ``--seed``, then calls ``flowuq.cli.main(argv)``
in-process, one command at a time, until ``--seconds`` of command time have
passed.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced commands, runs a PPML and
solver size sweep, and reports the per-layer metrics.  Outputs are checked
after the timed loop (see check.py).  The last line of standard output is
the result object; the lines before it print every metric with its unit and
the run's provenance.  Work files go to ``.bench_run/`` in the checkout.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
# No command starts later than this after start-up, so a run stays well
# inside three minutes even when one command is slow.
DEADLINE_S = 120.0
_T0 = time.perf_counter()
RSS_SAMPLE_S = 0.05
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class RssSampler:
    """Samples the resident memory of this process plus its live children
    every ``RSS_SAMPLE_S`` seconds; ``reset`` starts a new peak window."""

    def __init__(self):
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 2**20
        self._peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _rss_mb(self) -> float:
        pids = ["self"]
        for path in glob.glob("/proc/self/task/*/children"):
            with contextlib.suppress(OSError):
                pids += open(path).read().split()
        total = 0
        for pid in pids:
            with contextlib.suppress(OSError, IndexError, ValueError):
                total += int(open(f"/proc/{pid}/statm").read().split()[1])
        return total * self._page_mb

    def _loop(self):
        while not self._stop.wait(RSS_SAMPLE_S):
            self._peak = max(self._peak, self._rss_mb())

    def reset(self):
        self._peak = self._rss_mb()

    def peak(self) -> float:
        return max(self._peak, self._rss_mb())

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        from flowuq import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs0"
        self.out = work / "out"
        self.sampler = RssSampler()
        self.first_outputs = None
        self.output_mismatch = False

    def setup_times(self) -> list[float]:
        """Set-up repeated ``SETUP_REPS`` times: a fresh interpreter importing
        the CLI, then generating and writing the workload's inputs."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        times = []
        for k in range(SETUP_REPS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import flowuq.cli"], env=env, check=True)
            self.workload.write_inputs(self.seed, self.work / f"inputs{k}")
            times.append(time.perf_counter() - t)
        return times

    def command(self, tracer=None, workers=None, out=None) -> dict:
        """One command, timed; returns its exit code and measurements."""
        out = self.out if out is None else out
        argv = self.workload.argv(self.seed, self.inputs, out, workers=workers)
        self.sampler.reset()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) as log:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = self.cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        rss = self.sampler.peak()
        return {"rc": rc, "wall": wall, "cpu": cpu, "rss": rss, "log": log.getvalue()}

    def output_bytes(self, out=None) -> dict:
        out = self.out if out is None else out
        names = (
            ("draws.csv", "interval.json")
            if self.workload.command == "uq"
            else ("params.json", "calibration_summary.json")
        )
        return {name: (out / name).read_bytes() for name in names}

    def draws_failed(self) -> int:
        doc = json.loads((self.out / "interval.json").read_text())
        return doc["outcomes"][0]["draws_failed"]

    def close(self):
        self.sampler.close()


def run_loop(runner: Runner, seconds: float, trace: bool):
    """Closed loop: the next command starts when the previous one ends, until
    ``seconds`` of command time have passed.  With ``trace`` the commands
    alternate untraced and traced, starting untraced."""
    from spans import Tracer

    tracer = Tracer() if trace else None
    results = []
    spent = 0.0
    while (
        not results
        or (trace and len(results) < 2)
        or (spent < seconds and time.perf_counter() - _T0 < DEADLINE_S)
    ):
        traced = trace and len(results) % 2 == 1
        if traced:
            tracer.install()
        try:
            res = runner.command(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        res["traced"] = traced
        spent += res["wall"]
        if res["rc"] == 0:
            outputs = runner.output_bytes()
            if runner.first_outputs is None:
                runner.first_outputs = outputs
            elif outputs != runner.first_outputs:
                runner.output_mismatch = True
            res["draws_failed"] = runner.draws_failed() if runner.workload.command == "uq" else 0
        results.append(res)
    return results, tracer


def size_sweep(tracer) -> None:
    """PPML fits and counterfactual solves on ``armington_world`` at each
    sweep size, outside any command; a solver that does not converge is
    recorded as a failure."""
    from flowuq import armington, gravity
    from flowuq.errors import NoConvergence
    from spans import SWEEP_REPS, SWEEP_SIZES
    from workloads import uq_world

    tracer.install()
    try:
        for n in SWEEP_SIZES:
            world, observed = uq_world(n)
            for _ in range(SWEEP_REPS):
                with tracer.span(f"sweep.n{n}"):
                    gravity.fit_ppml(observed, world.log_costs)
                    with contextlib.suppress(NoConvergence):
                        armington.solve_counterfactual(observed, world.cf_spec, world.epsilon)
    finally:
        tracer.uninstall()


def expected_layers(workload) -> list[str]:
    """Per-layer call counts that must be non-zero on ``workload``: the
    span-coverage guard.  Forked pool workers are invisible to the tracer,
    so with workers > 1 only the parent-side point estimate shows PPML and
    solver calls, and no sampling."""
    if workload.command == "calibrate":
        from spans import CALIBRATION_STEPS

        return (
            [f"calibration.{s}" for s in CALIBRATION_STEPS]
            + ["robustness.normality_diagnostic", "robustness.gravity_partial_plot"]
            + ["dataio.read_distances_csv", "dataio.write_params_json", "dataio.write_json"]
        )
    layers = [
        "armington.solve_counterfactual",
        "gravity.fit_ppml",
        "engine.run_algorithm1",
        "engine.point_estimate",
        "dataio.read_flows_csv",
        "dataio.read_costs_csv",
        "dataio.read_params_json",
        "dataio.write_draws_csv",
        "dataio.write_json",
    ]
    if workload.workers == 1:
        layers.append("calibration.sample_flow_matrix")
    return layers


def coverage_errors(workload, tracer) -> list[str]:
    from spans import SWEEP_SIZES

    commands = {i for i, s in enumerate(tracer.spans) if s.parent < 0 and s.name == "cli.main"}
    called = {s.name for s in tracer.spans if s.command in commands and s.parent >= 0}
    errors = [f"span coverage: no {name} call on {workload.name}"
              for name in expected_layers(workload) if name not in called]
    for n in SWEEP_SIZES:
        roots = {i for i, s in enumerate(tracer.spans) if s.name == f"sweep.n{n}"}
        names = {s.name for s in tracer.spans if s.command in roots and s.parent >= 0}
        for name in ("gravity.fit_ppml", "armington.solve_counterfactual"):
            if name not in names:
                errors.append(f"span coverage: no {name} call in the n={n} sweep")
    return errors


def check_outputs(runner: Runner) -> list[str]:
    """Correctness gate on the last command's outputs, plus byte-identity
    across commands and, for a pooled workload, against a serial command."""
    import numpy as np

    import check
    from flowuq import gravity

    wl, seed = runner.workload, runner.seed
    errors = []
    if runner.first_outputs is None:
        return ["no command succeeded"]
    if runner.output_mismatch:
        errors.append("outputs differ between repeated commands")
    ref = check.load_reference(wl, seed)
    if wl.command == "uq":
        from workloads import UQ_ALPHA, UQ_INCREASE, uq_world

        world, observed = uq_world(wl.n)
        fit = gravity.fit_ppml(observed, world.log_costs)
        tau = 1.0 + UQ_INCREASE * (1.0 - np.eye(wl.n))
        errors += check.check_uq(
            runner.out, wl.size, UQ_ALPHA, observed.values, world.log_costs, tau, fit, ref
        )
        if wl.workers > 1:
            serial_out = runner.work / "out_serial"
            res = runner.command(workers=1, out=serial_out)
            if res["rc"] != 0 or runner.output_bytes(serial_out) != runner.first_outputs:
                errors.append(f"outputs with --workers {wl.workers} differ from --workers 1")
    else:
        from flowuq.scenarios import mirror_world
        from workloads import MIRROR_B_ZERO, MIRROR_P_ZERO

        world = mirror_world(
            n=wl.n, t=wl.size, seed=seed, p_zero=MIRROR_P_ZERO, b_zero=MIRROR_B_ZERO
        )
        errors += check.check_calibrate(runner.out, world.panel, world.distances.values, ref)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowuq" / "__init__.py").is_file():
        print(f"error: no flowuq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Turn a termination request into SystemExit so the work directory is
    # removed and the sampler thread joined on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work)
    try:
        setup_s = statistics.median(runner.setup_times())
        results, tracer = run_loop(runner, args.seconds, bool(args.trace))
        errors = check_outputs(runner)
        if args.trace:
            size_sweep(tracer)
            errors += coverage_errors(workload, tracer)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_run").rmdir()

    ok_runs = [r for r in results if r["rc"] == 0]
    bad_runs = [r for r in results if r["rc"] != 0]
    for r in bad_runs:
        errors.append(f"command exited {r['rc']}: {r['log'].strip()[-300:]}")
    if workload.command == "uq":
        attempted = workload.size * len(results)
        failed = sum(r.get("draws_failed", workload.size) for r in results)
    else:
        attempted = len(results)
        failed = len(bad_runs)
    if errors:
        failed = attempted

    timed = [r for r in ok_runs if not r["traced"]] or ok_runs
    walls = [r["wall"] for r in timed]
    if args.trace:
        import spans

        traced_walls = [r["wall"] for r in ok_runs if r["traced"]] or walls
        metrics = spans.command_metrics(tracer.spans, traced_walls, walls)
        metrics.update(spans.sweep_metrics(tracer.spans))
        units = spans.per_layer_units()
        metrics = {name: metrics[name] for name in units}
    else:
        wall = statistics.median(walls) if walls else float("nan")
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "ops_per_s": workload.size / wall,
            "cpu_s": statistics.median(r["cpu"] for r in timed) if timed else float("nan"),
            "peak_rss_mb": statistics.median(r["rss"] for r in timed) if timed else float("nan"),
        }
        units = END_TO_END_UNITS

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"commands {len(results)} ({len(timed)} untraced)")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("  command wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':<48} {failed / max(attempted, 1):>16.6g} fraction")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
