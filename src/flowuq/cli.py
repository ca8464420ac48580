"""Batch command-line front end.

Commands mirror the three toolkit programs: ``calibrate`` produces parameter
files and adequacy diagnostics, ``uq`` produces posterior outcome draws and
intervals, and ``estimate``/``counterfactual``/``diagnose``/
``simulate-attenuation``/``report-ranks`` cover the supporting pieces.

Every option can also come from a flat ``key = value`` config file
(``--config``).  A key is the option's name, spelled with ``-`` or ``_``
(``uniform-increase = 0.1``); a yes/no option takes true/false, yes/no or
1/0.  The file's values parse through the same argparse parser as flags,
so they meet the same types and choices, and the command line wins over
the file.  A key that is not an option of the command is a data error, as
an unknown flag is, and so is an option given without what uses it
(``--b-inner`` without ``--interval c2``, ``--flows`` with ``--mirror``).
All randomness flows from ``--seed``, which only ``uq`` and
``simulate-attenuation`` take, and outputs are byte-identical across reruns
and worker counts.

Exit codes: 0 success, 2 data errors, 3 identification errors, 4 too many
failed draws.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import dataio
from .armington import ArmingtonModel, solve_counterfactual, welfare_change_pct
from .calibration import calibrate_baseline, calibrate_mirror, ingest_mirror_csv
from .core import CounterfactualSpec, DrawSet, EstimatorResult, FlowMatrix, _refuse_repeats
from .engine import MODES, LowDimSmoother, UqConfig, run_uq
from .errors import (
    DataError,
    FlowUqError,
    IdentificationError,
    LengthMismatch,
    TooManyFailures,
)
from .gravity import fit_log_gravity, fit_ppml, independent_variance
from .intervals import INTERVAL_KINDS, rank_reversals
from .robustness import (
    AttenuationSimConfig,
    gravity_partial_plot,
    normality_diagnostic,
    run_attenuation_sim,
)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _required(args: argparse.Namespace, name: str):
    """The value of an option that another option, or the data, makes
    required."""
    value = getattr(args, name)
    if value is None:
        raise DataError(f"missing required option --{name.replace('_', '-')}")
    return value


def _refuse_unused(args: argparse.Namespace, needs: str, *names: str):
    """Refuse options given without ``needs``, the only thing that uses them."""
    for name in names:
        if getattr(args, name) is not None:
            raise DataError(f"--{name.replace('_', '-')} needs {needs}")


def _outdir(args: argparse.Namespace) -> Path:
    """The output directory, made when a command writes its first output, so
    that a command refused on its inputs leaves none behind."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_diagnostics(out: Path, diag, fit):
    """The normality diagnostic's files, and the gravity fit's partial plot."""
    dataio.write_json(
        out / "normality_summary.json",
        {
            "mean": _j(diag.mean),
            "variance": _j(diag.variance),
            "skewness": _j(diag.skewness),
            "excess_kurtosis": _j(diag.excess_kurtosis),
            "ks_distance": _j(diag.ks_distance),
            "n_residuals": int(diag.residuals.size),
            "n_zero_variance": diag.n_zero_variance,
        },
    )
    dataio.write_columns_csv(out / "normality_residuals.csv", ["residual"], [diag.residuals])
    edges = diag.bin_edges
    dataio.write_columns_csv(
        out / "normality_histogram.csv",
        ["bin_left", "bin_right", "count"],
        [edges[:-1], edges[1:], diag.bin_counts],
    )
    dataio.write_columns_csv(out / "gravity_partial.csv", ["x", "y"], [fit.x_res, fit.y_res])
    plot = gravity_partial_plot(fit)
    filled = plot.bin_counts > 0
    dataio.write_columns_csv(
        out / "gravity_binned.csv",
        ["bin_center", "bin_mean", "count"],
        [plot.bin_centers[filled], plot.bin_means[filled], plot.bin_counts[filled]],
    )


def _j(x: float):
    return None if isinstance(x, float) and not np.isfinite(x) else float(x)


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.mirror is not None:
        baseline = ("flows", "sigma2", "p", "b_spurious")
        _refuse_unused(args, "the baseline regime (no --mirror)", *baseline)
        shrink = args.shrink is not False  # default yes
        panel = ingest_mirror_csv(args.mirror)
        distances = dataio.read_distances_csv(args.distances, panel.labels)
        if panel.na_copied or panel.na_zeroed:
            _log(
                f"missing-data rule: copied {panel.na_copied} entries from the "
                f"mirror side, zeroed {panel.na_zeroed}"
            )
        params, means = calibrate_mirror(panel, distances, shrink)
        s2_zero = None
        if shrink:
            off = ~np.eye(panel.n, dtype=bool)
            s2_zero = int(np.count_nonzero(params.s2_shrunk[off] == 0.0))
            if s2_zero:
                _log(
                    f"shrinkage: {s2_zero} off-diagonal dyads keep a zero prior "
                    "variance (no positive estimate connects their origin and "
                    "destination)"
                )
        observed = [FlowMatrix(r, panel.labels) for r in panel.report1]
        fit = means.last_fit
        summary = {
            "regime": "mirror",
            "periods": list(panel.periods),
            "beta_by_period": [float(x) for x in means.beta],
            "adj_r2_by_period": [_j(x) for x in means.adj_r2],
            "adj_r2_last_period": _j(means.adj_r2[-1]),
            "last_period": panel.periods[-1],
            "na_copied": panel.na_copied,
            "na_zeroed": panel.na_zeroed,
            "s2_shrunk_zero_dyads": s2_zero,
            "shrunk_variances": shrink,
        }
    else:
        _refuse_unused(args, "--mirror", "shrink")
        observed = dataio.read_flows_csv(_required(args, "flows"))
        distances = dataio.read_distances_csv(args.distances, observed.labels)
        sigma2 = _required(args, "sigma2")
        p = 0.0 if args.p is None else args.p
        b = 0.0 if args.b_spurious is None else args.b_spurious
        params, fit = calibrate_baseline(observed, distances, sigma2, p, b)
        summary = {
            "regime": "baseline",
            "beta": fit.beta_hat,
            "adj_r2": _j(fit.adj_r2),
            "residual_variance": fit.residual_variance,
            "sigma2": sigma2,
            "s2": float(np.max(params.s2)),
        }
    out = _outdir(args)
    dataio.write_params_json(out / "params.json", params)
    _write_diagnostics(out, normality_diagnostic(observed, params), fit)
    dataio.write_json(out / "calibration_summary.json", summary)
    _log(f"calibration written to {out}")
    return 0


# ---------------------------------------------------------------------------
# estimate / counterfactual


def cmd_estimate(args: argparse.Namespace) -> int:
    flows = dataio.read_flows_csv(args.flows)
    log_costs = dataio.read_costs_csv(args.costs, flows.labels)
    fit = fit_ppml(flows, log_costs, include_diagonal=args.include_diagonal)
    if args.variance == "dyadic":
        variance, projected = fit.variance, fit.variance_psd_projected
    else:  # a sum of squares, never projected
        variance, projected = independent_variance(fit), False
    dataio.write_json(
        _outdir(args) / "ppml.json",
        {
            "epsilon_hat": fit.epsilon_hat,
            "variance": variance,
            "variance_mode": args.variance,
            "variance_psd_projected": projected,
            "deviance": fit.deviance,
            "iterations": fit.iterations,
            "fe_origin": {l: float(v) for l, v in zip(flows.labels, fit.fe_origin)},
            "fe_dest": {l: float(v) for l, v in zip(flows.labels, fit.fe_dest)},
        },
    )
    _log(f"epsilon_hat = {fit.epsilon_hat:.6g} (se {np.sqrt(variance):.3g})")
    return 0


def _cf_spec(args: argparse.Namespace, n: int, labels) -> CounterfactualSpec:
    if args.cf_spec is not None:
        return dataio.read_cf_spec_csv(args.cf_spec, labels)
    return CounterfactualSpec.uniform_increase(n, args.uniform_increase)


def cmd_counterfactual(args: argparse.Namespace) -> int:
    flows = dataio.read_flows_csv(args.flows)
    cf = _cf_spec(args, flows.n, flows.labels)
    result = solve_counterfactual(flows, cf, args.epsilon)
    pct = welfare_change_pct(result)
    dataio.write_json(
        _outdir(args) / "welfare.json",
        {
            "epsilon": args.epsilon,
            "residual": result.residual,
            "iterations": result.iterations,
            "welfare_pct": {l: float(v) for l, v in zip(flows.labels, pct)},
            "income_prop": {
                l: float(v) for l, v in zip(flows.labels, result.y_prop)
            },
        },
    )
    _log(f"counterfactual solved in {result.iterations} iterations")
    return 0


# ---------------------------------------------------------------------------
# uq


def _params(args: argparse.Namespace):
    """The ``--params`` file, sliced to ``--period`` if its means are per period."""
    params = dataio.read_params_json(_required(args, "params"))
    if params.has_periods:
        return params.for_period(_required(args, "period"))
    _refuse_unused(args, "per-period --params", "period")
    return params


def cmd_uq(args: argparse.Namespace) -> int:
    if args.costs is not None and args.theta_se is not None:
        raise DataError("--theta-se goes with an external --theta, not with --costs")
    if args.costs is None:
        _refuse_unused(args, "--costs", "include_diagonal")
    if args.theta_se is not None and args.theta_se < 0:
        raise DataError(f"--theta-se must be non-negative, got {args.theta_se:g}")
    if args.interval != "c2":
        _refuse_unused(args, "--interval c2", "b_inner")
    if args.interval != "robust":
        _refuse_unused(args, "--interval robust", "robust_c")
    if args.smoother != "lowdim":
        _refuse_unused(args, "--smoother lowdim", "distances")
    if args.mode == "only-ee":
        _refuse_unused(args, "--mode only-me or ee+me", "period", "params")
    flows = dataio.read_flows_csv(args.flows)
    params = None if args.mode == "only-ee" else _params(args)

    if args.costs is not None:
        estimation = dataio.read_costs_csv(args.costs, flows.labels)
    else:
        se = args.theta_se or 0.0
        estimation = EstimatorResult(
            theta_hat=np.array([args.theta]), sigma_hat=np.array([[se**2]])
        )

    model = ArmingtonModel()  # the one --model choice
    cf = _cf_spec(args, flows.n, flows.labels)

    cfg = UqConfig(
        b=args.b,
        alpha=args.alpha,
        seed=args.seed,
        mode=args.mode,
        interval_kind=args.interval,
        robust_c=1.0 if args.robust_c is None else args.robust_c,
        b_inner=args.b_inner,
        max_failure_fraction=args.max_failure_frac,
        workers=args.workers,
    )

    smoother = None
    if args.smoother == "lowdim":
        distances = dataio.read_distances_csv(_required(args, "distances"), flows.labels)
        smoother = LowDimSmoother(distances)

    draw_set, intervals, point = run_uq(
        flows, params, estimation, model, cf, cfg, smoother, bool(args.include_diagonal)
    )

    out = _outdir(args)
    dataio.write_draws_csv(out / "draws.csv", draw_set)
    dataio.write_json(
        out / "interval.json",
        dataio.intervals_to_json(
            intervals, draw_set, point, cfg, "g(F)" if smoother is None else "g(S(F))"
        ),
    )
    _log(
        f"{draw_set.draws_used}/{cfg.b} draws used "
        f"({draw_set.draws_failed} failed); outputs in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose / simulate-attenuation / report-ranks


def cmd_diagnose(args: argparse.Namespace) -> int:
    flows = dataio.read_flows_csv(args.flows)
    distances = dataio.read_distances_csv(args.distances, flows.labels)
    params = _params(args)
    diag = normality_diagnostic(flows, params)
    fit = fit_log_gravity(flows, distances)
    out = _outdir(args)
    _write_diagnostics(out, diag, fit)
    _log(f"diagnostics written to {out}")
    return 0


def cmd_simulate_attenuation(args: argparse.Namespace) -> int:
    if args.rho <= 0:
        _log(f"warning: rho = {args.rho:g} is outside the usual positive range")
    cfg = AttenuationSimConfig(
        m_reps=args.m_reps,
        b_draws=args.b_draws,
        n=args.n,
        rho=args.rho,
        epsilon=args.epsilon,
        s=args.s,
        sigma=args.sigma,
        seed=args.seed,
        mu_zero_ablation=args.mu_zero,
    )
    biases = run_attenuation_sim(cfg)
    out = _outdir(args)
    dataio.write_columns_csv(out / "biases.csv", ["median_posterior_bias"], [biases])
    counts, edges = np.histogram(biases, bins=40)
    dataio.write_columns_csv(
        out / "bias_histogram.csv",
        ["bin_left", "bin_right", "count"],
        [edges[:-1], edges[1:], counts],
    )
    dataio.write_json(
        out / "attenuation_summary.json",
        {
            "mean_bias": float(biases.mean()),
            "median_bias": float(np.median(biases)),
            "sd_bias": float(biases.std()),
            "m_reps": cfg.m_reps,
            "b_draws": cfg.b_draws,
            "mu_zero_ablation": cfg.mu_zero_ablation,
        },
    )
    _log(f"mean median-posterior-bias = {biases.mean():+.4f}")
    return 0


def cmd_report_ranks(args: argparse.Namespace) -> int:
    paths = [p for p in args.draws.split(",") if p]
    _refuse_repeats("--draws", paths)
    if not paths:
        raise DataError("--draws names no file")
    files: list[tuple[str, tuple[str, ...]]] = []
    arrays: list[np.ndarray] = []
    for path in paths:
        labs, arr = dataio.read_draws_csv(path)
        if arrays and arr.shape[0] != arrays[0].shape[0]:
            raise LengthMismatch(
                f"{path} has {arr.shape[0]} draws, expected {arrays[0].shape[0]}"
            )
        files.append((path, labs))
        arrays.append(arr)
    # A label that several files have is named "<path>:<label>" in each; the
    # draw set refuses a name that two columns end up with.
    owners = Counter(lab for _, labs in files for lab in set(labs))
    labels = [f"{path}:{lab}" if owners[lab] > 1 else lab for path, labs in files for lab in labs]
    draw_set = DrawSet(draws=np.hstack(arrays), labels=labels)
    if args.columns is not None:
        keep = [w.strip() for w in args.columns.split(",")]
        _refuse_repeats("--columns", keep)
        missing = [w for w in keep if w not in labels]
        if missing:
            raise DataError(f"unknown outcome columns {missing}")
        draw_set = DrawSet(draws=draw_set.draws[:, [labels.index(w) for w in keep]], labels=keep)

    pairs = rank_reversals(draw_set)
    dataio.write_json(_outdir(args) / "ranks.json", {"draws": draw_set.draws_used, "pairs": pairs})
    for higher, lower, reversal, ties, *_ in (pair.values() for pair in pairs):
        _log(f"P[{lower} > {higher}] = {reversal:.3f} (ties {ties:.3f})")
    return 0


# ---------------------------------------------------------------------------
# Parser


_YES_NO = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

# Parsed on its own first, to find the file; every command shares it.
_CONFIG = argparse.ArgumentParser(prog="flowuq", add_help=False)
_CONFIG.add_argument("--config", metavar="FILE", help="key = value file of options; flags win")


def _calibrate_options(p, add):
    add("--mirror", help="mirror panel CSV (two reports per dyad-period)")
    add("--flows", help="flows CSV (baseline regime)")
    add("--distances", required=True, help="distances CSV")
    add("--sigma2", type=float, help="common ME variance (baseline)")
    add("--p", type=float, help="true-zero probability (baseline; default 0)")
    add("--b-spurious", type=float, help="spurious-zero probability (baseline; default 0)")
    add("--shrink", action=argparse.BooleanOptionalAction,
        help="shrink per-dyad variances across reporters (mirror regime; default yes)")


def _estimate_options(p, add):
    add("--flows", required=True)
    add("--costs", required=True, help="cost-level CSV")
    add("--include-diagonal", action=argparse.BooleanOptionalAction, default=False)
    add("--variance", choices=["dyadic", "independent"], default="dyadic")


def _cost_change(p, add):
    change = p.add_mutually_exclusive_group(required=True)
    add("--cf-spec", group=change, help="proportional cost-change CSV")
    add("--uniform-increase", group=change, type=float)


def _counterfactual_options(p, add):
    add("--flows", required=True)
    add("--epsilon", type=float, required=True)
    _cost_change(p, add)


def _uq_options(p, add):
    add("--flows", required=True)
    add("--params", help="params.json from calibrate")
    add("--period", type=int, help="year of per-period params")
    elasticity = p.add_mutually_exclusive_group(required=True)
    add("--costs", group=elasticity, help="re-estimate the elasticity from this cost CSV")
    add("--theta", group=elasticity, type=float, help="external point estimate")
    add("--theta-se", type=float, help="standard error of --theta (default 0)")
    add("--include-diagonal", action=argparse.BooleanOptionalAction,
        help="fit own flows too when estimating from --costs (default no)")
    add("--model", choices=["armington"], default="armington")
    _cost_change(p, add)
    add("--b", type=int, default=1000)
    add("--alpha", type=float, default=0.05)
    add("--seed", type=int, default=0)
    add("--mode", choices=MODES, default="ee+me")
    add("--interval", choices=INTERVAL_KINDS, default="c1")
    add("--robust-c", type=float, help="with --interval robust (default 1)")
    add("--b-inner", type=int, help="with --interval c2 (default --b)")
    add("--max-failure-frac", type=float, default=0.05)
    add("--workers", type=int, default=1,
        help="processes that run the draws; outputs are byte-identical for any count "
             "(with more than one, set OPENBLAS_NUM_THREADS=1)")
    add("--smoother", choices=["none", "lowdim"], default="none",
        help="lowdim: evaluate the model on the gravity fit of each draw (estimand g(S(F)))")
    add("--distances", help="distances CSV, with --smoother lowdim")


def _diagnose_options(p, add):
    add("--flows", required=True)
    add("--distances", required=True)
    add("--params", required=True)
    add("--period", type=int, help="year of per-period params")


def _simulate_attenuation_options(p, add):
    add("--m-reps", type=int, default=2000)
    add("--b-draws", type=int, default=200)
    add("--n", type=int, default=50)
    add("--rho", type=float, default=0.5)
    add("--epsilon", type=float, default=5.0)
    add("--s", type=float, default=0.1)
    add("--sigma", type=float, default=0.1)
    add("--seed", type=int, default=0)
    add("--mu-zero", action=argparse.BooleanOptionalAction, default=False,
        help="ablation: shrink toward zero instead of the gravity fit")


def _report_ranks_options(p, add):
    add("--draws", required=True,
        help="draws CSV (comma-separate multiple files with aligned seeds; a label "
             "that several files have is named PATH:LABEL)")
    add("--columns", help="comma-separated outcome columns to compare")


# Each command: its handler, its help line and what adds its options after
# the shared --output-dir.
_COMMANDS = {
    "calibrate": (cmd_calibrate, "calibrate prior and ME parameters", _calibrate_options),
    "estimate": (
        cmd_estimate, "PPML elasticity with dyadic-robust variance", _estimate_options
    ),
    "counterfactual": (
        cmd_counterfactual, "solve the built-in model once", _counterfactual_options
    ),
    "uq": (cmd_uq, "bootstrap draws and uncertainty intervals", _uq_options),
    "diagnose": (cmd_diagnose, "model-adequacy diagnostics", _diagnose_options),
    "simulate-attenuation": (
        cmd_simulate_attenuation, "posterior-bias Monte Carlo", _simulate_attenuation_options
    ),
    "report-ranks": (
        cmd_report_ranks, "pairwise rank-reversal frequencies", _report_ranks_options
    ),
}


def build_parser(
    command: str | None = None,
) -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The ``flowuq`` parser, and each command's options by name: the keys a
    ``--config`` file may set.  With ``command`` only that command gets its
    parser, which is all that parsing its command line reads."""
    parser = argparse.ArgumentParser(
        prog="flowuq",
        description="Uncertainty quantification for counterfactuals from noisy dyadic flows",
    )
    # The command list of the usage line: argparse's own, from every command's
    # parser, or the same text when only one command has a parser.
    commands = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=commands)
    options: dict[str, dict[str, argparse.Action]] = {}
    for name, (handler, help, add_options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, parents=[_CONFIG], help=help)
        p.set_defaults(handler=handler)
        known = options[name] = {}

        def add(*flags, group=None, **kwargs):
            action = (group or p).add_argument(*flags, **kwargs)
            known[action.dest] = action

        add("--output-dir", default=".", help="output directory")
        add_options(p, add)
    return parser, options


def _config_tokens(path, command: str, options: dict[str, argparse.Action]) -> list[str]:
    """The command-line tokens of a flat ``key = value`` file ('#' starts a
    comment): ``--key=value``, or ``--key``/``--no-key`` for a yes/no
    option.  A key must name an option of ``command`` exactly."""
    with dataio._open(path) as handle:
        text = handle.read()
    tokens: list[str] = []
    unknown: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        action = options.get(key)
        if action is None:
            unknown.append(key)
        elif isinstance(action, argparse.BooleanOptionalAction):
            yes = _YES_NO.get(value.lower())
            if yes is None:
                raise DataError(f"config {key}: {value!r} is not a boolean")
            tokens.append(action.option_strings[0 if yes else 1])
        else:
            tokens.append(f"{action.option_strings[0]}={value}")
    if unknown:
        raise DataError(f"config {path}: {command} has no option " + ", ".join(unknown))
    return tokens


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a ``flowuq`` command line.  The ``--config`` file's tokens go
    right after the command name, so argparse checks them as it checks
    flags, and a flag given on the command line wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser, options = build_parser(command)
    if command is not None:
        path = _CONFIG.parse_known_args(argv[1:])[0].config
        if path is not None:
            argv[1:1] = _config_tokens(path, argv[0], options[argv[0]])
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)
        except SystemExit as exc:  # argparse has printed the help or the error
            return exc.code
        return args.handler(args)
    except TooManyFailures as exc:
        _log(f"error: {exc}")
        return 4
    except IdentificationError as exc:
        _log(f"identification error: {exc}")
        return 3
    except (DataError, OSError) as exc:
        _log(f"data error: {exc}")
        return 2
    except FlowUqError as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
