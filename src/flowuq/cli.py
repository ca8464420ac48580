"""Batch command-line front end.

Commands mirror the three toolkit programs: ``calibrate`` produces parameter
files and adequacy diagnostics, ``uq`` produces posterior outcome draws and
intervals, and ``estimate``/``counterfactual``/``diagnose``/
``simulate-attenuation``/``report-ranks`` cover the supporting pieces.

Every option can also come from a flat ``key = value`` config file
(``--config``); command-line values win over file values, file values over
defaults.  A file key that is not an option of the command is a data
error, as an unknown flag is.  All randomness flows from the single
``seed`` option, and outputs are byte-identical across reruns and worker
counts.

Exit codes: 0 success, 2 data errors, 3 identification errors, 4 too many
failed draws.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .armington import ArmingtonModel, solve_counterfactual, welfare_change_pct
from .calibration import calibrate_baseline, calibrate_mirror, ingest_mirror_csv
from .core import CounterfactualSpec, EstimatorResult, FlowMatrix
from .engine import LowDimSmoother, SvdSmoother, UqConfig, point_estimate, run_algorithm1
from .errors import (
    DataError,
    FlowUqError,
    IdentificationError,
    LengthMismatch,
    TooManyFailures,
)
from .gravity import PpmlEstimator, fit_log_gravity, fit_ppml, independent_variance
from .robustness import (
    AttenuationSimConfig,
    gravity_partial_plot,
    normality_diagnostic,
    run_attenuation_sim,
)


def _log(msg: str):
    print(msg, file=sys.stderr)


def load_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot open config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class Settings:
    """CLI > config file > default resolution."""

    _BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

    def __init__(self, args: argparse.Namespace, fileconf: dict[str, str]):
        self.args = vars(args)
        self.fileconf = fileconf

    def get(self, key, default=None, cast=str, required=False):
        value = self.args.get(key)
        if value is None and key in self.fileconf:
            raw = self.fileconf[key]
            if cast is bool:
                try:
                    value = self._BOOLS[raw.lower()]
                except KeyError:
                    raise DataError(f"config {key}: {raw!r} is not a boolean") from None
            else:
                try:
                    value = cast(raw)
                except ValueError:
                    raise DataError(f"config {key}: cannot parse {raw!r}") from None
        if value is None:
            if required:
                raise DataError(f"missing required option --{key.replace('_', '-')}")
            return default
        return value


def _outdir(settings: Settings) -> Path:
    out = Path(settings.get("output_dir", default="."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_diagnostics(out: Path, diag, plot):
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
    dataio.write_columns_csv(out / "gravity_partial.csv", ["x", "y"], [plot.x, plot.y])
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


def cmd_calibrate(settings: Settings) -> int:
    out = _outdir(settings)
    mirror = settings.get("mirror")
    distances_path = settings.get("distances", required=True)
    if mirror is not None:
        panel = ingest_mirror_csv(mirror)
        distances = dataio.read_distances_csv(distances_path, panel.labels)
        if panel.na_copied or panel.na_zeroed:
            _log(
                f"missing-data rule: copied {panel.na_copied} entries from the "
                f"mirror side, zeroed {panel.na_zeroed}"
            )
        shrink = settings.get("shrink", default=True, cast=bool)
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
        dataio.write_params_json(out / "params.json", params)

        diag = normality_diagnostic(
            [FlowMatrix(r, panel.labels) for r in panel.report1], params
        )
        last = panel.periods[-1]
        plot = gravity_partial_plot(means.last_fit)
        _write_diagnostics(out, diag, plot)
        dataio.write_json(
            out / "calibration_summary.json",
            {
                "regime": "mirror",
                "periods": list(panel.periods),
                "beta_by_period": [float(x) for x in means.beta],
                "adj_r2_by_period": [_j(x) for x in means.adj_r2],
                "adj_r2_last_period": _j(means.adj_r2[-1]),
                "last_period": last,
                "na_copied": panel.na_copied,
                "na_zeroed": panel.na_zeroed,
                "s2_shrunk_zero_dyads": s2_zero,
                "shrunk_variances": bool(shrink),
            },
        )
    else:
        flows_path = settings.get("flows", required=True)
        flows = dataio.read_flows_csv(flows_path)
        distances = dataio.read_distances_csv(distances_path, flows.labels)
        sigma2 = settings.get("sigma2", cast=float, required=True)
        p = settings.get("p", default=0.0, cast=float)
        b = settings.get("b_spurious", default=0.0, cast=float)
        params, fit = calibrate_baseline(flows, distances, sigma2, p, b)
        dataio.write_params_json(out / "params.json", params)
        diag = normality_diagnostic(flows, params)
        plot = gravity_partial_plot(fit)
        _write_diagnostics(out, diag, plot)
        dataio.write_json(
            out / "calibration_summary.json",
            {
                "regime": "baseline",
                "beta": fit.beta_hat,
                "adj_r2": _j(fit.adj_r2),
                "residual_variance": fit.residual_variance,
                "sigma2": sigma2,
                "s2": float(np.max(params.s2)),
            },
        )
    _log(f"calibration written to {out}")
    return 0


# ---------------------------------------------------------------------------
# estimate / counterfactual


def cmd_estimate(settings: Settings) -> int:
    out = _outdir(settings)
    flows = dataio.read_flows_csv(settings.get("flows", required=True))
    log_costs = dataio.read_costs_csv(settings.get("costs", required=True), flows.labels)
    include_diag = settings.get("include_diagonal", default=False, cast=bool)
    variance_mode = settings.get("variance", default="dyadic")
    if variance_mode not in ("dyadic", "independent"):
        raise DataError(f"unknown variance mode {variance_mode!r}")
    fit = fit_ppml(flows, log_costs, include_diagonal=include_diag)
    if variance_mode == "dyadic":
        variance, projected = fit.variance, fit.variance_psd_projected
    else:  # a sum of squares, never projected
        variance, projected = independent_variance(fit), False
    dataio.write_json(
        out / "ppml.json",
        {
            "epsilon_hat": fit.epsilon_hat,
            "variance": variance,
            "variance_mode": variance_mode,
            "variance_psd_projected": projected,
            "deviance": fit.deviance,
            "iterations": fit.iterations,
            "fe_origin": {l: float(v) for l, v in zip(flows.labels, fit.fe_origin)},
            "fe_dest": {l: float(v) for l, v in zip(flows.labels, fit.fe_dest)},
        },
    )
    _log(f"epsilon_hat = {fit.epsilon_hat:.6g} (se {np.sqrt(variance):.3g})")
    return 0


def _cf_spec(settings: Settings, n: int, labels) -> CounterfactualSpec:
    path = settings.get("cf_spec")
    if path is not None:
        return dataio.read_cf_spec_csv(path, labels)
    pct = settings.get("uniform_increase", cast=float)
    if pct is None:
        raise DataError("supply --cf-spec or --uniform-increase")
    return CounterfactualSpec.uniform_increase(n, pct)


def cmd_counterfactual(settings: Settings) -> int:
    out = _outdir(settings)
    flows = dataio.read_flows_csv(settings.get("flows", required=True))
    epsilon = settings.get("epsilon", cast=float, required=True)
    cf = _cf_spec(settings, flows.n, flows.labels)
    result = solve_counterfactual(flows, cf, epsilon)
    pct = welfare_change_pct(result)
    dataio.write_json(
        out / "welfare.json",
        {
            "epsilon": epsilon,
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


def cmd_uq(settings: Settings) -> int:
    out = _outdir(settings)
    flows = dataio.read_flows_csv(settings.get("flows", required=True))
    params = None
    mode = settings.get("mode", default="ee+me")
    if mode != "only-ee":
        params = dataio.read_params_json(settings.get("params", required=True))
        if params.has_periods:
            period = settings.get("period", cast=int, required=True)
            params = params.for_period(period)
        if tuple(params.labels) != tuple(flows.labels):
            raise DataError("params and flows cover different locations")

    costs_path = settings.get("costs")
    if costs_path is not None:
        log_costs = dataio.read_costs_csv(costs_path, flows.labels)
        include_diag = settings.get("include_diagonal", default=False, cast=bool)
        fit = fit_ppml(flows, log_costs, include_diagonal=include_diag)
        observed = fit.to_estimator_result()
        estimator = PpmlEstimator(log_costs, fit, include_diag)
    else:
        theta = settings.get("theta", cast=float)
        if theta is None:
            raise DataError("supply --costs for re-estimation or an external --theta")
        se = settings.get("theta_se", default=0.0, cast=float)
        observed = estimator = EstimatorResult(
            theta_hat=np.array([theta]), sigma_hat=np.array([[se**2]])
        )

    model_name = settings.get("model", default="armington")
    if model_name != "armington":
        raise DataError(f"unknown model {model_name!r}; built-in: armington")
    model = ArmingtonModel()
    cf = _cf_spec(settings, flows.n, flows.labels)

    cfg = UqConfig(
        b=settings.get("b", default=1000, cast=int),
        alpha=settings.get("alpha", default=0.05, cast=float),
        seed=settings.get("seed", default=0, cast=int),
        mode=mode,
        interval_kind=settings.get("interval", default="c1"),
        robust_c=settings.get("robust_c", default=1.0, cast=float),
        b_inner=settings.get("b_inner", cast=int),
        max_failure_fraction=settings.get(
            "max_failure_frac", default=0.05, cast=float
        ),
        workers=settings.get("workers", default=1, cast=int),
    )

    smoother_name = settings.get("smoother", default="none")
    smoother = None
    if smoother_name == "svd":
        smoother = SvdSmoother(settings.get("svd_rank", cast=int, required=True))
    elif smoother_name == "lowdim":
        distances = dataio.read_distances_csv(
            settings.get("distances", required=True), flows.labels
        )
        smoother = LowDimSmoother(distances)
    elif smoother_name != "none":
        raise DataError(f"unknown smoother {smoother_name!r}")
    if mode != "ee+me":
        # The loop estimates only the observed matrix, whose fit is at hand.
        estimator = observed

    draw_set, intervals = run_algorithm1(
        flows, params, estimator, model, cf, cfg, smoother=smoother
    )
    point = point_estimate(flows, observed, model, cf)

    dataio.write_draws_csv(out / "draws.csv", draw_set)
    dataio.write_json(
        out / "interval.json",
        dataio.intervals_to_json(
            intervals, draw_set.labels, point=point, seed=cfg.seed, mode=cfg.mode
        ),
    )
    _log(
        f"{draw_set.draws_used}/{cfg.b} draws used "
        f"({draw_set.draws_failed} failed); outputs in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose / simulate-attenuation / report-ranks


def cmd_diagnose(settings: Settings) -> int:
    out = _outdir(settings)
    flows = dataio.read_flows_csv(settings.get("flows", required=True))
    distances = dataio.read_distances_csv(
        settings.get("distances", required=True), flows.labels
    )
    params = dataio.read_params_json(settings.get("params", required=True))
    if params.has_periods:
        period = settings.get("period", cast=int, required=True)
        params = params.for_period(period)
    diag = normality_diagnostic(flows, params)
    plot = gravity_partial_plot(fit_log_gravity(flows, distances))
    _write_diagnostics(out, diag, plot)
    _log(f"diagnostics written to {out}")
    return 0


def cmd_simulate_attenuation(settings: Settings) -> int:
    out = _outdir(settings)
    rho = settings.get("rho", default=0.5, cast=float)
    if rho <= 0:
        _log(f"warning: rho = {rho:g} is outside the usual positive range")
    cfg = AttenuationSimConfig(
        m_reps=settings.get("m_reps", default=2000, cast=int),
        b_draws=settings.get("b_draws", default=200, cast=int),
        n=settings.get("n", default=50, cast=int),
        rho=rho,
        epsilon=settings.get("epsilon", default=5.0, cast=float),
        s=settings.get("s", default=0.1, cast=float),
        sigma=settings.get("sigma", default=0.1, cast=float),
        seed=settings.get("seed", default=0, cast=int),
        mu_zero_ablation=settings.get("mu_zero", default=False, cast=bool),
    )
    biases = run_attenuation_sim(cfg)
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


def cmd_report_ranks(settings: Settings) -> int:
    out = _outdir(settings)
    paths = settings.get("draws", required=True)
    if isinstance(paths, str):
        paths = [p for p in paths.split(",") if p]
    labels: list[str] = []
    columns: list[np.ndarray] = []
    length = None
    for path in paths:
        labs, arr = dataio.read_draws_csv(path)
        if length is None:
            length = arr.shape[0]
        elif arr.shape[0] != length:
            raise LengthMismatch(
                f"{path} has {arr.shape[0]} draws, expected {length}"
            )
        labels.extend(labs)
        columns.extend(arr.T)
    wanted = settings.get("columns")
    if wanted is not None:
        keep = [w.strip() for w in wanted.split(",")]
        missing = [w for w in keep if w not in labels]
        if missing:
            raise DataError(f"unknown outcome columns {missing}")
        order = [labels.index(w) for w in keep]
        labels = keep
        columns = [columns[i] for i in order]
    if len(columns) < 2:
        raise DataError("need at least two outcome columns to compare ranks")

    pairs = []
    for a in range(len(columns)):
        for b in range(a + 1, len(columns)):
            xa, xb = columns[a], columns[b]
            # Order by draw mean; a reversal is a strict flip of that order.
            if xa.mean() >= xb.mean():
                hi, lo, hi_lab, lo_lab = xa, xb, labels[a], labels[b]
            else:
                hi, lo, hi_lab, lo_lab = xb, xa, labels[b], labels[a]
            ties = float(np.mean(hi == lo))
            reversal = float(np.mean(hi < lo))
            pairs.append(
                {
                    "higher": hi_lab,
                    "lower": lo_lab,
                    "reversal_frequency": reversal,
                    "tie_frequency": ties,
                    "mean_higher": float(hi.mean()),
                    "mean_lower": float(lo.mean()),
                }
            )
    dataio.write_json(out / "ranks.json", {"draws": int(length), "pairs": pairs})
    for pair in pairs:
        _log(
            f"P[{pair['lower']} > {pair['higher']}] = "
            f"{pair['reversal_frequency']:.3f} (ties {pair['tie_frequency']:.3f})"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowuq",
        description="Uncertainty quantification for counterfactuals from noisy dyadic flows",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--output-dir", dest="output_dir", help="output directory")
        p.add_argument("--seed", type=int, dest="seed")

    p = sub.add_parser("calibrate", help="calibrate prior and ME parameters")
    common(p)
    p.add_argument("--mirror", help="mirror panel CSV (two reports per dyad-period)")
    p.add_argument("--flows", help="flows CSV (baseline regime)")
    p.add_argument("--distances", help="distances CSV")
    p.add_argument("--sigma2", type=float, help="common ME variance (baseline)")
    p.add_argument("--p", type=float, dest="p", help="true-zero probability (baseline)")
    p.add_argument(
        "--b-spurious", type=float, dest="b_spurious", help="spurious-zero probability"
    )
    p.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="shrink per-dyad variances across reporters (mirror regime)",
    )
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("estimate", help="PPML elasticity with dyadic-robust variance")
    common(p)
    p.add_argument("--flows")
    p.add_argument("--costs", help="cost-level CSV")
    p.add_argument(
        "--include-diagonal",
        dest="include_diagonal",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("--variance", choices=["dyadic", "independent"])
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("counterfactual", help="solve the built-in model once")
    common(p)
    p.add_argument("--flows")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--cf-spec", dest="cf_spec", help="proportional cost-change CSV")
    p.add_argument("--uniform-increase", dest="uniform_increase", type=float)
    p.set_defaults(handler=cmd_counterfactual)

    p = sub.add_parser("uq", help="bootstrap draws and uncertainty intervals")
    common(p)
    p.add_argument("--flows")
    p.add_argument("--params", help="params.json from calibrate")
    p.add_argument("--period", type=int)
    p.add_argument("--costs", help="re-estimate the elasticity from this cost CSV")
    p.add_argument(
        "--include-diagonal",
        dest="include_diagonal",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("--theta", type=float, help="external point estimate")
    p.add_argument("--theta-se", dest="theta_se", type=float)
    p.add_argument("--model", choices=["armington"])
    p.add_argument("--cf-spec", dest="cf_spec")
    p.add_argument("--uniform-increase", dest="uniform_increase", type=float)
    p.add_argument("--b", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=["only-ee", "only-me", "ee+me"])
    p.add_argument("--interval", choices=["c1", "c2", "robust"])
    p.add_argument("--robust-c", dest="robust_c", type=float)
    p.add_argument("--b-inner", dest="b_inner", type=int)
    p.add_argument("--max-failure-frac", dest="max_failure_frac", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--smoother", choices=["none", "lowdim", "svd"])
    p.add_argument("--svd-rank", dest="svd_rank", type=int)
    p.add_argument("--distances")
    p.set_defaults(handler=cmd_uq)

    p = sub.add_parser("diagnose", help="model-adequacy diagnostics")
    common(p)
    p.add_argument("--flows")
    p.add_argument("--distances")
    p.add_argument("--params")
    p.add_argument("--period", type=int)
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("simulate-attenuation", help="posterior-bias Monte Carlo")
    common(p)
    p.add_argument("--m-reps", dest="m_reps", type=int)
    p.add_argument("--b-draws", dest="b_draws", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument(
        "--mu-zero",
        dest="mu_zero",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="ablation: shrink toward zero instead of the gravity fit",
    )
    p.set_defaults(handler=cmd_simulate_attenuation)

    p = sub.add_parser("report-ranks", help="pairwise rank-reversal frequencies")
    common(p)
    p.add_argument(
        "--draws",
        help="draws CSV (comma-separate multiple files with aligned seeds)",
    )
    p.add_argument("--columns", help="comma-separated outcome columns to compare")
    p.set_defaults(handler=cmd_report_ranks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        fileconf = load_config_file(args.config) if args.config else {}
        known = set(vars(args)) - {"command", "handler", "config"}
        unknown = [key for key in fileconf if key not in known]
        if unknown:
            raise DataError(
                f"config {args.config}: {args.command} has no option "
                + ", ".join(unknown)
            )
        settings = Settings(args, fileconf)
        return args.handler(settings)
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
