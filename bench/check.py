"""Correctness gate for the benchmark's command outputs.

Three kinds of check, all outside the timed region:

* Reference values recorded at the benchmark's defining commit
  (``reference.json``, written by ``record_reference.py``) for a range of
  seeds and one held-out seed, compared within ``REL_TOL``.  The tolerance
  passes solver changes of about 1e-8 and catches semantic changes.
* Independent re-computations that hold for every seed: a dense-design PPML
  with a pair-enumerated dyadic variance, an Armington equilibrium solved as
  a root problem, mirror-discrepancy ME variances and per-period gravity OLS.
  None of them calls the package's estimators or solver.
* Structure: the c1 endpoints are the right order statistics of the draws
  written to ``draws.csv``, and the draw counts add up.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize

REL_TOL = 1e-6
REFERENCE = Path(__file__).with_name("reference.json")


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-3)


def _compare(label: str, got, want, tol: float = REL_TOL) -> list[str]:
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, tol)]
    if bad:
        i = bad[0]
        return [f"{label}[{i}]: {float(got[i])!r} != {float(want[i])!r} ({len(bad)} entries off)"]
    return []


def reference_key(workload) -> str:
    return f"{workload.command}-n{workload.n}-s{workload.size}"


def load_reference(workload, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    doc = json.loads(REFERENCE.read_text())
    return doc.get(reference_key(workload), {}).get(str(seed))


# ---------------------------------------------------------------------------
# uq


def read_uq_outputs(out: Path) -> tuple[dict, np.ndarray]:
    doc = json.loads((out / "interval.json").read_text())
    with open(out / "draws.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    draws = np.array([[float(v) for v in row] for row in rows[1:]])
    return doc, draws


def uq_summary(out: Path, fit) -> dict:
    """What reference.json records for one uq command, plus the PPML fit of
    the observed matrix."""
    doc, _ = read_uq_outputs(out)
    outcomes = doc["outcomes"]
    return {
        "epsilon_hat": fit.epsilon_hat,
        "variance": fit.variance,
        "lo": [o["lo"] for o in outcomes],
        "hi": [o["hi"] for o in outcomes],
        "point": [o["point_estimate"] for o in outcomes],
        "draws_failed": outcomes[0]["draws_failed"],
    }


def check_uq(out: Path, b: int, alpha: float, observed, log_costs, tau, fit, ref) -> list[str]:
    """``fit`` is the package's PPML fit of the observed matrix, taken
    outside the timed region; ``ref`` the recorded reference or None."""
    errors: list[str] = []
    doc, draws = read_uq_outputs(out)
    outcomes = doc["outcomes"]
    used = draws.shape[0]
    failed = outcomes[0]["draws_failed"]
    if used + failed != b or any(o["draws_used"] != used for o in outcomes):
        errors.append(f"draw counts: {used} used + {failed} failed != B = {b}")
    if draws.shape[1] != len(outcomes) or not np.all(np.isfinite(draws)):
        errors.append("draws.csv does not hold one finite column per outcome")
        return errors

    lo_rank = round(alpha / 2 * b)
    hi_rank = min(b - lo_rank, used)
    ordered = np.sort(draws, axis=0)
    errors += _compare("c1 lo vs order statistic", [o["lo"] for o in outcomes],
                       ordered[min(lo_rank, used) - 1], tol=0.0)
    errors += _compare("c1 hi vs order statistic", [o["hi"] for o in outcomes],
                       ordered[hi_rank - 1], tol=0.0)

    eps, var = ppml_oracle(observed, log_costs)
    errors += _compare("epsilon_hat vs oracle", fit.epsilon_hat, eps)
    errors += _compare("dyadic variance vs oracle", fit.variance, var)
    welfare = armington_oracle(observed, tau, eps)
    errors += _compare("point estimate vs oracle",
                       [o["point_estimate"] for o in outcomes], welfare)

    if ref is not None:
        got = uq_summary(out, fit)
        for key in ("epsilon_hat", "variance", "lo", "hi", "point"):
            errors += _compare(f"{key} vs reference", got[key], ref[key])
        if got["draws_failed"] != ref["draws_failed"]:
            errors.append(f"draws_failed {got['draws_failed']} != reference {ref['draws_failed']}")
    return errors


def _twoway_design(o: np.ndarray, d: np.ndarray, n: int, regressor: np.ndarray) -> np.ndarray:
    """Dense design [regressor | origin dummies 1..n-1 | destination dummies
    0..n-1] for dyads (o, d)."""
    x = np.zeros((o.size, 2 * n))
    x[:, 0] = regressor
    rows = np.arange(o.size)
    x[rows[o > 0], o[o > 0]] = 1.0
    x[rows, n + d] = 1.0
    return x


def ppml_oracle(flows: np.ndarray, log_costs: np.ndarray) -> tuple[float, float]:
    """Elasticity and dyadic-robust variance by plain IRLS on a dense
    two-way fixed-effects design, with the variance enumerated over every
    ordered pair of off-diagonal dyads that share a location."""
    n = flows.shape[0]
    o, d = np.nonzero(~np.eye(n, dtype=bool))
    y = flows[o, d]
    x = _twoway_design(o, d, n, log_costs[o, d])
    mu = 0.5 * (y + y.mean())
    dev = math.inf
    for _ in range(200):
        w = np.sqrt(mu)
        z = np.log(mu) + (y - mu) / mu
        beta = np.linalg.lstsq(x * w[:, None], z * w, rcond=None)[0]
        mu = np.exp(x @ beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = 2.0 * np.sum(np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu))
        if abs(dev - new) < 1e-13 * max(1.0, abs(new)):
            break
        dev = new
    bread = np.linalg.inv(x.T @ (mu[:, None] * x))
    g = ((y - mu)[:, None] * x) @ bread[:, 0]
    share = (
        (o[:, None] == o[None, :]) | (o[:, None] == d[None, :])
        | (d[:, None] == o[None, :]) | (d[:, None] == d[None, :])
    )
    return float(-beta[0]), max(float(g @ share @ g), 0.0)


def armington_oracle(flows: np.ndarray, tau: np.ndarray, eps: float) -> np.ndarray:
    """Percentage welfare changes of the exact-hat Armington counterfactual,
    solving market clearing for log income changes as a root problem with
    world income held fixed and deficits fixed in level."""
    income = flows.sum(axis=1)
    spend = flows.sum(axis=0)
    lam = flows / spend[None, :]
    deficit = spend - income

    def cf_shares(x):
        num = (tau * np.exp(x)[:, None]) ** (-eps)
        return num / (lam * num).sum(axis=0)[None, :]

    def equations(x):
        supply = (cf_shares(x) * lam) @ (np.exp(x) * income + deficit)
        resid = np.log(supply) - np.log(np.exp(x) * income)
        resid[-1] = np.log(np.exp(x) @ income / income.sum())
        return resid

    sol = optimize.root(equations, np.zeros(flows.shape[0]), method="hybr", tol=1e-14)
    if not sol.success or np.max(np.abs(equations(sol.x))) > 1e-9:
        raise RuntimeError(f"Armington oracle did not converge: {sol.message}")
    return 100.0 * (np.diag(cf_shares(sol.x)) ** (-1.0 / eps) - 1.0)


# ---------------------------------------------------------------------------
# calibrate


def calibrate_summary(out: Path) -> dict:
    """Means of p, b, s2 and sigma2 over off-diagonal dyads of params.json,
    and the per-period distance coefficients."""
    params = json.loads((out / "params.json").read_text())
    summary = json.loads((out / "calibration_summary.json").read_text())
    dyads = [e for key, e in params["dyads"].items()
             if key.partition("->")[0] != key.partition("->")[2]]
    means = {f"{k}_mean": float(np.mean([e[k] for e in dyads]))
             for k in ("p", "b", "s2", "sigma2")}
    return {**means, "beta_by_period": summary["beta_by_period"]}


def check_calibrate(out: Path, panel, distances: np.ndarray, ref) -> list[str]:
    """``panel`` is the generated mirror panel the CSV was written from."""
    errors: list[str] = []
    got = calibrate_summary(out)
    r1, r2 = panel.report1, panel.report2
    n = r1.shape[1]
    off = ~np.eye(n, dtype=bool)

    both = (r1 > 0) & (r2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff2 = np.where(both, (np.log(r1) - np.log(r2)) ** 2, 0.0)
    count = both.sum(axis=0)
    sigma2 = np.where(count > 0, 0.5 * diff2.sum(axis=0) / np.maximum(count, 1), 0.0)
    errors += _compare("sigma2 mean vs oracle", got["sigma2_mean"], sigma2[off].mean())

    betas = []
    for k in range(r1.shape[0]):
        o, d = np.nonzero((r1[k] > 0) & off)
        x = _twoway_design(o, d, n, np.log(distances[o, d]))
        betas.append(np.linalg.lstsq(x, np.log(r1[k][o, d]), rcond=None)[0][0])
    errors += _compare("beta_by_period vs oracle", got["beta_by_period"], betas)
    for key in ("p_mean", "b_mean"):
        if not 0.0 <= got[key] <= 1.0:
            errors.append(f"{key} = {got[key]} is not a probability")
    if got["s2_mean"] < 0:
        errors.append(f"s2_mean = {got['s2_mean']} is negative")

    if ref is not None:
        for key, want in ref.items():
            errors += _compare(f"{key} vs reference", got[key], want)
    return errors
