"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they verify: the equilibrium oracle
uses a general nonlinear least-squares root finder instead of the package's
Newton iteration on the log market-clearing defects, the posterior oracle
does numerical Bayes on a grid instead of conjugate algebra, the variance
oracle enumerates dyad pairs instead of node sums, and the fixed-effects
regressions are rebuilt on a dense dummy design instead of the library's
concentrated projection, the interval oracle applies the documented ranks
and level formulas to one sorted column at a time instead of the library's
stacked sort, the params.json document is built as a dict for
``json.dumps`` instead of the library's streaming writer, and the dyadic
table is read row by row from one ``csv.reader`` over the whole file
instead of the library's chunked column parse.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import optimize
from scipy.sparse.csgraph import connected_components


def armington_oracle(flows: np.ndarray, tau_prop: np.ndarray, epsilon: float):
    """Solve the counterfactual system with a dense least-squares root find
    at tight tolerance; returns (y, lambda_cf, welfare).

    All n market-clearing equations (deficits fixed in level) plus one
    income normalization per trade bloc (a weakly connected component of
    the graph of positive flows, found by scipy's graph routines) are solved
    jointly; a connected world has one bloc, and its normalization holds
    world income fixed.  The residual must vanish to near machine precision
    or the oracle aborts.
    """
    f = np.asarray(flows, dtype=float)
    n = f.shape[0]
    income = f.sum(axis=1)
    expenditure = f.sum(axis=0)
    deficit = expenditure - income
    lam = f / expenditure[None, :]
    _, bloc = connected_components(f > 0, directed=True, connection="weak")
    members = bloc[None, :] == np.unique(bloc)[:, None]  # one row per bloc

    def shares_cf(y):
        # least_squares probes very large or negative y on the way; the power
        # overflows or is NaN there, and the residual check below judges the
        # root it returns.
        with np.errstate(over="ignore", invalid="ignore"):
            p = (tau_prop * y[:, None]) ** (-epsilon)
        return p / (lam * p).sum(axis=0)[None, :]

    def equations(y):
        lcf = shares_cf(y)
        r = y * income - (lcf * lam) @ (y * income + deficit)
        return np.append(r, members @ (y * income) - members @ income)

    sol = optimize.least_squares(
        equations, np.ones(n), xtol=1e-15, ftol=1e-15, gtol=1e-15
    )
    resid = equations(sol.x)
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, income.sum()), resid
    y = sol.x
    lcf = shares_cf(y)
    welfare = np.diag(lcf) ** (-1.0 / epsilon)
    return y, lcf, welfare


def posterior_grid_oracle(
    f_obs: float, mu: float, s2: float, sigma2: float, points: int = 10_000
):
    """Numerical Bayes update of a normal prior on log F with a normal
    likelihood for log F-tilde; returns grid posterior (mean, variance)."""
    log_f = np.log(f_obs)
    lo = min(mu - 8 * np.sqrt(s2), log_f - 8 * np.sqrt(sigma2))
    hi = max(mu + 8 * np.sqrt(s2), log_f + 8 * np.sqrt(sigma2))
    x = np.linspace(lo, hi, points)
    log_post = -0.5 * (x - mu) ** 2 / s2 - 0.5 * (log_f - x) ** 2 / sigma2
    w = np.exp(log_post - log_post.max())
    w /= w.sum()
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    return mean, var


def dyadic_meat_enumeration(scores: np.ndarray, oidx: np.ndarray, didx: np.ndarray):
    """Sum s_d s_e' over every ordered pair of dyads sharing >= 1 location."""
    m, k = scores.shape
    meat = np.zeros((k, k))
    for d in range(m):
        nodes_d = {int(oidx[d]), int(didx[d])}
        for e in range(m):
            if nodes_d & {int(oidx[e]), int(didx[e])}:
                meat += np.outer(scores[d], scores[e])
    return meat


def dyad_indices(n: int, include_diagonal: bool = False):
    """Row-major (origin, destination) index arrays for all dyads."""
    oidx, didx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    oidx, didx = oidx.ravel(), didx.ravel()
    if not include_diagonal:
        keep = oidx != didx
        oidx, didx = oidx[keep], didx[keep]
    return oidx, didx


def twoway_design(oidx, didx, n: int, extra=None) -> np.ndarray:
    """Dense design [extra | origin dummies 1..n-1 | destination dummies
    0..n-1] for dyads (oidx, didx); the first origin effect is dropped."""
    m = len(oidx)
    cols = 0 if extra is None else 1
    x = np.zeros((m, cols + 2 * n - 1))
    if extra is not None:
        x[:, 0] = extra
    for row, (o, d) in enumerate(zip(oidx, didx)):
        if o > 0:
            x[row, cols + o - 1] = 1.0
        x[row, cols + n - 1 + d] = 1.0
    return x


def ppml_scores_bread(y, mu, x):
    """Per-dyad PPML scores (y - mu) x and the inverse Hessian of the
    pseudo-likelihood, (x' diag(mu) x)^-1, on a dense design."""
    scores = (y - mu)[:, None] * x
    bread = np.linalg.inv(x.T @ (mu[:, None] * x))
    return scores, bread


def normal_equations_ols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS through the literal normal equations."""
    return np.linalg.solve(x.T @ x, x.T @ y)


def simulate_mirror_zeros(
    p: float, b: float, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-simulate one dyad's pair of zero/positive report indicators."""
    true_zero = rng.random(t) < p
    spur1 = rng.random(t) < b
    spur2 = rng.random(t) < b
    r1 = np.where(true_zero | spur1, 0.0, 1.0)
    r2 = np.where(true_zero | spur2, 0.0, 1.0)
    return r1, r2


def order_statistic_interval(draws, alpha: float, c: float = 1.0, b: int | None = None):
    """The documented interval of a one-dimensional draw set, read off
    ``np.sort``: with a = alpha/2 and u = 1 - alpha/2, the levels are
    L = a / (a + (1 - a) c^2) and U = u c^2 / (1 - u + u c^2), and the
    endpoints are the draws at ranks floor(L * B * (1 + 1e-12)) and
    ceil(U * B * (1 - 1e-12)), counted from 1 and clamped to the draws
    present, for the nominal draw count B (default: the draws given).
    Returns (lo, hi), or None when the lower rank is below 1."""
    x = np.sort(np.asarray(draws, dtype=float))
    b = x.size if b is None else b
    a, u, c2 = alpha / 2.0, 1.0 - alpha / 2.0, c * c
    lo = math.floor(a / (a + (1.0 - a) * c2) * b * (1 + 1e-12))
    hi = math.ceil(u * c2 / (1.0 - u + u * c2) * b * (1 - 1e-12))
    if lo < 1:
        return None
    return float(x[min(lo, x.size) - 1]), float(x[min(hi, x.size) - 1])


def params_json_doc(params) -> dict:
    """The params.json document of calibrated parameters as a plain dict:
    one entry per dyad keyed ``"origin->destination"``, NaN as None, optional
    matrices only when present, and ``mu`` keyed by period text when the
    means are per period."""

    def num(x):
        x = float(x)
        return None if np.isnan(x) else x

    dyads = {}
    for i, o in enumerate(params.labels):
        for j, d in enumerate(params.labels):
            entry = {name: num(getattr(params, name)[i, j]) for name in ("p", "b", "s2", "sigma2")}
            for name in ("s2_shrunk", "sigma2_shrunk"):
                if getattr(params, name) is not None:
                    entry[name] = num(getattr(params, name)[i, j])
            if params.has_periods:
                entry["mu"] = {str(t): num(params.mu[k, i, j]) for k, t in enumerate(params.periods)}
            else:
                entry["mu"] = num(params.mu[i, j])
            dyads[f"{o}->{d}"] = entry
    periods = None if params.periods is None else list(params.periods)
    return {"labels": list(params.labels), "periods": periods, "dyads": dyads}


def read_table_rows(path, header, what: str):
    """A dyadic CSV read the slow way, as ``flowuq.dataio._read_table`` reads
    it without ``refuse`` tests: one ``csv.reader`` over the whole file and
    every rule applied row by row.  Returns the sorted labels and periods and
    one ``(i, j, k, values)`` tuple per data row, or raises ParseError at the
    first row (a CSV record, the header being row 1) that breaks a rule.

    Rules, in the order they are tried on a row: a record whose cells are
    all blank is skipped; a record of the wrong width is an error; a cell
    that float() refuses is bad unless it is a blank value cell (missing,
    NaN); then a year must be a finite whole number and a value finite.  A
    key (origin, destination[, year]) seen on an earlier row is an error at
    its second row, reported only when no row breaks another rule.
    """
    from flowuq.errors import ParseError

    year = header[2] == "year"
    width = len(header)
    names = ["year"] * year + [what] * (width - 2 - year)
    with open(path, newline="", encoding="utf-8-sig") as handle:
        records = list(csv.reader(handle))
    if not records or [h.strip() for h in records[0]] != list(header):
        raise ParseError(f"expected header {','.join(header)}", row=1)
    rows = []
    for row, record in enumerate(records[1:], start=2):
        if not any(cell.strip() for cell in record):
            continue
        if len(record) != width:
            raise ParseError(f"expected {width} fields, got {len(record)}", row=row)
        numbers = []
        for name, cell in zip(names, record[2:]):
            if not cell.strip() and name != "year":
                numbers.append(None)
                continue
            try:
                numbers.append(float(cell))
            except ValueError:
                raise ParseError(f"bad {name} {cell.strip()!r}", row=row) from None
        for name, x in zip(names, numbers):
            if x is None:
                continue
            if name == "year" and not (np.isfinite(x) and x == int(x)):
                raise ParseError(f"bad year {str(x)!r}", row=row)
            if name != "year" and not np.isfinite(x):
                raise ParseError(f"non-finite {name} {str(x)!r}", row=row)
        numbers = [np.nan if x is None else x for x in numbers]
        rows.append((row, record[0].strip(), record[1].strip(), numbers))
    if not rows:
        raise ParseError("no data rows", row=2)
    seen = set()
    for row, o, d, numbers in rows:
        key = (o, d, int(numbers[0])) if year else (o, d)
        if key in seen:
            kind = "dyad-period" if year else "dyad"
            raise ParseError(f"duplicate {kind} {key}", row=row)
        seen.add(key)
    labels = sorted({o for _, o, _, _ in rows} | {d for _, _, d, _ in rows})
    periods = sorted({int(numbers[0]) for *_, numbers in rows}) if year else [0]
    out = [
        (
            labels.index(o),
            labels.index(d),
            periods.index(int(numbers[0])) if year else 0,
            numbers[year:],
        )
        for _, o, d, numbers in rows
    ]
    return labels, periods, out
