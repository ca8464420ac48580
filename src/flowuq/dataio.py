"""File formats: dyadic CSVs in, results and parameter files out.

All dyadic inputs share the shape ``origin,destination,value``.  Missing
dyads default to 0 for flows, 1 for proportional cost changes and cost
levels; distances must be present for every ordered pair (the reverse
direction is used as a fallback).  Outputs are plain CSV/JSON with
deterministic ordering and shortest round-trip float formatting, so a rerun
with the same seed is byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Sequence

import numpy as np

from .calibration import CalibratedParams
from .core import CounterfactualSpec, DistanceMatrix, DrawSet, FlowMatrix
from .errors import DataError, ParseError
from .intervals import Interval


def _read_dyadic_csv(path, value_name: str):
    """Returns (labels, {(o, d): value}) from an origin,destination,value file."""
    expected = ["origin", "destination", value_name]
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    entries: dict[tuple[str, str], float] = {}
    labels: set[str] = set()
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise ParseError(f"expected header {','.join(expected)}", row=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", row=lineno)
            origin, dest = row[0].strip(), row[1].strip()
            try:
                value = float(row[2])
            except ValueError:
                raise ParseError(f"bad {value_name} {row[2]!r}", row=lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite {value_name}", row=lineno)
            key = (origin, dest)
            if key in entries:
                raise ParseError(f"duplicate dyad {origin}->{dest}", row=lineno)
            entries[key] = value
            labels.add(origin)
            labels.add(dest)
    if not entries:
        raise ParseError("no data rows", row=2)
    return sorted(labels), entries


def read_flows_csv(path) -> FlowMatrix:
    """Flows from ``origin,destination,flow``; absent dyads are zeros."""
    labels, entries = _read_dyadic_csv(path, "flow")
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    values = np.zeros((n, n))
    for (o, d), v in entries.items():
        values[idx[o], idx[d]] = v
    return FlowMatrix(values, tuple(labels))


def _fill_matrix(labels, entries, default, name):
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    values = np.full((n, n), default)
    for (o, d), v in entries.items():
        if o not in idx or d not in idx:
            raise DataError(f"{name} file mentions unknown location {o}->{d}")
        values[idx[o], idx[d]] = v
    return values


def read_distances_csv(path, labels: Sequence[str]) -> DistanceMatrix:
    """Distances over the given labels; a missing (i, j) falls back to the
    reported (j, i); the (unused) diagonal defaults to 1."""
    _, entries = _read_dyadic_csv(path, "distance")
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    values = np.full((n, n), np.nan)
    np.fill_diagonal(values, 1.0)
    for (o, d), v in entries.items():
        if o in idx and d in idx:
            values[idx[o], idx[d]] = v
    hole = np.isnan(values)
    values = np.where(hole & ~np.isnan(values.T), values.T, values)
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        o, d = missing[0]
        raise DataError(
            f"distance missing for {labels[o]}->{labels[d]} "
            f"(and {len(missing) - 1} more)"
        )
    return DistanceMatrix(values, tuple(labels))


def read_cf_spec_csv(path, labels: Sequence[str]) -> CounterfactualSpec:
    """Proportional cost changes; absent dyads are 1 (unchanged)."""
    _, entries = _read_dyadic_csv(path, "tau_prop")
    return CounterfactualSpec(_fill_matrix(labels, entries, 1.0, "cost-change"))


def read_costs_csv(path, labels: Sequence[str]) -> np.ndarray:
    """Cost levels (e.g. iceberg costs); absent dyads are 1.  Returns the
    log-cost matrix used by the elasticity fit."""
    _, entries = _read_dyadic_csv(path, "cost")
    values = _fill_matrix(labels, entries, 1.0, "cost")
    if np.any(values <= 0):
        raise DataError("cost levels must be strictly positive")
    return np.log(values)


def write_dyadic_csv(path, labels, values: np.ndarray, value_name: str):
    values = np.asarray(values)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["origin", "destination", value_name])
        for i, o in enumerate(labels):
            for j, d in enumerate(labels):
                writer.writerow([o, d, repr(float(values[i, j]))])


def write_mirror_csv(path, labels, periods, report1, report2):
    """Inverse of ingest: one row per off-diagonal dyad-period."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["origin", "destination", "year", "flow_report1", "flow_report2"]
        )
        for k, year in enumerate(periods):
            for i, o in enumerate(labels):
                for j, d in enumerate(labels):
                    if i == j:
                        continue
                    cells = []
                    for rep in (report1, report2):
                        v = rep[k, i, j]
                        cells.append("" if np.isnan(v) else repr(float(v)))
                    writer.writerow([o, d, year, cells[0], cells[1]])


# ---------------------------------------------------------------------------
# Calibrated parameters <-> JSON (keyed by dyad)


def _num(x) -> float | None:
    x = float(x)
    return None if math.isnan(x) else x


def params_to_json(params: CalibratedParams) -> dict:
    labels = params.labels
    n = params.n
    periods = list(params.periods) if params.periods is not None else None
    dyads = {}
    for i, o in enumerate(labels):
        for j, d in enumerate(labels):
            entry = {
                "p": _num(params.p[i, j]),
                "b": _num(params.b[i, j]),
                "s2": _num(params.s2[i, j]),
                "sigma2": _num(params.sigma2[i, j]),
            }
            if params.s2_shrunk is not None:
                entry["s2_shrunk"] = _num(params.s2_shrunk[i, j])
            if params.sigma2_shrunk is not None:
                entry["sigma2_shrunk"] = _num(params.sigma2_shrunk[i, j])
            if params.mu_defined is not None:
                entry["mu_defined"] = bool(params.mu_defined[i, j])
            if params.me_observed is not None:
                entry["me_observed"] = bool(params.me_observed[i, j])
            if params.has_periods:
                entry["mu"] = {
                    str(t): _num(params.mu[k, i, j]) for k, t in enumerate(periods)
                }
            else:
                entry["mu"] = _num(params.mu[i, j])
            dyads[f"{o}->{d}"] = entry
    return {"labels": list(labels), "periods": periods, "dyads": dyads}


def write_params_json(path, params: CalibratedParams):
    with open(path, "w") as handle:
        json.dump(params_to_json(params), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _nan(x) -> float:
    return math.nan if x is None else float(x)


def params_from_json(doc: dict) -> CalibratedParams:
    labels = tuple(doc["labels"])
    periods = doc.get("periods")
    n = len(labels)
    t = len(periods) if periods else 0
    shape2 = (n, n)
    p = np.zeros(shape2)
    b = np.zeros(shape2)
    s2 = np.zeros(shape2)
    sigma2 = np.zeros(shape2)
    mu = np.full((t, n, n) if periods else shape2, np.nan)
    any_s2s = any("s2_shrunk" in e for e in doc["dyads"].values())
    any_v2s = any("sigma2_shrunk" in e for e in doc["dyads"].values())
    s2_shrunk = np.zeros(shape2) if any_s2s else None
    sigma2_shrunk = np.zeros(shape2) if any_v2s else None
    mu_defined = np.zeros(shape2, dtype=bool)
    me_observed = np.zeros(shape2, dtype=bool)
    idx = {lab: i for i, lab in enumerate(labels)}
    for key, entry in doc["dyads"].items():
        o, _, d = key.partition("->")
        if o not in idx or d not in idx:
            raise DataError(f"unknown dyad key {key!r}")
        i, j = idx[o], idx[d]
        p[i, j] = _nan(entry["p"]) if entry["p"] is not None else 0.0
        b[i, j] = _nan(entry["b"]) if entry["b"] is not None else 0.0
        s2[i, j] = _nan(entry.get("s2", 0.0) or 0.0)
        sigma2[i, j] = _nan(entry.get("sigma2", 0.0) or 0.0)
        if s2_shrunk is not None:
            s2_shrunk[i, j] = _nan(entry.get("s2_shrunk", 0.0) or 0.0)
        if sigma2_shrunk is not None:
            sigma2_shrunk[i, j] = _nan(entry.get("sigma2_shrunk", 0.0) or 0.0)
        mu_defined[i, j] = bool(entry.get("mu_defined", entry["mu"] is not None))
        me_observed[i, j] = bool(entry.get("me_observed", False))
        if periods:
            for k, per in enumerate(periods):
                mu[k, i, j] = _nan(entry["mu"].get(str(per)))
        else:
            mu[i, j] = _nan(entry["mu"])
    return CalibratedParams(
        p=p,
        b=b,
        mu=mu,
        s2=s2,
        sigma2=sigma2,
        s2_shrunk=s2_shrunk,
        sigma2_shrunk=sigma2_shrunk,
        mu_defined=mu_defined,
        me_observed=me_observed,
        labels=labels,
        periods=tuple(periods) if periods else None,
    )


def read_params_json(path) -> CalibratedParams:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_json(doc)


# ---------------------------------------------------------------------------
# Draw sets and intervals


def write_draws_csv(path, draw_set: DrawSet):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(draw_set.labels))
        for row in draw_set.draws:
            writer.writerow([repr(float(v)) for v in row])


def read_draws_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header:
            raise ParseError("missing header", row=1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError("ragged row", row=lineno)
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ParseError("bad number", row=lineno) from None
    if not rows:
        raise ParseError("no draws", row=2)
    return tuple(h.strip() for h in header), np.asarray(rows)


def intervals_to_json(
    intervals: Sequence[Interval],
    labels: Sequence[str],
    point: np.ndarray | None = None,
    seed: int | None = None,
    mode: str | None = None,
) -> dict:
    out = {"seed": seed, "mode": mode, "outcomes": []}
    for q, interval in enumerate(intervals):
        entry = {
            "outcome": labels[q],
            "lo": interval.lo,
            "hi": interval.hi,
            "alpha": interval.alpha,
            "kind": interval.kind,
            "draws_used": interval.draws_used,
            "draws_failed": interval.draws_failed,
        }
        if point is not None:
            entry["point_estimate"] = float(point[q])
        out["outcomes"].append(entry)
    return out


def write_json(path, doc: dict):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
