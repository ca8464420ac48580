"""File formats: dyadic CSVs in, results and parameter files out.

All dyadic inputs share the shape ``origin,destination,value``.  Missing
dyads default to 0 for flows, 1 for proportional cost changes and cost
levels; distances must be present for every ordered pair (the reverse
direction is used as a fallback).  Outputs are plain CSV/JSON with
deterministic ordering, and every CSV and JSON writer prints floats as their
shortest round-trip text (``float.__repr__``), so a rerun with the same seed
is byte-identical and every number parses back to the same float.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .calibration import _MIRROR_HEADER, CalibratedParams
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


def _fill_matrix(labels, entries, default, name):
    idx = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    values = np.full((n, n), default)
    for (o, d), v in entries.items():
        if o not in idx or d not in idx:
            raise DataError(f"{name} file mentions unknown location {o}->{d}")
        values[idx[o], idx[d]] = v
    return values


def read_flows_csv(path) -> FlowMatrix:
    """Flows from ``origin,destination,flow``; absent dyads are zeros."""
    labels, entries = _read_dyadic_csv(path, "flow")
    return FlowMatrix(_fill_matrix(labels, entries, 0.0, "flow"), tuple(labels))


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


def _csv_fields(*fields) -> str:
    """Fields as one line of ``csv.writer`` output, without its "\\r\\n"."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()[:-2]


def write_mirror_csv(path, labels, periods, report1, report2):
    """Inverse of ingest: one row per off-diagonal dyad-period; a NaN report
    is an empty cell.  The bytes are those of ``csv.writer``; each dyad's
    label pair and each year is quoted once and reused on every row."""

    def cells(matrix):
        return [["" if v != v else repr(v) for v in row] for row in matrix.tolist()]

    n = len(labels)
    dyads = [
        (i, j, _csv_fields(labels[i], labels[j])) for i in range(n) for j in range(n) if i != j
    ]
    reports = zip(np.asarray(report1, dtype=float), np.asarray(report2, dtype=float))
    with open(path, "w", newline="") as handle:
        handle.write(_csv_fields(*_MIRROR_HEADER) + "\r\n")
        for year, (matrix1, matrix2) in zip(periods, reports):
            year = _csv_fields(year)
            rows1, rows2 = cells(matrix1), cells(matrix2)
            handle.write(
                "".join(
                    f"{pair},{year},{rows1[i][j]},{rows2[i][j]}\r\n" for i, j, pair in dyads
                )
            )


def write_columns_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]):
    """A CSV of equal-length numeric columns under a header line: floats as
    their shortest round-trip text, integer columns as integers."""
    rows = map(",".join, zip(*(map(repr, np.asarray(c).tolist()) for c in columns)))
    with open(path, "w", newline="") as handle:
        handle.write("".join(f"{row}\n" for row in (",".join(header), *rows)))


# ---------------------------------------------------------------------------
# Calibrated parameters <-> JSON (keyed by dyad)

_JSON_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: np.ndarray) -> list[str]:
    """Each float as ``json.dumps`` writes it once NaN is mapped to None:
    ``float.__repr__``, ``null`` for NaN, ``Infinity`` for inf."""
    out = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        out[k] = _JSON_NONFINITE[out[k]]
    return out


def _json_list(items: list[str]) -> str:
    """A list of JSON values at the second level of an indent-2 document."""
    return "[" + ",".join(f"\n    {x}" for x in items) + "\n  ]" if items else "[]"


def write_params_json(path, params: CalibratedParams):
    """Write the parameters keyed by dyad ``"origin->destination"``.

    The bytes equal ``json.dump(doc, handle, indent=2, sort_keys=True)`` and a
    newline, for the document that maps NaN to None.  The writer streams one
    dyad block at a time: the indenting encoder is pure Python and several
    times slower.
    """
    n = params.n
    keys = [f"{o}->{d}" for o in params.labels for d in params.labels]
    columns = {
        name: _json_numbers(np.ravel(arr))
        for name, arr in (
            ("p", params.p),
            ("b", params.b),
            ("s2", params.s2),
            ("sigma2", params.sigma2),
            ("s2_shrunk", params.s2_shrunk),
            ("sigma2_shrunk", params.sigma2_shrunk),
        )
        if arr is not None
    }
    for name, arr in (("mu_defined", params.mu_defined), ("me_observed", params.me_observed)):
        if arr is not None:
            columns[name] = ["true" if v else "false" for v in np.ravel(arr).tolist()]
    if params.has_periods:
        periods = params.periods
        by_text = sorted(range(len(periods)), key=lambda k: str(periods[k]))
        mu = params.mu.reshape(len(periods), n * n)[by_text].T
        heads = [f'\n        "{periods[k]}": ' for k in by_text]

        def mu_text(k: int) -> str:
            numbers = map(str.__add__, heads, _json_numbers(mu[k]))
            return "{" + ",".join(numbers) + "\n      }" if heads else "{}"
    else:
        mu_numbers = _json_numbers(params.mu.ravel())
        mu_text = mu_numbers.__getitem__
    names = sorted([*columns, "mu"])
    periods_text = (
        "null" if params.periods is None else _json_list([repr(t) for t in params.periods])
    )

    with open(path, "w") as handle:
        handle.write('{\n  "dyads": {')
        for pos, k in enumerate(sorted(range(n * n), key=keys.__getitem__)):
            fields = ",".join(
                f'\n      "{name}": {mu_text(k) if name == "mu" else columns[name][k]}'
                for name in names
            )
            head = "," if pos else ""
            handle.write(f"{head}\n    {encode_basestring_ascii(keys[k])}: {{{fields}\n    }}")
        handle.write("\n  }," if n else "},")
        labels_text = _json_list([encode_basestring_ascii(lab) for lab in params.labels])
        handle.write(f'\n  "labels": {labels_text},\n  "periods": {periods_text}\n}}\n')


def _nan(x) -> float:
    return math.nan if x is None else float(x)


_SHRUNK = ("s2_shrunk", "sigma2_shrunk")


def params_from_json(doc: dict) -> CalibratedParams:
    """Parameters from a ``write_params_json`` document.  Every dyad must
    carry p, b, s2, sigma2 and mu, and either both shrunk variances or
    neither, as every other dyad does; only mu may be null."""
    labels = tuple(doc["labels"])
    periods = doc.get("periods")
    n = len(labels)
    t = len(periods) if periods else 0
    first = next(iter(doc["dyads"].values()), {})
    shrunk = any(name in first for name in _SHRUNK)
    names = ("p", "b", "s2", "sigma2") + (_SHRUNK if shrunk else ())
    values = {name: np.zeros((n, n)) for name in names}
    mu = np.full((t, n, n) if periods else (n, n), np.nan)
    mu_defined = np.zeros((n, n), dtype=bool)
    me_observed = np.zeros((n, n), dtype=bool)
    idx = {lab: i for i, lab in enumerate(labels)}
    for key, entry in doc["dyads"].items():
        o, _, d = key.partition("->")
        if o not in idx or d not in idx:
            raise DataError(f"unknown dyad key {key!r}")
        i, j = idx[o], idx[d]
        for name in names:
            if entry.get(name) is None:
                raise DataError(f"params dyad {key!r}: {name} is missing or null")
            values[name][i, j] = float(entry[name])
        if not shrunk and any(name in entry for name in _SHRUNK):
            raise DataError(f"params dyad {key!r}: shrunk variances on some dyads only")
        if "mu" not in entry:
            raise DataError(f"params dyad {key!r}: mu is missing")
        mu_defined[i, j] = bool(entry.get("mu_defined", entry["mu"] is not None))
        me_observed[i, j] = bool(entry.get("me_observed", False))
        if periods:
            for k, per in enumerate(periods):
                mu[k, i, j] = _nan((entry["mu"] or {}).get(str(per)))
        else:
            mu[i, j] = _nan(entry["mu"])
    return CalibratedParams(
        mu=mu,
        mu_defined=mu_defined,
        me_observed=me_observed,
        labels=labels,
        periods=tuple(periods) if periods else None,
        **values,
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
