"""File formats: dyadic CSVs in, results and parameter files out.

Every dyadic input is a CSV with a header row: ``origin,destination,VALUE``
for flows, distances, cost levels and cost changes, and
``origin,destination,year,flow_report1,flow_report2`` for a mirror panel.
One reader parses them all: it skips blank rows, strips labels, reads a
blank value cell as missing, and raises ParseError with the row number of a
malformed row, a non-finite value or a repeated dyad.  An absent or blank
dyad is 0 for flows, 1 for cost levels and cost changes, the reverse dyad
for distances, and missing for a mirror report.  Inputs are UTF-8, with or
without a byte-order mark.  Outputs are UTF-8 CSV/JSON in a fixed order,
with floats as their shortest round-trip text (``float.__repr__``), so a
rerun with the same seed is byte-identical and every number reads back.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .core import CalibratedParams, CounterfactualSpec, DistanceMatrix, DrawSet, FlowMatrix
from .errors import DataError, ParseError
from .intervals import Interval

_MIRROR_HEADER = ("origin", "destination", "year", "flow_report1", "flow_report2")


def _open(path):
    """A text input: UTF-8, a byte-order mark skipped."""
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _read_table(path, header: Sequence[str], what: str, refuse=()):
    """Parse an ``origin,destination[,year],VALUE...`` CSV under ``header``:
    the sorted labels and periods ([0] without a year column), each row's
    origin, destination and period as positions in them, and its value
    cells, NaN where blank.  ParseError names the first row with the wrong
    field count, a year that is not a whole number, a bad or non-finite
    ``what``, or that a ``refuse`` pair ``(message, test(i, j, values) ->
    row mask)`` flags; then a key listed twice, at its second row.
    """
    year = header[2] == "year"
    width, nv = len(header), len(header) - 2
    names = ("year",) * year + (what,) * (nv - year)
    # One pass into compact columns: label indices in order of first
    # appearance, the year and value cells, and each row's number.  A row
    # parses its cells in one call; only a row with a blank or bad cell goes
    # cell by cell, and the cells are checked as whole columns afterwards.
    label_idx: dict[str, int] = {}
    origin, dest, lines, vals = array("q"), array("q"), array("q"), array("d")
    blank: list[int] = []  # positions in vals of blank value cells

    def table():
        """The rows read so far; ParseError at the first row with a bad year,
        a non-finite value or that a ``refuse`` test flags."""
        labels = sorted({lab.strip() for lab in label_idx})
        position = {lab: p for p, lab in enumerate(labels)}
        rank = np.array([position[lab.strip()] for lab in label_idx], dtype=np.intp)
        i, j = (rank[np.frombuffer(column, dtype=np.int64)] for column in (origin, dest))
        cells = np.frombuffer(vals)[: len(lines) * nv].reshape(-1, nv)
        bad = ~np.isfinite(cells)
        bad.flat[[b for b in blank if b < bad.size]] = False
        if year:
            bad[:, 0] |= np.floor(cells[:, 0]) != cells[:, 0]
        values = cells[:, year:]
        masks = [bad.any(axis=1)] + [test(i, j, values) for _, test in refuse]
        hits = [(int(np.argmax(mask)), n) for n, mask in enumerate(masks) if mask.any()]
        if hits:
            r, n = min(hits)
            if n:
                raise ParseError(refuse[n - 1][0], row=lines[r])
            c = int(np.argmax(bad[r]))
            problem = "bad" if names[c] == "year" else "non-finite"
            raise ParseError(f"{problem} {names[c]} {str(cells[r, c])!r}", row=lines[r])
        years = cells[:, 0] if year else np.zeros(len(lines))
        periods, k = np.unique(years, return_inverse=True)
        return labels, [int(p) for p in periods], i, j, k, values

    try:
        with _open(path) as handle:
            reader = csv.reader(handle)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != list(header):
                raise ParseError(f"expected header {','.join(header)}", row=1)
            for lineno, row in enumerate(reader, start=2):
                if len(row) != width:
                    if any(map(str.strip, row)):
                        raise ParseError(f"expected {width} fields, got {len(row)}", row=lineno)
                    continue
                try:
                    vals.extend(map(float, row[2:]))
                except ValueError:
                    del vals[len(lines) * nv :]
                    if not any(map(str.strip, row)):
                        continue
                    for name, cell in zip(names, row[2:]):
                        try:
                            vals.append(float(cell))
                        except ValueError:
                            if cell.strip() or name == "year":
                                message = f"bad {name} {cell.strip()!r}"
                                raise ParseError(message, row=lineno) from None
                            blank.append(len(vals))
                            vals.append(math.nan)
                origin.append(label_idx.setdefault(row[0], len(label_idx)))
                dest.append(label_idx.setdefault(row[1], len(label_idx)))
                lines.append(lineno)
    except ParseError:
        table()  # an earlier row may fail a test made on whole columns
        raise
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None

    if not lines:
        raise ParseError("no data rows", row=2)
    labels, periods, i, j, k, values = out = table()
    cell = (k * len(labels) + i) * len(labels) + j
    order = np.argsort(cell, kind="stable")
    again = order[1:][np.diff(cell[order]) == 0]  # rows whose key came before
    if again.size:
        r = int(again.min())
        key = (labels[i[r]], labels[j[r]], periods[k[r]])[: 2 + year]
        raise ParseError(f"duplicate {'dyad-period' if year else 'dyad'} {key}", row=lines[r])
    return out


def _read_matrix(path, what: str, labels, fill: float, strict: bool = True):
    """The labels and the (n, n) matrix of an ``origin,destination,WHAT``
    file over ``labels`` (the file's own when None), ``fill`` where absent or
    blank.  A location not in ``labels`` is a DataError unless not ``strict``."""
    file_labels, _, i, j, _, values = _read_table(path, ("origin", "destination", what), what)
    labels = file_labels if labels is None else labels
    idx = {lab: p for p, lab in enumerate(labels)}
    pos = np.array([idx.get(lab, -1) for lab in file_labels])
    o, d = pos[i], pos[j]
    known = (o >= 0) & (d >= 0)
    if strict and not known.all():
        r = int(np.argmin(known))
        dyad = f"{file_labels[i[r]]}->{file_labels[j[r]]}"
        raise DataError(f"{what} file mentions unknown location {dyad}")
    keep = known & ~np.isnan(values[:, 0])
    out = np.full((len(labels), len(labels)), fill)
    out[o[keep], d[keep]] = values[keep, 0]
    return labels, out


def read_flows_csv(path) -> FlowMatrix:
    """Flows from ``origin,destination,flow``; absent dyads are zeros."""
    labels, values = _read_matrix(path, "flow", None, 0.0)
    return FlowMatrix(values, tuple(labels))


def read_distances_csv(path, labels: Sequence[str]) -> DistanceMatrix:
    """Distances over the given labels; a missing (i, j) falls back to the
    reported (j, i), the (unused) diagonal defaults to 1, and rows naming
    other locations are ignored."""
    _, values = _read_matrix(path, "distance", labels, math.nan, strict=False)
    values[np.eye(len(labels), dtype=bool) & np.isnan(values)] = 1.0
    values = np.where(np.isnan(values), values.T, values)
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        (o, d), more = missing[0], len(missing) - 1
        raise DataError(f"distance missing for {labels[o]}->{labels[d]} (and {more} more)")
    return DistanceMatrix(values, tuple(labels))


def read_cf_spec_csv(path, labels: Sequence[str]) -> CounterfactualSpec:
    """Proportional cost changes; absent dyads are 1 (unchanged)."""
    return CounterfactualSpec(_read_matrix(path, "tau_prop", labels, 1.0)[1])


def read_costs_csv(path, labels: Sequence[str]) -> np.ndarray:
    """Cost levels (e.g. iceberg costs); absent dyads are 1.  Returns the
    log-cost matrix used by the elasticity fit."""
    _, values = _read_matrix(path, "cost", labels, 1.0)
    if np.any(values <= 0):
        raise DataError("cost levels must be strictly positive")
    return np.log(values)


def read_mirror_csv(path) -> tuple[list[str], list[int], np.ndarray, np.ndarray]:
    """Inverse of :func:`write_mirror_csv`: the sorted labels and periods and
    the two (T, n, n) report arrays, NaN where a report is blank or the
    dyad-period is absent.  A negative flow and an own flow are row errors."""
    refuse = (
        ("negative flow", lambda i, j, values: (values < 0).any(axis=1)),
        ("own flows do not belong in a mirror panel", lambda i, j, values: i == j),
    )
    labels, periods, i, j, k, values = _read_table(path, _MIRROR_HEADER, "flow", refuse)
    reports = np.full((2, len(periods), len(labels), len(labels)), np.nan)
    reports[:, k, i, j] = values.T
    return labels, periods, reports[0], reports[1]


def write_dyadic_csv(path, labels, values: np.ndarray, value_name: str):
    values = np.asarray(values)
    with open(path, "w", newline="", encoding="utf-8") as handle:
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
    """Inverse of :func:`read_mirror_csv`: one row per off-diagonal
    dyad-period; a NaN report is an empty cell.  The bytes are those of
    ``csv.writer``; each dyad's label pair and each year is quoted once and
    reused on every row."""

    def cells(matrix):
        return [["" if v != v else repr(v) for v in row] for row in matrix.tolist()]

    n = len(labels)
    dyads = [
        (i, j, _csv_fields(labels[i], labels[j])) for i in range(n) for j in range(n) if i != j
    ]
    reports = zip(np.asarray(report1, dtype=float), np.asarray(report2, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as handle:
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
    with open(path, "w", newline="", encoding="utf-8") as handle:
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

    with open(path, "w", encoding="utf-8") as handle:
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
    """Parameters from a ``write_params_json`` document.  Every one of the
    n * n dyads must be listed and carry p, b, s2, sigma2 and mu, and either
    both shrunk variances or neither, as every other dyad does; only mu may
    be null."""
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
    for key in (f"{o}->{d}" for o in labels for d in labels):
        if key not in doc["dyads"]:
            raise DataError(f"params file has no dyad {key!r}")
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
        with _open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_json(doc)


# ---------------------------------------------------------------------------
# Draw sets and intervals


def write_draws_csv(path, draw_set: DrawSet):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(draw_set.labels))
        for row in draw_set.draws:
            writer.writerow([repr(float(v)) for v in row])


def read_draws_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    with _open(path) as handle:
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
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
