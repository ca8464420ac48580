"""File formats: dyadic CSVs in, results and parameter files out.

Every dyadic input is a CSV with a header row: ``origin,destination,VALUE``
for flows, distances, cost levels and cost changes, and
``origin,destination,year,flow_report1,flow_report2`` for a mirror panel.
One reader parses them all: it skips blank rows, strips labels, reads a
blank value cell as missing, and raises ParseError with the row number of a
malformed row, a non-finite value or a repeated dyad.  An absent or blank
dyad is 0 for flows, 1 for cost levels and cost changes, the reverse dyad
for distances, and missing for a mirror report.  Inputs are UTF-8, with or
without a byte-order mark.

The reader parses by the column, on chunks of whole lines of about 64 K
characters, so the text it holds at once is bounded whatever the file's
size.  A quote-free chunk of rows of the header's width is split with one
``str.split``, any other chunk with ``csv.reader`` (see ``_read_table``).

Outputs are UTF-8 CSV/JSON in a fixed order, with floats as their shortest
round-trip text (``float.__repr__``), so a rerun with the same seed is
byte-identical and every number reads back.  JSON outputs are strict: a
NaN or infinity is written as null where it can rightly occur, and is an
error anywhere else.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Sequence

import numpy as np

from .core import CalibratedParams, CounterfactualSpec, DistanceMatrix, DrawSet, FlowMatrix
from .errors import DataError, ParseError
from .intervals import Interval

_MIRROR_HEADER = ("origin", "destination", "year", "flow_report1", "flow_report2")

# The reader takes whole lines of about this many characters at a time.
_CHUNK_CHARS = 1 << 16
# The params.json writer lays out the text of this many dyads at a time.
_BLOCK_DYADS = 256


def _open(path):
    """A text input: UTF-8, a byte-order mark skipped."""
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _chunks(handle, size: int):
    """The handle's remaining lines, about ``size`` characters at a time.  A
    chunk with an odd count of ``"`` ends inside a quoted field, so it takes
    one more line until the count is even: no record spans two chunks.  (A
    stray ``"`` inside an unquoted field, which ``csv.reader`` keeps as text,
    runs the chunk on to the next ``"``: still read right, but not bounded.)"""
    while lines := handle.readlines(size):
        text = "".join(lines)
        odd = '"' in text and text.count('"') % 2
        while odd and (line := handle.readline()):
            lines.append(line)
            odd ^= line.count('"') % 2
        yield lines


def _split(lines: list[str], width: int, row: int):
    """The cells of a chunk's records of ``width`` fields, record after
    record, and their row numbers, counting from ``row``; then the row number
    after the chunk, and ``(row, message)`` for the first record of another
    width that is not blank (the records after it are dropped), or None."""
    text = ",".join(lines)
    if '"' not in text:
        # Each line is one record.  Its terminator ("\n", "\r\n" or "\r";
        # only the file's last line may lack one) stays on its last cell,
        # where float() and strip() ignore it.  The split is right when there
        # are ``width`` cells per line and every terminator lies in a cell at
        # position ``width - 1`` modulo ``width``: every line then starts and
        # ends on a multiple of ``width`` cells, so each holds ``width``.
        cells = text.split(",")
        last = "".join(cells[width - 1 :: width])
        ends = last.count("\n") + last.count("\r") - last.count("\r\n")
        if len(cells) == width * len(lines) and ends == len(lines) - (lines[-1][-1] not in "\r\n"):
            rows = np.arange(row, row + len(lines), dtype=np.int64)
            return cells, rows, row + len(lines), None
    cells, rows, error = [], array("q"), None
    for row, record in enumerate(csv.reader(lines), start=row):
        if len(record) == width:
            cells += record
            rows.append(row)
        elif any(map(str.strip, record)):
            error = (row, f"expected {width} fields, got {len(record)}")
            break
    return cells, np.frombuffer(rows, dtype=np.int64), row + 1, error


def _parse_values(cells: list[str], width: int, nv: int):
    """The ``nv`` value columns of ``width``-field records as an (nv, m)
    array, each parsed with one ``float`` map.  A column that fails goes cell
    by cell: its blank cells read NaN and are flagged in the blank mask, and
    its unparsable ones in the bad mask."""
    m = len(cells) // width
    values = np.empty((nv, m))
    blank, bad = np.zeros((nv, m), dtype=bool), np.zeros((nv, m), dtype=bool)
    for c in range(nv):
        column = cells[2 + c :: width]
        try:
            values[c] = np.fromiter(map(float, column), dtype=float, count=m)
        except ValueError:
            for r, cell in enumerate(column):
                try:
                    values[c, r] = float(cell)
                except ValueError:
                    values[c, r] = math.nan
                    (bad if cell.strip() else blank)[c, r] = True
    return values, blank, bad


def _read_table(path, header: Sequence[str], what: str, refuse=()):
    """Parse an ``origin,destination[,year],VALUE...`` CSV under ``header``:
    the sorted labels and periods ([0] without a year column), each row's
    origin, destination and period as positions in them, and its value
    cells, NaN where blank.  ParseError names the first row with the wrong
    field count, a year that is not a whole number, a bad or non-finite
    ``what``, or that a ``refuse`` pair ``(message, test(i, j, values) ->
    row mask)`` flags; then a key listed twice, at its second row.  Rows
    count CSV records, the header being row 1.

    The file is read in chunks of about ``_CHUNK_CHARS`` characters of whole
    lines.  A chunk grows by a line while it holds an odd count of ``"``, so
    a quoted field (which may hold a comma or a line break) never spans two
    chunks.  Two tokenizers feed the same column code:

    * a chunk with no ``"`` whose every line has ``width - 1`` commas is
      split with one ``str.split`` (``_split``);
    * any other chunk, one with a quoted field or a blank or ragged row, goes
      through ``csv.reader``; a record of the wrong width is skipped if its
      cells are blank and is an error otherwise.

    Labels map to indices through a dict, and each value column parses with
    one ``float`` map; only a column that fails goes cell by cell.  A row of
    blank cells is skipped and a blank year is bad.  Reading stops at the
    first row that does not parse, which is reported unless an earlier row
    fails a check made on whole columns after the last chunk: finite
    values, whole years, ``refuse``, then duplicates.  Memory: the text and
    cell strings of one chunk, plus 8 bytes per row for each of the origin,
    destination, row number, year and value columns.
    """
    year = header[2] == "year"
    width, nv = len(header), len(header) - 2
    names = ("year",) * year + (what,) * (nv - year)
    # Compact columns: each row's label indices (a new label takes the next
    # index), its number, and its year and value cells.
    label_idx: dict[str, int] = {}
    origin, dest, lines, vals = array("q"), array("q"), array("q"), array("d")
    blank: list[int] = []  # positions in vals of blank value cells
    error = None  # (row, message) of the first row that does not parse
    try:
        with _open(path) as handle:
            head = next(csv.reader(next(_chunks(handle, 1), [])), None)
            if head is None or [h.strip() for h in head] != list(header):
                raise ParseError(f"expected header {','.join(header)}", row=1)
            row = 2
            for chunk in _chunks(handle, _CHUNK_CHARS):
                cells, rows, row, error = _split(chunk, width, row)
                values, blanks, bad = _parse_values(cells, width, nv)
                origins, dests = cells[0::width], cells[1::width]
                if blanks.any() or bad.any():
                    # A row of blank cells is skipped; a blank year is bad.
                    empty = [not (o.strip() or d.strip()) for o, d in zip(origins, dests)]
                    skip = blanks.all(axis=0) & np.array(empty, dtype=bool)
                    bad[0] |= blanks[0] & year
                    bad &= ~skip
                    if bad.any():
                        r = int(np.argmax(bad.any(axis=0)))
                        c = int(np.argmax(bad[:, r]))
                        cell = cells[r * width + 2 + c].strip()
                        error = (int(rows[r]), f"bad {names[c]} {cell!r}")
                        skip[r:] = True
                    keep = ~skip
                    origins, dests = ([x for x, k in zip(c, keep) if k] for c in (origins, dests))
                    values, blanks, rows = values[:, keep], blanks[:, keep], rows[keep]
                    blank += (np.flatnonzero(blanks.T) + len(vals)).tolist()
                for lab in sorted(set(origins).union(dests).difference(label_idx)):
                    label_idx[lab] = len(label_idx)
                for column, labs in ((origin, origins), (dest, dests)):
                    indices = np.fromiter(map(label_idx.__getitem__, labs), np.int64, len(labs))
                    column.frombytes(indices.tobytes())
                lines.frombytes(rows.tobytes())
                vals.frombytes(values.T.tobytes())
                if error:
                    break
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text") from None

    labels = sorted({lab.strip() for lab in label_idx})
    position = {lab: p for p, lab in enumerate(labels)}
    rank = np.array([position[lab.strip()] for lab in label_idx], dtype=np.intp)
    i, j = (rank[np.frombuffer(column, dtype=np.int64)] for column in (origin, dest))
    cells = np.frombuffer(vals).reshape(-1, nv)
    bad = ~np.isfinite(cells)
    bad.flat[blank] = False
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
    if error:
        raise ParseError(error[1], row=error[0])
    if not lines:
        raise ParseError("no data rows", row=2)

    years = cells[:, 0] if year else np.zeros(len(lines))
    periods, k = np.unique(years, return_inverse=True)
    periods = [int(p) for p in periods]
    cell = (k * len(labels) + i) * len(labels) + j
    order = np.argsort(cell, kind="stable")
    again = order[1:][np.diff(cell[order]) == 0]  # rows whose key came before
    if again.size:
        r = int(again.min())
        key = (labels[i[r]], labels[j[r]], periods[k[r]])[: 2 + year]
        raise ParseError(f"duplicate {'dyad-period' if year else 'dyad'} {key}", row=lines[r])
    return labels, periods, i, j, k, values


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
        handle.write("\n".join((",".join(header), *rows)) + "\n")


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
    newline, for the document that maps NaN to None.  The indenting encoder
    is pure Python and several times slower, so the writer lays the text out
    itself, ``_BLOCK_DYADS`` dyads at a time in key order: one
    ``_json_numbers`` call gives every number of a block, mu's per period
    (periods sorted as text), and one ``%`` template per dyad places them.
    """
    n = params.n
    keys = [f"{o}->{d}" for o in params.labels for d in params.labels]
    # Each field's values as an (n * n, width) grid: width 1, or one column
    # per period for per-period means.
    numbers = {
        name: np.reshape(arr, (n * n, 1))
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
    flags = {
        name: np.ravel(arr)
        for name, arr in (("mu_defined", params.mu_defined), ("me_observed", params.me_observed))
        if arr is not None
    }
    if params.has_periods:
        periods = params.periods
        by_text = sorted(range(len(periods)), key=lambda k: str(periods[k]))
        numbers["mu"] = params.mu.reshape(len(periods), n * n)[by_text].T
        heads = [f'\n        "{str(periods[k]).replace("%", "%%")}": %s' for k in by_text]
        mu_slot = "{" + ",".join(heads) + "\n      }" if heads else "{}"
    else:
        numbers["mu"] = params.mu.reshape(n * n, 1)
        mu_slot = "%s"
    names = sorted([*numbers, *flags])
    slots = ",".join(f'\n      "{name}": {mu_slot if name == "mu" else "%s"}' for name in names)
    template = "\n    %s: {" + slots + "\n    }"
    periods_text = (
        "null" if params.periods is None else _json_list([repr(t) for t in params.periods])
    )

    order = np.array(sorted(range(n * n), key=keys.__getitem__), dtype=np.intp)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{\n  "dyads": {')
        for start in range(0, n * n, _BLOCK_DYADS):
            block = order[start : start + _BLOCK_DYADS]
            # The block's numbers in one call, one run of len(block) per
            # column, in the order of the template's slots.
            grid = np.concatenate([numbers[name][block].T for name in names if name in numbers])
            text = _json_numbers(grid.ravel())
            columns = (text[at : at + len(block)] for at in range(0, len(text), len(block)))
            args = [[encode_basestring_ascii(keys[k]) for k in block.tolist()]]
            for name in names:
                if name in flags:
                    args.append(["true" if v else "false" for v in flags[name][block].tolist()])
                else:
                    args += islice(columns, numbers[name].shape[1])
            handle.write(("," if start else "") + ",".join(map(template.__mod__, zip(*args))))
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
    """The outcome labels and the (B, q) draws of a :func:`write_draws_csv`
    file; ParseError names the first ragged row or row with a bad or
    non-finite draw."""
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
            if not all(map(math.isfinite, rows[-1])):
                cell = next(c for c, v in zip(row, rows[-1]) if not math.isfinite(v))
                raise ParseError(f"non-finite draw {cell.strip()!r}", row=lineno)
    if not rows:
        raise ParseError("no draws", row=2)
    return tuple(h.strip() for h in header), np.asarray(rows)


def intervals_to_json(
    intervals: Sequence[Interval],
    labels: Sequence[str],
    point: np.ndarray,
    seed: int,
    mode: str,
    estimand: str,
) -> dict:
    """The ``interval.json`` document.  ``estimand`` names what the
    intervals cover: ``"g(F)"``, the counterfactual at the true flows, or
    ``"g(S(F))"``, the counterfactual at the smoothed true flows."""
    outcomes = [
        {
            "outcome": labels[q],
            "lo": interval.lo,
            "hi": interval.hi,
            "alpha": interval.alpha,
            "kind": interval.kind,
            "draws_used": interval.draws_used,
            "draws_failed": interval.draws_failed,
            "point_estimate": float(point[q]),
        }
        for q, interval in enumerate(intervals)
    ]
    return {"seed": seed, "mode": mode, "estimand": estimand, "outcomes": outcomes}


def write_json(path, doc: dict):
    """Strict JSON: a NaN or infinity in ``doc`` is a ValueError and nothing
    is written, so a field that can be undefined must hold None instead."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
