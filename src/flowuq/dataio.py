"""File formats: CSVs in, results and parameter files out.

Every CSV input has a header row: ``origin,destination,VALUE`` for flows,
distances, cost levels and cost changes,
``origin,destination,year,flow_report1,flow_report2`` for a mirror panel,
and the outcome labels, over one row per draw, for ``draws.csv``.  One
reader parses them all: it skips blank rows, whitespace-only rows and rows
of blank cells, strips labels, refuses a field longer than
``csv.field_size_limit()`` wherever it sits, and raises ParseError with the
row number of the first ragged row ("expected 2 fields, got 1") or bad or
non-finite value ("bad draw 'x'", "non-finite draw 'nan'"), or of a
repeated dyad.  In ``draws.csv`` a blank cell in a kept row is bad.  An
absent or blank dyad is 0 for flows, 1 for cost levels and cost changes,
the reverse dyad for distances, and missing for a mirror report.  Inputs
are UTF-8, with or without a byte-order mark.

The reader parses by the column, a batch of records at a time, so the text
it holds at once is bounded whatever the file's size.  A quote-free chunk of
rows of the header's width, within the field-size limit, is split with one
``str.split``, any other record read with ``csv.reader`` (see ``_split``).

Outputs are UTF-8 CSV/JSON in a fixed order, with floats as their shortest
round-trip text (``float.__repr__``), so a rerun with the same seed is
byte-identical and every number reads back; a CSV writer refuses a value no
reader takes.  JSON outputs are strict: a NaN or infinity is written as
null where it can rightly occur, and is an error anywhere else.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import CalibratedParams, CounterfactualSpec, DistanceMatrix, DrawSet, FlowMatrix
from .errors import DataError, ParseError
from .intervals import Interval, kind_name

if TYPE_CHECKING:  # the engine imports this module through calibration
    from .engine import UqConfig

_MIRROR_HEADER = ("origin", "destination", "year", "flow_report1", "flow_report2")

# The reader takes whole lines of about this many characters at a time.
_CHUNK_CHARS = 1 << 16
# The params.json writer lays out the text of this many dyads at a time.
_BLOCK_DYADS = 256
# The column CSV writer lays out the text of this many rows at a time.
_BLOCK_ROWS = 4096
# The fields of a params.json dyad besides mu; the last two, the shrunk
# variances, are on every dyad or on none.
_FIELDS = ("p", "b", "s2", "sigma2", "s2_shrunk", "sigma2_shrunk")


@contextmanager
def _open(path):
    """A text input: UTF-8, a byte-order mark skipped.  A file that cannot be
    opened is a DataError; bytes that are not UTF-8, or a CSV field over
    ``csv``'s size limit, are a ParseError when a read meets them."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise ParseError(f"{path} is not UTF-8 text") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None


def _split(handle, width: int):
    """The handle's remaining records of ``width`` fields, batch by batch:
    each batch's cells, record after record, their row numbers, counting
    from 2, and ``(row, message)`` for the first record of another width
    that is not blank (the records after it are dropped), or None.

    The lines are read about ``_CHUNK_CHARS`` characters at a time.  A chunk
    without a ``"`` is one batch, read by ``csv.reader`` when it is ragged or
    longer than ``csv.field_size_limit()``, so a field over that limit is
    refused wherever it sits.  From the first chunk that holds a ``"``, a
    single ``csv.reader`` reads the rest of the file, as many records at a
    time as that chunk has lines, so a quoted field (which may hold a comma
    or a line break) is never cut."""
    row = 2
    while (lines := handle.readlines(_CHUNK_CHARS)) and '"' not in (text := ",".join(lines)):
        # Each line is one record.  Its terminator ("\n", "\r\n" or "\r";
        # only the file's last line may lack one) stays on its last cell,
        # where float() and strip() ignore it.  The split is right when there
        # are ``width`` cells per line and every terminator lies in a cell at
        # position ``width - 1`` modulo ``width``: every line then starts and
        # ends on a multiple of ``width`` cells, so each holds ``width``.
        cells = text.split(",")
        last = "".join(cells[width - 1 :: width])
        ends = last.count("\n") + last.count("\r") - last.count("\r\n")
        fits = len(text) <= csv.field_size_limit() and len(cells) == width * len(lines)
        if fits and ends == len(lines) - (lines[-1][-1] not in "\r\n"):
            yield cells, np.arange(row, row + len(lines), dtype=np.int64), None
            row += len(lines)
        else:
            cells, rows, row, error = _records(csv.reader(lines), width, row)
            yield cells, rows, error
    # At the end of the file ``lines`` is empty, and so is every batch here.
    reader = csv.reader(chain(lines, handle))
    while records := list(islice(reader, len(lines))):
        cells, rows, row, error = _records(records, width, row)
        yield cells, rows, error


def _records(records, width: int, row: int):
    """``_split``'s batch of ``records``, counting rows from ``row``, and the
    row number after the batch."""
    cells, rows, error = [], array("q"), None
    for row, record in enumerate(records, start=row):
        if len(record) == width:
            cells += record
            rows.append(row)
        elif any(map(str.strip, record)):
            error = (row, f"expected {width} fields, got {len(record)}")
            break
    return cells, np.frombuffer(rows, dtype=np.int64), row + 1, error


def _parse_values(cells: list[str], width: int, nv: int):
    """The last ``nv`` columns of ``width``-field records as an (nv, m)
    array, each parsed with one ``float`` map.  A column that fails goes cell
    by cell: its blank cells read NaN and are flagged in the blank mask, and
    its unparsable ones in the bad mask."""
    m = len(cells) // width
    values = np.empty((nv, m))
    blank, bad = np.zeros((nv, m), dtype=bool), np.zeros((nv, m), dtype=bool)
    for c in range(nv):
        column = cells[width - nv + c :: width]
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

    The records after the header come in batches from ``_split``, whose two
    tokenizers feed the same column code.  Labels map to indices through a
    dict, and each value column parses with one ``float`` map; only a column
    that fails goes cell by cell.  A row of blank cells is skipped and a
    blank year is bad.  Reading stops at the first row that does not parse,
    which is reported unless an earlier row fails a check made on whole
    columns after the last batch: finite values, whole years, ``refuse``,
    then duplicates.  Memory: the text and cell strings of one batch, plus 8
    bytes per row for each of the origin, destination, row number, year and
    value columns.
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
    with _open(path) as handle:
        head = next(csv.reader(handle), None)
        if head is None or [h.strip() for h in head] != list(header):
            raise ParseError(f"expected header {','.join(header)}", row=1)
        for cells, rows, error in _split(handle, width):
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
    """One row per dyad, origin-major.  A value that is not finite, which no
    reader takes, is a DataError naming the first such dyad."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{value_name} for {labels[i]}->{labels[j]} is not finite")
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
    dyad-period; a NaN report is an empty cell, and an infinite one a
    DataError.  The bytes are those of ``csv.writer``; each dyad's label
    pair and each year is quoted once and reused on every row."""

    def cells(matrix):
        return [["" if v != v else repr(v) for v in row] for row in matrix.tolist()]

    n = len(labels)
    dyads = [
        (i, j, _csv_fields(labels[i], labels[j])) for i in range(n) for j in range(n) if i != j
    ]
    reports = np.array([report1, report2], dtype=float)
    if np.isinf(reports).any():
        r, t, i, j = np.argwhere(np.isinf(reports))[0]
        raise DataError(f"report {r + 1} for {labels[i]}->{labels[j]} in {periods[t]} is infinite")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_csv_fields(*_MIRROR_HEADER) + "\r\n")
        for year, matrix1, matrix2 in zip(periods, *reports):
            year = _csv_fields(year)
            rows1, rows2 = cells(matrix1), cells(matrix2)
            handle.write(
                "".join(
                    f"{pair},{year},{rows1[i][j]},{rows2[i][j]}\r\n" for i, j, pair in dyads
                )
            )


def write_columns_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]):
    """A CSV of equal-length numeric columns under a header line: floats as
    their shortest round-trip text, integer columns as integers.  The rows
    are written ``_BLOCK_ROWS`` at a time, so the text held at once is
    bounded whatever the columns' length."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, min(map(len, columns), default=0), _BLOCK_ROWS):
            block = (map(repr, c[start : start + _BLOCK_ROWS].tolist()) for c in columns)
            handle.write("".join(f"{row}\n" for row in map(",".join, zip(*block))))


# ---------------------------------------------------------------------------
# Calibrated parameters <-> JSON (keyed by dyad)

def _json_numbers(values: np.ndarray) -> list[str]:
    """Each float as ``json.dumps`` writes it once NaN is mapped to None:
    ``float.__repr__``, ``null`` for NaN.  ``CalibratedParams`` holds no
    infinity."""
    out = list(map(float.__repr__, values.tolist()))
    for k in np.flatnonzero(np.isnan(values)).tolist():
        out[k] = "null"
    return out


def _json_list(items: list[str]) -> str:
    """A list of JSON values at the second level of an indent-2 document."""
    return "[" + ",".join(f"\n    {x}" for x in items) + "\n  ]" if items else "[]"


def _dyad_keys(labels: Sequence[str]) -> list[str]:
    """The ``"origin->destination"`` key of each dyad, origin-major,
    refused when a label containing ``->`` makes two dyads share a key
    (repeated labels repeat keys too, and are the caller's to refuse)."""
    keys = [f"{o}->{d}" for o in labels for d in labels]
    # Without "->" inside a label, each key splits only at its own arrow.
    if any("->" in lab for lab in labels) and len(set(keys)) < len(set(labels)) ** 2:
        key = Counter(keys).most_common(1)[0][0]
        raise DataError(f"labels give two dyads the params key {key!r}")
    return keys


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
    keys = _dyad_keys(params.labels)
    # Each field's values as an (n * n, width) grid: width 1, or one column
    # per period for per-period means.
    arrays = {name: getattr(params, name) for name in _FIELDS}
    numbers = {name: arr.reshape(n * n, 1) for name, arr in arrays.items() if arr is not None}
    if params.has_periods:
        periods = params.periods
        by_text = sorted(range(len(periods)), key=lambda k: str(periods[k]))
        numbers["mu"] = params.mu.reshape(len(periods), n * n)[by_text].T
        heads = [f'\n        "{str(periods[k]).replace("%", "%%")}": %s' for k in by_text]
        mu_slot = "{" + ",".join(heads) + "\n      }" if heads else "{}"
    else:
        numbers["mu"] = params.mu.reshape(n * n, 1)
        mu_slot = "%s"
    names = sorted(numbers)
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
            grid = np.concatenate([numbers[name][block].T for name in names])
            text = _json_numbers(grid.ravel())
            columns = (text[at : at + len(block)] for at in range(0, len(text), len(block)))
            dyads = [encode_basestring_ascii(keys[k]) for k in block.tolist()]
            entries = map(template.__mod__, zip(dyads, *columns))
            handle.write(("," if start else "") + ",".join(entries))
        handle.write("\n  }," if n else "},")
        labels_text = _json_list([encode_basestring_ascii(lab) for lab in params.labels])
        handle.write(f'\n  "labels": {labels_text},\n  "periods": {periods_text}\n}}\n')


def _number(value, key: str, name: str, nullable: bool) -> float:
    """A dyad's JSON number as a float; null is NaN where ``nullable``."""
    if value is None:
        if nullable:
            return math.nan
        raise DataError(f"params dyad {key!r}: {name} is missing or null")
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise DataError(f"params dyad {key!r}: {name} must be a number, got {value!r}")


def _check(dyads: dict, ok: list, message: str):
    """Refuse ``message``, formatted with the ``key`` and ``entry`` of the
    first dyad in the document's order whose ``ok`` is false."""
    if not all(ok):
        key = next(compress(dyads, map(operator.not_, ok)))
        raise DataError(message.format(key=repr(key), entry=dyads[key]))


def params_from_json(doc) -> CalibratedParams:
    """Parameters from a ``write_params_json`` document: each of the n * n
    dyads listed once, as an object carrying p, b, s2, sigma2 and mu, and
    each shrunk variance on every dyad or on none.  Only mu may be null,
    marking a dyad without a prior mean; a per-period mu is an object keyed
    by exactly the file's periods, whose values may be null.  A document of
    another shape is a DataError.

    The document is read a field at a time: the dyad keys by set operations,
    every other check on a whole column of the dyads, and a field (a period
    of mu) of floats only in one ``np.array`` call; any other goes value by
    value through ``_number``.  A refusal names the first refused dyad in
    the document's key order, a missing one in label order."""
    if not isinstance(doc, dict):
        raise DataError("params file must hold a JSON object")
    labels, dyads, periods = doc.get("labels"), doc.get("dyads"), doc.get("periods")
    if not (isinstance(labels, list) and all(type(lab) is str for lab in labels)):
        raise DataError('params file needs "labels", a list of strings')
    if not isinstance(dyads, dict):
        raise DataError('params file needs "dyads", an object keyed by dyad')
    if not (periods is None or isinstance(periods, list) and all(type(t) is int for t in periods)):
        raise DataError('params "periods" must be null or a list of whole numbers')
    labels, periods = tuple(labels), tuple(periods or ()) or None
    n = len(labels)
    cells = dict(zip(_dyad_keys(labels), range(n * n)))
    if unknown := dyads.keys() - cells:
        raise DataError(f"unknown dyad key {next(filter(unknown.__contains__, dyads))!r}")
    if len(dyads) < len(cells):  # with no unknown key, some are missing
        missing = cells.keys() - dyads.keys()
        raise DataError(f"params file has no dyad {next(filter(missing.__contains__, cells))!r}")
    entries = list(dyads.values())
    objects = list(map(isinstance, entries, repeat(dict)))
    _check(dyads, objects, "params dyad {key} must be an object, got {entry!r}")
    at = np.fromiter(map(cells.__getitem__, dyads), np.intp, len(dyads))

    def grid(objects, field, name, nullable=False):
        # With repeated labels some cells stay 0; CalibratedParams refuses them.
        values = list(map(dict.get, objects, repeat(field)))
        if not set(map(type, values)) <= ({float, type(None)} if nullable else {float}):
            values = [_number(v, key, name, nullable) for key, v in zip(dyads, values)]
        out = np.zeros(n * n)
        out[at] = np.array(values, dtype=float)  # None reads as NaN
        return out.reshape(n, n)

    def has(name):
        return list(map(dict.__contains__, entries, repeat(name)))

    shrunk = tuple(name for name in _FIELDS[4:] if entries and name in entries[0])
    values = {name: grid(entries, name, name) for name in _FIELDS[:4] + shrunk}
    _check(dyads, has("mu"), "params dyad {key}: mu is missing")
    if set(map(len, entries)) != {len(values) + 1}:  # keys besides the fields and mu
        for name in (name for name in _FIELDS[4:] if name not in shrunk):
            absent = list(map(operator.not_, has(name)))
            _check(dyads, absent, "params dyad {key}: shrunk variances on some dyads only")
    if not periods:
        return CalibratedParams(labels=labels, mu=grid(entries, "mu", "mu", True), **values)
    mus = list(map(dict.get, entries, repeat("mu")))
    objects = list(map(isinstance, mus, repeat((dict, type(None)))))
    _check(dyads, objects, "params dyad {key}: per-period mu must be an object")
    texts = [str(t) for t in periods]
    if None in mus:  # a null mu is null in every period
        mus = [dict.fromkeys(texts) if mu is None else mu for mu in mus]
    keyed = list(map(operator.eq, map(dict.keys, mus), repeat(set(texts))))
    _check(dyads, keyed, "params dyad {key}: per-period mu must be keyed by exactly the periods")
    mu = np.stack([grid(mus, t, "mu", True) for t in texts])
    return CalibratedParams(labels=labels, periods=periods, mu=mu, **values)


def read_params_json(path) -> CalibratedParams:
    try:
        with _open(path) as handle:
            doc = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_json(doc)


# ---------------------------------------------------------------------------
# Draw sets and intervals


def write_draws_csv(path, draw_set: DrawSet):
    """The draws under their labels, in ``csv.writer``'s bytes.  A draw is
    finite, so its text never needs quoting and each row is its fields
    joined by commas."""
    rows = draw_set.draws.tolist()
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_csv_fields(*draw_set.labels) + "\r\n")
        handle.write("".join(",".join(map(float.__repr__, row)) + "\r\n" for row in rows))


def read_draws_csv(path) -> DrawSet:
    """Inverse of :func:`write_draws_csv`; see the module docstring."""
    with _open(path) as handle:
        if not (header := next(csv.reader(handle), None)):
            raise ParseError("missing header", row=1)
        draws = [np.empty((0, width := len(header)))]
        for cells, rows, error in _split(handle, width):
            values, blank, bad = _parse_values(cells, width, width)
            draws.append(values.T[keep := ~blank.all(axis=0)])
            if (wrong := ~np.isfinite(values.T) & keep[:, None]).any():
                kind = "bad" if (blank | bad).T.flat[k := wrong.argmax()] else "non-finite"
                error = rows[k // width], f"{kind} draw {cells[k].strip()!r}"
            if error:
                raise ParseError(error[1], row=int(error[0]))
    if not (draws := np.vstack(draws)).size:
        raise ParseError("no draws", row=2)
    return DrawSet(draws, labels=tuple(map(str.strip, header)))


def intervals_to_json(
    intervals: Sequence[Interval],
    draw_set: DrawSet,
    point: np.ndarray,
    cfg: UqConfig,
    estimand: str,
) -> dict:
    """The ``interval.json`` document: each outcome's interval and point
    estimate, with the level, kind and draw counts of the run, which are the
    same for every outcome.  ``estimand`` names what the intervals cover:
    ``"g(F)"``, the counterfactual at the true flows, or ``"g(S(F))"``, the
    counterfactual at the smoothed true flows."""
    outcomes = [
        {
            "outcome": draw_set.labels[q],
            "lo": interval.lo,
            "hi": interval.hi,
            "alpha": cfg.alpha,
            "kind": kind_name(cfg.interval_kind, cfg.robust_c),
            "draws_used": draw_set.draws_used,
            "draws_failed": draw_set.draws_failed,
            "point_estimate": float(point[q]),
        }
        for q, interval in enumerate(intervals)
    ]
    return {"seed": cfg.seed, "mode": cfg.mode, "estimand": estimand, "outcomes": outcomes}


def write_json(path, doc: dict):
    """Strict JSON: a NaN or infinity in ``doc`` is a ValueError and nothing
    is written, so a field that can be undefined must hold None instead."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
