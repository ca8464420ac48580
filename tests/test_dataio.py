import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import DataError, ParseError, calibrate_mirror, ingest_mirror_csv
from flowuq import dataio
from flowuq.scenarios import armington_world, mirror_world

from .oracles import params_json_doc, read_table_rows


def test_flows_csv_roundtrip(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        "origin,destination,flow\n"
        "B,A,2.5\n"
        "A,B,1.5\n"
        "A,A,4.0\n",
        encoding="utf-8",
    )
    fm = dataio.read_flows_csv(path)
    assert fm.labels == ("A", "B")
    assert fm.values[0, 1] == 1.5
    assert fm.values[1, 0] == 2.5
    assert fm.values[1, 1] == 0.0  # missing dyad is an explicit zero


def test_flows_csv_errors(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("origin,destination,flow\nA,B,oops\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        dataio.read_flows_csv(path)
    assert info.value.row == 2
    path.write_text("origin,dest,flow\nA,B,1.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        dataio.read_flows_csv(path)
    path.write_text("origin,destination,flow\nA,B,1.0\nA,B,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        dataio.read_flows_csv(path)
    with pytest.raises(DataError):
        dataio.read_flows_csv(tmp_path / "nope.csv")


def test_distances_fallback_to_reverse(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("origin,destination,distance\nA,B,7.0\n", encoding="utf-8")
    dm = dataio.read_distances_csv(path, ["A", "B"])
    assert dm.values[0, 1] == 7.0
    assert dm.values[1, 0] == 7.0  # reverse direction fallback
    path.write_text("origin,destination,distance\nA,B,7.0\n", encoding="utf-8")
    with pytest.raises(DataError):
        dataio.read_distances_csv(path, ["A", "B", "C"])


def test_cf_spec_defaults_to_one(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("origin,destination,tau_prop\nA,B,1.1\n", encoding="utf-8")
    spec = dataio.read_cf_spec_csv(path, ["A", "B"])
    assert spec.tau_prop[0, 1] == 1.1
    assert spec.tau_prop[1, 0] == 1.0
    assert spec.tau_prop[0, 0] == 1.0


def test_params_json_roundtrip(tmp_path):
    scen = mirror_world(n=5, t=4, seed=8)
    from flowuq import calibrate_mirror

    params, _ = calibrate_mirror(scen.panel, scen.distances)
    path = tmp_path / "params.json"
    dataio.write_params_json(path, params)
    back = dataio.read_params_json(path)
    assert back.labels == params.labels
    assert back.periods == params.periods
    np.testing.assert_allclose(back.p, params.p)
    np.testing.assert_allclose(back.sigma2, params.sigma2)
    np.testing.assert_allclose(back.s2_shrunk, params.s2_shrunk)
    np.testing.assert_allclose(back.mu, params.mu)
    assert np.array_equal(back.mu_defined, params.mu_defined)


def test_params_json_baseline_roundtrip(tmp_path):
    aw = armington_world(n=4, seed=2)
    path = tmp_path / "p.json"
    dataio.write_params_json(path, aw.params)
    back = dataio.read_params_json(path)
    assert not back.has_periods
    np.testing.assert_allclose(
        back.mu[~np.eye(4, dtype=bool)], aw.params.mu[~np.eye(4, dtype=bool)]
    )
    assert np.all(np.isnan(np.diag(back.mu)))


def test_draws_csv_roundtrip(tmp_path):
    from flowuq import DrawSet

    ds = DrawSet(
        draws=np.random.default_rng(0).normal(size=(50, 3)),
        b=50,
        seed=1,
        mode="ee+me",
        labels=("x", "y", "z"),
    )
    path = tmp_path / "draws.csv"
    dataio.write_draws_csv(path, ds)
    labels, arr = dataio.read_draws_csv(path)
    assert labels == ("x", "y", "z")
    np.testing.assert_array_equal(arr, ds.draws)


def test_mirror_csv_roundtrip(tmp_path):
    scen = mirror_world(n=4, t=3, seed=5)
    path = tmp_path / "mirror.csv"
    dataio.write_mirror_csv(
        path, scen.labels, scen.periods, scen.panel.report1, scen.panel.report2
    )
    from flowuq import ingest_mirror_csv

    panel = ingest_mirror_csv(path)
    assert panel.labels == scen.labels
    assert panel.periods == scen.periods
    np.testing.assert_allclose(panel.report1, scen.panel.report1)
    np.testing.assert_allclose(panel.report2, scen.panel.report2)


def _mirror_params(shrink=True):
    # Periods 9, 10, 11 sort as "10" < "11" < "9" in the JSON keys.
    scen = mirror_world(n=4, t=3, seed=8)
    params, _ = calibrate_mirror(scen.panel, scen.distances, shrink=shrink)
    return replace(params, periods=(9, 10, 11))


def _nan_mu_params():
    params = _mirror_params()
    mu = np.array(params.mu)
    mu[1, 0, 2] = np.nan
    mu[:, 2, 3] = np.nan
    return replace(params, mu=mu)


def _odd_label_params():
    params = _mirror_params()
    mu = np.array(params.mu)
    mu[0, 0, 1] = np.inf
    mu[2, 1, 0] = -np.inf
    return replace(params, mu=mu, labels=('a"b', "c,d %s", "Zürich\\ %%", "東京{0}"))


@pytest.mark.parametrize(
    "make",
    [
        _mirror_params,
        _nan_mu_params,
        _odd_label_params,
        lambda: _mirror_params(shrink=False),
        lambda: armington_world(n=4, seed=2).params,
    ],
    ids=["periods-sort-as-text", "nan-mu", "escaped-labels", "no-shrink", "baseline"],
)
def test_params_json_bytes_match_json_dumps(tmp_path, make):
    params = make()
    path = tmp_path / "params.json"
    dataio.write_params_json(path, params)
    expected = json.dumps(params_json_doc(params), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


def test_params_json_optional_keys(tmp_path):
    path = tmp_path / "params.json"
    dataio.write_params_json(path, _mirror_params(shrink=False))
    assert "_shrunk" not in path.read_text(encoding="utf-8")
    dataio.write_params_json(path, armington_world(n=4, seed=2).params)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["periods"] is None
    first, second = doc["labels"][:2]
    assert isinstance(doc["dyads"][f"{first}->{second}"]["mu"], float)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: e.pop("p"), "p is missing or null"),
        (lambda e: e.update(b=None), "b is missing or null"),
        (lambda e: e.update(sigma2=None), "sigma2 is missing or null"),
        (lambda e: e.pop("sigma2_shrunk"), "sigma2_shrunk is missing or null"),
        (lambda e: e.pop("mu"), "mu is missing"),
    ],
)
def test_params_json_refuses_lost_values(edit, message):
    # A lost value is an error, not "no measurement error"; only mu may be null.
    doc = params_json_doc(_mirror_params())
    key = sorted(doc["dyads"])[6]
    edit(doc["dyads"][key])
    with pytest.raises(DataError, match=f"params dyad '{key}': {message}"):
        dataio.params_from_json(doc)


def test_params_json_shrunk_pair_on_every_dyad_or_none():
    doc = params_json_doc(_mirror_params(shrink=False))
    key = sorted(doc["dyads"])[6]
    doc["dyads"][key]["s2_shrunk"] = 0.1
    with pytest.raises(DataError, match="shrunk variances on some dyads only"):
        dataio.params_from_json(doc)
    doc = params_json_doc(_mirror_params())
    doc["dyads"][key]["mu"] = None
    assert np.isnan(dataio.params_from_json(doc).mu[:, 1, 2]).all()


def test_mirror_csv_golden(tmp_path):
    nan = np.nan
    r1 = np.array(
        [
            [[nan, 1.5, 0.1], [2.0, nan, nan], [0.0, 1e-07, nan]],
            [[nan, nan, 0.1 + 0.2], [4.0, nan, 5.5], [6.0, 7.0, nan]],
        ]
    )
    r2 = np.array(
        [
            [[nan, 1.25, nan], [2.5, nan, 3.0], [nan, 12345678.9, nan]],
            [[nan, 1.0, 1.0], [1.0, nan, nan], [1.0, 1.0, nan]],
        ]
    )
    path = tmp_path / "mirror.csv"
    dataio.write_mirror_csv(path, ("A", "B,C", "D"), (2001, 2002), r1, r2)
    expected = (
        "origin,destination,year,flow_report1,flow_report2\r\n"
        'A,"B,C",2001,1.5,1.25\r\n'
        "A,D,2001,0.1,\r\n"
        '"B,C",A,2001,2.0,2.5\r\n'
        '"B,C",D,2001,,3.0\r\n'
        "D,A,2001,0.0,\r\n"
        'D,"B,C",2001,1e-07,12345678.9\r\n'
        'A,"B,C",2002,,1.0\r\n'
        "A,D,2002,0.30000000000000004,1.0\r\n"
        '"B,C",A,2002,4.0,1.0\r\n'
        '"B,C",D,2002,5.5,\r\n'
        "D,A,2002,6.0,1.0\r\n"
        'D,"B,C",2002,7.0,1.0\r\n'
    )
    assert path.read_bytes() == expected.encode()


def test_mirror_csv_exact_round_trip(tmp_path):
    scen = mirror_world(n=7, t=12, seed=4, p_zero=0.1, b_zero=0.05)
    path = tmp_path / "mirror.csv"
    panel = scen.panel
    dataio.write_mirror_csv(path, panel.labels, panel.periods, panel.report1, panel.report2)
    back = ingest_mirror_csv(path)
    assert back.labels == panel.labels
    assert back.periods == panel.periods
    np.testing.assert_array_equal(back.report1, panel.report1)
    np.testing.assert_array_equal(back.report2, panel.report2)


def test_columns_csv(tmp_path):
    path = tmp_path / "cols.csv"
    x = np.array([-0.9208779009832093, 0.1 + 0.2, 1e-300])
    dataio.write_columns_csv(path, ["x", "n"], [x, np.array([3, 0, 12])])
    expected = "x,n\n-0.9208779009832093,3\n0.30000000000000004,0\n1e-300,12\n"
    assert path.read_text(encoding="utf-8") == expected
    dataio.write_columns_csv(path, ["x"], [np.empty(0)])
    assert path.read_text(encoding="utf-8") == "x\n"


# One reader parses every dyadic CSV; each format only places the values.
# Each entry: the header, a row's value cells for one value, and the read
# matrix over the given labels (report 1 of the first year for a mirror).
DYADIC_READERS = {
    "flows": ("flow", lambda v: v, lambda path, labels: dataio.read_flows_csv(path).values),
    "distances": (
        "distance",
        lambda v: v,
        lambda path, labels: dataio.read_distances_csv(path, labels).values,
    ),
    "costs": (
        "cost",
        lambda v: v,
        lambda path, labels: np.exp(dataio.read_costs_csv(path, labels)),
    ),
    "cost-changes": (
        "tau_prop",
        lambda v: v,
        lambda path, labels: dataio.read_cf_spec_csv(path, labels).tau_prop,
    ),
    "mirror": (
        "year,flow_report1,flow_report2",
        lambda v: f"2000,{v},{v}",
        lambda path, labels: dataio.read_mirror_csv(path)[2][0],
    ),
}


def _write_dyadic(path, kind, rows, bom=False):
    columns, cells, _ = DYADIC_READERS[kind]
    lines = [f"origin,destination,{columns}"]
    lines += [row if isinstance(row, str) else f"{row[0]},{row[1]},{cells(row[2])}"
              for row in rows]
    text = ("\ufeff" if bom else "") + "\n".join(lines) + "\n"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("kind", DYADIC_READERS)
def test_dyadic_reader_skips_blank_rows_and_reads_quoted_labels_and_a_bom(tmp_path, kind):
    path = _write_dyadic(
        tmp_path / "in.csv",
        kind,
        [("\"Paris, FR\"", "B", 2.5), "", "   ", " , , ", ("B ", "\"Paris, FR\"", 3.5)],
        bom=True,
    )
    labels = ("B", "Paris, FR")
    values = DYADIC_READERS[kind][2](path, labels)
    assert values[1, 0] == 2.5 and values[0, 1] == 3.5
    if kind == "mirror":
        assert dataio.read_mirror_csv(path)[:2] == (list(labels), [2000])


@pytest.mark.parametrize("kind", DYADIC_READERS)
@pytest.mark.parametrize(
    "rows, row, message",
    [
        (None, 1, "expected header"),
        ([("A", "B", 1), "A,B,1,1,1,1"], 3, "fields"),
        ([("A", "B", 1), ("B", "A", "oops")], 3, "bad"),
        ([("A", "B", 1), ("B", "A", "inf")], 3, "non-finite"),
        ([("A", "B", 1), ("B", "A", "nan")], 3, "non-finite"),
        # The first bad row is reported, also when a later one fails to parse.
        ([("A", "B", "-inf"), ("B", "A", 1), ("B", "A", "x")], 2, "non-finite"),
        # A duplicate is reported at its second row, after every row parsed.
        ([("A", "B", 1), (" A ", " B ", 2), ("B", "A", 3)], 3, "duplicate"),
        ([("A", "B", 1), ("A", "B", 2), ("B", "A", "x")], 4, "bad"),
        ([], 2, "no data rows"),
    ],
)
def test_dyadic_reader_row_errors(tmp_path, kind, rows, row, message):
    if rows is None:
        path = tmp_path / "in.csv"
        path.write_text("origin,dest,value\nA,B,1\n", encoding="utf-8")
    else:
        path = _write_dyadic(tmp_path / "in.csv", kind, rows)
    with pytest.raises(ParseError, match=message) as info:
        DYADIC_READERS[kind][2](path, ("A", "B"))
    assert info.value.row == row


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("flows", 0.0),
        ("distances", 7.0),  # the reverse dyad
        ("costs", 1.0),
        ("cost-changes", 1.0),
        ("mirror", np.nan),  # missing
    ],
)
def test_blank_cell_is_an_absent_dyad(tmp_path, kind, expected):
    path = _write_dyadic(tmp_path / "in.csv", kind, [("A", "B", 7.0), ("B", "A", "")])
    np.testing.assert_array_equal(DYADIC_READERS[kind][2](path, ("A", "B"))[1, 0], expected)


def test_unknown_locations(tmp_path):
    # Cost levels and cost changes must name known locations; distances to
    # other locations are ignored.
    for kind in ("costs", "cost-changes"):
        path = _write_dyadic(tmp_path / f"{kind}.csv", kind, [("A", "B", 2.0), ("A", "Z", 2.0)])
        with pytest.raises(DataError, match="unknown location A->Z"):
            DYADIC_READERS[kind][2](path, ("A", "B"))
    path = _write_dyadic(tmp_path / "d.csv", "distances", [("A", "B", 2.0), ("A", "Z", 3.0)])
    distances = dataio.read_distances_csv(path, ("A", "B")).values
    np.testing.assert_array_equal(distances, [[1, 2], [2, 1]])


def test_read_mirror_csv_inverts_the_writer(tmp_path):
    nan = np.nan
    r1 = np.array([[[nan, 1.5, 0.0], [2.0, nan, nan], [nan, 1e-07, nan]]])
    r2 = np.array([[[nan, nan, 3.0], [2.5, nan, 0.1 + 0.2], [nan, 4.0, nan]]])
    path = tmp_path / "mirror.csv"
    dataio.write_mirror_csv(path, ("A", "B,C", "D"), (1999,), r1, r2)
    labels, periods, back1, back2 = dataio.read_mirror_csv(path)
    assert labels == ["A", "B,C", "D"] and periods == [1999]
    np.testing.assert_array_equal(back1, r1)
    np.testing.assert_array_equal(back2, r2)


def test_mirror_reader_refuses_negative_and_own_flows(tmp_path):
    path = _write_dyadic(tmp_path / "m.csv", "mirror", [("A", "B", 1), ("B", "A", -2.0)])
    with pytest.raises(ParseError, match="negative flow") as info:
        dataio.read_mirror_csv(path)
    assert info.value.row == 3
    path = _write_dyadic(tmp_path / "m.csv", "mirror", [("A", "B", 1), (" A", "A ", 2)])
    with pytest.raises(ParseError, match="own flows") as info:
        dataio.read_mirror_csv(path)
    assert info.value.row == 3


def test_params_json_must_list_every_dyad():
    doc = params_json_doc(armington_world(n=4, seed=2).params)
    first, second = doc["labels"][:2]
    del doc["dyads"][f"{first}->{second}"]
    with pytest.raises(DataError, match=f"params file has no dyad '{first}->{second}'"):
        dataio.params_from_json(doc)


def test_write_json_is_strict(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        dataio.write_json(path, {"x": float("nan")})
    assert not path.exists()
    dataio.write_json(path, {"x": None, "y": 1.5})
    assert json.loads(path.read_text(encoding="utf-8")) == {"x": None, "y": 1.5}


# The reader takes whole lines in chunks of about _CHUNK_CHARS characters.
# Run with every chunk size from one line at a time up to the whole file, a
# chunk boundary falls at every line, also inside a quoted record.
MIRROR_HEAD = "origin,destination,year,flow_report1,flow_report2"


def _chunk_sizes(text):
    return range(1, len(text) + 2)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_quoted_label_with_a_comma_and_a_line_break_across_chunks(tmp_path, monkeypatch, eol):
    lines = [
        MIRROR_HEAD,
        "A,B,2000,1.0,2.0",
        '"Paris,' + eol + 'FR",A,2000,3.0,4.0',
        'A,"Paris,' + eol + 'FR",2000,5.0,',
        "B,A,2000,6.0,7.0",
    ]
    text = eol.join(lines) + eol
    path, again = tmp_path / "m.csv", tmp_path / "again.csv"
    path.write_bytes(text.encode("utf-8"))
    again.write_bytes((text + "B,A,2000,8.0,8.0" + eol).encode("utf-8"))
    nan = np.nan
    for size in _chunk_sizes(text):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        labels, periods, r1, r2 = dataio.read_mirror_csv(path)
        assert labels == ["A", "B", f"Paris,{eol}FR"] and periods == [2000], size
        np.testing.assert_array_equal(r1[0], [[nan, 1.0, 5.0], [6.0, nan, nan], [3.0, nan, nan]])
        np.testing.assert_array_equal(r2[0], [[nan, 2.0, nan], [7.0, nan, nan], [4.0, nan, nan]])
        # Rows count records: the quoted records take two lines each.
        with pytest.raises(ParseError, match="duplicate") as info:
            dataio.read_mirror_csv(again)
        assert info.value.row == 6


@pytest.mark.parametrize("kind", ["flows", "mirror"])
def test_blank_rows_at_chunk_boundaries(tmp_path, monkeypatch, kind):
    rows = [("A", "B", 1.5), "", "   ", " , , ", " , , , , ", ("B", "A", 2.5), " , , ", ""]
    path = _write_dyadic(tmp_path / "in.csv", kind, rows)
    text = path.read_text(encoding="utf-8")
    for size in _chunk_sizes(text):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        values = DYADIC_READERS[kind][2](path, ("A", "B"))
        assert values[0, 1] == 1.5 and values[1, 0] == 2.5, size
    # A row after the blank ones keeps its record number.
    path = _write_dyadic(tmp_path / "in.csv", kind, rows + [("B", "A", "x")])
    for size in _chunk_sizes(text):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        with pytest.raises(ParseError, match="bad") as info:
            DYADIC_READERS[kind][2](path, ("A", "B"))
        assert info.value.row == 10


def test_first_bad_row_is_reported_across_chunks(tmp_path, monkeypatch):
    # A non-finite cell in the first chunk, an unparsable one in the second:
    # the reader stops at the second, but reports the first.
    rows = [("A", "B", 1.0), ("B", "A", "inf"), ("A", "C", 2.0), ("C", "A", "x")]
    path = _write_dyadic(tmp_path / "in.csv", "flows", rows)
    monkeypatch.setattr(dataio, "_CHUNK_CHARS", 20)
    with pytest.raises(ParseError, match="non-finite flow 'inf'") as info:
        dataio.read_flows_csv(path)
    assert info.value.row == 3
    rows[1] = ("B", "A", 2.0)
    path = _write_dyadic(tmp_path / "in.csv", "flows", rows)
    with pytest.raises(ParseError, match="bad flow 'x'") as info:
        dataio.read_flows_csv(path)
    assert info.value.row == 5


def test_duplicate_reported_at_its_second_row_across_chunks(tmp_path, monkeypatch):
    rows = [("A", "B", 1.0), ("B", "A", 2.0), ("A", "C", 3.0), ("C", "A", 4.0), (" A", "B ", 5.0)]
    path = _write_dyadic(tmp_path / "in.csv", "mirror", rows)
    for size in (1, 30, 60):
        monkeypatch.setattr(dataio, "_CHUNK_CHARS", size)
        with pytest.raises(ParseError, match=r"duplicate dyad-period \('A', 'B', 2000\)") as info:
            dataio.read_mirror_csv(path)
        assert info.value.row == 6


@pytest.mark.parametrize("kind, width", [("flows", 3), ("mirror", 5)])
def test_ragged_rows_that_make_up_each_others_fields(tmp_path, kind, width):
    # One row a field long and the next a field short hold the chunk's count
    # of cells, but not one row of the header's width each.
    long, short = ",".join(["1"] * (width + 1)), ",".join(["1"] * (width - 1))
    path = _write_dyadic(tmp_path / "in.csv", kind, [("A", "B", 1), long, short])
    with pytest.raises(ParseError, match=f"expected {width} fields, got {width + 1}") as info:
        DYADIC_READERS[kind][2](path, ("A", "B"))
    assert info.value.row == 3


def test_blank_year_is_bad(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(MIRROR_HEAD + "\nA,B,2000,1,1\nB,A,,2,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad year ''") as info:
        dataio.read_mirror_csv(path)
    assert info.value.row == 3


def test_blank_report_on_the_split_path_is_missing(tmp_path):
    # "A,B,2000,,1.5" has no quote and the header's comma count, so its chunk
    # is split without csv.reader.
    path = tmp_path / "m.csv"
    rows = ["A,B,2000,,1.5", "B,A,2000,2.0,2.5", "A,B,2001,1.0,1.0", "B,A,2001,3.0,3.0"]
    path.write_text("\n".join([MIRROR_HEAD, *rows]) + "\n", encoding="utf-8")
    _, _, r1, r2 = dataio.read_mirror_csv(path)
    assert np.isnan(r1[0, 0, 1]) and r2[0, 0, 1] == 1.5
    panel = ingest_mirror_csv(path)
    assert panel.report1[0, 0, 1] == 0.0 and panel.na_zeroed == 1 and panel.na_copied == 0


# Tokenizer equivalence: the chunked column parse against one csv.reader row
# loop, on tables whose labels need quoting and whose lines end in LF, CRLF
# or CR.  U+2028 and U+0085 end a line for str.splitlines but not for csv.
_ODD_LABEL = st.text(st.sampled_from(list('AbZ ,"é東\u2028\u0085\n\r')), max_size=5)
_LABEL = st.one_of(st.sampled_from(["A", "B", " C ", "DD"]), _ODD_LABEL)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", " ", " 2.5 ", "-0.0", "1e-300", "7"]),
)
_YEAR = st.sampled_from(["1999", "2000", " 2001 ", "2000.0"])
# A table that is not clean may also hold a bad or non-finite cell, a ragged
# row or a repeated key.
_BAD_NUMBER = st.sampled_from(["inf", "nan", "x", "1.5.0"])
_BAD_YEAR = st.sampled_from(["", "nan", "2000.5", "x"])


def _field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _tables(draw):
    mirror = draw(st.booleans())
    clean = draw(st.booleans())
    header = dataio._MIRROR_HEADER if mirror else ("origin", "destination", "flow")
    width = len(header)
    labels = draw(st.lists(_LABEL, min_size=1, max_size=5))
    lines, keys = [",".join(header)], set()
    for _ in range(draw(st.integers(1, 15))):
        shape = draw(st.sampled_from(["row"] * 8 + ["blank"] + ["ragged"] * (not clean)))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "   ", " , , ", " , , , , "])))
            continue
        bad = not clean and draw(st.integers(0, 9)) == 0
        cells = [draw(st.sampled_from(labels)), draw(st.sampled_from(labels))]
        if mirror:
            cells.append(draw(_BAD_YEAR if bad and draw(st.booleans()) else _YEAR))
        cells += [draw(_NUMBER) for _ in range(width - len(cells))]
        if bad:
            cells[draw(st.integers(len(cells) - 1, width - 1))] = draw(_BAD_NUMBER)
        if clean:
            key = (cells[0].strip(), cells[1].strip(), float(cells[2]) if mirror else 0)
            if key in keys:
                continue
            keys.add(key)
        if shape == "ragged":
            short = draw(st.booleans())
            cells = cells[: draw(st.integers(1, width - 1))] if short else cells + ["1"]
        lines.append(",".join(_field(c, draw(st.integers(0, 9)) == 0) for c in cells))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    bom = "\ufeff" if draw(st.booleans()) else ""
    return header, (bom + text).encode("utf-8"), draw(st.integers(1, 200))


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return ("ParseError", exc.row, str(exc))


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_chunked_reader_matches_a_csv_row_loop(tmp_path_factory, table):
    header, data, chunk = table
    path = tmp_path_factory.mktemp("table") / "in.csv"
    path.write_bytes(data)
    what = header[-1] if len(header) == 3 else "flow"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_CHARS", chunk)
        got = _outcome(lambda: dataio._read_table(path, header, what))
    expected = _outcome(lambda: read_table_rows(path, header, what))
    if expected[0] == "ParseError":
        assert got == expected
        return
    labels, periods, rows = expected
    assert got[:2] == (labels, periods)
    i, j, k, values = got[2:]
    np.testing.assert_array_equal(i, [r[0] for r in rows])
    np.testing.assert_array_equal(j, [r[1] for r in rows])
    np.testing.assert_array_equal(k, [r[2] for r in rows])
    np.testing.assert_array_equal(values, np.array([r[3] for r in rows]).reshape(values.shape))
