import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowuq import DataError, DrawSet, ParseError, calibrate_mirror, ingest_mirror_csv
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
        labels=("x", "y", "z"),
    )
    path = tmp_path / "draws.csv"
    dataio.write_draws_csv(path, ds)
    back = dataio.read_draws_csv(path)
    assert back.labels == ("x", "y", "z")
    np.testing.assert_array_equal(back.draws, ds.draws)


def test_draws_csv_refuses_a_repeated_label(tmp_path):
    # DrawSet owns the repeated-label rule, for read and built draw sets alike.
    path = tmp_path / "draws.csv"
    path.write_text("A,B, A\n1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"labels must be unique; repeated: \['A'\]"):
        dataio.read_draws_csv(path)


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
    return replace(_mirror_params(), labels=('a"b', "c,d %s", "Zürich\\ %%", "東京{0}"))


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


def test_params_json_reads_files_with_the_old_mu_defined_flag(tmp_path):
    # A null mu is what marks a dyad without a prior mean; files written
    # before that also carry a "mu_defined" flag, and mirror files an
    # "me_observed" flag that nothing read; the reader ignores both.
    params = _mirror_params()
    path = tmp_path / "params.json"
    dataio.write_params_json(path, params)
    text = path.read_text(encoding="utf-8")
    assert "mu_defined" not in text and "me_observed" not in text
    doc = params_json_doc(params)
    for entry in doc["dyads"].values():
        entry["mu_defined"] = True
        entry["me_observed"] = False
    back = dataio.params_from_json(doc)
    np.testing.assert_array_equal(back.mu, dataio.read_params_json(path).mu)
    again = tmp_path / "again.json"
    dataio.write_params_json(again, back)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: armington_world(n=6, seed=1).params,
        _mirror_params,
        lambda: replace(_mirror_params(), sigma2_shrunk=None),
        lambda: replace(_mirror_params(), s2_shrunk=None),
    ],
    ids=["baseline", "mirror", "s2-shrunk-only", "sigma2-shrunk-only"],
)
def test_params_json_rewrites_what_it_reads_byte_for_byte(tmp_path, make):
    # A file read and written back is the file: nothing is added on the way.
    path, again = tmp_path / "params.json", tmp_path / "again.json"
    dataio.write_params_json(path, make())
    dataio.write_params_json(again, dataio.read_params_json(path))
    assert again.read_bytes() == path.read_bytes()


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


def test_params_json_refuses_repeated_labels():
    # With "A" twice, every "A->..." entry lands in the second row and the
    # first stays all zeros; the labels are refused instead.
    params = armington_world(n=3, seed=1).params
    doc = params_json_doc(replace(params, labels=("A", "C", "B")))
    doc["dyads"] = {key: entry for key, entry in doc["dyads"].items() if "C" not in key}
    doc["labels"] = ["A", "A", "B"]
    with pytest.raises(DataError, match=r"labels must be unique; repeated: \['A'\]"):
        dataio.params_from_json(doc)


def test_params_json_keys_are_read_whole(tmp_path):
    # A label may contain "->": each key is looked up among the n * n keys
    # the labels give, not split at its first arrow.
    params = replace(armington_world(n=2, seed=1).params, labels=("A->B", "B"))
    path = tmp_path / "params.json"
    dataio.write_params_json(path, params)
    back = dataio.read_params_json(path)
    assert back.labels == params.labels
    for name in ("p", "b", "s2", "sigma2", "mu"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
    # Unless two dyads share a key: (A, B->C) and (A->B, C) are both A->B->C.
    clash = replace(armington_world(n=4, seed=1).params, labels=("A", "A->B", "B->C", "C"))
    with pytest.raises(DataError, match="two dyads the params key 'A->B->C'"):
        dataio.write_params_json(tmp_path / "clash.json", clash)
    assert not (tmp_path / "clash.json").exists()
    with pytest.raises(DataError, match="two dyads the params key 'A->B->C'"):
        dataio.params_from_json(params_json_doc(clash))


def test_params_json_shrunk_pair_on_every_dyad_or_none():
    doc = params_json_doc(_mirror_params())
    key = sorted(doc["dyads"])[6]
    doc["dyads"][key]["mu"] = None
    assert np.isnan(dataio.params_from_json(doc).mu[:, 1, 2]).all()
    # Each shrunk variance is on every dyad or on none, whatever the other.
    for params, extra in (
        (_mirror_params(shrink=False), "s2_shrunk"),
        (replace(_mirror_params(), sigma2_shrunk=None), "sigma2_shrunk"),
    ):
        doc = params_json_doc(params)
        doc["dyads"][key][extra] = 0.1
        with pytest.raises(DataError, match="shrunk variances on some dyads only"):
            dataio.params_from_json(doc)


def test_params_json_reads_hand_edited_numbers():
    # An integer reads as its float; a boolean is no number.
    doc = params_json_doc(_mirror_params())
    key = sorted(doc["dyads"])[6]
    doc["dyads"][key]["p"] = 0
    doc["dyads"][key]["mu"]["10"] = -2
    back = dataio.params_from_json(doc)
    i, j = (back.labels.index(lab) for lab in key.split("->"))
    assert back.p[i, j] == 0.0 and back.mu[1, i, j] == -2.0
    assert back.p.dtype == float
    doc["dyads"][key]["p"] = True
    with pytest.raises(DataError, match=f"params dyad '{key}': p must be a number, got True"):
        dataio.params_from_json(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda mu: mu.pop("10"),  # would read as an all-NaN prior mean
        lambda mu: mu.update({"12": 1.0}),  # would be dropped
        lambda mu: mu.update({"9.0": mu.pop("9")}),
    ],
    ids=["missing-period", "extra-period", "period-spelt-otherwise"],
)
def test_params_json_per_period_mu_is_keyed_by_exactly_the_periods(edit):
    doc = params_json_doc(_mirror_params())
    keys = sorted(doc["dyads"])
    doc["dyads"][keys[1]]["mu"] = None  # a null mu stays allowed,
    doc["dyads"][keys[2]]["mu"]["11"] = None  # and so does a null value in one
    dataio.params_from_json(doc)
    edit(doc["dyads"][keys[6]]["mu"])
    message = f"params dyad '{keys[6]}': per-period mu must be keyed by exactly the periods"
    with pytest.raises(DataError, match=message):
        dataio.params_from_json(doc)


def test_params_json_refuses_repeated_periods():
    # Every mu object is keyed by the periods listed, but for_period(9)
    # would take the first of the two slices of period 9.
    doc = params_json_doc(_mirror_params())
    doc["periods"] = [9, 10, 9, 11]
    with pytest.raises(DataError, match=r"periods must be unique; repeated: \[9\]"):
        dataio.params_from_json(doc)


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
    dataio.write_columns_csv(path, ["x", "n"], [np.empty(0), np.empty(0, dtype=int)])
    assert path.read_text(encoding="utf-8") == "x,n\n"


def test_columns_csv_in_blocks(tmp_path, monkeypatch):
    # Two and a half blocks of rows give the text of the rows written at once.
    monkeypatch.setattr(dataio, "_BLOCK_ROWS", 4)
    x = np.random.default_rng(5).normal(size=10) * 10.0 ** np.arange(-5, 5)
    n = np.arange(10) - 3
    path = tmp_path / "cols.csv"
    dataio.write_columns_csv(path, ["x", "n"], [x, n])
    rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), n.tolist())]
    assert path.read_bytes() == ("\n".join(["x,n", *rows]) + "\n").encode("utf-8")


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


@pytest.mark.parametrize("digits", [400, 5000])
def test_params_json_refuses_an_integer_beyond_the_float_range(tmp_path, digits):
    # float() overflows on 400 digits; json.load itself refuses 5000 digits
    # on Pythons that limit integer text.
    params = armington_world(n=2, seed=2).params
    path = tmp_path / "params.json"
    dataio.write_params_json(path, params)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"p": 0.0', '"p": 1' + "0" * digits, 1), encoding="utf-8")
    with pytest.raises(DataError, match="p must be a number|invalid JSON"):
        dataio.read_params_json(path)


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


def _assert_same_table(got, expected):
    """``_read_table``'s result equals ``read_table_rows``'s."""
    labels, periods, rows = expected
    assert got[:2] == (labels, periods)
    i, j, k, values = got[2:]
    np.testing.assert_array_equal(i, [r[0] for r in rows])
    np.testing.assert_array_equal(j, [r[1] for r in rows])
    np.testing.assert_array_equal(k, [r[2] for r in rows])
    np.testing.assert_array_equal(values, np.array([r[3] for r in rows]).reshape(values.shape))


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
    _assert_same_table(got, expected)


def test_a_stray_quote_in_a_label_keeps_chunks_bounded(tmp_path, monkeypatch):
    # From the first chunk with a '"' (here row 2's 'A"x', which csv.reader
    # reads as text) one csv.reader reads the rest of the file, at most as
    # many records at a time as that chunk has lines, never the whole file
    # at once.  A quoted label with a comma still reads whole.
    labels = ['A"x', '"Paris, FR"'] + [f"L{i:02d}" for i in range(78)]
    rng = np.random.default_rng(0)
    pairs = [(o, d) for o in labels for d in labels if o != d][:5000]
    lines = ["origin,destination,flow"] + [f"{o},{d},{rng.random()!r}" for o, d in pairs]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as handle:
        handle.readline()
        first = handle.readlines(1000)
    assert '"' in "".join(first)
    batches = []
    real = dataio._split

    def recording(handle, width):
        for batch in real(handle, width):
            batches.append(len(batch[1]))
            yield batch

    monkeypatch.setattr(dataio, "_CHUNK_CHARS", 1000)
    monkeypatch.setattr(dataio, "_split", recording)
    header = ("origin", "destination", "flow")
    got = dataio._read_table(path, header, "flow")
    assert sum(batches) == len(pairs) and len(batches) > 100
    assert max(batches) <= len(first)
    _assert_same_table(got, read_table_rows(path, header, "flow"))


# Draw labels that csv.writer quotes (a comma, a '"') or that are not ASCII;
# labels are stripped on reading, so none starts or ends with whitespace.
_DRAW_LABEL = st.text(st.sampled_from(list('aZ ,"é東€')), min_size=1, max_size=6).filter(
    lambda lab: lab == lab.strip()
)
_DRAW = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
)


@st.composite
def _draw_sets(draw):
    labels = draw(st.lists(_DRAW_LABEL, min_size=1, max_size=40, unique=True))
    b = draw(st.integers(1, 50))
    draws = draw(st.lists(st.lists(_DRAW, min_size=len(labels), max_size=len(labels)),
                          min_size=b, max_size=b))
    return DrawSet(draws=np.array(draws), labels=tuple(labels))


@settings(max_examples=200, deadline=None)
@given(_draw_sets(), st.data())
def test_draws_csv_round_trips_bit_for_bit(tmp_path_factory, ds, data):
    path = tmp_path_factory.mktemp("draws") / "draws.csv"
    dataio.write_draws_csv(path, ds)
    # Blank, whitespace-only and blank-cell lines between the records.
    filler = st.sampled_from(["", "  ", "\t", ",".join([" "] * len(ds.labels))])
    records = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
    lines = [line for r in records for line in [r, *data.draw(st.lists(filler, max_size=2))]]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK_CHARS", data.draw(st.integers(1, 400)))
        back = dataio.read_draws_csv(path)
    assert back.labels == ds.labels
    assert back.draws.tobytes() == ds.draws.tobytes()


def test_draws_csv_skips_blank_rows_like_every_input(tmp_path):
    path = tmp_path / "draws.csv"
    path.write_text("a,b\n1.0,2.0\n\n   \n,\n , \n3.0,4.0\n", encoding="utf-8")
    back = dataio.read_draws_csv(path)
    np.testing.assert_array_equal(back.draws, [[1.0, 2.0], [3.0, 4.0]])
    # A row after the skipped ones keeps its record number.
    path.write_text("a,b\n1.0,2.0\n\n   \n,\n3.0,x\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"^row 6: bad draw 'x'$"):
        dataio.read_draws_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1.0,2.0\n3.0, \n", "row 3: bad draw ''"),
        ("a,b\n1.0,2.0\n3.0,inf\n4.0,x\n", "row 3: non-finite draw 'inf'"),
        ("a,b\n1.0,x\n2.0,nan\n", "row 2: bad draw 'x'"),
        ("a,b\n1.0,nan\n2.0\n", "row 2: non-finite draw 'nan'"),
        ("a,b\n1.0,2.0\n\n2.0\n", "row 4: expected 2 fields, got 1"),
        ("a,b\n1.0,2.0,3.0\n", "row 2: expected 2 fields, got 3"),
        ("\na,b\n1.0,2.0\n", "row 1: missing header"),
        ("a,b\n\n , \n", "row 2: no draws"),
    ],
    ids=["blank-cell", "non-finite-first", "bad-first", "non-finite-before-ragged", "ragged",
         "long", "blank-header", "only-blank-rows"],
)
def test_draws_csv_row_errors(tmp_path, text, message):
    path = tmp_path / "draws.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        dataio.read_draws_csv(path)


def test_draws_csv_with_many_columns_reads_in_linear_time(tmp_path):
    # The repeated-label rule used to compare each label with every earlier
    # one: 3.5 s for this file.
    q = 20_000
    path = tmp_path / "draws.csv"
    path.write_text(",".join(f"c{k}" for k in range(q)) + "\n"
                    + ",".join(repr(k / 7) for k in range(q)) + "\n", encoding="utf-8")
    start = time.perf_counter()
    back = dataio.read_draws_csv(path)
    assert time.perf_counter() - start < 1.0
    assert back.labels[-1] == f"c{q - 1}"
    np.testing.assert_array_equal(back.draws, [[k / 7 for k in range(q)]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_dyadic_csv_refuses_a_value_no_reader_takes(tmp_path, bad):
    values = np.ones((3, 3))
    values[2, 0], values[2, 1] = bad, bad
    path = tmp_path / "flows.csv"
    with pytest.raises(DataError, match=r"^flow for C->A is not finite$"):
        dataio.write_dyadic_csv(path, ("A", "B", "C"), values, "flow")
    assert not path.exists()


def test_write_mirror_csv_refuses_an_infinite_report(tmp_path):
    r1 = np.full((2, 2, 2), np.nan)
    r1[:, 0, 1], r1[:, 1, 0] = 1.0, 2.0
    r2 = r1.copy()
    r2[1, 1, 0] = np.inf
    path = tmp_path / "mirror.csv"
    with pytest.raises(DataError, match=r"^report 2 for B->A in 2002 is infinite$"):
        dataio.write_mirror_csv(path, ("A", "B"), (2001, 2002), r1, r2)
    assert not path.exists()
    # A NaN report is still a blank cell: a missing report.
    r2[1, 1, 0] = np.nan
    dataio.write_mirror_csv(path, ("A", "B"), (2001, 2002), r1, r2)
    assert path.read_text(encoding="utf-8").endswith("B,A,2002,2.0,\n")
