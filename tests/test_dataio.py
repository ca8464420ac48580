import json
from dataclasses import replace

import numpy as np
import pytest

from flowuq import DataError, ParseError, calibrate_mirror, ingest_mirror_csv
from flowuq import dataio
from flowuq.scenarios import armington_world, mirror_world

from .oracles import params_json_doc


def test_flows_csv_roundtrip(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(
        "origin,destination,flow\n"
        "B,A,2.5\n"
        "A,B,1.5\n"
        "A,A,4.0\n"
    )
    fm = dataio.read_flows_csv(path)
    assert fm.labels == ("A", "B")
    assert fm.values[0, 1] == 1.5
    assert fm.values[1, 0] == 2.5
    assert fm.values[1, 1] == 0.0  # missing dyad is an explicit zero


def test_flows_csv_errors(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text("origin,destination,flow\nA,B,oops\n")
    with pytest.raises(ParseError) as info:
        dataio.read_flows_csv(path)
    assert info.value.row == 2
    path.write_text("origin,dest,flow\nA,B,1.0\n")
    with pytest.raises(ParseError):
        dataio.read_flows_csv(path)
    path.write_text("origin,destination,flow\nA,B,1.0\nA,B,2.0\n")
    with pytest.raises(ParseError):
        dataio.read_flows_csv(path)
    with pytest.raises(DataError):
        dataio.read_flows_csv(tmp_path / "nope.csv")


def test_distances_fallback_to_reverse(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("origin,destination,distance\nA,B,7.0\n")
    dm = dataio.read_distances_csv(path, ["A", "B"])
    assert dm.values[0, 1] == 7.0
    assert dm.values[1, 0] == 7.0  # reverse direction fallback
    path.write_text("origin,destination,distance\nA,B,7.0\n")
    with pytest.raises(DataError):
        dataio.read_distances_csv(path, ["A", "B", "C"])


def test_cf_spec_defaults_to_one(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("origin,destination,tau_prop\nA,B,1.1\n")
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
    return replace(params, mu=mu, labels=('a"b', "c,d", "Zürich\\", "東京"))


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
    assert "_shrunk" not in path.read_text()
    dataio.write_params_json(path, armington_world(n=4, seed=2).params)
    doc = json.loads(path.read_text())
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
    assert path.read_text() == "x,n\n-0.9208779009832093,3\n0.30000000000000004,0\n1e-300,12\n"
    dataio.write_columns_csv(path, ["x"], [np.empty(0)])
    assert path.read_text() == "x\n"
