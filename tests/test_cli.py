import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowuq import cli, dataio, engine, gravity
from flowuq.calibration import sample_flow_matrix
from flowuq.cli import main
from flowuq.scenarios import armington_world, mirror_world

from .test_calibration import panel_without_report1_flows_in
from .test_gravity import singular_world


@pytest.fixture()
def mirror_files(tmp_path):
    scen = mirror_world(n=6, t=5, seed=3)
    mirror = tmp_path / "mirror.csv"
    dist = tmp_path / "distances.csv"
    dataio.write_mirror_csv(
        mirror, scen.labels, scen.periods, scen.panel.report1, scen.panel.report2
    )
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    return scen, mirror, dist


@pytest.fixture()
def armington_files(tmp_path):
    scen = armington_world(n=6, seed=1)
    rng = np.random.default_rng(0)
    _, obs = scen.draw_world(rng)
    flows = tmp_path / "flows.csv"
    dist = tmp_path / "aw_distances.csv"
    costs = tmp_path / "costs.csv"
    params = tmp_path / "params.json"
    dataio.write_dyadic_csv(flows, scen.labels, obs.values, "flow")
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    dataio.write_dyadic_csv(costs, scen.labels, np.exp(scen.log_costs), "cost")
    dataio.write_params_json(params, scen.params)
    return scen, flows, dist, costs, params


def test_calibrate_mirror_writes_artifacts(mirror_files, tmp_path):
    _, mirror, dist = mirror_files
    out = tmp_path / "calib"
    code = main(
        [
            "calibrate",
            "--mirror",
            str(mirror),
            "--distances",
            str(dist),
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    for name in (
        "params.json",
        "calibration_summary.json",
        "normality_summary.json",
        "normality_residuals.csv",
        "gravity_partial.csv",
        "gravity_binned.csv",
    ):
        assert (out / name).exists()
    summary = json.loads((out / "calibration_summary.json").read_text(encoding="utf-8"))
    assert summary["regime"] == "mirror"
    assert len(summary["adj_r2_by_period"]) == 5
    params = dataio.read_params_json(out / "params.json")
    assert params.has_periods


def test_calibrate_mirror_reports_zero_prior_variances(tmp_path, capsys):
    # At n=5, T=4, seed 8 every prior-variance estimate of origin 4 is
    # floored to zero, so shrinkage keeps zeros on its dyads.
    scen = mirror_world(n=5, t=4, seed=8)
    mirror = tmp_path / "mirror.csv"
    dist = tmp_path / "distances.csv"
    dataio.write_mirror_csv(
        mirror, scen.labels, scen.periods, scen.panel.report1, scen.panel.report2
    )
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    out = tmp_path / "calib"
    argv = ["calibrate", "--mirror", str(mirror), "--distances", str(dist)]
    assert main(argv + ["--output-dir", str(out)]) == 0
    summary = json.loads((out / "calibration_summary.json").read_text(encoding="utf-8"))
    params = dataio.read_params_json(out / "params.json")
    off = ~np.eye(params.n, dtype=bool)
    zeros = int(np.count_nonzero(params.s2_shrunk[off] == 0.0))
    assert zeros >= params.n - 1
    assert summary["s2_shrunk_zero_dyads"] == zeros
    assert f"{zeros} off-diagonal dyads keep a zero prior variance" in capsys.readouterr().err

    assert main(argv + ["--output-dir", str(tmp_path / "raw"), "--no-shrink"]) == 0
    raw = json.loads((tmp_path / "raw" / "calibration_summary.json").read_text(encoding="utf-8"))
    assert raw["s2_shrunk_zero_dyads"] is None


_ARTIFACTS = (
    "params.json",
    "calibration_summary.json",
    "normality_summary.json",
    "normality_residuals.csv",
    "normality_histogram.csv",
    "gravity_partial.csv",
    "gravity_binned.csv",
)


def test_calibrate_mirror_with_a_location_absent_from_the_last_period(tmp_path):
    # Origin C02 reports no positive flow in the last period.  That period's
    # prior-mean fit runs on the other locations, and so do its partial
    # scatter and the calibration.
    scen = mirror_world(n=6, t=5, seed=3)
    r1 = np.array(scen.panel.report1)
    r1[-1, 2, :] = 0.0
    mirror = tmp_path / "mirror.csv"
    dist = tmp_path / "distances.csv"
    dataio.write_mirror_csv(mirror, scen.labels, scen.periods, r1, scen.panel.report2)
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    out = tmp_path / "calib"
    argv = ["calibrate", "--mirror", str(mirror), "--distances", str(dist)]
    assert main(argv + ["--output-dir", str(out)]) == 0
    for name in _ARTIFACTS:
        assert (out / name).exists(), name
    partial = np.loadtxt(out / "gravity_partial.csv", delimiter=",", skiprows=1, encoding="utf-8")
    sample = (r1[-1] > 0) & ~np.eye(6, dtype=bool)
    assert len(partial) == np.count_nonzero(sample) == 6 * 5 - 5


def _count_projections(monkeypatch):
    """Count the calls of the one fixed-effects projection, wherever the
    package holds it."""
    real = gravity._twoway_fe
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("flowuq") and getattr(module, "_twoway_fe", None) is real:
            monkeypatch.setattr(module, "_twoway_fe", counted)
    return calls


def test_each_command_makes_each_gravity_fit_once(
    mirror_files, armington_files, tmp_path, monkeypatch
):
    # A mirror calibration projects once per period, plus once per shrunk
    # variance; a baseline calibration and a diagnosis fit once.
    calls = _count_projections(monkeypatch)
    scen, mirror, mdist = mirror_files
    _, flows, dist, _, _ = armington_files
    mirror_argv = ["calibrate", "--mirror", str(mirror), "--distances", str(mdist)]
    baseline = ["calibrate", "--flows", str(flows), "--distances", str(dist)]
    baseline += ["--sigma2", "0.05"]
    diagnose = ["diagnose", "--flows", str(flows), "--distances", str(dist)]
    diagnose += ["--params", str(tmp_path / "base" / "params.json")]
    t = len(scen.periods)
    for argv, name, expected in (
        (mirror_argv, "mirror", t + 2),
        (mirror_argv + ["--no-shrink"], "raw", t),
        (baseline, "base", 1),
        (diagnose, "diag", 1),
    ):
        calls[0] = 0
        assert main(argv + ["--output-dir", str(tmp_path / name)]) == 0
        assert calls[0] == expected, name


def test_non_finite_parameters_exit_2(armington_files, tmp_path, capsys):
    _, flows, dist, costs, params = armington_files
    attenuation = ["simulate-attenuation", "--m-reps", "2", "--b-draws", "5", "--n", "6"]
    baseline = ["calibrate", "--flows", str(flows), "--distances", str(dist)]
    counterfactual = ["counterfactual", "--flows", str(flows), "--uniform-increase", "0.1"]
    uq = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    uq += ["--uniform-increase", "0.1", "--b", "40"]
    negative_seed = tmp_path / "seed.conf"
    negative_seed.write_text("seed = -3\n", encoding="utf-8")
    from_file = ["--config", str(negative_seed)]
    cases = [
        (uq + ["--seed", "-1"], "seed must be non-negative", "draws.csv"),
        (uq + from_file, "seed must be non-negative", "draws.csv"),
        (attenuation + ["--seed", "-3"], "seed must be non-negative", "biases.csv"),
        (attenuation + from_file, "seed must be non-negative", "biases.csv"),
        (counterfactual + ["--epsilon", "nan"], "elasticity must be finite", "welfare.json"),
        (attenuation + ["--epsilon", "nan"], "epsilon and s", "biases.csv"),
        (attenuation + ["--s", "nan"], "epsilon and s", "biases.csv"),
        (attenuation + ["--sigma", "nan"], "sigma", "biases.csv"),
        (baseline + ["--sigma2", "nan"], "measurement-error variance", "params.json"),
        (baseline + ["--sigma2", "0.05", "--p", "nan"], "probabilities", "params.json"),
    ]
    for i, (argv, message, artifact) in enumerate(cases):
        out = tmp_path / f"o{i}"
        assert main(argv + ["--output-dir", str(out)]) == 2, argv
        assert message in capsys.readouterr().err
        assert not (out / artifact).exists()


def test_calibrate_missing_file_exits_2(tmp_path):
    code = main(
        [
            "calibrate",
            "--mirror",
            str(tmp_path / "absent.csv"),
            "--distances",
            str(tmp_path / "absent2.csv"),
            "--output-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2


def test_calibrate_refuses_labels_whose_params_keys_collide(tmp_path, capsys):
    # Dyads (A, B->C) and (A->B, C) would both be keyed A->B->C.
    scen = armington_world(n=4, seed=1)
    labels = ("A", "A->B", "B->C", "C")
    flows, dist = tmp_path / "flows.csv", tmp_path / "distances.csv"
    dataio.write_dyadic_csv(flows, labels, scen.draw_world(np.random.default_rng(0))[1].values, "flow")
    dataio.write_dyadic_csv(dist, labels, scen.distances.values, "distance")
    out = tmp_path / "calib"
    argv = ["calibrate", "--flows", str(flows), "--distances", str(dist), "--sigma2", "0.05"]
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert "two dyads the params key 'A->B->C'" in capsys.readouterr().err
    assert not (out / "params.json").exists()


def test_calibrate_na_counting(tmp_path):
    rows = [
        "origin,destination,year,flow_report1,flow_report2",
        "A,B,2000,1.5,",
        "A,B,2001,1.6,",
        "B,A,2000,2.0,2.1",
        "B,A,2001,2.2,",
        "A,C,2000,1.0,1.1",
        "A,C,2001,1.2,1.3",
        "C,A,2000,2.0,2.0",
        "C,A,2001,2.0,2.0",
        "B,C,2000,1.0,1.0",
        "B,C,2001,1.0,1.0",
        "C,B,2000,1.0,1.0",
        "C,B,2001,1.0,1.0",
    ]
    mirror = tmp_path / "m.csv"
    mirror.write_text("\n".join(rows) + "\n", encoding="utf-8")
    dist = tmp_path / "d.csv"
    labels = ["A", "B", "C"]
    dataio.write_dyadic_csv(
        dist, labels, np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0], [3.0, 4.0, 1.0]]),
        "distance",
    )
    from flowuq import ingest_mirror_csv

    panel = ingest_mirror_csv(mirror)
    # A->B report2 all-NA with all-positive report1: copied (2 entries).
    # B->A 2001 report2 is a scattered NA: zeroed (1 entry).
    assert panel.na_copied == 2
    assert panel.na_zeroed == 1


def test_calibrate_mirror_reports_the_missing_data_rule(mirror_files, tmp_path, capsys):
    # C00->C01's report 2 is blank in every year while report 1 is positive:
    # copied (5 entries); C00->C02's report 2 is blank in one year: zeroed.
    scen, mirror, dist = mirror_files
    report2 = np.array(scen.panel.report2)
    report2[:, 0, 1] = np.nan
    report2[1, 0, 2] = np.nan
    dataio.write_mirror_csv(mirror, scen.labels, scen.periods, scen.panel.report1, report2)
    out = tmp_path / "calib"
    assert main(["calibrate", "--mirror", str(mirror), "--distances", str(dist),
                 "--output-dir", str(out)]) == 0
    err = capsys.readouterr().err
    assert "missing-data rule: copied 5 entries from the mirror side, zeroed 1" in err
    summary = json.loads((out / "calibration_summary.json").read_text(encoding="utf-8"))
    assert (summary["na_copied"], summary["na_zeroed"]) == (5, 1)


def test_simulate_attenuation_warns_on_rho_and_passes_mu_zero(tmp_path, capsys):
    from flowuq.robustness import AttenuationSimConfig, run_attenuation_sim

    out = tmp_path / "att"
    argv = ["simulate-attenuation", "--m-reps", "3", "--b-draws", "5", "--n", "6"]
    assert main([*argv, "--rho", "-0.5", "--mu-zero", "--output-dir", str(out)]) == 0
    assert "warning: rho = -0.5 is outside the usual positive range" in capsys.readouterr().err
    summary = json.loads((out / "attenuation_summary.json").read_text(encoding="utf-8"))
    assert summary["mu_zero_ablation"] is True
    cfg = AttenuationSimConfig(m_reps=3, b_draws=5, n=6, rho=-0.5, mu_zero_ablation=True)
    assert summary["mean_bias"] == float(run_attenuation_sim(cfg).mean())


def test_uq_byte_identical_and_mode_ladder(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    outs = {}
    for name, extra in {
        "a": ["--workers", "1"],
        "b": ["--workers", "2"],
    }.items():
        out = tmp_path / f"uq_{name}"
        code = main(
            [
                "uq",
                "--flows",
                str(flows),
                "--params",
                str(params),
                "--costs",
                str(costs),
                "--uniform-increase",
                "0.1",
                "--b",
                "120",
                "--alpha",
                "0.05",
                "--seed",
                "9",
                "--output-dir",
                str(out),
                *extra,
            ]
        )
        assert code == 0
        outs[name] = out
    assert (outs["a"] / "draws.csv").read_bytes() == (
        outs["b"] / "draws.csv"
    ).read_bytes()
    assert (outs["a"] / "interval.json").read_bytes() == (
        outs["b"] / "interval.json"
    ).read_bytes()

    widths = {}
    for mode in ("only-ee", "only-me", "ee+me"):
        out = tmp_path / f"uq_{mode}"
        # only-ee draws no flows, so it reads no params and refuses them.
        params_flags = [] if mode == "only-ee" else ["--params", str(params)]
        code = main(
            [
                "uq",
                "--flows",
                str(flows),
                *params_flags,
                "--costs",
                str(costs),
                "--uniform-increase",
                "0.1",
                "--b",
                "120",
                "--alpha",
                "0.05",
                "--seed",
                "9",
                "--mode",
                mode,
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "interval.json").read_text(encoding="utf-8"))
        entry = doc["outcomes"][0]
        widths[mode] = entry["hi"] - entry["lo"]
    assert widths["ee+me"] >= widths["only-ee"]
    assert widths["ee+me"] >= widths["only-me"] * 0.95  # composition dominates


def test_uq_ppml_byte_identical_across_workers_and_batches(
    armington_files, tmp_path, monkeypatch
):
    # The PPML estimates of a batch of draws come from one batched IRLS, and
    # the model evaluates a batch's (draw, parameter) pairs in stacked Newton
    # solves; the draws must not depend on how the loop is cut into workers
    # or batches, in any mode or interval kind.
    from flowuq import engine

    scen, flows, dist, costs, params = armington_files
    default_batch = engine._batch_size
    variants = {
        "c1": [],
        "c2": ["--interval", "c2", "--b-inner", "40"],
        "only-me": ["--mode", "only-me"],
        "only-ee": ["--mode", "only-ee"],
    }
    for name, extra in variants.items():
        outputs = {}
        params_flags = [] if name == "only-ee" else ["--params", str(params)]
        for workers, batch in ((1, None), (2, None), (3, None), (1, 1), (1, 3)):
            monkeypatch.setattr(
                engine, "_batch_size", default_batch if batch is None else lambda n: batch
            )
            out = tmp_path / f"uq_{name}_w{workers}_b{batch}"
            argv = [
                "uq", "--flows", str(flows), *params_flags, "--costs", str(costs),
                "--uniform-increase", "0.1", "--b", "40", "--alpha", "0.05", "--seed", "4",
                "--workers", str(workers), "--output-dir", str(out), *extra,
            ]
            assert main(argv) == 0
            outputs[workers, batch] = [
                (out / f).read_bytes() for f in ("draws.csv", "interval.json")
            ]
        first = outputs[1, None]
        for key, value in outputs.items():
            assert value == first, (name, key)
    assert default_batch(scen.n) >= 40  # the default runs all 40 draws as one batch


def test_uq_external_estimator_and_robust_interval(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    out = tmp_path / "uq_rob"
    code = main(
        [
            "uq",
            "--flows",
            str(flows),
            "--params",
            str(params),
            "--theta",
            "5.0",
            "--theta-se",
            "0.4",
            "--uniform-increase",
            "0.1",
            "--interval",
            "robust",
            "--robust-c",
            "1.5",
            "--b",
            "200",
            "--alpha",
            "0.05",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "interval.json").read_text(encoding="utf-8"))
    assert doc["outcomes"][0]["kind"] == "robust(c=1.5)"


@pytest.mark.parametrize(
    "c, message",
    [
        ("nan", "c must be finite and >= 1, got c = nan"),
        ("inf", "c must be finite and >= 1, got c = inf"),
        ("1e200", "robust levels at c = 1e+200 must bracket"),
        ("40", "to resolve the lower tail at c = 40 (B = 200)"),
    ],
)
def test_uq_bad_robust_c_exits_2_before_any_draw(
    armington_files, tmp_path, capsys, monkeypatch, c, message
):
    _, flows, _, _, params = armington_files
    calls = []
    monkeypatch.setattr(
        engine, "sample_flow_matrix", lambda *a: calls.append(a) or sample_flow_matrix(*a)
    )
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--theta", "5.0"]
    argv += ["--uniform-increase", "0.1", "--b", "200", "--interval", "robust"]
    argv += ["--robust-c", c, "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_config_file_precedence(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    conf = tmp_path / "run.conf"
    conf.write_text(
        "\n".join(
            [
                "# bundled run configuration",
                f"flows = {flows}",
                f"params = {params}",
                "theta = 5.0",
                "theta_se = 0.4",
                "uniform-increase = 0.1",
                "b = 40",
                "alpha = 0.1",
                "seed = 3",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    out1 = tmp_path / "c1"
    assert main(["uq", "--config", str(conf), "--output-dir", str(out1)]) == 0
    doc = json.loads((out1 / "interval.json").read_text(encoding="utf-8"))
    assert doc["outcomes"][0]["draws_used"] == 40
    # CLI overrides the file value.
    out2 = tmp_path / "c2"
    assert (
        main(
            [
                "uq",
                "--config",
                str(conf),
                "--b",
                "60",
                "--alpha",
                "0.1",
                "--output-dir",
                str(out2),
            ]
        )
        == 0
    )
    doc2 = json.loads((out2 / "interval.json").read_text(encoding="utf-8"))
    assert doc2["outcomes"][0]["draws_used"] == 60


@pytest.mark.parametrize(
    "line, key",
    [("positive-theta = true", "positive_theta"), ("svd-rank = 3", "svd_rank"),
     ("seeed = 5", "seeed")],
)
def test_config_file_unknown_key_exits_2(armington_files, tmp_path, capsys, line, key):
    # A key no option of the command reads is refused, as an unknown flag
    # is, rather than silently ignored.
    scen, flows, dist, costs, params = armington_files
    conf = tmp_path / "run.conf"
    conf.write_text(f"flows = {flows}\nparams = {params}\ntheta = 5.0\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["uq", "--config", str(conf), "--uniform-increase", "0.1", "--b", "40"]
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "draws.csv").exists()


# One setting of every option of every command, spread over samples that
# parse: each sample meets its command's requirements and conflicts.
_SAMPLES = {
    "calibrate": [
        {"mirror": "m.csv", "distances": "d.csv", "shrink": "no", "output_dir": "o"},
        {"flows": "f.csv", "distances": "d.csv", "sigma2": "0.05", "p": "0.1",
         "b_spurious": "0.02"},
    ],
    "estimate": [
        {"flows": "f.csv", "costs": "c.csv", "include_diagonal": "yes",
         "variance": "independent", "output_dir": "o"},
    ],
    "counterfactual": [
        {"flows": "f.csv", "epsilon": "4.5", "cf_spec": "s.csv"},
        {"flows": "f.csv", "epsilon": "4.5", "uniform_increase": "0.1", "output_dir": "o"},
    ],
    "uq": [
        {"flows": "f.csv", "params": "p.json", "period": "2001", "costs": "c.csv",
         "include_diagonal": "true", "model": "armington", "cf_spec": "s.csv", "b": "40",
         "alpha": "0.1", "seed": "7", "mode": "only-me", "interval": "c2",
         "robust_c": "1.5", "b_inner": "20", "max_failure_frac": "0.1", "workers": "2",
         "smoother": "lowdim", "distances": "d.csv"},
        {"flows": "f.csv", "theta": "5", "theta_se": "0.4", "uniform_increase": "-0.1",
         "smoother": "none", "include_diagonal": "0", "output_dir": "o"},
    ],
    "diagnose": [{"flows": "f.csv", "distances": "d.csv", "params": "p.json", "period": "2001",
                  "output_dir": "o"}],
    "simulate-attenuation": [
        {"m_reps": "3", "b_draws": "5", "n": "6", "rho": "-0.5", "epsilon": "4",
         "s": "0.2", "sigma": "0.3", "seed": "11", "mu_zero": "1", "output_dir": "o"},
    ],
    "report-ranks": [{"draws": "a.csv,b.csv", "columns": "A,B", "output_dir": "o"}],
}
_YES_NO = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def _flags(settings):
    argv = []
    for key, value in settings.items():
        flag = key.replace("_", "-")
        if value in _YES_NO:  # every yes/no value in the samples is one of these
            argv.append(f"--{flag}" if _YES_NO[value] else f"--no-{flag}")
        else:
            argv += [f"--{flag}", value]
    return argv


def _parsed(argv):
    return {k: v for k, v in vars(cli.parse_args(argv)).items() if k != "config"}


def test_samples_cover_every_option():
    _, options = cli.build_parser()
    assert set(options) == set(_SAMPLES)
    for command, known in options.items():
        assert set().union(*_SAMPLES[command]) == set(known), command


@pytest.mark.parametrize(
    "command, sample, key",
    [
        (command, i, key)
        for command, samples in _SAMPLES.items()
        for i, sample in enumerate(samples)
        for key in sample
    ],
)
def test_config_value_parses_as_its_flag(tmp_path, command, sample, key):
    # A file value meets the same types, choices and defaults as the flag,
    # under either spelling of the key.
    settings = _SAMPLES[command][sample]
    rest = _flags({k: v for k, v in settings.items() if k != key})
    expected = _parsed([command, *rest, *_flags({key: settings[key]})])
    for spelled in (key, key.replace("_", "-")):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{spelled} = {settings[key]}  # from the file\n", encoding="utf-8")
        assert _parsed([command, "--config", str(conf), *rest]) == expected, spelled


@pytest.mark.parametrize("spelling", ["true", "Yes", "1", "FALSE", "no", "0"])
@pytest.mark.parametrize(
    "command, key",
    [("calibrate", "shrink"), ("estimate", "include_diagonal"), ("uq", "include_diagonal"),
     ("simulate-attenuation", "mu_zero")],
)
def test_config_yes_no_spellings(tmp_path, command, key, spelling):
    base = _flags({k: v for k, v in _SAMPLES[command][0].items() if k != key})
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {spelling}\n", encoding="utf-8")
    flag = key.replace("_", "-")
    yes = spelling.lower() in ("true", "yes", "1")
    expected = _parsed([command, *base, f"--{flag}" if yes else f"--no-{flag}"])
    assert _parsed([command, "--config", str(conf), *base]) == expected
    assert expected[key] is yes


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("uq", "mode = fast", "invalid choice: 'fast'"),
        ("uq", "model = constant", "invalid choice: 'constant'"),
        ("uq", "smoother = svd", "invalid choice: 'svd'"),
        ("uq", "interval = c3", "invalid choice: 'c3'"),
        ("uq", "b = forty", "invalid int value: 'forty'"),
        ("uq", "include-diagonal = maybe", "'maybe' is not a boolean"),
        ("estimate", "variance = sandwich", "invalid choice: 'sandwich'"),
        ("calibrate", "out = x", "calibrate has no option out"),
        ("calibrate", "seed = 1", "calibrate has no option seed"),
        ("calibrate", "config = other.conf", "calibrate has no option config"),
        ("uq", "seed 3", "config line 1: expected key = value"),
    ],
)
def test_config_value_refused_exits_2(tmp_path, capsys, command, line, message):
    # Exact key names only: argparse would take ``--out`` as --output-dir.
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    argv = [command, *_flags(_SAMPLES[command][0]), "--config", str(conf)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_only_on_the_commands_that_draw():
    _, options = cli.build_parser()
    assert [c for c, known in options.items() if "seed" in known] == [
        "uq", "simulate-attenuation"
    ]


def test_conflicting_inputs_exit_2(armington_files, tmp_path, capsys):
    # --costs re-estimates the elasticity that --theta/--theta-se would give,
    # and --cf-spec and --uniform-increase are two cost changes; flags and
    # file values are refused alike.
    _, flows, _, costs, params = armington_files
    spec = tmp_path / "spec.csv"
    spec.write_text("origin,destination,tau_prop\n", encoding="utf-8")
    uq = ["uq", "--flows", str(flows), "--params", str(params), "--b", "40"]
    cf = ["counterfactual", "--flows", str(flows), "--epsilon", "5"]
    conflict = "not allowed with argument"
    cases = [
        (uq + ["--costs", str(costs), "--uniform-increase", "0.1"], "theta = 5", conflict),
        (uq + ["--theta", "5", "--uniform-increase", "0.1"], f"costs = {costs}", conflict),
        (uq + ["--costs", str(costs), "--uniform-increase", "0.1"], "theta_se = 0.4",
         "--theta-se goes with an external --theta"),
        (uq + ["--costs", str(costs), "--uniform-increase", "0.1"], f"cf-spec = {spec}",
         conflict),
        (cf + ["--cf-spec", str(spec)], "uniform-increase = 0.1", conflict),
    ]
    for i, (argv, line, message) in enumerate(cases):
        key, _, value = (part.strip() for part in line.partition("="))
        conf = tmp_path / f"c{i}.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        flag = ["--" + key.replace("_", "-"), value]
        for extra in (flag, ["--config", str(conf)]):
            out = tmp_path / f"o{i}"
            assert main(argv + extra + ["--output-dir", str(out)]) == 2, (argv, extra)
            assert message in capsys.readouterr().err, (argv, extra)
            assert not out.exists()


def test_uq_nulled_params_variance_exits_2(armington_files, tmp_path, capsys):
    _, flows, _, costs, params = armington_files
    doc = json.loads(params.read_text(encoding="utf-8"))
    first = next(iter(doc["dyads"]))
    doc["dyads"][first]["s2"] = None
    params.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    argv += ["--uniform-increase", "0.1", "--b", "40", "--output-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"params dyad '{first}': s2 is missing or null" in capsys.readouterr().err


def test_uq_params_missing_a_dyad_exits_2(armington_files, tmp_path, capsys):
    # A dyad left out of params.json is an error, not a dyad without
    # measurement error.
    _, flows, _, costs, params = armington_files
    doc = json.loads(params.read_text(encoding="utf-8"))
    first = next(iter(doc["dyads"]))
    del doc["dyads"][first]
    params.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    argv += ["--uniform-increase", "0.1", "--b", "40", "--output-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"params file has no dyad '{first}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, text", [("s2", "Infinity"), ("sigma2", "Infinity"), ("mu", "-Infinity")]
)
def test_uq_infinite_params_exit_2_before_any_draw(
    armington_files, tmp_path, capsys, monkeypatch, field, text
):
    # Python's JSON reader takes Infinity, which is not JSON; the parameters
    # refuse it, where before it surfaced inside the draw loop.
    _, flows, _, _, params = armington_files
    doc = json.loads(params.read_text(encoding="utf-8"))
    doc["dyads"]["L00->L01"][field] = "INFINITE"
    params.write_text(json.dumps(doc).replace('"INFINITE"', text), encoding="utf-8")
    sampled = []
    monkeypatch.setattr(engine, "sample_flow_matrix", lambda *a: sampled.append(a))
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--theta", "5"]
    argv += ["--uniform-increase", "0.1", "--b", "40", "--output-dir", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"data error: {field} must be finite" in capsys.readouterr().err
    assert not sampled


def _set_first(doc, key, value):
    doc["dyads"][next(iter(doc["dyads"]))][key] = value
    return doc


def _without(doc, key):
    del doc[key]
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _without(doc, "labels"), 'params file needs "labels", a list of strings'),
        (lambda doc: _without(doc, "dyads"), 'params file needs "dyads", an object keyed by dyad'),
        (lambda doc: list(doc), "params file must hold a JSON object"),
        (lambda doc: {**doc, "dyads": {key: 1.0 for key in doc["dyads"]}},
         "params dyad 'L00->L00' must be an object, got 1.0"),
        (lambda doc: _set_first(doc, "p", "x"), "params dyad 'L00->L00': p must be a number"),
        # with one mu per dyad, not per period; an own dyad's mu is null
        (lambda doc: {**doc, "periods": [2000]},
         "params dyad 'L00->L01': per-period mu must be an object"),
        (lambda doc: {**doc, "periods": ["2000"]},
         'params "periods" must be null or a list of whole numbers'),
        (lambda doc: {**doc, "dyads": {**doc["dyads"], "L00->X": doc["dyads"]["L00->L01"]}},
         "unknown dyad key 'L00->X'"),
    ],
    ids=["no-labels", "no-dyads", "list", "number-dyad", "text-p", "periods-scalar-mu",
         "periods-text", "unknown-key"],
)
def test_uq_malformed_params_exits_2(armington_files, tmp_path, capsys, edit, message):
    _, flows, _, costs, params = armington_files
    params.write_text(json.dumps(edit(json.loads(params.read_text(encoding="utf-8")))),
                      encoding="utf-8")
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    argv += ["--uniform-increase", "0.1", "--b", "40", "--period", "2000"]
    assert main(argv + ["--output-dir", str(tmp_path / "o")]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "draws.csv").exists()


@pytest.mark.parametrize("which", ["draws", "params", "config"])
def test_non_utf8_inputs_exit_2(armington_files, tmp_path, capsys, which):
    _, flows, _, costs, params = armington_files
    draws, conf = tmp_path / "draws.csv", tmp_path / "run.conf"
    draws.write_text("a,b\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
    uq = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    uq += ["--uniform-increase", "0.1", "--b", "40"]
    path, argv = {
        "draws": (draws, ["report-ranks", "--draws", str(draws)]),
        "params": (params, uq),
        "config": (conf, [*uq, "--config", str(conf)]),
    }[which]
    path.write_bytes((path.read_bytes() if path.exists() else b"seed = 1\n") + b"\xff\n")
    out = tmp_path / "o"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert f"data error: {path} is not UTF-8 text" in capsys.readouterr().err
    assert not any(out.glob("*.*"))


@pytest.mark.parametrize("command", ["estimate", "report-ranks"])
def test_a_field_over_the_csv_size_limit_exits_2(armington_files, tmp_path, capsys, command):
    # csv refuses a field of more than 131,072 characters; here a quoted label.
    costs = armington_files[3]
    label = '"' + "x" * 200_000 + '"'
    path = tmp_path / "big.csv"
    if command == "estimate":
        path.write_text(f"origin,destination,flow\n{label},B,1.0\n", encoding="utf-8")
        argv = ["estimate", "--flows", str(path), "--costs", str(costs)]
    else:
        path.write_text(f"{label},b\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
        argv = ["report-ranks", "--draws", str(path)]
    out = tmp_path / "o"
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert f"data error: {path}: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["calibrate", "--distances", "{dist}"], "missing required option --flows"),
        (["uq", "--flows", "{flows}", "--params", "{other}", "--theta", "5",
          "--uniform-increase", "0.1", "--b", "40"],
         "params and flows cover different locations"),
        (["diagnose", "--flows", "{flows}", "--distances", "{dist}", "--params", "{other}"],
         "params and flows cover different locations"),
        (["diagnose", "--flows", "{flows}", "--distances", "{dist}", "--params", "{renamed}"],
         "params and flows cover different locations"),
        (["estimate", "--flows", "{flows}", "--costs", "{zero_cost}"],
         "cost levels must be strictly positive"),
        (["simulate-attenuation", "--n", "2", "--m-reps", "2", "--b-draws", "5"],
         "degenerate distance design"),
    ],
    ids=["calibrate-no-input", "uq-other-locations", "diagnose-other-locations",
         "diagnose-other-labels", "zero-cost", "attenuation-n2"],
)
def test_refused_inputs_exit_2(armington_files, tmp_path, capsys, argv, message):
    scen, flows, dist, _, _ = armington_files
    other, zero_cost = tmp_path / "other.json", tmp_path / "zero_cost.csv"
    dataio.write_params_json(other, armington_world(n=5, seed=1).params)
    renamed = tmp_path / "renamed.json"
    labels = tuple(f"X{lab}" for lab in scen.labels)
    dataio.write_params_json(renamed, replace(scen.params, labels=labels))
    zero_cost.write_text(f"origin,destination,cost\n{scen.labels[0]},{scen.labels[1]},0\n",
                         encoding="utf-8")
    files = {"dist": dist, "flows": flows, "other": other, "renamed": renamed,
             "zero_cost": zero_cost}
    out = tmp_path / "o"
    assert main([a.format(**files) for a in argv] + ["--output-dir", str(out)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not any(out.glob("*.*"))


def test_unused_options_exit_2(armington_files, mirror_files, tmp_path, capsys):
    # An option that only another option's value, or per-period params,
    # would use is refused when that is absent, from a flag or a file.
    _, flows, dist, costs, params = armington_files
    _, mirror, mdist = mirror_files
    only_ee = ["uq", "--flows", str(flows), "--costs", str(costs), "--mode", "only-ee"]
    only_ee += ["--uniform-increase", "0.1", "--b", "40"]
    uq = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    uq += ["--uniform-increase", "0.1", "--b", "40"]
    mirror_calibrate = ["calibrate", "--mirror", str(mirror), "--distances", str(mdist)]
    baseline = ["calibrate", "--flows", str(flows), "--distances", str(dist), "--sigma2", "0.1"]
    diagnose = ["diagnose", "--flows", str(flows), "--distances", str(dist)]
    diagnose += ["--params", str(params)]
    regime = "needs the baseline regime"
    cases = [
        (uq, "b-inner = 7", "--b-inner needs --interval c2"),
        (uq + ["--interval", "robust"], "b-inner = 7", "--b-inner needs --interval c2"),
        (uq, "robust-c = 3", "--robust-c needs --interval robust"),
        (uq, "distances = nowhere.csv", "--distances needs --smoother lowdim"),
        (uq, "period = 1999", "--period needs per-period --params"),
        (only_ee, "period = 1999", "--period needs --mode only-me or ee+me"),
        (only_ee, f"params = {params}", "--params needs --mode only-me or ee+me"),
        (only_ee, "params = missing.json", "--params needs --mode only-me or ee+me"),
        (diagnose, "period = 1999", "--period needs per-period --params"),
        (mirror_calibrate, "flows = nowhere.csv", f"--flows {regime}"),
        (mirror_calibrate, "sigma2 = 0.3", f"--sigma2 {regime}"),
        (mirror_calibrate, "p = 0.2", f"--p {regime}"),
        (mirror_calibrate, "b-spurious = 0.1", f"--b-spurious {regime}"),
        (baseline, "shrink = no", "--shrink needs --mirror"),
        (baseline, "shrink = yes", "--shrink needs --mirror"),
    ]
    for i, (argv, line, message) in enumerate(cases):
        key, _, value = (part.strip() for part in line.partition("="))
        conf = tmp_path / f"c{i}.conf"
        conf.write_text(line + "\n", encoding="utf-8")
        if key == "shrink":
            flag = ["--shrink" if value == "yes" else "--no-shrink"]
        else:
            flag = ["--" + key, value]
        for extra in (flag, ["--config", str(conf)]):
            out = tmp_path / f"o{i}"
            assert main(argv + extra + ["--output-dir", str(out)]) == 2, (argv, extra)
            assert message in capsys.readouterr().err, (argv, extra)


def test_uq_include_diagonal_needs_costs(armington_files, tmp_path, capsys):
    # Only the PPML fit of --costs reads --include-diagonal; with an external
    # --theta either spelling is refused, from a flag or a file.
    _, flows, _, _, params = armington_files
    uq = ["uq", "--flows", str(flows), "--params", str(params), "--theta", "5"]
    uq += ["--uniform-increase", "0.1", "--b", "40"]
    for i, value in enumerate(("yes", "no")):
        conf = tmp_path / f"c{i}.conf"
        conf.write_text(f"include-diagonal = {value}\n", encoding="utf-8")
        flag = "--include-diagonal" if value == "yes" else "--no-include-diagonal"
        for extra in ([flag], ["--config", str(conf)]):
            out = tmp_path / f"o{i}"
            assert main(uq + extra + ["--output-dir", str(out)]) == 2, extra
            assert "--include-diagonal needs --costs" in capsys.readouterr().err
            assert not out.exists()


def test_uq_negative_theta_se_exits_2(armington_files, tmp_path, capsys):
    # Only the square of --theta-se reaches the sampler, so a negative one
    # would run as its absolute value; it is refused instead.
    _, flows, _, _, params = armington_files
    out = tmp_path / "o"
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--theta", "5"]
    argv += ["--theta-se", "-0.3", "--uniform-increase", "0.1", "--b", "40"]
    assert main(argv + ["--output-dir", str(out)]) == 2
    assert "data error: --theta-se must be non-negative, got -0.3" in capsys.readouterr().err
    assert not out.exists()


def test_uq_smoother_matches_engine(armington_files, tmp_path):
    # The CLI smooths the matrix the model evaluates and estimates on the raw
    # one: through PpmlEstimator in ee+me, and as the observed PPML fit in
    # the modes that estimate only the observed matrix; an external --theta
    # is used as it is.  interval.json names the estimand the intervals cover.
    from flowuq.armington import ArmingtonModel
    from flowuq.core import CounterfactualSpec, EstimatorResult
    from flowuq.engine import LowDimSmoother, UqConfig, run_algorithm1
    from flowuq.gravity import PpmlEstimator, fit_ppml

    scen, flows, dist, costs, params = armington_files
    flows_obs = dataio.read_flows_csv(flows)
    params_obs = dataio.read_params_json(params)
    log_costs = dataio.read_costs_csv(costs, flows_obs.labels)
    fit = fit_ppml(flows_obs, log_costs)
    cf = CounterfactualSpec.uniform_increase(flows_obs.n, 0.1)
    smoothers = {
        "none": ([], None, "g(F)"),
        "lowdim": (
            ["--smoother", "lowdim", "--distances", str(dist)],
            LowDimSmoother(dataio.read_distances_csv(dist, flows_obs.labels)),
            "g(S(F))",
        ),
    }
    external = EstimatorResult(theta_hat=np.array([4.5]), sigma_hat=np.array([[0.3**2]]))
    for mode in ("only-ee", "only-me", "ee+me"):
        params_flags = [] if mode == "only-ee" else ["--params", str(params)]
        ppml = PpmlEstimator(log_costs, fit) if mode == "ee+me" else fit.to_estimator_result()
        estimators = {
            "costs": (["--costs", str(costs)], ppml),
            "theta": (["--theta", "4.5", "--theta-se", "0.3"], external),
        }
        for name, (flags, smoother, estimand) in smoothers.items():
            for source, (source_flags, estimator) in estimators.items():
                out = tmp_path / f"uq_{mode}_{name}_{source}"
                argv = [
                    "uq", "--flows", str(flows), *params_flags, *source_flags,
                    "--uniform-increase", "0.1", "--b", "40", "--seed", "6", "--mode", mode,
                    "--output-dir", str(out), *flags,
                ]
                assert main(argv) == 0
                draw_set, _ = run_algorithm1(
                    flows_obs, params_obs, estimator, ArmingtonModel(), cf,
                    UqConfig(b=40, seed=6, mode=mode), smoother=smoother,
                )
                _, drawn = dataio.read_draws_csv(out / "draws.csv")
                assert np.array_equal(drawn, draw_set.draws), (mode, name, source)
                doc = json.loads((out / "interval.json").read_text(encoding="utf-8"))
                assert doc["estimand"] == estimand


@pytest.mark.parametrize(
    "flag, message",
    [(["--smoother", "svd"], "invalid choice: 'svd'"),
     (["--svd-rank", "3"], "unrecognized arguments: --svd-rank")],
    ids=["smoother-svd", "svd-rank"],
)
def test_uq_svd_smoother_flags_exit_2(armington_files, tmp_path, capsys, flag, message):
    # The rank-r SVD smoother is gone; the config-file tests above refuse
    # its keys too.
    _, flows, _, costs, params = armington_files
    out = tmp_path / "out"
    argv = ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs)]
    argv += ["--uniform-increase", "0.1", "--b", "40", *flag, "--output-dir", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_ranks(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    out = tmp_path / "uq_r"
    main(
        [
            "uq",
            "--flows",
            str(flows),
            "--params",
            str(params),
            "--theta",
            "5.0",
            "--theta-se",
            "0.3",
            "--uniform-increase",
            "0.1",
            "--b",
            "200",
            "--output-dir",
            str(out),
        ]
    )
    ranks_out = tmp_path / "ranks"
    code = main(
        [
            "report-ranks",
            "--draws",
            str(out / "draws.csv"),
            "--output-dir",
            str(ranks_out),
        ]
    )
    assert code == 0
    doc = json.loads((ranks_out / "ranks.json").read_text(encoding="utf-8"))
    assert len(doc["pairs"]) == 15  # 6 choose 2
    for pair in doc["pairs"]:
        assert 0.0 <= pair["reversal_frequency"] <= 0.5
        assert pair["mean_higher"] >= pair["mean_lower"]


def test_report_ranks_separated_normals(tmp_path):
    # Outcomes five sigma apart: reversal frequency effectively zero.
    rng = np.random.default_rng(0)
    from flowuq import DrawSet

    ds = DrawSet(
        draws=np.column_stack(
            [rng.normal(0.0, 1.0, 4000), rng.normal(10.0, 1.0, 4000)]
        ),
        labels=("low", "high"),
    )
    path = tmp_path / "draws.csv"
    dataio.write_draws_csv(path, ds)
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", str(path), "--output-dir", str(out)]) == 0
    doc = json.loads((out / "ranks.json").read_text(encoding="utf-8"))
    assert doc["pairs"][0]["reversal_frequency"] < 0.001
    assert doc["pairs"][0]["higher"] == "high"


def test_report_ranks_identical_columns_all_ties(tmp_path):
    from flowuq import DrawSet

    col = np.arange(100.0)
    ds = DrawSet(
        draws=np.column_stack([col, col]),
        labels=("a", "b"),
    )
    path = tmp_path / "draws.csv"
    dataio.write_draws_csv(path, ds)
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", str(path), "--output-dir", str(out)]) == 0
    doc = json.loads((out / "ranks.json").read_text(encoding="utf-8"))
    assert doc["pairs"][0]["tie_frequency"] == 1.0
    assert doc["pairs"][0]["reversal_frequency"] == 0.0


def test_report_ranks_length_mismatch(tmp_path):
    from flowuq import DrawSet

    for name, length in (("a.csv", 50), ("b.csv", 60)):
        ds = DrawSet(
            draws=np.arange(float(length)),
            labels=(name,),
        )
        dataio.write_draws_csv(tmp_path / name, ds)
    code = main(
        [
            "report-ranks",
            "--draws",
            f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}",
            "--output-dir",
            str(tmp_path / "r"),
        ]
    )
    assert code == 2


def test_report_ranks_names_labels_that_files_share(tmp_path, capsys):
    # Two uq runs over the same locations share their labels: a label that
    # both files have is named by its path, and a bare one is unknown.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("A,B\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
    b.write_text("A,C\n3.0,0.0\n4.0,3.0\n", encoding="utf-8")
    out = tmp_path / "r"
    draws = ["report-ranks", "--draws", f"{a},{b}", "--output-dir", str(out)]
    assert main(draws) == 0
    doc = json.loads((out / "ranks.json").read_text(encoding="utf-8"))
    names = {(p["higher"], p["lower"]) for p in doc["pairs"]}
    assert len(names) == 6 and {n for pair in names for n in pair} == {
        f"{a}:A", "B", f"{b}:A", "C"
    }
    assert main([*draws, "--columns", f"{a}:A,{b}:A"]) == 0
    (pair,) = json.loads((out / "ranks.json").read_text(encoding="utf-8"))["pairs"]
    assert (pair["higher"], pair["lower"]) == (f"{b}:A", f"{a}:A")
    assert pair["tie_frequency"] == 0.0
    capsys.readouterr()
    assert main([*draws, "--columns", "A,B"]) == 2
    assert "unknown outcome columns ['A']" in capsys.readouterr().err


def test_report_ranks_refuses_a_non_finite_draw(tmp_path, capsys):
    # A NaN draw used to reach ranks.json as the bare token NaN, which is not JSON.
    path = tmp_path / "draws.csv"
    path.write_text("a,b\n1.0,2.0\nnan,3.0\n2.0,1.0\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", str(path), "--output-dir", str(out)]) == 2
    assert "row 3: non-finite draw 'nan'" in capsys.readouterr().err
    assert not (out / "ranks.json").exists()


def test_report_ranks_refuses_a_name_two_columns_end_up_with(tmp_path, capsys):
    # Both files have X, so b.csv's X is named "<b.csv>:X", which a.csv's
    # second column is already called.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(f"X,{b}:X\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
    b.write_text("X\n3.0\n4.0\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", f"{a},{b}", "--output-dir", str(out)]) == 2
    assert f"labels must be unique; repeated: ['{b}:X']" in capsys.readouterr().err
    assert not (out / "ranks.json").exists()


def test_report_ranks_refuses_a_file_given_twice(tmp_path, capsys):
    # Both copies' columns would be named "<path>:A", and --columns would
    # compare the first with itself.
    path = tmp_path / "ok.csv"
    path.write_text("A,B\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
    out = tmp_path / "r"
    argv = ["report-ranks", "--draws", f"{path},{path}", "--output-dir", str(out)]
    assert main([*argv, "--columns", f"{path}:A,{path}:A"]) == 2
    assert f"--draws must be unique; repeated: ['{path}']" in capsys.readouterr().err
    assert not (out / "ranks.json").exists()


def test_report_ranks_refuses_a_repeated_column(tmp_path, capsys):
    path = tmp_path / "draws.csv"
    path.write_text("a,b\n1.0,2.0\n2.0,1.0\n", encoding="utf-8")
    out = tmp_path / "r"
    argv = ["report-ranks", "--draws", str(path), "--output-dir", str(out)]
    for columns in ("a,a", "a,b,a"):
        assert main([*argv, "--columns", columns]) == 2
        assert "--columns must be unique; repeated: ['a']" in capsys.readouterr().err
        assert not (out / "ranks.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1.0,2.0\n3.0\n", "row 3: ragged row"),
        ("a,b\n1.0,x\n", "row 2: bad number"),
        ("a,b\n", "row 2: no draws"),
        ("", "row 1: missing header"),
        ("a\n1.0\n", "need at least two outcome columns to compare ranks"),
    ],
    ids=["ragged", "bad-number", "no-rows", "empty", "one-column"],
)
def test_report_ranks_refuses_a_malformed_draws_file(tmp_path, capsys, text, message):
    path = tmp_path / "draws.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", str(path), "--output-dir", str(out)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (out / "ranks.json").exists()


@pytest.mark.parametrize("draws", [",", ""])
def test_report_ranks_refuses_no_file(tmp_path, capsys, draws):
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", draws, "--output-dir", str(out)]) == 2
    assert "data error: --draws names no file" in capsys.readouterr().err
    conf = tmp_path / "ranks.conf"
    conf.write_text(f"draws = {draws}\n", encoding="utf-8")
    assert main(["report-ranks", "--config", str(conf), "--output-dir", str(out)]) == 2
    assert "data error: --draws names no file" in capsys.readouterr().err
    assert not out.exists()


def _uq_argv(flows, params, out, *extra):
    return ["uq", "--flows", str(flows), "--params", str(params), "--b", "40",
            "--output-dir", str(out), *extra]


def test_uq_alpha_outside_the_unit_interval_exits_2(armington_files, tmp_path, capsys):
    _, flows, _, costs, params = armington_files
    out = tmp_path / "uq"
    argv = _uq_argv(flows, params, out, "--costs", str(costs), "--uniform-increase", "0.1")
    assert main([*argv, "--alpha", "1.5"]) == 2
    assert "data error: alpha must be in (0, 1)" in capsys.readouterr().err
    assert not (out / "draws.csv").exists() and not (out / "interval.json").exists()


@pytest.mark.parametrize(
    "command",
    ["uq", "calibrate", "estimate", "counterfactual", "diagnose", "simulate-attenuation"],
)
def test_a_command_refused_on_its_inputs_leaves_no_output_dir(
    armington_files, tmp_path, capsys, command
):
    # The output directory is made with a command's first output, so a
    # command that its inputs stop exits 2 and leaves no directory behind.
    _, flows, dist, costs, params = armington_files
    missing = str(tmp_path / "missing.csv")
    argv = {
        "uq": ["uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs),
               "--uniform-increase", "0.1", "--b", "40", "--alpha", "1.5"],
        "calibrate": ["calibrate", "--flows", str(flows), "--distances", missing,
                      "--sigma2", "0.05"],
        "estimate": ["estimate", "--flows", str(flows), "--costs", missing],
        "counterfactual": ["counterfactual", "--flows", missing, "--epsilon", "5",
                           "--uniform-increase", "0.1"],
        "diagnose": ["diagnose", "--flows", str(flows), "--distances", str(dist),
                     "--params", missing],
        "simulate-attenuation": ["simulate-attenuation", "--m-reps", "0"],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_uq_exits_4_when_too_many_draws_fail(armington_files, tmp_path, capsys):
    # theta ~ N(0.5, 1) is not positive on about a third of the draws, and
    # each of those draws fails its solve.
    _, flows, _, _, params = armington_files
    out = tmp_path / "uq"
    argv = _uq_argv(flows, params, out, "--theta", "0.5", "--theta-se", "1")
    assert main([*argv, "--uniform-increase", "0.1"]) == 4
    assert "error: 11/40 draws failed" in capsys.readouterr().err
    assert not (out / "draws.csv").exists() and not (out / "interval.json").exists()


def test_uq_refuses_a_zero_own_flow_before_any_draw(armington_files, tmp_path, capsys):
    scen, flows, _, costs, params = armington_files
    values = dataio.read_flows_csv(flows).values.copy()
    values[3, 3] = 0.0
    dataio.write_dyadic_csv(flows, scen.labels, values, "flow")
    out = tmp_path / "uq"
    argv = _uq_argv(flows, params, out, "--costs", str(costs), "--uniform-increase", "0.1")
    assert main(argv) == 2
    assert "error: ZeroDiagonal: zero own flow for ['L03']" in capsys.readouterr().err
    assert not (out / "draws.csv").exists() and not (out / "interval.json").exists()


def test_uq_refuses_a_negative_theta_before_any_draw(
    armington_files, tmp_path, capsys, monkeypatch
):
    _, flows, _, _, params = armington_files
    sampled = []
    monkeypatch.setattr(engine, "sample_flow_matrix", lambda *a: sampled.append(a))
    out = tmp_path / "uq"
    assert main(_uq_argv(flows, params, out, "--theta", "-1", "--uniform-increase", "0.1")) == 2
    assert "error: InvalidElasticity: elasticity must be finite" in capsys.readouterr().err
    assert not sampled
    assert not (out / "draws.csv").exists() and not (out / "interval.json").exists()


def test_uq_refuses_an_own_cost_change_before_any_fit(
    armington_files, tmp_path, capsys, monkeypatch
):
    scen, flows, _, costs, params = armington_files
    tau = np.ones((scen.n, scen.n))
    tau[2, 2] = 1.1
    spec = tmp_path / "cf.csv"
    dataio.write_dyadic_csv(spec, scen.labels, tau, "tau_prop")
    fits = []
    monkeypatch.setattr(engine, "fit_ppml", lambda *a, **k: fits.append(a))
    out = tmp_path / "uq"
    argv = _uq_argv(flows, params, out, "--costs", str(costs), "--cf-spec", str(spec))
    assert main(argv) == 2
    assert "own trade costs are fixed at 1; diagonal must be 1" in capsys.readouterr().err
    assert not fits
    assert not (out / "draws.csv").exists() and not (out / "interval.json").exists()


def test_simulate_attenuation_smoke(tmp_path):
    out = tmp_path / "att"
    code = main(
        [
            "simulate-attenuation",
            "--m-reps",
            "1",
            "--b-draws",
            "10",
            "--n",
            "10",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "biases.csv").exists()
    assert (out / "bias_histogram.csv").exists()


def test_counterfactual_and_estimate(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    out = tmp_path / "cf"
    code = main(
        [
            "counterfactual",
            "--flows",
            str(flows),
            "--epsilon",
            "5.0",
            "--uniform-increase",
            "0.1",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "welfare.json").read_text(encoding="utf-8"))
    assert all(v < 0 for v in doc["welfare_pct"].values())

    out2 = tmp_path / "est"
    code = main(
        [
            "estimate",
            "--flows",
            str(flows),
            "--costs",
            str(costs),
            "--output-dir",
            str(out2),
        ]
    )
    assert code == 0
    doc = json.loads((out2 / "ppml.json").read_text(encoding="utf-8"))
    assert abs(doc["epsilon_hat"] - scen.epsilon) < 1.0


def test_estimate_variance_modes(armington_files, tmp_path):
    # --variance independent reports the independent variance of the one
    # dyadic fit; an unknown mode from a config file is refused.
    _, flows, _, costs, _ = armington_files
    observed = dataio.read_flows_csv(flows)
    fit = gravity.fit_ppml(observed, dataio.read_costs_csv(costs, observed.labels))
    argv = ["estimate", "--flows", str(flows), "--costs", str(costs)]
    docs = {}
    for mode in ("dyadic", "independent"):
        assert main(argv + ["--variance", mode, "--output-dir", str(tmp_path / mode)]) == 0
        docs[mode] = json.loads((tmp_path / mode / "ppml.json").read_text(encoding="utf-8"))
        assert docs[mode]["variance_mode"] == mode
    assert docs["dyadic"]["variance"] == fit.variance
    assert docs["independent"]["variance"] == gravity.independent_variance(fit)
    assert docs["independent"]["variance_psd_projected"] is False
    assert docs["dyadic"]["epsilon_hat"] == docs["independent"]["epsilon_hat"]
    conf = tmp_path / "est.conf"
    conf.write_text("variance = sandwich\n", encoding="utf-8")
    out = tmp_path / "bad"
    assert main(argv + ["--config", str(conf), "--output-dir", str(out)]) == 2
    assert not (out / "ppml.json").exists()


def test_estimate_singular_projection_exit_3(tmp_path, capsys):
    # Origin 2 of this world exports nothing, which can turn the weighted
    # fixed-effects block singular during IRLS; the fit is refused before it
    # iterates, with a separation error rather than a numpy traceback.
    world, log_costs = singular_world()
    labels = [str(i) for i in range(world.n)]
    flows = tmp_path / "flows.csv"
    costs = tmp_path / "costs.csv"
    dataio.write_dyadic_csv(flows, labels, world.values, "flow")
    dataio.write_dyadic_csv(costs, labels, np.exp(log_costs), "cost")
    argv = ["estimate", "--flows", str(flows), "--costs", str(costs)]
    assert main(argv + ["--output-dir", str(tmp_path / "est")]) == 3
    assert "no positive flow for origins ['2']" in capsys.readouterr().err


def test_calibrate_mirror_period_without_positive_flows_exits_3(tmp_path, capsys):
    scen, panel = panel_without_report1_flows_in(2002)
    mirror, dist = tmp_path / "mirror.csv", tmp_path / "distances.csv"
    dataio.write_mirror_csv(mirror, panel.labels, panel.periods, panel.report1, panel.report2)
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    out = tmp_path / "calib"
    argv = ["calibrate", "--mirror", str(mirror), "--distances", str(dist)]
    assert main([*argv, "--output-dir", str(out)]) == 3
    assert "period 2002 has no positive flows" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_mirror_shrinkage_refusal_names_labels(tmp_path, capsys):
    # Report 2 never sees a flow from C03, so no period of its dyads has two
    # positive reports and its ME variances are not identified as origin.
    scen = mirror_world(n=5, t=4, seed=1)
    report2 = scen.panel.report2.copy()
    report2[:, scen.labels.index("C03"), :] = 0.0
    mirror, dist = tmp_path / "mirror.csv", tmp_path / "distances.csv"
    dataio.write_mirror_csv(mirror, scen.labels, scen.periods, scen.panel.report1, report2)
    dataio.write_dyadic_csv(dist, scen.labels, scen.distances.values, "distance")
    argv = ["calibrate", "--mirror", str(mirror), "--distances", str(dist)]
    assert main([*argv, "--output-dir", str(tmp_path / "calib")]) == 3
    err = capsys.readouterr().err
    assert "no positive ME variance estimate for origins ['C03']" in err


def test_identification_error_exit_3(tmp_path):
    # Constant distances make the gravity regression collinear.
    labels = ["A", "B", "C"]
    flows = tmp_path / "flows.csv"
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 2.0, (3, 3))
    dataio.write_dyadic_csv(flows, labels, values, "flow")
    dist = tmp_path / "dist.csv"
    dataio.write_dyadic_csv(dist, labels, np.full((3, 3), 2.0), "distance")
    code = main(
        [
            "calibrate",
            "--flows",
            str(flows),
            "--distances",
            str(dist),
            "--sigma2",
            "0.05",
            "--output-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code == 3


def _assert_numeric_csv(path):
    """Every data cell parses: counts as int, everything else as float."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert len(lines) > 1, path.name
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(header), (path.name, line)
        for name, cell in zip(header, cells):
            (int if name == "count" else float)(cell)


def test_every_csv_cell_is_a_number(mirror_files, tmp_path):
    scen, mirror, dist = mirror_files
    calib = tmp_path / "calib"
    argv = ["calibrate", "--mirror", str(mirror), "--distances", str(dist)]
    assert main(argv + ["--output-dir", str(calib)]) == 0
    flows = tmp_path / "flows.csv"
    dataio.write_dyadic_csv(flows, scen.labels, scen.panel.report1[-1], "flow")
    diag = tmp_path / "diag"
    argv = ["diagnose", "--flows", str(flows), "--distances", str(dist)]
    argv += ["--params", str(calib / "params.json"), "--period", str(scen.periods[-1])]
    assert main(argv + ["--output-dir", str(diag)]) == 0
    att = tmp_path / "att"
    argv = ["simulate-attenuation", "--m-reps", "3", "--b-draws", "10", "--n", "8"]
    assert main(argv + ["--output-dir", str(att)]) == 0
    written = sorted(calib.glob("*.csv")) + sorted(diag.glob("*.csv")) + sorted(att.glob("*.csv"))
    assert [p.name for p in written] == [
        "gravity_binned.csv",
        "gravity_partial.csv",
        "normality_histogram.csv",
        "normality_residuals.csv",
    ] * 2 + ["bias_histogram.csv", "biases.csv"]
    for path in written:
        _assert_numeric_csv(path)


# Blocks scipy before anything is imported, then runs calibrate --mirror and
# uq end to end; an import of scipy anywhere on these paths raises.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from pathlib import Path
import numpy as np
from flowuq import dataio
from flowuq.cli import main
from flowuq.scenarios import armington_world, mirror_world

work = Path(sys.argv[1])
mirror = mirror_world(n=6, t=4, seed=3)
dataio.write_mirror_csv(
    work / "mirror.csv", mirror.labels, mirror.periods,
    mirror.panel.report1, mirror.panel.report2,
)
dataio.write_dyadic_csv(work / "md.csv", mirror.labels, mirror.distances.values, "distance")
calibrate = main([
    "calibrate", "--mirror", str(work / "mirror.csv"), "--distances", str(work / "md.csv"),
    "--output-dir", str(work / "calib"),
])
world = armington_world(n=6, seed=1)
_, obs = world.draw_world(np.random.default_rng(0))
dataio.write_dyadic_csv(work / "flows.csv", world.labels, obs.values, "flow")
dataio.write_dyadic_csv(work / "costs.csv", world.labels, np.exp(world.log_costs), "cost")
dataio.write_params_json(work / "params.json", world.params)
uq = main([
    "uq", "--flows", str(work / "flows.csv"), "--params", str(work / "params.json"),
    "--costs", str(work / "costs.csv"), "--uniform-increase", "0.1", "--b", "40",
    "--seed", "3", "--output-dir", str(work / "uq"),
])
loaded = [m for m in sys.modules if m.startswith("scipy.")]
print(calibrate, uq, loaded)
sys.exit(calibrate or uq or bool(loaded))
"""


def test_calibrate_and_uq_run_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env=env, capture_output=True, encoding="utf-8", timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split() == ["0", "0", "[]"]
    assert (tmp_path / "calib" / "normality_summary.json").exists()
    assert (tmp_path / "uq" / "interval.json").exists()
