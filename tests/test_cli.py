import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowuq import cli, dataio, gravity
from flowuq.cli import main
from flowuq.scenarios import armington_world, mirror_world

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
        for workers, batch in ((1, None), (2, None), (3, None), (1, 1), (1, 3)):
            monkeypatch.setattr(
                engine, "_batch_size", default_batch if batch is None else lambda n: batch
            )
            out = tmp_path / f"uq_{name}_w{workers}_b{batch}"
            argv = [
                "uq", "--flows", str(flows), "--params", str(params), "--costs", str(costs),
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


def test_unused_options_exit_2(armington_files, mirror_files, tmp_path, capsys):
    # An option that only another option's value, or per-period params,
    # would use is refused when that is absent, from a flag or a file.
    _, flows, dist, costs, params = armington_files
    _, mirror, mdist = mirror_files
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
        (uq + ["--mode", "only-ee"], "period = 1999", "--period needs --mode only-me or ee+me"),
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
        ppml = PpmlEstimator(log_costs, fit) if mode == "ee+me" else fit.to_estimator_result()
        estimators = {
            "costs": (["--costs", str(costs)], ppml),
            "theta": (["--theta", "4.5", "--theta-se", "0.3"], external),
        }
        for name, (flags, smoother, estimand) in smoothers.items():
            for source, (source_flags, estimator) in estimators.items():
                out = tmp_path / f"uq_{mode}_{name}_{source}"
                argv = [
                    "uq", "--flows", str(flows), "--params", str(params), *source_flags,
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
        b=4000,
        seed=0,
        mode="only-ee",
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
        b=100,
        seed=0,
        mode="only-ee",
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
            b=length,
            seed=0,
            mode="only-ee",
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


def test_report_ranks_refuses_a_non_finite_draw(tmp_path, capsys):
    # A NaN draw used to reach ranks.json as the bare token NaN, which is not JSON.
    path = tmp_path / "draws.csv"
    path.write_text("a,b\n1.0,2.0\nnan,3.0\n2.0,1.0\n", encoding="utf-8")
    out = tmp_path / "r"
    assert main(["report-ranks", "--draws", str(path), "--output-dir", str(out)]) == 2
    assert "row 3: non-finite draw 'nan'" in capsys.readouterr().err
    assert not (out / "ranks.json").exists()


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


def test_estimate_singular_projection_exit_3(tmp_path):
    # The weighted fixed-effects block turns singular during IRLS on this
    # world; that is a separation error, not a numpy traceback.
    world, log_costs = singular_world()
    labels = [str(i) for i in range(world.n)]
    flows = tmp_path / "flows.csv"
    costs = tmp_path / "costs.csv"
    dataio.write_dyadic_csv(flows, labels, world.values, "flow")
    dataio.write_dyadic_csv(costs, labels, np.exp(log_costs), "cost")
    argv = ["estimate", "--flows", str(flows), "--costs", str(costs)]
    assert main(argv + ["--output-dir", str(tmp_path / "est")]) == 3


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
