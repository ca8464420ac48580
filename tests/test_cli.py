import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowuq import dataio
from flowuq.cli import main
from flowuq.scenarios import armington_world, mirror_world


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
    summary = json.loads((out / "calibration_summary.json").read_text())
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
    summary = json.loads((out / "calibration_summary.json").read_text())
    params = dataio.read_params_json(out / "params.json")
    off = ~np.eye(params.n, dtype=bool)
    zeros = int(np.count_nonzero(params.s2_shrunk[off] == 0.0))
    assert zeros >= params.n - 1
    assert summary["s2_shrunk_zero_dyads"] == zeros
    assert f"{zeros} off-diagonal dyads keep a zero prior variance" in capsys.readouterr().err

    assert main(argv + ["--output-dir", str(tmp_path / "raw"), "--no-shrink"]) == 0
    raw = json.loads((tmp_path / "raw" / "calibration_summary.json").read_text())
    assert raw["s2_shrunk_zero_dyads"] is None


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
    mirror.write_text("\n".join(rows) + "\n")
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
        doc = json.loads((out / "interval.json").read_text())
        entry = doc["outcomes"][0]
        widths[mode] = entry["hi"] - entry["lo"]
    assert widths["ee+me"] >= widths["only-ee"]
    assert widths["ee+me"] >= widths["only-me"] * 0.95  # composition dominates


def test_uq_constant_model_degenerate(armington_files, tmp_path):
    scen, flows, dist, costs, params = armington_files
    out = tmp_path / "uq_const"
    code = main(
        [
            "uq",
            "--flows",
            str(flows),
            "--params",
            str(params),
            "--theta",
            "2.0",
            "--theta-se",
            "0.5",
            "--model",
            "constant",
            "--constant-value",
            "1.5",
            "--b",
            "80",
            "--alpha",
            "0.05",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "interval.json").read_text())
    assert doc["outcomes"][0]["lo"] == doc["outcomes"][0]["hi"] == 1.5


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
    doc = json.loads((out / "interval.json").read_text())
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
        + "\n"
    )
    out1 = tmp_path / "c1"
    assert main(["uq", "--config", str(conf), "--output-dir", str(out1)]) == 0
    doc = json.loads((out1 / "interval.json").read_text())
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
    doc2 = json.loads((out2 / "interval.json").read_text())
    assert doc2["outcomes"][0]["draws_used"] == 60


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
    doc = json.loads((ranks_out / "ranks.json").read_text())
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
    doc = json.loads((out / "ranks.json").read_text())
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
    doc = json.loads((out / "ranks.json").read_text())
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
    doc = json.loads((out / "welfare.json").read_text())
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
    doc = json.loads((out2 / "ppml.json").read_text())
    assert abs(doc["epsilon_hat"] - scen.epsilon) < 1.0


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
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split() == ["0", "0", "[]"]
    assert (tmp_path / "calib" / "normality_summary.json").exists()
    assert (tmp_path / "uq" / "interval.json").exists()
