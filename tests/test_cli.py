import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seplqg
from seplqg.cli import main
from seplqg.config import ExperimentConfig, benchmark_config, spatial_weight
from seplqg.harness import closed_loop_band, probe_nodes_from_fractions, probe_output_rows
from seplqg.lqg import LqgController
from seplqg.plant import HeatPlantConfig
from seplqg.trajopt import NominalTrajectory


PIPELINE_COMMANDS = {"optimize", "identify", "design", "evaluate", "theorem1", "pipeline"}

TINY = {
    "plant": {"n_grid": 24, "horizon": 30, "dt": 0.25},
    "prior": {"std": 0.5},
    "cost": {"q_mean": "spatial", "r_u": 1e-3},
    "optimize": {"alpha": 20.0, "max_iters": 4, "M": 8, "h": 1e-2, "tol": 1e-8, "seed": 1},
    "sysid": {"n_r": 6, "p": 4, "q": 4},
    "evaluate": {"runs": 16, "belief_size": 10, "chunk": 8},
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    rc = main(["pipeline", "--config", str(cfg), "--out", str(d), "--seed", "3"])
    assert rc == 0
    return d


def test_pipeline_writes_all_artifacts(pipeline_dir):
    for name in (
        "nominal.json",
        "fig2_nominal.csv",
        "rom.json",
        "rom_validation.json",
        "sysid_singvals.csv",
        "controller.json",
        "lqg_diag.csv",
        "report.json",
        "fig3_errors.csv",
        "complexity.txt",
    ):
        assert (pipeline_dir / name).exists(), name


def test_fig2_csv_schema(pipeline_dir):
    with open(pipeline_dir / "fig2_nominal.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["k", "t"]
    assert len(rows) == 32  # header + N+1
    assert float(rows[1][1]) == 0.0
    assert float(rows[2][1]) == pytest.approx(0.25)


def test_fig3_csv_schema(pipeline_dir):
    with open(pipeline_dir / "fig3_errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "pos", "closed_err", "open_err", "two_sigma"]
    assert len(rows) == 1 + 2 * 31  # two probe positions


def test_report_json_contents(pipeline_dir):
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert report["n_runs"] == 16
    assert len(report["delta_J_samples"]) == 16
    assert len(report["mean_traj"]) == 31
    assert report["failures"] == 0


def test_complexity_txt(pipeline_dir):
    text = (pipeline_dir / "complexity.txt").read_text()
    assert "vs 6 x 6 Riccati" in text


def test_evaluate_rerun_is_deterministic(pipeline_dir):
    cfg = pipeline_dir / "cfg.json"
    rc = main(["evaluate", "--config", str(cfg), "--out", str(pipeline_dir), "--seed", "3"])
    assert rc == 0
    first = json.loads((pipeline_dir / "report.json").read_text())
    rc = main(["evaluate", "--config", str(cfg), "--out", str(pipeline_dir), "--seed", "3"])
    second = json.loads((pipeline_dir / "report.json").read_text())
    assert first["delta_J_samples"] == second["delta_J_samples"]
    assert first["mean_traj"] == second["mean_traj"]


def test_theorem1_subcommand(pipeline_dir):
    cfg = pipeline_dir / "cfg.json"
    rc = main(["theorem1", "--config", str(cfg), "--out", str(pipeline_dir), "--runs", "150"])
    assert rc == 0
    payload = json.loads((pipeline_dir / "theorem1.json").read_text())
    assert payload["runs"] == 150
    assert abs(payload["mean_delta_J"]) <= max(3 * payload["se"], 0.02 * payload["nominal_cost"])


def test_theorem1_rejects_too_few_runs_before_loading_artifacts(tmp_path):
    # tmp_path holds no artifacts: loading them would raise FileNotFoundError
    with pytest.raises(ValueError, match="at least 100 runs"):
        main(["theorem1", "--out", str(tmp_path), "--runs", "50"])


def test_failing_assertion_sets_exit_code(pipeline_dir, tmp_path):
    raw = json.loads((pipeline_dir / "cfg.json").read_text())
    raw["assertions"] = {"mean_within": 1e-12}  # impossible under noise
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["evaluate", "--config", str(cfg), "--out", str(pipeline_dir), "--seed", "3"])
    assert rc == 1


def test_evaluate_identifies_probe_rows_with_sysid_epsilon(pipeline_dir, tmp_path):
    raw = json.loads((pipeline_dir / "cfg.json").read_text())
    raw["sysid"]["epsilon"] = 5e-2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for name in ("nominal.json", "controller.json"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3", "--runs", "2"])
    assert rc == 0
    two_sigma = np.asarray(json.loads((tmp_path / "report.json").read_text())["two_sigma"])
    experiment = ExperimentConfig(raw)
    plant = experiment.plant()
    nominal = NominalTrajectory.from_json(tmp_path / "nominal.json")
    ctrl = LqgController.from_json(tmp_path / "controller.json")
    nodes = probe_nodes_from_fractions(plant.n_x, experiment.evaluate()["probes"])

    def band(epsilon):
        return closed_loop_band(ctrl, probe_output_rows(plant, nominal, ctrl.rom, nodes, epsilon))

    assert np.array_equal(two_sigma, band(5e-2))
    assert not np.array_equal(two_sigma, band(1e-2))


def test_cli_entry_point_help():
    # The console script declared in pyproject.toml must point at the same
    # main() the tests above drive in-process.  tomllib needs Python >= 3.11.
    import tomllib

    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["seplqg"] == "seplqg.cli:main"
    module, attr = scripts["seplqg"].split(":")
    assert getattr(importlib.import_module(module), attr) is main

    # Start the entry point in a fresh interpreter that finds the imported
    # package whatever the working directory; the installed script is only
    # present after `pip install`, so it is run as well when it is on PATH.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(seplqg.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    commands = [[sys.executable, "-m", "seplqg.cli", "--help"]]
    script = shutil.which("seplqg")
    if script:
        commands.append([script, "--help"])
    for cmd in commands:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 0, (cmd, out.stderr)
        assert "optimize" in out.stdout and "pipeline" in out.stdout, cmd
        # The module docstring names every stage too, so read the parser's
        # own choice list from the usage line.
        choices = re.search(r"\{(.*?)\}", out.stdout)
        assert choices and set(choices.group(1).split(",")) == PIPELINE_COMMANDS, cmd


def test_spatial_weight_shape():
    cfg = HeatPlantConfig(n_grid=50)
    w = spatial_weight(cfg, gain=6.0, reach=10.0)
    assert w.shape == (50,)
    assert w[-1] == 0.0
    for node in cfg.actuator_nodes:
        assert w[node] == pytest.approx(1.0)
    mid = (cfg.actuator_nodes[0] + cfg.actuator_nodes[1]) // 2
    assert w[mid] > w[cfg.actuator_nodes[0]]


def test_benchmark_config_matches_paper_setup():
    cfg = benchmark_config()
    plant = cfg.plant()
    assert plant.n_x == 100
    assert plant.n_u == plant.n_y == 5
    assert plant.horizon == 250
    assert plant.dt == 0.25
    assert np.array_equal(plant.spec.W, np.eye(5))
    assert np.array_equal(plant.spec.V, np.eye(5))
    assert cfg.sysid()["n_r"] == 20
    assert plant.config.t_init == 100.0 and plant.config.t_right == 150.0


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, value, id=key) for key, value in (
        ("dtype", "float32"), ("inflation", 1.0), ("normalize_alpha", True), ("max_halvings", 30),
        ("chunk", 64), ("verbose", False))],
)
def test_config_rejects_unknown_optimize_option(key, value):
    # removed options are unknown keys, even at their former defaults
    cfg = ExperimentConfig({"optimize": {"alpha": 1.0, key: value}})
    with pytest.raises(ValueError, match=key):
        cfg.optimize_options()
    assert ExperimentConfig({"optimize": {"alpha": 2.0}}).optimize_options(seed=4).seed == 4


def test_config_rejects_unknown_q_mean_preset():
    cfg = ExperimentConfig({"plant": {"n_grid": 20}, "cost": {"q_mean": "nope"}})
    plant = cfg.plant()
    with pytest.raises(ValueError):
        cfg.cost(plant)
