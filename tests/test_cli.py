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


@pytest.mark.parametrize("evaluate, message", [({"belief_size": 1}, "belief_size must be >= 2"),
                                               ({"probes": [-0.5, 0.9]}, "-0.5 outside"),
                                               ({"chunk": 0}, "chunk must be >= 1"),
                                               ({"runs": 0}, "runs must be >= 1")])
def test_pipeline_rejects_bad_evaluate_section_before_any_stage(tmp_path, evaluate, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "evaluate": {**TINY["evaluate"], **evaluate}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert not out.exists() or not any(out.iterdir())


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
    with pytest.raises(ValueError, match=key):
        ExperimentConfig({"optimize": {"alpha": 1.0, key: value}})
    assert ExperimentConfig({"optimize": {"alpha": 2.0}}).optimize_options(seed=4).seed == 4


def test_config_rejects_unknown_q_mean_preset():
    cfg = ExperimentConfig({"plant": {"n_grid": 20}, "cost": {"q_mean": "nope"}})
    plant = cfg.plant()
    with pytest.raises(ValueError):
        cfg.cost(plant)


@pytest.mark.parametrize("raw, message", [
    ({"evaluate": {"belief_sise": 5, "run": 3}}, "unknown evaluate key.*: belief_sise, run"),
    ({"sysid": {"nr": 4}}, "unknown sysid key.*: nr"),
    ({"lqg": {"qy": 1.0}}, "unknown lqg key.*: qy"),
    ({"prior": {"sd": 0.5}}, "unknown prior key.*: sd"),
    ({"cost": {"r": 1e-3}}, "unknown cost key.*: r$"),
    ({"plant": {"n_grid": 20, "noise": 1.0}}, "unknown plant key.*: noise"),
    ({"assertions": {"theorem_1": {}}}, "unknown assertions key.*: theorem_1"),
    ({"evalute": {"runs": 3}}, "unknown config section.*: evalute"),
    ({"sysid": 20}, "section 'sysid' must be an object"),
])
def test_config_rejects_unknown_keys(raw, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(raw)


def test_every_known_key_is_accepted():
    ExperimentConfig(TINY)
    ExperimentConfig(benchmark_config().raw)
    ExperimentConfig({
        "plant": {"w_scale": 2.0, "v_scale": 0.5, "insulated": True},
        "cost": {"spatial_gain": 3.0, "spatial_reach": 5.0, "q_terminal": 2.0, "q_trace": 0.1},
        "sysid": {"holdout_extra": 4},
        "lqg": {"ridge": 0.0},
        "evaluate": {"chunk": 5},
        "assertions": {"nominal_band": {"t_start": 0.0, "t_end": 1.0, "lo": 0.0, "hi": 1.0},
                       "rom_error_max": 1.0, "closed_beats_open": True, "mean_within": 1.0,
                       "theorem1": {"se_mult": 3.0, "frac_cost": 0.02}},
    })


def test_optimize_method_is_rejected():
    # "kf" rollouts need a linear plant, and the CLI's plant is a HeatPlant
    with pytest.raises(ValueError, match="unknown optimize key.*: method"):
        ExperimentConfig({"optimize": {"method": "enkf"}})


@pytest.mark.parametrize("entry, message", [
    ({"theorem1": {"se_mul": 0.0, "frac_cost": 0.0}}, "unknown theorem1 assertion key.*: se_mul"),
    ({"theorem1": True}, "assertion 'theorem1' must be an object"),
    ({"nominal_band": {"t_start": 0.0, "t_end": 1.0, "hi": 200.0}}, "nominal_band assertion needs key.*: lo"),
])
def test_config_checks_assertion_entry_keys(entry, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig({"assertions": entry})


def test_assertion_entries_get_their_defaults():
    cfg = ExperimentConfig({"assertions": {"theorem1": {"se_mult": 2.0}, "mean_within": 1.0}})
    assert cfg.assertions() == {"theorem1": {"se_mult": 2.0, "frac_cost": 0.02}, "mean_within": 1.0}


def test_nominal_band_without_lo_fails_before_any_artifact(tmp_path):
    cfg = tmp_path / "cfg.json"
    band = {"t_start": 0.0, "t_end": 1.0, "hi": 200.0}
    cfg.write_text(json.dumps({**TINY, "assertions": {"nominal_band": band}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="needs key.*: lo"):
        main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_one_run_has_no_standard_error(pipeline_dir, tmp_path, capsys):
    for name in ("nominal.json", "controller.json"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    raw = json.loads((pipeline_dir / "cfg.json").read_text())
    raw["assertions"] = {"theorem1": {}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3", "--runs", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "(se n/a)" in out
    assert "[FAIL] theorem1: needs at least 2 kept runs, got 1" in out


@pytest.mark.parametrize("command", sorted(PIPELINE_COMMANDS))
def test_every_stage_rejects_an_unknown_key_before_writing(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "sysid": {**TINY["sysid"], "nr": 4}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="unknown sysid key"):
        main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("runs", ["0", "-5"])
@pytest.mark.parametrize("command", ["evaluate", "theorem1", "pipeline"])
def test_runs_below_one_is_rejected_when_parsing(tmp_path, capsys, command, runs):
    # tmp_path holds no artifacts: a stage that started would fail on them
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path), "--runs", runs])
    assert exc.value.code == 2
    assert f"--runs: must be >= 1, got {runs}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_runs_override_is_used_as_given(pipeline_dir, tmp_path):
    for name in ("nominal.json", "controller.json"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    rc = main(["evaluate", "--config", str(pipeline_dir / "cfg.json"), "--out", str(tmp_path), "--runs", "3"])
    assert rc == 0
    assert json.loads((tmp_path / "report.json").read_text())["n_runs"] == 3
