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
from seplqg.cli import _run_assertions, main
from seplqg.config import ExperimentConfig, benchmark_config, spatial_weight
from seplqg.harness import MonteCarloReport, closed_loop_band, probe_nodes_from_fractions, probe_output_rows
from seplqg.lqg import LqgController
from seplqg.plant import HeatPlantConfig
from seplqg.sysid import collect_impulse_responses, tv_era
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


def test_report_json_records_delta_J_statistics(pipeline_dir):
    report = json.loads((pipeline_dir / "report.json").read_text())
    samples = np.array(report["delta_J_samples"])
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert report["delta_J_mean"] == pytest.approx(samples.mean(), rel=1e-12)
    assert report["delta_J_se"] == pytest.approx(se, rel=1e-12)
    assert report["delta_J_z"] == pytest.approx(samples.mean() / se, rel=1e-12)


def test_report_json_records_the_paired_closed_open_verdict(pipeline_dir):
    report = json.loads((pipeline_dir / "report.json").read_text())
    mean, se, z = (np.array(report[f"mse_diff_{name}"]) for name in ("mean", "se", "z"))
    assert mean.shape == se.shape == z.shape == (2,)
    assert np.allclose(mean, np.subtract(report["mse_open"], report["mse_closed"]), rtol=1e-12, atol=0)
    assert np.array_equal(z, mean / se)


def _one_probe_report(diffs):
    samples = np.asarray(diffs, dtype=float)[:, None]
    n = len(samples)
    return MonteCarloReport(
        n_runs=n, n_effective=n, base_seed=0, mean_traj=np.zeros((2, 1)), probe_positions=(0.5,),
        probe_nodes=(0,), run0_closed_err=np.zeros((2, 1)), run0_open_err=np.zeros((2, 1)),
        two_sigma=np.zeros((2, 1)), mse_closed=np.array([1.0]), mse_open=1.0 + samples.mean(axis=0),
        delta_J_samples=np.zeros(n), nominal_cost=1.0, failures=0, mse_diff_samples=samples)


@pytest.mark.parametrize("diffs, z, passed", [
    ([1.0, 1.1, 0.9, 1.0], "24.5", True),
    ([1.0, -0.5, 2.0, 0.1], "1.19", False),  # closed MSE below open, on weak evidence
    ([0.3], "n/a", False),  # one run has no se
])
def test_closed_beats_open_needs_a_paired_z_above_3(capsys, diffs, z, passed):
    cfg = ExperimentConfig({"assertions": {"closed_beats_open": True}})
    failures = _run_assertions(cfg, None, None, _one_probe_report(diffs), None)
    assert failures == ([] if passed else ["closed_beats_open"])
    assert f"paired z [{z}] > 3" in capsys.readouterr().out


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


def test_evaluate_writes_the_same_files_for_any_chunk(pipeline_dir, tmp_path):
    # the heat slab's Monte Carlo is chunk-exact, so the written files are
    # too, byte for byte, one-run chunks included
    raw = json.loads((pipeline_dir / "cfg.json").read_text())
    written = []
    for chunk in (1, 5, 16):
        d = tmp_path / f"chunk{chunk}"
        d.mkdir()
        for name in ("nominal.json", "controller.json"):
            shutil.copy(pipeline_dir / name, d / name)
        cfg = d / "cfg.json"
        cfg.write_text(json.dumps({**raw, "evaluate": {**raw["evaluate"], "chunk": chunk}}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(d), "--seed", "3"]) == 0
        written.append({name: (d / name).read_bytes() for name in ("report.json", "fig3_errors.csv")})
    assert written[0] == written[1] == written[2]


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
                                               ({"runs": 0}, "runs must be >= 1"),
                                               ({"runs": 2.5}, "runs must be an integer, got 2.5"),
                                               ({"runs": True}, "runs must be an integer, got True"),
                                               ({"chunk": 7.0}, "chunk must be an integer, got 7.0"),
                                               ({"chunk": False}, "chunk must be an integer, got False")])
def test_pipeline_rejects_bad_evaluate_section_before_any_stage(tmp_path, evaluate, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "evaluate": {**TINY["evaluate"], **evaluate}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section, entry, message", [
    ("sysid", {"n_r": 0}, "sysid n_r must be an integer >= 1, got 0"),
    ("sysid", {"p": 0}, "sysid p must be an integer >= 1, got 0"),
    ("sysid", {"q": 2.5}, "sysid q must be an integer >= 1, got 2.5"),
    ("sysid", {"n_r": 21}, "sysid p must be at least n_r / n_y = 21/5, got 4"),
    ("sysid", {"n_r": 21, "p": 5}, "sysid q must be at least n_r / n_u = 21/5, got 4"),
    ("sysid", {"epsilon": 0.0}, "sysid epsilon must be > 0, got 0.0"),
    ("sysid", {"holdout_extra": 0}, "sysid holdout_extra must be null or an integer >= 1, got 0"),
    ("lqg", {"q_y": 0.0}, "lqg q_y must be > 0, got 0.0"),
    ("lqg", {"r": -0.1}, "lqg r must be > 0, got -0.1"),
    ("lqg", {"terminal_scale": 0}, "lqg terminal_scale must be > 0, got 0"),
    ("lqg", {"p0": "1"}, "lqg p0 must be > 0, got '1'"),
    ("lqg", {"ridge": -1e-8}, "lqg ridge must be >= 0, got -1e-08"),
    # the stdlib reader of the config takes Infinity and NaN
    ("sysid", {"epsilon": float("inf")}, "sysid epsilon must be finite, got inf"),
    ("lqg", {"q_y": float("inf")}, "lqg q_y must be finite, got inf"),
    ("lqg", {"ridge": float("inf")}, "lqg ridge must be finite, got inf"),
    ("prior", {"std": -0.5}, "prior std must be >= 0 and finite, got -0.5"),
    ("prior", {"std": float("nan")}, "prior std must be >= 0 and finite, got nan"),
    ("prior", {"std": float("inf")}, "prior std must be >= 0 and finite, got inf"),
])
def test_pipeline_rejects_bad_sysid_and_lqg_values_before_any_stage(tmp_path, section, entry, message):
    # the prior section is read by `prior_std`
    raw = {**TINY, section: {**TINY.get(section, {}), **entry}}
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(ExperimentConfig(raw), {"prior": "prior_std"}.get(section, section))()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(message)):
        main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"alpha": -30}, "optimize alpha must be > 0 and finite, got -30"),
    ({"alpha": float("inf")}, "optimize alpha must be > 0 and finite, got inf"),
    ({"max_iters": -2}, "optimize max_iters must be an integer >= 0, got -2"),
    ({"max_iters": 2.5}, "optimize max_iters must be an integer >= 0, got 2.5"),
    ({"tol": -1e-8}, "optimize tol must be >= 0 and finite, got -1e-08"),
    ({"tol": float("nan")}, "optimize tol must be >= 0 and finite, got nan"),
    ({"M": 1}, "optimize M must be an integer >= 2, got 1"),
    ({"M": 8.0}, "optimize M must be an integer >= 2, got 8.0"),
    ({"h": 0.0}, "optimize h must be > 0 and finite, got 0.0"),
    ({"seed": 1.5}, "optimize seed must be an integer, got 1.5"),
])
def test_pipeline_rejects_bad_optimize_values_before_any_stage(tmp_path, entry, message):
    # the stdlib reader of the config takes Infinity and NaN
    raw = {**TINY, "optimize": {**TINY["optimize"], **entry}}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(raw).optimize_options()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for command in ("optimize", "pipeline"):
        out = tmp_path / command
        with pytest.raises(ValueError, match=re.escape(message)):
            main([command, "--config", str(cfg), "--out", str(out)])
        assert not out.exists()


@pytest.mark.parametrize("entry, message", [
    ({"q_terminal": [1.0, 2.0]}, "q_terminal must have length 24, got shape (2,)"),
    ({"r_u": [1e-3] * 4}, "r_u must have length 5, got shape (4,)"),
    ({"target": float("inf")}, "target must be finite"),
    ({"q_mean": [1.0] * 23 + [float("nan")]}, "q_mean must be finite"),
    ({"q_mean": [1.0] * 23 + [-1.0]}, "q_mean must be >= 0"),
    # the covariance-trace weight is deleted: a config that still sets it
    # names an unknown key
    ({"q_trace": 0.0}, "unknown cost key(s): q_trace"),
])
def test_pipeline_rejects_bad_cost_weights_before_any_stage(tmp_path, entry, message):
    # the stdlib reader of the config takes Infinity and NaN
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "cost": {**TINY["cost"], **entry}}))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(message)):
        main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


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


def _fresh_env():
    """The environment of a fresh interpreter that imports the seplqg
    under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(seplqg.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


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
    env = _fresh_env()
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


def test_setup_reads_the_config_without_importing_orjson(tmp_path):
    # A process's set-up (import the CLI, read the config, build the plant
    # and cost) reads the config with the stdlib json: orjson reads only
    # the stage artifacts, so only the stages pay for its import.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    code = ("import sys\n"
            "from seplqg.cli import main\n"
            "from seplqg.config import ExperimentConfig\n"
            "cfg = ExperimentConfig.load(sys.argv[1])\n"
            "cfg.cost(cfg.plant())\n"
            "print('orjson' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg)], capture_output=True, text=True,
                         env=_fresh_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


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
    # removed options are unknown keys like any other
    ({"optimize": {"method": "enkf"}}, "unknown optimize key.*: method"),
    ({"plant": {"insulated": True}}, "unknown plant key.*: insulated"),
])
def test_config_rejects_unknown_keys(raw, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(raw)


def test_every_known_key_is_accepted():
    ExperimentConfig(TINY)
    ExperimentConfig(benchmark_config().raw)
    ExperimentConfig({
        "plant": {"w_scale": 2.0, "v_scale": 0.5},
        "cost": {"spatial_gain": 3.0, "spatial_reach": 5.0, "q_terminal": 2.0},
        "sysid": {"holdout_extra": 4},
        "lqg": {"ridge": 0.0},
        "evaluate": {"chunk": 5},
        "assertions": {"nominal_band": {"t_start": 0.0, "t_end": 1.0, "lo": 0.0, "hi": 1.0},
                       "rom_error_max": 1.0, "closed_beats_open": True, "mean_within": 1.0,
                       "theorem1": {"se_mult": 3.0, "frac_cost": 0.02}},
    })


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


def test_one_run_report_has_null_standard_error(pipeline_dir, tmp_path):
    for name in ("nominal.json", "controller.json"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    rc = main(["evaluate", "--config", str(pipeline_dir / "cfg.json"), "--out", str(tmp_path),
               "--seed", "3", "--runs", "1"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_effective"] == 1
    assert report["delta_J_mean"] == report["delta_J_samples"][0]
    assert report["delta_J_se"] is None
    assert report["delta_J_z"] is None


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


NOMINAL_KEYS = {"controls", "means", "prior_cov", "observations", "nominal_cost", "iterations", "converged"}
ROM_KEYS = {"A_hat", "B_hat", "C_hat", "n_r", "time_range", "gap_warning"}
CONTROLLER_KEYS = {"rom", "L_gains", "K_gains", "W", "V", "P_traces", "S_traces"}
REPORT_KEYS = {"n_runs", "n_effective", "base_seed", "mean_traj", "probe_positions", "probe_nodes",
               "run0_closed_err", "run0_open_err", "two_sigma", "mse_closed", "mse_open",
               "delta_J_samples", "nominal_cost", "failures", "delta_J_mean", "delta_J_se", "delta_J_z",
               "mse_diff_mean", "mse_diff_se", "mse_diff_z"}


def test_artifact_files_hold_exactly_the_stored_fields(pipeline_dir):
    art = {name: json.loads((pipeline_dir / f"{name}.json").read_text())
           for name in ("nominal", "rom", "controller", "report")}
    assert set(art["nominal"]) == NOMINAL_KEYS
    assert set(art["rom"]) == ROM_KEYS  # no singular_values: they are in sysid_singvals.csv
    assert set(art["controller"]) == CONTROLLER_KEYS
    assert set(art["controller"]["rom"]) == ROM_KEYS
    assert set(art["report"]) == REPORT_KEYS
    # the controller's ROM is the identified one, bit for bit
    for key in ("A_hat", "B_hat", "C_hat"):
        assert np.array(art["controller"]["rom"][key]).tobytes() == np.array(art["rom"][key]).tobytes()
    for key in ("n_r", "time_range", "gap_warning"):
        assert art["controller"]["rom"][key] == art["rom"][key]


def test_singvals_csv_holds_the_hankel_spectra_bit_for_bit(pipeline_dir):
    experiment = ExperimentConfig(json.loads((pipeline_dir / "cfg.json").read_text()))
    sid = experiment.sysid()
    nominal = NominalTrajectory.from_json(pipeline_dir / "nominal.json")
    markov = collect_impulse_responses(experiment.plant(), nominal, sid["epsilon"])
    spectra = tv_era(markov, n_r=sid["n_r"], p=sid["p"], q=sid["q"]).singular_values
    with open(pipeline_dir / "sysid_singvals.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(row[0]) for row in rows] == sorted(spectra)
    for row in rows:
        # s_1..s_(n_r+1): the kept values and the first one discarded
        assert len(row) == 1 + sid["n_r"] + 1
        assert np.array([float(s) for s in row[1:]]).tobytes() == spectra[int(row[0])].tobytes()


def test_null_holdout_extra_is_resolved_to_p_plus_q(pipeline_dir, tmp_path):
    validations = []
    for extra in (None, 7):
        out = tmp_path / f"extra-{extra}"
        out.mkdir()
        shutil.copy(pipeline_dir / "nominal.json", out / "nominal.json")
        cfg = out / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "sysid": {**TINY["sysid"], "q": 3, "holdout_extra": extra}}))
        assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 0
        validations.append(json.loads((out / "rom_validation.json").read_text()))
    assert validations[0]["holdout_extra"] == 4 + 3
    assert validations[0] == validations[1]
