"""Tests of the benchmark itself, at the `tiny` size.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Every independent check must fail on a corrupted copy of the artifact
it reads, so that none passes vacuously, and a smoke run of each
workload must pass all of its checks and report every metric that
BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH
from checks import load_artifacts, run_checks
from workloads import WORKLOADS, make_config
import run

SEED = 2
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Artifacts of one tiny heat-optimize pipeline, and its config."""
    out = tmp_path_factory.mktemp("pipeline")
    cfg = make_config("heat-optimize", SEED, "tiny")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert len(run.run_stages(cfg_path, out, SEED)) == len(run.STAGES)
    return cfg, out


def _corrupted(artifacts, tmp_path, name, edit):
    cfg, out = artifacts
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    path = bad / name
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return run_checks(cfg, load_artifacts(bad), SEED)


def test_checks_pass_on_program_output(artifacts):
    cfg, out = artifacts
    failed = {n: r for n, r in run_checks(cfg, load_artifacts(out), SEED).items() if not r[0]}
    assert not failed


def _bump(arr, idx, delta):
    a = np.asarray(arr, dtype=float)
    a[idx] += delta
    return a.tolist()


CORRUPTIONS = [
    ("plant.observations", "nominal.json",
     lambda p: p.update(observations=_bump(p["observations"], (50, 2), 1e-6))),
    ("trajopt.cost", "nominal.json",
     lambda p: p.update(nominal_cost=p["nominal_cost"] * (1 + 1e-9))),
    ("belief.means", "nominal.json",
     lambda p: p.update(means=_bump(p["means"], (60, 5), 1e-3))),
    ("trajopt.iterations", "nominal.json", lambda p: p.update(iterations=0)),
    ("trajopt.descent", "nominal.json",
     lambda p: p.update(nominal_cost=p["nominal_cost"] * 10)),
    ("sysid.holdout", "rom_validation.json",
     lambda p: p.update(holdout_error=p["holdout_error"] * (1 + 1e-6))),
    ("sysid.holdout", "rom.json",
     lambda p: p.update(A_hat=_bump(p["A_hat"], (40, 0, 0), 1e-4))),
    ("lqg.gains", "controller.json",
     lambda p: p.update(L_gains=_bump(p["L_gains"], (30, 1, 2), 1e-6))),
    ("lqg.gains", "controller.json",
     lambda p: p.update(K_gains=_bump(p["K_gains"], (30, 2, 1), 1e-6))),
    ("lqg.gains", "controller.json",
     lambda p: p["rom"].update(C_hat=_bump(p["rom"]["C_hat"], (0, 0, 0), 1e-12))),
    ("harness.run0", "report.json",
     lambda p: p.update(run0_closed_err=_bump(p["run0_closed_err"], (70, 0), 1e-6))),
    ("harness.run0", "report.json",
     lambda p: p.update(run0_open_err=_bump(p["run0_open_err"], (70, 1), 1e-6))),
    ("harness.closed_beats_open", "report.json",
     lambda p: p.update(mse_closed=[1.01 * m for m in p["mse_open"]])),
    ("harness.runs", "report.json", lambda p: p.update(n_runs=p["n_runs"] - 1)),
]


@pytest.mark.parametrize("check,artifact,edit", CORRUPTIONS,
                         ids=[f"{c}-{a}-{i}" for i, (c, a, _) in enumerate(CORRUPTIONS)])
def test_check_fails_on_corrupted_artifact(artifacts, tmp_path, check, artifact, edit):
    assert not _corrupted(artifacts, tmp_path, artifact, edit)[check][0]


def test_markov_check_fails_on_corrupted_impulse_responses(artifacts):
    cfg, out = artifacts
    from checks import _program_markov

    art = load_artifacts(out)
    markov = _program_markov(cfg, art["nominal"])
    assert run_checks(cfg, art, SEED, markov=markov)["sysid.markov"][0]
    markov[50] *= 1.01  # one output time, every impulse before it
    assert not run_checks(cfg, art, SEED, markov=markov)["sysid.markov"][0]


def _smoke(workload, trace):
    return run.benchmark(workload, SEED, 0, bool(trace), "tiny")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_reports_end_to_end(workload):
    result = _smoke(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(result["metrics"])
    for m in DECLARED["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_run_with_a_failing_stage_is_not_correct(monkeypatch):
    from seplqg import cli

    def broken(args):
        raise RuntimeError("design failed")

    monkeypatch.setattr(cli, "cmd_design", broken)
    result = _smoke("heat-evaluate", 0)
    runs = make_config("heat-evaluate", SEED, "tiny")["evaluate"]["runs"]
    # design and evaluate fail, and so do the Monte Carlo runs never made
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (len(run.STAGES) + runs, 2 + runs)
    assert result["metrics"] == {}


def test_traced_smoke_run_reports_per_layer():
    result = _smoke("heat-optimize", 1)
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in DECLARED["per_layer"]] == list(result["metrics"])
    for m in DECLARED["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["trajopt.iterations"]["value"] == 1
    # spans nest: the optimizer's steps are a share of all plant steps
    steps = result["metrics"]["plant.state_steps"]["value"]
    assert 0 < result["metrics"]["trajopt.state_steps"]["value"] < steps


def test_tracer_restores_the_program():
    from seplqg import cli, harness, plant, trajopt

    before = (plant.HeatPlant.step, cli.optimize, harness.enkf_update_members,
              trajopt.NominalTrajectory.from_json)
    _smoke("heat-evaluate", 1)
    after = (plant.HeatPlant.step, cli.optimize, harness.enkf_update_members,
             trajopt.NominalTrajectory.from_json)
    assert before == after


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
