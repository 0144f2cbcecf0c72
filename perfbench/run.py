"""Benchmark of `seplqg pipeline` on the nonlinear heat slab.

    python3 perfbench/run.py --workload heat-evaluate --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/`.  A run generates the workload's experiment config from the
seed, times set-up, then repeats whole rounds of the four CLI stages
(`optimize`, `identify`, `design`, `evaluate`, in the order `seplqg
pipeline` runs them, each through `seplqg.cli.main`) for as long as
another round fits into `--seconds`; there is always at least one.
After each round, outside the timing, the artifacts are checked against
independent computations (`checks.py`) and deleted.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are the end-to-end ones, medians over rounds; with `--trace 1`
the stages run under the per-layer tracer (`tracer.py`) and the metrics
are the per-layer ones.  Operations are the four stage calls and the
paired Monte Carlo runs of each round.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from checks import load_artifacts, run_checks
from tracer import Tracer
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

STAGES = ("optimize", "identify", "design", "evaluate")
SETUP_REPEATS = 5

# A fresh interpreter does what a user's `seplqg` process does before
# its first stage: import the CLI and build the plant and cost from the
# config, then step the plant once.
_SETUP_CODE = (
    "import sys\n"
    "from seplqg.cli import main\n"
    "from seplqg.config import ExperimentConfig\n"
    "cfg = ExperimentConfig.load(sys.argv[1])\n"
    "plant = cfg.plant()\n"
    "cfg.cost(plant)\n"
    "plant.step(plant.initial_state(), [0.0] * plant.n_u, 0.0)\n"
)


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def machine_facts():
    """nproc, numpy version, BLAS and its thread count."""
    import numpy as np

    facts = {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def setup_once(workload, seed, size, cfg_path):
    """Generate the config and start a fresh `seplqg` process on it."""
    t0 = time.perf_counter()
    cfg = make_config(workload, seed, size)
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(cfg_path)], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0, cfg


def run_stages(cfg_path, out, seed):
    """Run the four stages; returns [(stage, seconds)] of those that
    succeeded.  A stage that raises or returns non-zero fails, and the
    stages after it, which would read its missing artifacts, are not
    run: they count as failed too."""
    from seplqg import cli

    done = []
    for stage in STAGES:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main([stage, "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)])
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            rc = 1
        if rc != 0:
            _log(f"stage {stage} failed (rc={rc})")
            break
        done.append((stage, time.perf_counter() - t0))
    return done


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def run_round(cfg, cfg_path, out, seed, trace):
    """One pass of the pipeline plus its checks; returns a dict of results."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        done = run_stages(cfg_path, out, seed)
    finally:
        if tracer:
            tracer.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = cfg["evaluate"]["runs"]
    r = {"times": dict(done), "attempted": len(STAGES) + runs,
         "failed": len(STAGES) - len(done), "peak_rss_mb": peak_rss_mb, "correct": True}
    if len(done) < len(STAGES):
        r["failed"] += runs  # the Monte Carlo never ran
        r["correct"] = False  # and no check could run
        return r
    art = load_artifacts(out)
    report = art["report"]
    r["failed"] += report["failures"]
    r["artifact_mb"] = _dir_bytes(out) / 1e6
    r["nominal_cost"] = art["nominal"]["nominal_cost"]
    r["holdout_error"] = art["rom_validation"]["holdout_error"]
    r["mse_ratio"] = max(c / o for c, o in zip(report["mse_closed"], report["mse_open"]))
    if tracer:
        r["layers"] = tracer.metrics((out / "nominal.json").stat().st_size)
    try:
        checks = run_checks(cfg, art, seed)
    except Exception:  # artifacts the checks cannot read are wrong
        traceback.print_exc()
        r["correct"] = False
        return r
    _log("checks: " + ", ".join(f"{n} {m:.3g}{'' if ok else ' FAILED'}" for n, (ok, m, _) in checks.items()))
    r["correct"] = all(ok for ok, _, _ in checks.values())
    return r


QUALITY = ("artifact_mb", "nominal_cost", "holdout_error", "mse_ratio")


def summarize(setups, rounds, trace):
    """Metrics {name: {"value", "unit"}}: medians over the rounds that
    completed."""
    done = [r for r in rounds if "artifact_mb" in r]
    if not done:
        return {}
    med = statistics.median
    stage_s = {
        "optimize_s": med(r["times"]["optimize"] for r in done),
        "identify_design_s": med(r["times"]["identify"] + r["times"]["design"] for r in done),
        "evaluate_s": med(r["times"]["evaluate"] for r in done),
        "pipeline_s": med(sum(r["times"].values()) for r in done),
    }
    if trace:
        layers = {n: (med(r["layers"][n][0] for r in done), u) for n, (_, u) in done[0]["layers"].items()}
        layers.update({f"cli.{n}": (v, "s") for n, v in stage_s.items()})
        return {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
    metrics = {
        "setup_s": (med(setups), "s"),
        "pipeline_s": (stage_s["pipeline_s"], "s"),
        "artifact_mb": (done[0]["artifact_mb"], "MB"),
        "peak_rss_mb": (done[0]["peak_rss_mb"], "MB"),
        "nominal_cost": (done[0]["nominal_cost"], "cost"),
        "holdout_error": (done[0]["holdout_error"], "ratio"),
        "mse_ratio": (done[0]["mse_ratio"], "ratio"),
    }
    return {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}


def benchmark(workload, seed, seconds, trace, size="full"):
    """Run one benchmark run; returns the result object."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        cfg_path = work / "config.json"
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, cfg = setup_once(workload, seed, size, cfg_path)
            setups.append(elapsed)
        rounds = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out = work / f"round{len(rounds)}"
            out.mkdir()
            rounds.append(run_round(cfg, cfg_path, out, seed, trace))
            shutil.rmtree(out)
            rounds[-1]["wall"] = time.perf_counter() - t0
            per_round = statistics.median(r["wall"] for r in rounds)
            if time.perf_counter() - start + per_round > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    done = [r for r in rounds if "artifact_mb" in r]
    # under a fixed seed the quality figures repeat bit for bit
    repeat = all(r[q] == done[0][q] for r in done for q in QUALITY)
    if not repeat:
        _log("quality figures differ between rounds of one seed")
    _log(f"{workload} seed {seed} trace {trace}: {len(rounds)} round(s), stage seconds "
         + json.dumps([{s: round(t, 2) for s, t in r["times"].items()} for r in rounds]))
    return {
        "correct": bool(done) and repeat and all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": summarize(setups, rounds, trace),
    }


def _program_importable():
    init = SRC / "seplqg" / "__init__.py"
    if not init.is_file():
        return False
    sys.path.insert(0, str(SRC))
    import seplqg

    return Path(seplqg.__file__).resolve() == init.resolve()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _program_importable():
        _log(f"no seplqg source under {SRC}; run from the root of a source checkout")
        return 2
    _log(json.dumps(machine_facts()))
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
