"""Command-line pipeline: optimize | identify | design | evaluate |
theorem1 | pipeline.

Each stage reads the experiment JSON (defaults to the built-in heat
benchmark when --config is omitted) and exchanges artifacts through the
output directory: nominal.json -> rom.json -> controller.json ->
report.json plus the plotting CSVs.  The process exits non-zero if any
acceptance assertion listed in the config fails.

The first three are written and read by `artifacts.save` and `load`
and hold only what a later stage reads: nominal.json the controls, the
means, whose first row is the state every run starts from, the
noiseless observations, the cost and the optimizer's bookkeeping, but no
covariance; rom.json the ROM matrices, n_r and time_range; and
controller.json the gains and a copy of the ROM, but no covariance
traces (in lqg_diag.csv) and no W or V, which every stage takes from the
plant.  Identify writes the Hankel spectra to sysid_singvals.csv, one
row per valid k with s_1..s_(n_r+1) of H_k (TV-ERA computes no others),
and rom_validation.json records the held-out Markov error, the
identification settings and `gap_warning`, which those spectra set.
report.json holds the stored fields of `MonteCarloReport` (the run
counts, base_seed, mean_traj, the probe positions and nodes, run 0's
closed- and open-loop errors, two_sigma, mse_closed, mse_open,
delta_J_samples, nominal_cost and failures), the mean first-order cost
deviation delta_J_mean, its standard error delta_J_se and delta_J_z =
mean / se; the last two are null with fewer than 2 kept runs, and
delta_J_z also when se is 0.  For the paired verdict that the
closed loop beats the open loop it holds, per probe, mse_diff_mean, the
mean over runs of each run's time-averaged open-loop minus closed-loop
squared error, its standard error mse_diff_se (null with fewer than 2
kept runs) and mse_diff_z (null where the se is 0 or undefined).  The
`closed_beats_open` assertion requires a lower closed-loop MSE and a
paired z above 3 at every probe; a config that sets it and names no
probe is rejected before `evaluate` or `pipeline` runs a stage.

`theorem1` checks the paper's Theorem 1 on its own: from nominal.json
and controller.json it runs at least 100 Monte Carlo runs (no probes)
and writes theorem1.json with the mean first-order cost deviation, its
standard error and the nominal cost; it exits non-zero unless
|mean| <= max(3 se, 2% of the nominal cost), the bound of the
`theorem1` assertion with its default factors.

Run it as `seplqg <command>` once installed, or as
`python -m seplqg.cli <command>` from a source checkout.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .artifacts import read_json, stored_fields, write_json
from .belief import GaussianBelief
from .config import _ASSERTION_DEFAULTS, ExperimentConfig, _band_steps, benchmark_config
from .harness import complexity_report, run_monte_carlo
from .lqg import LqgController, design_lqg
from .sysid import LtvRom, collect_impulse_responses, tv_era, validate_rom
from .trajopt import NominalTrajectory, optimize

__all__ = ["main"]


def _load_config(args):
    return ExperimentConfig.load(args.config) if args.config else benchmark_config()


def _prior(cfg, plant):
    x0 = plant.initial_state()
    return GaussianBelief(x0, cfg.prior_std() ** 2 * np.eye(plant.n_x))


def _run_count(text):
    """--runs: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_optimize(args):
    cfg = _load_config(args)
    plant = cfg.plant()
    cost = cfg.cost(plant)
    opts = cfg.optimize_options(seed=args.seed)
    b0 = _prior(cfg, plant)
    u0 = np.zeros((plant.horizon, plant.n_u))
    nominal = optimize(u0, b0, plant, cost, opts)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nominal.to_json(out / "nominal.json")
    sensors = list(plant.config.sensor_nodes)
    rows = []
    for k in range(nominal.horizon + 1):
        u = nominal.controls[k] if k < nominal.horizon else [np.nan] * plant.n_u
        rows.append(
            [k, k * plant.dt, *nominal.means[k][sensors], *u]
        )
    _write_csv(
        out / "fig2_nominal.csv",
        ["k", "t", *[f"mean_x{n}" for n in sensors], *[f"u{m}" for m in range(plant.n_u)]],
        rows,
    )
    print(f"nominal cost {nominal.nominal_cost:.6g} after {nominal.iterations} iterations "
          f"(converged={nominal.converged}) -> {out / 'nominal.json'}")
    return 0


def cmd_identify(args):
    cfg = _load_config(args)
    plant = cfg.plant()
    sid = cfg.sysid()
    out = Path(args.out)
    nominal = NominalTrajectory.from_json(out / "nominal.json")
    p, q, extra = sid["p"], sid["q"], sid["holdout_extra"]
    # the deepest lag read, by the held-out pairs; with extra >= 1 it
    # covers the p + q of the shifted Hankel blocks
    markov = collect_impulse_responses(plant, nominal, sid["epsilon"], max_lag=p + q - 1 + extra)
    rom = tv_era(markov, n_r=sid["n_r"], p=p, q=q)
    err = validate_rom(rom, markov, p + q - 1, extra)
    rom.to_json(out / "rom.json")
    rows = [[k, *s] for k, s in sorted(rom.singular_values.items())]
    width = max(len(r) - 1 for r in rows)
    _write_csv(out / "sysid_singvals.csv", ["k", *[f"s{i+1}" for i in range(width)]], rows)
    write_json(out / "rom_validation.json",
               {"holdout_error": err, "n_r": sid["n_r"], "p": p, "q": q,
                "holdout_extra": extra, "time_range": list(rom.time_range),
                "gap_warning": rom.gap_warning})
    print(f"ROM order {sid['n_r']} on k in {rom.time_range}; held-out Markov error {err:.4f} "
          f"-> {out / 'rom.json'}")
    return 0


def cmd_design(args):
    cfg = _load_config(args)
    plant = cfg.plant()
    lq = cfg.lqg()
    out = Path(args.out)
    rom = LtvRom.from_json(out / "rom.json")
    ctrl = design_lqg(
        rom,
        W=plant.W,
        V=plant.V,
        P0=lq["p0"] * np.eye(rom.n_r),
        q_y=lq["q_y"],
        r=lq["r"],
        terminal_scale=lq["terminal_scale"],
        ridge=lq["ridge"],
    )
    ctrl.to_json(out / "controller.json")
    rows = [
        [
            k,
            np.linalg.norm(ctrl.L_gains[k]) if k < rom.horizon else np.nan,
            np.linalg.norm(ctrl.K_gains[k]),
            ctrl.S_traces[k],
            ctrl.P_traces[k],
        ]
        for k in range(rom.horizon + 1)
    ]
    _write_csv(out / "lqg_diag.csv", ["k", "norm_L", "norm_K", "tr_S", "tr_P"], rows)
    print(f"designed {rom.n_r} x {rom.n_r} LQG gains over horizon {rom.horizon} "
          f"-> {out / 'controller.json'}")
    return 0


def _paired_z(report):
    """Per probe, the z of the mean paired open-minus-closed squared
    error, or None where its se is 0 or undefined (fewer than 2 kept
    runs)."""
    return [float(m / s) if s > 0 else None for m, s in zip(report.mse_diff_mean, report.mse_diff_se)]


def _report_payload(report):
    se = report.delta_J_se
    se = None if np.isnan(se) else se  # fewer than 2 kept runs
    diff_se = report.mse_diff_se
    return {
        **stored_fields(report),
        "delta_J_mean": report.delta_J_mean,
        "delta_J_se": se,
        "delta_J_z": report.delta_J_mean / se if se else None,
        "mse_diff_mean": report.mse_diff_mean,
        "mse_diff_se": None if np.isnan(diff_se).any() else diff_se,
        "mse_diff_z": _paired_z(report),
    }


def _run_monte_carlo(cfg, args, n_runs, probe_positions):
    """The Monte Carlo of `evaluate` and `theorem1` on nominal.json and
    controller.json in --out, with --seed (default 0) as its base seed;
    returns (plant, nominal, controller, report)."""
    plant = cfg.plant()
    cost = cfg.cost(plant)
    chunk, epsilon = cfg.evaluate()["chunk"], cfg.sysid()["epsilon"]
    out = Path(args.out)
    nominal = NominalTrajectory.from_json(out / "nominal.json")
    ctrl = LqgController.from_json(out / "controller.json")
    report = run_monte_carlo(plant, nominal, ctrl, n_runs=n_runs, base_seed=0 if args.seed is None else args.seed,
                             probe_positions=probe_positions, cost=cost, chunk=chunk, epsilon=epsilon)
    return plant, nominal, ctrl, report


def cmd_evaluate(args):
    cfg = _load_config(args)
    ev = cfg.evaluate()
    # an assertion that cannot hold fails here, before the Monte Carlo
    cfg.assertions()
    n_runs = ev["runs"] if args.runs is None else args.runs
    plant, nominal, ctrl, report = _run_monte_carlo(cfg, args, n_runs, ev["probes"])
    out = Path(args.out)
    write_json(out / "report.json", _report_payload(report))
    rows = []
    for i, pos in enumerate(report.probe_positions):
        for k in range(report.mean_traj.shape[0]):
            rows.append(
                [
                    k * plant.dt,
                    pos,
                    report.run0_closed_err[k, i],
                    report.run0_open_err[k, i],
                    report.two_sigma[k, i],
                ]
            )
    _write_csv(out / "fig3_errors.csv", ["t", "pos", "closed_err", "open_err", "two_sigma"], rows)
    (out / "complexity.txt").write_text(complexity_report(plant.n_x, ctrl.rom.n_r) + "\n")
    se = report.delta_J_se  # NaN with fewer than 2 kept runs
    print(f"{n_runs} paired runs ({report.failures} failures); "
          f"mse closed {report.mse_closed} open {report.mse_open}; "
          f"mean dJ {report.delta_J_mean:.4g} (se {'n/a' if np.isnan(se) else f'{se:.4g}'})")
    failures = _run_assertions(cfg, plant, nominal, report, out)
    return 1 if failures else 0


def cmd_theorem1(args):
    cfg = _load_config(args)
    ev = cfg.evaluate()
    n_runs = ev["runs"] if args.runs is None else args.runs
    if n_runs < 100:
        raise ValueError(f"theorem1 needs at least 100 runs for a meaningful check, got {n_runs}")
    report = _run_monte_carlo(cfg, args, n_runs, ())[3]
    out = Path(args.out)
    mean_dj, se, jbar = report.delta_J_mean, report.delta_J_se, report.nominal_cost
    write_json(out / "theorem1.json", {"mean_delta_J": mean_dj, "se": se, "nominal_cost": jbar, "runs": n_runs})
    verdict = abs(mean_dj) <= _theorem1_bound(report, **_ASSERTION_DEFAULTS["theorem1"])
    print(f"mean dJ = {mean_dj:.5g}, se = {se:.5g}, J = {jbar:.6g} "
          f"-> |mean| {'<=' if verdict else '>'} max(3 se, 2% J)")
    return 0 if verdict else 1


def _theorem1_bound(report, se_mult, frac_cost):
    """Theorem 1's bound on |mean delta_J|: se_mult standard errors or
    frac_cost of |nominal cost|, whichever is larger."""
    return max(se_mult * report.delta_J_se, frac_cost * abs(report.nominal_cost))


def _run_assertions(cfg, plant, nominal, report, out):
    checks = cfg.assertions()
    if not checks:
        return []
    failures = []

    def emit(name, ok, detail):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            failures.append(name)

    if "nominal_band" in checks:
        c = checks["nominal_band"]
        window = nominal.means[_band_steps(c, plant.dt, nominal.horizon)]
        ok = bool((window.min() >= c["lo"]) and (window.max() <= c["hi"]))
        emit("nominal_band", ok, f"min {window.min():.2f} max {window.max():.2f} in [{c['lo']}, {c['hi']}]")
    if "rom_error_max" in checks:
        val = read_json(out / "rom_validation.json")["holdout_error"]
        emit("rom_error_max", val <= checks["rom_error_max"], f"{val:.4f} <= {checks['rom_error_max']}")
    if checks.get("closed_beats_open"):
        z = _paired_z(report)
        ok = bool(np.all(report.mse_closed < report.mse_open)) and all(v is not None and v > 3 for v in z)
        shown = ", ".join("n/a" if v is None else f"{v:.3g}" for v in z)
        emit("closed_beats_open", ok, f"closed {report.mse_closed} < open {report.mse_open}, paired z [{shown}] > 3")
    if "mean_within" in checks:
        tol = checks["mean_within"]
        dev = np.abs(report.mean_traj - nominal.means).max()
        emit("mean_within", bool(dev <= tol), f"max |mean - nominal| = {dev:.3f} <= {tol}")
    if "theorem1" in checks:
        c = checks["theorem1"]
        if report.n_effective < 2:
            emit("theorem1", False, f"needs at least 2 kept runs, got {report.n_effective}")
        else:
            bound = _theorem1_bound(report, c["se_mult"], c["frac_cost"])
            ok = abs(report.delta_J_mean) <= bound
            emit("theorem1", bool(ok), f"|{report.delta_J_mean:.4g}| <= {bound:.4g}")
    return failures


def cmd_pipeline(args):
    # a bad value in any section fails here, not after a stage's artifacts
    cfg = _load_config(args)
    cfg.prior_std()
    cfg.cost(cfg.plant())
    cfg.optimize_options(seed=args.seed)
    cfg.sysid()
    cfg.lqg()
    cfg.evaluate()
    cfg.assertions()
    rc = cmd_optimize(args)
    rc = rc or cmd_identify(args)
    rc = rc or cmd_design(args)
    rc = rc or cmd_evaluate(args)
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(prog="seplqg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("optimize", cmd_optimize),
        ("identify", cmd_identify),
        ("design", cmd_design),
        ("evaluate", cmd_evaluate),
        ("theorem1", cmd_theorem1),
        ("pipeline", cmd_pipeline),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment JSON (default: built-in heat benchmark)")
        p.add_argument("--out", required=True, help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--runs", type=_run_count, default=None, help="Monte Carlo runs override (>= 1)")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
