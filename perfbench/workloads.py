"""Experiment configs of the benchmark workloads, generated from a seed.

Every workload is the nonlinear heat slab of the paper (Sec. 5): point
actuators and sensors at 0.1, 0.3, 0.5, 0.7 and 0.9 of the slab, unit
noise covariances, target temperature 150.  The configs spell out every
plant constant, so the independent checks in `checks.py` read the
problem from the config alone and never from the program's defaults.

The seed picks the optimizer's EnKF draws and the Monte Carlo noise
(both through the CLI `--seed`); the sizes are fixed per workload.  No
config has an `assertions` section: the benchmark's own checks replace
them.
"""

import copy

POSITIONS = [0.1, 0.3, 0.5, 0.7, 0.9]

# n_grid, optimizer iterations, Monte Carlo runs.  `tiny` is the smoke
# size the benchmark's own tests run; it keeps the make-up of each
# workload on a short horizon.
SIZES = {
    "full": {
        "heat-optimize": {"n_grid": 100, "horizon": 250, "iters": 1, "runs": 20},
        "heat-evaluate": {"n_grid": 100, "horizon": 250, "iters": 0, "runs": 200},
        "coarse-pipeline": {"n_grid": 25, "horizon": 250, "iters": 2, "runs": 300},
    },
    "tiny": {
        "heat-optimize": {"n_grid": 16, "horizon": 100, "iters": 1, "runs": 16},
        "heat-evaluate": {"n_grid": 16, "horizon": 100, "iters": 0, "runs": 16},
        "coarse-pipeline": {"n_grid": 8, "horizon": 100, "iters": 2, "runs": 16},
    },
}

WORKLOADS = tuple(SIZES["full"])

_BASE = {
    "plant": {
        "dt": 0.25,
        "L": 1.0,
        "eta": 5e-4,
        "k1": 1e-3,
        "t_init": 100.0,
        "t_right": 150.0,
        "actuators": POSITIONS,
        "sensors": POSITIONS,
        "w_scale": 1.0,
        "v_scale": 1.0,
    },
    "prior": {"std": 0.5},
    "cost": {"q_mean": "spatial", "spatial_gain": 6.0, "spatial_reach": 10.0,
             "r_u": 1e-3, "target": 150.0},
    # tol = 0 never stops the optimizer early, so every run does
    # exactly max_iters gradient iterations
    "optimize": {"alpha": 30.0, "tol": 0.0, "M": 16, "h": 1e-2},
    "sysid": {"n_r": 20, "p": 16, "q": 16, "epsilon": 1e-2, "holdout_extra": 8},
    "lqg": {"q_y": 1.0, "r": 0.1, "terminal_scale": 10.0, "ridge": 1e-8, "p0": 1.0},
    "evaluate": {"probes": [0.4, 0.9], "belief_size": 100, "chunk": 100},
}

_TINY_SYSID = {"n_r": 8, "p": 4, "q": 4, "epsilon": 1e-2, "holdout_extra": 4}


def make_config(workload, seed, size="full"):
    """The experiment JSON (as a dict) of `workload` under `seed`."""
    if workload not in SIZES[size]:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    s = SIZES[size][workload]
    cfg = copy.deepcopy(_BASE)
    plant = cfg["plant"]
    dx = plant["L"] / (s["n_grid"] - 1)
    # diffusion number 0.38 keeps explicit Euler stable (limit 0.5)
    plant.update(n_grid=s["n_grid"], horizon=s["horizon"], k0=0.38 * dx * dx / plant["dt"])
    cfg["optimize"].update(max_iters=s["iters"], seed=int(seed))
    cfg["evaluate"]["runs"] = s["runs"]
    if size == "tiny":
        cfg["sysid"] = dict(_TINY_SYSID)
        cfg["optimize"]["M"] = 8
        cfg["evaluate"]["belief_size"] = 10
    return cfg
