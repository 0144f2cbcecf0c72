"""Experiment configuration: one JSON file describing plant, cost,
optimizer, identification, controller and evaluation settings.

Only the "plant" section is mandatory; everything else falls back to
defaults.  `spatial_weight` builds the diagonal state weighting used by
the heat benchmark: nodes far from any heat source (actuator or the
fixed-temperature boundary) get up-weighted so the optimizer does not
park them outside the target band.
"""

import json

import numpy as np

from .plant import HeatPlant, HeatPlantConfig
from .trajopt import CostSpec, OptimizeOptions

__all__ = ["ExperimentConfig", "spatial_weight", "benchmark_config"]


def spatial_weight(config, gain=6.0, reach=10.0):
    """Per-node weights 1 + gain*(d/reach)^2 with d the grid distance to
    the nearest actuator or Dirichlet node; the Dirichlet node itself is
    weighted 0 (it is pinned by the boundary condition)."""
    n = config.n_grid
    sources = list(config.actuator_nodes) + [n - 1]
    d = np.abs(np.arange(n)[:, None] - np.asarray(sources)[None, :]).min(axis=1)
    w = 1.0 + gain * (d / reach) ** 2
    w[-1] = 0.0
    return w


class ExperimentConfig:
    """Parsed experiment file with constructors for the pipeline pieces."""

    def __init__(self, raw):
        self.raw = dict(raw)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def plant(self):
        section = dict(self.raw.get("plant", {}))
        w_scale = section.pop("w_scale", 1.0)
        v_scale = section.pop("v_scale", 1.0)
        cfg = HeatPlantConfig.from_dict(section)
        n_act = len(cfg.actuators)
        n_sen = len(cfg.sensors)
        return HeatPlant(cfg, W=w_scale * np.eye(n_act), V=v_scale * np.eye(n_sen))

    def prior_std(self):
        return float(self.raw.get("prior", {}).get("std", 0.5))

    def cost(self, plant):
        c = self.raw.get("cost", {})
        n_x, n_u = plant.n_x, plant.n_u
        q_mean = c.get("q_mean", "spatial")
        if isinstance(q_mean, str):
            if q_mean != "spatial":
                raise ValueError(f"unknown q_mean preset {q_mean!r}")
            q_mean = spatial_weight(
                plant.config,
                gain=c.get("spatial_gain", 6.0),
                reach=c.get("spatial_reach", 10.0),
            )
        q_terminal = c.get("q_terminal", q_mean)
        return CostSpec.from_weights(
            n_x,
            n_u,
            q_mean=q_mean,
            r_u=c.get("r_u", 1e-3),
            q_terminal=q_terminal,
            q_trace=c.get("q_trace", 0.0),
            target=c.get("target", 150.0),
        )

    def optimize_options(self, seed=None):
        o = dict(self.raw.get("optimize", {}))
        if seed is not None:
            o["seed"] = seed
        unknown = sorted(set(o) - set(OptimizeOptions.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown optimize option(s): {', '.join(unknown)}")
        return OptimizeOptions(**o)

    def sysid(self):
        s = self.raw.get("sysid", {})
        return {
            "n_r": s.get("n_r", 20),
            "p": s.get("p", 16),
            "q": s.get("q", 16),
            "epsilon": s.get("epsilon", 1e-2),
            "holdout_extra": s.get("holdout_extra", 8),
        }

    def lqg(self):
        l = self.raw.get("lqg", {})
        return {
            "q_y": l.get("q_y", 1.0),
            "r": l.get("r", 0.1),
            "terminal_scale": l.get("terminal_scale", 10.0),
            "ridge": l.get("ridge", 1e-8),
            "p0": l.get("p0", 1.0),
        }

    def evaluate(self):
        """The evaluate section, checked: at least one run, chunk and
        belief filter sizes of at least 1 and 2, probes inside [0, 1]."""
        e = self.raw.get("evaluate", {})
        ev = {
            "runs": e.get("runs", 1000),
            "probes": tuple(e.get("probes", (0.4, 0.9))),
            "belief_size": e.get("belief_size", 100),
            "chunk": e.get("chunk", 100),
        }
        for key, least in (("runs", 1), ("chunk", 1), ("belief_size", 2)):
            if ev[key] < least:
                raise ValueError(f"evaluate {key} must be >= {least}, got {ev[key]}")
        for f in ev["probes"]:
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"probe position {f} outside [0, 1]")
        return ev

    def assertions(self):
        return self.raw.get("assertions", {})


def benchmark_config():
    """The nonlinear heat-slab benchmark: 100 grid points, dt = 0.25 s,
    horizon 250 (62.5 s), five actuators/sensors, unit noise
    covariances.  Optimizer and identification settings are sized so the
    full pipeline runs in minutes; see README for the recorded choices."""
    return ExperimentConfig(
        {
            "plant": {"n_grid": 100, "dt": 0.25, "horizon": 250},
            "prior": {"std": 0.5},
            "cost": {"q_mean": "spatial", "r_u": 1e-3, "target": 150.0},
            "optimize": {
                "alpha": 30.0,
                "max_iters": 120,
                "tol": 1e-6,
                "M": 16,
                "h": 1e-2,
                "seed": 0,
            },
            "sysid": {"n_r": 20, "p": 16, "q": 16, "epsilon": 1e-2, "holdout_extra": 8},
            "lqg": {"q_y": 1.0, "r": 0.1, "terminal_scale": 10.0, "p0": 1.0},
            "evaluate": {"runs": 1000, "probes": [0.4, 0.9], "belief_size": 100},
        }
    )
