"""Experiment configuration: one JSON file describing plant, cost,
optimizer, identification, controller and evaluation settings.

Every section is optional: a missing section or key falls back to its
default, the plant's to `HeatPlantConfig`'s.  `spatial_weight` builds
the diagonal state weighting used by the heat benchmark: nodes far from
any heat source (actuator or the fixed-temperature boundary) get
up-weighted so the optimizer does not park them outside the target band.
"""

import json
import math

import numpy as np

from .harness import probe_nodes_from_fractions
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


# defaults of the optional sections, which also name each section's
# keys; q_terminal defaults to q_mean
_DEFAULTS = {
    "prior": {"std": 0.5},
    "cost": {"q_mean": "spatial", "spatial_gain": 6.0, "spatial_reach": 10.0, "r_u": 1e-3,
             "q_terminal": None, "target": 150.0},
    "sysid": {"n_r": 20, "p": 16, "q": 16, "epsilon": 1e-2, "holdout_extra": 8},
    "lqg": {"q_y": 1.0, "r": 0.1, "terminal_scale": 10.0, "ridge": 1e-8, "p0": 1.0},
    "evaluate": {"runs": 1000, "probes": (0.4, 0.9), "belief_size": 100, "chunk": 100},
}

# the keys of the object-valued assertion entries, with their defaults
# (_REQUIRED: none); the other assertions take one scalar
_REQUIRED = object()
_ASSERTION_DEFAULTS = {
    "nominal_band": {"t_start": _REQUIRED, "t_end": _REQUIRED, "lo": _REQUIRED, "hi": _REQUIRED},
    "theorem1": {"se_mult": 3.0, "frac_cost": 0.02},
}

_KEYS = {
    **{name: set(keys) for name, keys in _DEFAULTS.items()},
    "plant": set(HeatPlantConfig.__dataclass_fields__) | {"w_scale", "v_scale"},
    "optimize": set(OptimizeOptions.__dataclass_fields__),
    "assertions": {"rom_error_max", "closed_beats_open", "mean_within", *_ASSERTION_DEFAULTS},
}


def _is_number(value, kind=(int, float)):
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(ok, section, key, rule, value):
    if not ok:
        raise ValueError(f"{section} {key} must be {rule}, got {value!r}")


class ExperimentConfig:
    """Parsed experiment file with constructors for the pipeline pieces.

    An unknown section, key of a section, assertion name or key of an
    assertion entry, and a missing required key of an assertion entry,
    raise a ValueError here, before any stage runs."""

    def __init__(self, raw):
        self.raw = dict(raw)
        unknown = sorted(set(self.raw) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown config section(s): {', '.join(unknown)}")
        for name, section in self.raw.items():
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be an object")
            unknown = sorted(set(section) - _KEYS[name])
            if unknown:
                raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
        for name, entry in self.raw.get("assertions", {}).items():
            if name not in _ASSERTION_DEFAULTS:
                continue
            if not isinstance(entry, dict):
                raise ValueError(f"assertion {name!r} must be an object")
            keys = _ASSERTION_DEFAULTS[name]
            unknown = sorted(set(entry) - set(keys))
            if unknown:
                raise ValueError(f"unknown {name} assertion key(s): {', '.join(unknown)}")
            missing = sorted(k for k, v in keys.items() if v is _REQUIRED and k not in entry)
            if missing:
                raise ValueError(f"{name} assertion needs key(s): {', '.join(missing)}")

    @classmethod
    def load(cls, path):
        """The config in the JSON file `path`, read with the stdlib `json`
        where the stage artifacts are read with orjson
        (`artifacts.read_json`): this few-KB file is read in the set-up
        of every `seplqg` process, which so does not pay orjson's import."""
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def _section(self, name):
        return {**_DEFAULTS[name], **self.raw.get(name, {})}

    def plant(self):
        section = dict(self.raw.get("plant", {}))
        w_scale = section.pop("w_scale", 1.0)
        v_scale = section.pop("v_scale", 1.0)
        cfg = HeatPlantConfig.from_dict(section)
        n_act = len(cfg.actuators)
        n_sen = len(cfg.sensors)
        return HeatPlant(cfg, W=w_scale * np.eye(n_act), V=v_scale * np.eye(n_sen))

    def prior_std(self):
        """The prior section's std, checked: >= 0 and finite."""
        std = self._section("prior")["std"]
        _require(_is_number(std) and 0 <= std < math.inf, "prior", "std", ">= 0 and finite", std)
        return float(std)

    def cost(self, plant):
        c = self._section("cost")
        q_mean = c["q_mean"]
        if isinstance(q_mean, str):
            if q_mean != "spatial":
                raise ValueError(f"unknown q_mean preset {q_mean!r}")
            q_mean = spatial_weight(plant.config, gain=c["spatial_gain"], reach=c["spatial_reach"])
        return CostSpec.from_weights(
            plant.n_x,
            plant.n_u,
            q_mean=q_mean,
            r_u=c["r_u"],
            q_terminal=q_mean if c["q_terminal"] is None else c["q_terminal"],
            target=c["target"],
        )

    def optimize_options(self, seed=None):
        """The optimize section, `seed` replacing its seed if given,
        checked: alpha > 0 and tol >= 0, both finite; max_iters an
        integer >= 0; M an integer >= 2; h > 0 and finite; seed an
        integer."""
        o = dict(self.raw.get("optimize", {}))
        if seed is not None:
            o["seed"] = seed
        opts = OptimizeOptions(**o)
        for key, ok, rule in (
            ("alpha", _is_number(opts.alpha) and 0 < opts.alpha < math.inf, "> 0 and finite"),
            ("max_iters", _is_number(opts.max_iters, int) and opts.max_iters >= 0, "an integer >= 0"),
            ("tol", _is_number(opts.tol) and 0 <= opts.tol < math.inf, ">= 0 and finite"),
            ("M", _is_number(opts.M, int) and opts.M >= 2, "an integer >= 2"),
            ("h", _is_number(opts.h) and 0 < opts.h < math.inf, "> 0 and finite"),
            ("seed", _is_number(opts.seed, int), "an integer"),
        ):
            _require(ok, "optimize", key, rule, getattr(opts, key))
        return opts

    def sysid(self):
        """The sysid section, checked: n_r, p and q integers of at least
        1, Hankel blocks with at least n_r rows and columns (p n_y and
        q n_u >= n_r for the plant's n_y sensors and n_u actuators),
        epsilon > 0 and finite, and holdout_extra null or an integer of at
        least 1."""
        sid = self._section("sysid")
        for key in ("n_r", "p", "q"):
            _require(_is_number(sid[key], int) and sid[key] >= 1, "sysid", key, "an integer >= 1", sid[key])
        plant = self.plant()
        for key, channels, name in (("p", plant.n_y, "n_y"), ("q", plant.n_u, "n_u")):
            _require(sid[key] * channels >= sid["n_r"], "sysid", key,
                     f"at least n_r / {name} = {sid['n_r']}/{channels}", sid[key])
        _require(_is_number(sid["epsilon"]) and sid["epsilon"] > 0, "sysid", "epsilon", "> 0", sid["epsilon"])
        _require(math.isfinite(sid["epsilon"]), "sysid", "epsilon", "finite", sid["epsilon"])
        extra = sid["holdout_extra"]
        _require(extra is None or (_is_number(extra, int) and extra >= 1), "sysid", "holdout_extra",
                 "null or an integer >= 1", extra)
        return sid

    def lqg(self):
        """The lqg section, checked: q_y, r, terminal_scale and p0 > 0,
        ridge >= 0, all finite."""
        lq = self._section("lqg")
        for key in ("q_y", "r", "terminal_scale", "p0"):
            _require(_is_number(lq[key]) and lq[key] > 0, "lqg", key, "> 0", lq[key])
        _require(_is_number(lq["ridge"]) and lq["ridge"] >= 0, "lqg", "ridge", ">= 0", lq["ridge"])
        for key, value in lq.items():
            _require(math.isfinite(value), "lqg", key, "finite", value)
        return lq

    def evaluate(self):
        """The evaluate section, checked: runs, chunk and belief_size
        integers of at least 1, 1 and 2, probes inside [0, 1].
        Nothing reads belief_size since the Monte Carlo scores with the
        linearized Kalman filter; the key stays accepted and checked
        because `perfbench/workloads.py` still sets it."""
        ev = self._section("evaluate")
        ev["probes"] = tuple(ev["probes"])
        for key, least in (("runs", 1), ("chunk", 1), ("belief_size", 2)):
            _require(_is_number(ev[key], int), "evaluate", key, "an integer", ev[key])
            _require(ev[key] >= least, "evaluate", key, f">= {least}", ev[key])
        probe_nodes_from_fractions(self.plant().n_x, ev["probes"])
        return ev

    def assertions(self):
        """The assertions section, object entries filled with their
        defaults."""
        return {
            name: {**_ASSERTION_DEFAULTS[name], **entry} if name in _ASSERTION_DEFAULTS else entry
            for name, entry in self.raw.get("assertions", {}).items()
        }


def benchmark_config():
    """The nonlinear heat-slab benchmark: 100 grid points, dt = 0.25 s,
    horizon 250 (62.5 s), five actuators/sensors, unit noise
    covariances.  Its four stages at `--seed 0`, run in one process on a
    2-core Intel Xeon server, took 6.6-6.8 s in two runs: 4.3-5.6 s
    (65-83 %) in the 120 optimizer iterations and 0.9-2.1 s in the
    1000-run evaluate."""
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
            "evaluate": {"runs": 1000, "probes": [0.4, 0.9]},
        }
    )
