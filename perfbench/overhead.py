"""Per-call overhead of `HeatPlant.step` and `enkf_update_members`, on
the heat slab of the workloads at n_grid = 25 and 100.

    python3 perfbench/overhead.py

Times a call on the smallest batch (one state row for the plant, one
16-member ensemble for the filter) as the per-call cost, and a call on
the optimizer's batch of 64 perturbation times x M = 16 members for
comparison.  The per-call cost times the call counts of a traced run,
divided by the layer's traced time, is the share of per-call overhead
in that run (README.md, "Per-call overhead").
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from seplqg.belief import enkf_update_members  # noqa: E402
from seplqg.config import ExperimentConfig  # noqa: E402
from workloads import make_config  # noqa: E402

BATCH = (64, 16)


def per_call(fn, rows):
    """Median seconds of one call, over 7 samples of enough calls."""
    n = max(20, 20000 // rows)
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def timings(workload):
    """{(layer, rows): seconds a call} on the plant of `workload`, for
    the plant on 1 and 1024 rows and the filter on 16 and 1024."""
    plant = ExperimentConfig(make_config(workload, 0)).plant()
    rng = np.random.default_rng(0)
    V = np.eye(plant.n_y)
    out = {}
    for lead in [(1, 16), BATCH]:
        X = 100.0 + rng.standard_normal(lead + (plant.n_x,))
        u = np.zeros(lead + (plant.n_u,))
        w = rng.standard_normal(lead + (plant.n_u,))
        y = rng.standard_normal(lead[:-1] + (plant.n_y,))
        v = rng.standard_normal(lead + (plant.n_y,))
        rows = int(np.prod(lead))
        if lead == BATCH:
            out["plant.step", rows] = per_call(lambda: plant.step(X, u, w, 0), rows)
        else:
            out["plant.step", 1] = per_call(lambda: plant.step(X[0, :1], u[0, :1], w[0, :1], 0), 1)
        out["belief.enkf_update", rows] = per_call(lambda: enkf_update_members(X, y, v, plant, V, 0), rows)
    return plant.n_x, out


def main():
    for workload in ("coarse-pipeline", "heat-optimize"):
        n_x, t = timings(workload)
        rows = int(np.prod(BATCH))
        for layer, small in (("plant.step", 1), ("belief.enkf_update", 16)):
            c, big = t[layer, small], t[layer, rows]
            print(f"n_x = {n_x} {layer}: {c * 1e6:.1f} us a call on {small} row(s), "
                  f"{big * 1e6:.0f} us on {rows} rows, per-call share {c / big:.1%}")


if __name__ == "__main__":
    main()
