"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions of each `seplqg`
module with timing wrappers, at every name they are called through
(`seplqg.cli`, `seplqg.trajopt` and `seplqg.harness` import their
callees by name), and `remove()` puts the originals back.  Spans nest:
each keeps its total time and its self time, the total minus the time
of the spans it caused.  The plant-step counter is attributed to every
span open when the step runs, so the work of a layer includes the steps
it drives.
"""

import time
from collections import defaultdict

import numpy as np


def _rows(arr):
    """Rows of a batched (..., n) array: the product of its leading dims."""
    return int(np.prod(np.shape(arr)[:-1], dtype=np.int64))


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)  # plant state-steps under each span
        self.member_updates = 0
        self.iterations = 0
        self.runs = 0
        self._stack = []
        self._saved = []

    def span(self, name, fn, on_call=None):
        def wrapped(*args, **kwargs):
            frame = [0.0, self.work["plant.step"]]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                self.calls[name] += 1
                if name != "plant.step":
                    self.work[name] += self.work["plant.step"] - frame[1]
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_fn(self, owners, attr, name, on_call=None):
        fn = getattr(owners[0], attr)
        wrapper = self.span(name, fn, on_call)
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def _patch_io(self, cls, name):
        self._patch(cls, "to_json", self.span(name, cls.__dict__["to_json"]))
        read = cls.__dict__["from_json"].__func__
        read_name = "cli.nominal_read" if name == "cli.nominal_write" else name
        self._patch(cls, "from_json", classmethod(self.span(read_name, read)))

    def install(self):
        from seplqg import belief, cli, harness, lqg, plant, sysid, trajopt

        def count_steps(args, kwargs, result):
            self.work["plant.step"] += _rows(args[1])

        def count_members(args, kwargs, result):
            self.member_updates += _rows(args[0])

        def count_iterations(args, kwargs, result):
            self.iterations += int(result.iterations)

        def count_runs(args, kwargs, result):
            self.runs += int(result.n_runs)

        self._patch(plant.HeatPlant, "step", self.span("plant.step", plant.HeatPlant.step, count_steps))
        self._patch_fn([belief, trajopt, harness], "enkf_update_members", "belief.enkf_update", count_members)
        self._patch_fn([cli], "optimize", "trajopt.optimize", count_iterations)
        self._patch_fn([cli, harness], "collect_impulse_responses", "sysid.impulse")
        self._patch_fn([cli], "tv_era", "sysid.tv_era")
        self._patch_fn([cli], "validate_rom", "sysid.validate_rom")
        self._patch_fn([cli], "design_lqg", "lqg.design")
        self._patch_fn([cli], "run_monte_carlo", "harness.monte_carlo", count_runs)
        self._patch_fn([harness], "probe_output_rows", "harness.probe_rows")
        self._patch_fn([harness], "closed_loop_band", "harness.band")
        self._patch_io(trajopt.NominalTrajectory, "cli.nominal_write")
        self._patch_io(sysid.LtvRom, "cli.rom_io")
        self._patch_io(lqg.LqgController, "cli.controller_io")

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, nominal_bytes):
        """Per-layer metrics {name: (value, unit)} of everything traced."""
        t, s, calls, work = self.total, self.self_time, self.calls, self.work
        steps = work["plant.step"]
        return {
            "plant.step_s": (t["plant.step"], "s"),
            "plant.step_calls": (calls["plant.step"], "count"),
            "plant.state_steps": (steps, "count"),
            "plant.state_steps_per_s": (steps / t["plant.step"], "1/s"),
            "belief.enkf_update_s": (t["belief.enkf_update"], "s"),
            "belief.enkf_update_calls": (calls["belief.enkf_update"], "count"),
            "belief.member_updates_per_s": (self.member_updates / t["belief.enkf_update"], "1/s"),
            "trajopt.optimize_s": (t["trajopt.optimize"], "s"),
            "trajopt.self_s": (s["trajopt.optimize"], "s"),
            "trajopt.iterations": (self.iterations, "count"),
            "trajopt.state_steps": (work["trajopt.optimize"], "count"),
            "trajopt.state_steps_per_s": (work["trajopt.optimize"] / t["trajopt.optimize"], "1/s"),
            "sysid.impulse_s": (t["sysid.impulse"], "s"),
            "sysid.impulse_self_s": (s["sysid.impulse"], "s"),
            "sysid.impulse_state_steps": (work["sysid.impulse"], "count"),
            "sysid.tv_era_s": (t["sysid.tv_era"], "s"),
            "sysid.validate_rom_s": (t["sysid.validate_rom"], "s"),
            "lqg.design_s": (t["lqg.design"], "s"),
            "harness.monte_carlo_s": (t["harness.monte_carlo"], "s"),
            "harness.monte_carlo_self_s": (s["harness.monte_carlo"], "s"),
            "harness.probe_rows_s": (t["harness.probe_rows"], "s"),
            "harness.band_s": (t["harness.band"], "s"),
            "harness.runs_per_s": (self.runs / t["harness.monte_carlo"], "1/s"),
            "cli.nominal_write_s": (t["cli.nominal_write"], "s"),
            "cli.nominal_read_s": (t["cli.nominal_read"], "s"),
            "cli.rom_io_s": (t["cli.rom_io"], "s"),
            "cli.controller_io_s": (t["cli.controller_io"], "s"),
            "cli.nominal_bytes": (nominal_bytes, "B"),
        }
