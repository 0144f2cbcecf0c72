"""Remake the reference figures of README.md.

    python3 perfbench/reference.py --seeds 10 [--sets 2] [--traced-seeds 3] [--workloads heat-evaluate ...]

Runs `run.py` once per seed (seeds 0 .. n-1) on each workload, one run
at a time, with the run length of BENCHMARK.json, and prints for every
end-to-end metric the median, the quartiles (`statistics.quantiles`,
n=4) and the spread (q3 - q1) / median beside the metric's bound; the
values of each run go to standard error.
`--sets n` repeats all of that n times, one set after the other, and
then compares each later set's medians with the first set's against
the bounds, as two sets of runs of the same code must agree.
`--traced-seeds n` adds traced runs on seeds 0 .. n-1, a table of the
per-layer metrics and the tracing overhead: the median cli.pipeline_s
of the traced runs against the first set's median pipeline_s.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(workload, runs, specs):
    print(f"\n### {workload} ({len(runs)} seeds)\n")
    print("| metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for m in specs:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound", "")
        print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {bound} |")
        print(f"{workload} {m['name']}: " + " ".join(f"{v:.4g}" for v in vals), file=sys.stderr)
    ok = all(r["correct"] for r in runs)
    share = {r["failed"] / r["attempted"] for r in runs}
    print(f"\nall correct: {ok}; failed share: {sorted(share)}")


def compare(workload, first, later):
    """Each metric's median in `later` against `first`, as a share of
    the first, beside its bound."""
    print(f"\n### {workload}: set medians\n")
    print("| metric | " + " | ".join(f"set {k + 1}" for k in range(1 + len(later)))
          + " | worst change | bound |")
    print("|---" * (4 + len(later)) + "|")
    for m in SPEC["end_to_end"]:
        meds = [statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                for runs in (first, *later)]
        worst = max(meds[1:], key=lambda v: abs(v - meds[0]))
        print(f"| {m['name']} | " + " | ".join(f"{v:.6g}" for v in meds)
              + f" | {worst / meds[0] - 1:+.3f} | {m['bound']} |")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in (first, *later)]
    print(f"\nfailed shares per set: {shares}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--traced-seeds", type=int, default=0)
    args = ap.parse_args()
    sets = []
    for k in range(args.sets):
        sets.append({})
        for w in args.workloads:
            sets[k][w] = [one_run(w, s, False) for s in range(args.seeds)]
            table(f"{w}, set {k + 1}", sets[k][w], SPEC["end_to_end"])
            sys.stdout.flush()
    for w in args.workloads:
        if len(sets) > 1:
            compare(w, sets[0][w], [later[w] for later in sets[1:]])
        if args.traced_seeds:
            traced = [one_run(w, s, True) for s in range(args.traced_seeds)]
            table(w + ", traced", traced, SPEC["per_layer"])
            plain = statistics.median(r["metrics"]["pipeline_s"]["value"] for r in sets[0][w])
            with_trace = statistics.median(r["metrics"]["cli.pipeline_s"]["value"] for r in traced)
            print(f"tracing overhead: {with_trace / plain - 1:+.1%} "
                  f"(pipeline {plain:.2f} s, traced {with_trace:.2f} s)")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
