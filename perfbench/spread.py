"""Run a workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload scale-1000r --runs 10 [--first-seed 1] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every metric its median, its quartile spread ((Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and, for
end-to-end metrics, the share of the metric's bound that spread uses.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        took = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in metrics.items():
            values.setdefault(k, []).append(v)
        shown = "  ".join(f"{k}={metrics[k]:.5g}" for k in list(metrics)[:4])
        print(f"seed {seed}: {took:6.1f} s  {shown}", flush=True)

    bounds = {m.name: m.bound for m in spec.END_TO_END}
    print(f"{'metric':34s} {'median':>14s} {'spread':>8s} {'of bound':>9s}")
    for name, vals in values.items():
        med = stats.median(vals)
        spread = stats.quartile_spread(vals) if len(vals) >= 2 and med else 0.0
        share = f"{spread / bounds[name]:8.0%}" if name in bounds else ""
        print(f"{name:34s} {med:14.6g} {spread:8.2%} {share:>9s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
