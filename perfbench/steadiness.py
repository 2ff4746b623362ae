"""Steadiness report: run each workload N times and print the spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 30

Run ``r`` uses seed ``--first-seed + r``; the workloads run one process
each, in forward order on even runs and reverse order on odd runs, so a
slow phase of the machine does not always land on the same workload.
For every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as
a share of the median -- the figure each metric's bound in
``BENCHMARK.json`` must stay above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("paper", "serve", "sparse_1e4")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / median if median else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + r, args.seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} run {r} failed its output check")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {r} {workload}: done", file=sys.stderr, flush=True)

    report = {
        workload: {name: spread(v) for name, v in metrics.items()}
        for workload, metrics in values.items()
    }
    print(f"{'workload':<11} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for workload, metrics in report.items():
        for name, s in metrics.items():
            print(
                f"{workload:<11} {name:<15} {s['median']:>12.6g} {s['q1']:>12.6g} "
                f"{s['q3']:>12.6g} {s['iqr_frac']:>8.2%}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
