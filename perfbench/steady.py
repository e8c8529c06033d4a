#!/usr/bin/env python3
"""Steadiness check: run workloads M times on the same code and report spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload fleet --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --first-seed 100

Each run is a separate ``run.py`` process at its own seed (``first-seed``,
``first-seed + 1``, ...), as the benchmark's acceptance runs are.  For every
end-to-end metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range and the
max–min spread as shares of the median, beside the metric's bound from
``BENCHMARK.json``.  ``IQR`` is flagged ``!`` above the bound and ``~`` above
a third of it (``setup_s`` is gated on its median only).  Exit code 1 when
any run fails or any flagged spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One benchmark process; returns its result line, parsed."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: List[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [entry["name"] for entry in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {entry["name"]: entry["bound"] for entry in config["end_to_end"]}
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed gates")
                status = 1
            for name in bounds:
                values[name].append(float(result["metrics"][name]["value"]))
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}..{seed}")
        print(
            f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'IQR%':>7} {'range%':>7} {'bound%':>7}"
        )
        for name, samples in values.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            iqr = (q3 - q1) / median
            spread = (max(samples) - min(samples)) / median
            bound = bounds[name]
            flag = ""
            if name != "setup_s":
                flag = "!" if iqr > bound else "~" if iqr > bound / 3 else ""
                if iqr > bound:
                    status = 1
            print(
                f"{name:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{100 * iqr:>7.2f} {100 * spread:>7.2f} {100 * bound:>7.1f} {flag}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
