#!/usr/bin/env python3
"""Reduced-length smoke test of every workload, untraced and traced.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports,
with the same units and directions; that each workload's result line has the
contract's keys and every metric with its unit; that every correctness gate
of the workload ran (only the accuracy gate may fail, because the smoke run
trains for a few rounds); that traced spans cover at least 90% of round
time; and that the benchmark exits non-zero without a result when the
package sources are missing.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (after the path insert)

MIN_COVERAGE = 0.9


def invoke(cwd: Path, workload: str, trace: int) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
    return completed.returncode, completed.stdout.strip().splitlines()


def check_config(config: Dict[str, object], problems: List[str]) -> None:
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {entry["name"]: (entry["unit"], entry["better"]) for entry in config[section]}
        if listed != table:
            problems.append(f"BENCHMARK.json {section} differs from run.py's table")


def check_result(
    label: str,
    lines: List[str],
    table: Dict[str, Tuple[str, str]],
    positive: bool,
    problems: List[str],
) -> Dict[str, object]:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(table):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for name, entry in metrics.items():
        value = entry["value"]
        if entry["unit"] != table.get(name, (None,))[0]:
            problems.append(f"{label}: {name} unit {entry['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
        elif positive and value <= 0:
            problems.append(f"{label}: {name} = {value!r} is not positive")
    return result


def check_gates(label: str, workload: str, seed_file: Path, problems: List[str]) -> None:
    from workloads import WORKLOADS

    artifact = json.loads(seed_file.read_text())
    ran = {gate["gate"] for gate in artifact["gates"]}
    expected = set(run.expected_gates(WORKLOADS[workload].simulated_time))
    if ran != expected:
        problems.append(f"{label}: gates ran {sorted(ran)}, expected {sorted(expected)}")
    failed = {gate["gate"] for gate in artifact["gates"] if not gate["ok"]}
    if failed - {"accuracy_above_chance"}:
        problems.append(f"{label}: failed gates {sorted(failed)}")


def check_bare_directory(config: Dict[str, object], problems: List[str]) -> None:
    """Without the package sources the benchmark must fail without a result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = invoke(bare, config["workloads"][0]["name"], 0)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append("bare directory: benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    check_config(config, problems)
    for entry in config["workloads"]:
        workload = entry["name"]
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            label = f"{workload}/trace{trace}"
            code, lines = invoke(ROOT, workload, trace)
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = check_result(label, lines, table, trace == 0, problems)
            check_gates(
                label, workload, run.OUT_DIR / f"{workload}-seed3-trace{trace}.json", problems
            )
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < MIN_COVERAGE:
                    problems.append(f"{label}: trace.coverage {coverage:.3f}")
            print(f"{label}: ran, {result['attempted']} gate checks")
    check_bare_directory(config, problems)
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
