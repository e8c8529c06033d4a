"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at a reduced
("fast") scale: synthetic data, linear/MLP models and tens of rounds instead
of CNNs and hundreds of rounds.  The printed output has the same structure as
the paper's artefact (loss-per-round series for figures, accuracy tables for
the tables), so the qualitative shape — which algorithm wins, how the gap
changes with the number of agents, the privacy budget and the topology — can
be compared directly.  Absolute values are not expected to match the paper.

Environment knobs:

* ``REPRO_BENCH_ROUNDS``  — communication rounds per cell (default 15);
* ``REPRO_BENCH_AGENTS``  — comma-separated agent counts (default "6,10");
* ``REPRO_BENCH_FULL=1``  — also sweep the paper's middle privacy budget.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.experiments.harness import run_comparison
from repro.experiments.report import format_accuracy_table, format_loss_curves
from repro.experiments.specs import ExperimentSpec
from repro.simulation.metrics import TrainingHistory


def bench_rounds(default: int = 15) -> int:
    return int(os.environ.get("REPRO_BENCH_ROUNDS", default))


def bench_agent_counts(default: Sequence[int] = (6, 10)) -> List[int]:
    raw = os.environ.get("REPRO_BENCH_AGENTS")
    if not raw:
        return list(default)
    return [int(part) for part in raw.split(",") if part.strip()]


def bench_epsilons(family_epsilons: Sequence[float]) -> List[float]:
    """Smallest and largest budget by default; the full sweep with REPRO_BENCH_FULL=1."""
    eps = sorted(family_epsilons)
    if os.environ.get("REPRO_BENCH_FULL"):
        return list(eps)
    return [eps[0], eps[-1]]


def run_figure_cell(spec: ExperimentSpec) -> Dict[str, TrainingHistory]:
    """Run one figure panel (all algorithms, one M, one epsilon, one topology)."""
    return run_comparison(spec)


def print_figure_panel(title: str, histories: Dict[str, TrainingHistory]) -> None:
    print()
    print("=" * 78)
    print(format_loss_curves(histories, title=title, max_rows=10))
    finals = {name: h.final_test_accuracy for name, h in histories.items()}
    print("final test accuracy: " + "  ".join(f"{k}={v:.3f}" for k, v in finals.items()))


def print_table(caption: str, table: Dict[str, Dict[Tuple[str, int], float]]) -> None:
    print()
    print("=" * 78)
    print(format_accuracy_table(table, caption=caption))


@pytest.fixture(scope="session")
def bench_config():
    """Session-wide benchmark configuration snapshot (also printed once)."""
    config = {
        "rounds": bench_rounds(),
        "agent_counts": bench_agent_counts(),
        "full_sweep": bool(os.environ.get("REPRO_BENCH_FULL")),
    }
    print(f"\n[benchmarks] configuration: {config}")
    return config
