"""Schema-versioned benchmark artifacts and the regression comparator.

``repro-bench run --out BENCH_<n>.json`` persists every suite's
:class:`~repro.bench.registry.BenchResult` into one JSON artifact at the
repository root — the perf-history record a future PR's numbers are compared
against.  The schema is versioned (:data:`ARTIFACT_SCHEMA` /
:data:`ARTIFACT_VERSION`) so a layout change can be detected and refused
with a clear error instead of silently misread.

:func:`compare_artifacts` implements the regression gate along two axes —
per-suite wall-clock deltas on ``best_seconds``, *and*, for floor-asserted
suites, the drop in the recorded floor metric (the dimensionless speedup
ratio that is the quantity the suite exists to protect: a 10x CSR
regression barely moves a suite's wall clock, which is dominated by the
slow baseline side, but collapses its speedup ratio).  Verdicts:

* ``fail`` — on a **floor-asserted** suite, either a wall-clock regression
  beyond ``fail_threshold`` (default +25%) with a baseline above the noise
  floor, or the floor metric dropping by more than ``fail_threshold``;
* ``warn`` — beyond ``warn_threshold`` (default 10%) on either axis,
  anywhere;
* ``ok`` / ``faster`` otherwise;
* ``skipped`` — the suites ran with different parameters (CI smoke vs a
  full-scale baseline) or only one artifact contains the suite, so the
  numbers are not comparable.

Only ``fail`` rows make :func:`comparison_exit_code` non-zero — the gate is
deliberately *soft* everywhere else, because wall-clock numbers from
different machines or loaded CI runners are evidence, not verdicts.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.bench.guard import available_cpus
from repro.bench.registry import BenchResult
from repro.simulation.checkpoint import atomic_write_text

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_VERSION",
    "DEFAULT_WARN_THRESHOLD",
    "DEFAULT_FAIL_THRESHOLD",
    "DEFAULT_MIN_SECONDS",
    "results_to_artifact",
    "write_artifact",
    "load_artifact",
    "SuiteComparison",
    "Comparison",
    "compare_artifacts",
    "comparison_exit_code",
    "format_comparison",
]

PathLike = Union[str, Path]

#: Artifact family identifier (never changes) and layout version (bumped on
#: any breaking change to the JSON structure).
ARTIFACT_SCHEMA = "repro-bench"
ARTIFACT_VERSION = 1

DEFAULT_WARN_THRESHOLD = 0.10
DEFAULT_FAIL_THRESHOLD = 0.25
#: Baselines faster than this are inside timer/scheduler noise; regressions
#: on them never fail the gate (they still warn).
DEFAULT_MIN_SECONDS = 0.005


def _result_payload(result: BenchResult) -> Dict[str, object]:
    return {
        "description": result.description,
        "wall_seconds": result.wall_seconds,
        "best_seconds": result.best_seconds,
        "mean_seconds": result.mean_seconds,
        "std_seconds": result.std_seconds,
        "rss_peak_bytes": result.rss_peak_bytes,
        "rss_scope": result.rss_scope,
        "repeats": result.repeats,
        "warmup": result.warmup,
        "metrics": result.metrics,
        "params": result.params,
        "floor": result.floor,
        "skipped": result.skipped,
        "skip_reason": result.skip_reason,
        "notes": result.notes,
        "samples": result.samples,
    }


def results_to_artifact(results: Sequence[BenchResult]) -> Dict[str, object]:
    """Assemble the schema-versioned artifact dict for a set of suite results."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "schema_version": ARTIFACT_VERSION,
        "created_unix": time.time(),
        "host": {
            "cpus": available_cpus(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "suites": {result.name: _result_payload(result) for result in results},
    }


def write_artifact(path: PathLike, artifact: Dict[str, object]) -> Path:
    """Persist an artifact atomically (sorted keys, stable diffs)."""
    return atomic_write_text(
        Path(path), json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def load_artifact(path: PathLike) -> Dict[str, object]:
    """Read and validate an artifact written by :func:`write_artifact`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(payload, dict) or payload.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(f"{path} is not a {ARTIFACT_SCHEMA} artifact")
    if payload.get("schema_version") != ARTIFACT_VERSION:
        raise ValueError(
            f"{path} has schema version {payload.get('schema_version')!r}; "
            f"this code reads version {ARTIFACT_VERSION}"
        )
    if not isinstance(payload.get("suites"), dict):
        raise ValueError(f"{path} has no 'suites' table")
    return payload


@dataclass
class SuiteComparison:
    """One suite's baseline-vs-candidate verdict."""

    name: str
    status: str  # "ok" | "faster" | "warn" | "fail" | "skipped"
    old_seconds: Optional[float] = None
    new_seconds: Optional[float] = None
    delta: Optional[float] = None  # (new - old) / old, on best_seconds
    floored: bool = False
    note: str = ""
    #: Drop of the floor metric (e.g. the speedup ratio) relative to the
    #: baseline: ``(old - new) / old``; positive = the protected headroom
    #: shrank.  ``None`` for floorless suites or non-numeric floor values.
    metric_drop: Optional[float] = None


@dataclass
class Comparison:
    """The full comparison: per-suite rows plus the thresholds that judged them."""

    rows: List[SuiteComparison] = field(default_factory=list)
    warn_threshold: float = DEFAULT_WARN_THRESHOLD
    fail_threshold: float = DEFAULT_FAIL_THRESHOLD

    @property
    def failures(self) -> List[SuiteComparison]:
        return [row for row in self.rows if row.status == "fail"]

    @property
    def warnings(self) -> List[SuiteComparison]:
        return [row for row in self.rows if row.status == "warn"]


def compare_artifacts(
    old: Dict[str, object],
    new: Dict[str, object],
    warn_threshold: float = DEFAULT_WARN_THRESHOLD,
    fail_threshold: float = DEFAULT_FAIL_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> Comparison:
    """Compare two artifacts suite by suite (wall clock + floor metric).

    A wall-clock ``fail`` requires all of: the suite is floor-asserted, its
    parameters match between artifacts, the baseline is above
    ``min_seconds``, and the slowdown exceeds ``fail_threshold``.  A
    floor-metric ``fail`` requires a floor-asserted suite whose recorded
    floor metric (the protected speedup ratio — recorded even when the
    floor is disarmed) dropped by more than ``fail_threshold``; ratios are
    dimensionless, so this axis keeps protecting the fast kernels whose
    absolute times are a rounding error of the suite's wall clock.
    Anything beyond ``warn_threshold`` on either axis warns; wall-clock
    improvements beyond ``warn_threshold`` are labelled ``faster`` so
    speedups are visible in the output too.
    """
    if not 0 <= warn_threshold <= fail_threshold:
        raise ValueError("need 0 <= warn_threshold <= fail_threshold")
    comparison = Comparison(
        warn_threshold=warn_threshold, fail_threshold=fail_threshold
    )
    old_suites: Dict[str, Dict[str, object]] = old["suites"]  # type: ignore[assignment]
    new_suites: Dict[str, Dict[str, object]] = new["suites"]  # type: ignore[assignment]
    for name in sorted(set(old_suites) | set(new_suites)):
        before, after = old_suites.get(name), new_suites.get(name)
        if before is None or after is None:
            comparison.rows.append(
                SuiteComparison(
                    name,
                    "skipped",
                    note="present in only one artifact",
                )
            )
            continue
        floored = after.get("floor") is not None
        if before.get("skipped") or after.get("skipped"):
            side = "baseline" if before.get("skipped") else "candidate"
            if before.get("skipped") and after.get("skipped"):
                side = "both runs"
            reason = (after if after.get("skipped") else before).get("skip_reason")
            comparison.rows.append(
                SuiteComparison(
                    name,
                    "skipped",
                    floored=floored,
                    note=f"{side} skipped"
                    + (f": {reason}" if reason else ""),
                )
            )
            continue
        if before.get("params") != after.get("params"):
            comparison.rows.append(
                SuiteComparison(
                    name,
                    "skipped",
                    floored=floored,
                    note="parameters differ (not comparable)",
                )
            )
            continue
        old_s = float(before["best_seconds"])
        new_s = float(after["best_seconds"])
        delta = (new_s - old_s) / old_s if old_s > 0 else float("inf")
        if delta > fail_threshold and floored and old_s >= min_seconds:
            status, note = "fail", f"regression beyond {fail_threshold:.0%} (floored suite)"
        elif delta > warn_threshold:
            status = "warn"
            note = (
                f"regression beyond {warn_threshold:.0%}"
                if floored and old_s >= min_seconds
                else f"regression beyond {warn_threshold:.0%} (informational suite)"
                if not floored
                else f"baseline {old_s:.4f}s below the {min_seconds}s noise floor"
            )
        elif delta < -warn_threshold:
            status, note = "faster", ""
        else:
            status, note = "ok", ""

        # Second axis: the floor metric (the suite's protected speedup
        # ratio).  The value is recorded even when the floor is disarmed,
        # and a ratio is host-comparable in a way absolute seconds are not.
        metric_drop = _floor_metric_drop(before, after)
        if floored and metric_drop is not None:
            metric_name = after["floor"].get("metric", "metric")  # type: ignore[union-attr]
            if metric_drop > fail_threshold:
                status = "fail"
                note = (
                    f"floor metric '{metric_name}' dropped {metric_drop:.0%} "
                    f"(beyond {fail_threshold:.0%})"
                )
            elif metric_drop > warn_threshold and status not in ("fail",):
                status = "warn"
                note = (
                    f"floor metric '{metric_name}' dropped {metric_drop:.0%} "
                    f"(beyond {warn_threshold:.0%})"
                )
        comparison.rows.append(
            SuiteComparison(
                name, status, old_s, new_s, delta, floored, note, metric_drop
            )
        )
    return comparison


def _floor_metric_drop(
    before: Dict[str, object], after: Dict[str, object]
) -> Optional[float]:
    """Relative drop of the recorded floor metric, or ``None`` if unavailable."""
    old_floor, new_floor = before.get("floor"), after.get("floor")
    if not isinstance(old_floor, dict) or not isinstance(new_floor, dict):
        return None
    old_value, new_value = old_floor.get("value"), new_floor.get("value")
    if not isinstance(old_value, (int, float)) or not isinstance(
        new_value, (int, float)
    ):
        return None
    if old_value <= 0:
        return None
    return (float(old_value) - float(new_value)) / float(old_value)


def comparison_exit_code(comparison: Comparison) -> int:
    """0 when no suite failed the gate, 1 otherwise (warnings stay soft)."""
    return 1 if comparison.failures else 0


def format_comparison(comparison: Comparison) -> str:
    """Plain-text comparison table (what ``repro-bench compare`` prints)."""
    lines = [
        f"{'suite':<26s}{'baseline':>12s}{'candidate':>12s}{'delta':>9s}"
        f"{'gate':>9s}  note",
    ]
    for row in comparison.rows:
        old_s = "-" if row.old_seconds is None else f"{row.old_seconds:.5f}"
        new_s = "-" if row.new_seconds is None else f"{row.new_seconds:.5f}"
        delta = "-" if row.delta is None else f"{row.delta:+.1%}"
        lines.append(
            f"{row.name:<26s}{old_s:>12s}{new_s:>12s}{delta:>9s}"
            f"{row.status:>9s}  {row.note}"
        )
    lines.append(
        f"{len(comparison.failures)} failure(s), {len(comparison.warnings)} "
        f"warning(s) (warn > {comparison.warn_threshold:.0%}, fail > "
        f"{comparison.fail_threshold:.0%} on floor-asserted suites)"
    )
    return "\n".join(lines)
