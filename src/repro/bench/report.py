"""Markdown rendering of benchmark artifacts (``docs/PERFORMANCE.md``).

The performance handbook page is *generated*, never hand-edited: it renders
deterministically from a committed ``BENCH_<n>.json`` artifact, so CI can
regenerate it and fail when the page drifts from the artifact
(``repro-bench report BENCH_5.json --check``).  Determinism is the design
constraint here — every number comes from the artifact, formatted with fixed
precision, and tables iterate in sorted order.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["GENERATED_MARKER", "render_markdown"]

#: First line of every generated page; the freshness check keys off it and
#: reviewers know not to hand-edit.
GENERATED_MARKER = (
    "<!-- Generated by `repro-bench report`; do not edit by hand. "
    "Regenerate with: repro-bench report BENCH_<n>.json --out docs/PERFORMANCE.md -->"
)


def _seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f} ms"
    return f"{value * 1e6:.1f} µs"


def _mib(value: Optional[float]) -> str:
    return "-" if value is None else f"{value / (1024 * 1024):.0f} MiB"


def _suite_rss(suite: Dict[str, object]) -> str:
    """A suite's peak RSS, marked ``(process)`` unless reset before the suite."""
    value = _mib(suite.get("rss_peak_bytes"))  # type: ignore[arg-type]
    if value == "-" or suite.get("rss_scope") == "suite":
        return value
    return f"{value} (process)"


def _metric_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 1e-3:
        return f"{value:.4f}"
    return f"{value:.3e}"


def render_markdown(artifact: Dict[str, object], source_name: str) -> str:
    """Render one artifact as the full ``docs/PERFORMANCE.md`` page."""
    host: Dict[str, object] = artifact.get("host", {})  # type: ignore[assignment]
    suites: Dict[str, Dict[str, object]] = artifact["suites"]  # type: ignore[assignment]
    created = time.strftime(
        "%Y-%m-%d", time.gmtime(float(artifact.get("created_unix", 0)))
    )
    lines: List[str] = [
        GENERATED_MARKER,
        "",
        "# Performance",
        "",
        f"Benchmark results from `{source_name}` "
        f"(schema `{artifact.get('schema')}` v{artifact.get('schema_version')}, "
        f"recorded {created}).",
        "",
        f"Host: {host.get('cpus', '?')} CPUs, {host.get('platform', 'unknown')}, "
        f"Python {host.get('python', '?')}.",
        "",
        "Run `repro-bench run --out BENCH_<n>.json` to refresh, and",
        "`repro-bench compare <baseline>.json <candidate>.json` to gate a change",
        "against this history — see [BENCHMARKING.md](BENCHMARKING.md) for the",
        "full workflow.",
        "",
        "## Suite timings",
        "",
        "`best` is the minimum over the suite's repeats (the least noisy",
        "estimator on a time-shared machine); floored suites participate in the",
        "`repro-bench compare` fail gate.  A peak RSS marked `(process)` is the",
        "process high-water mark, which includes every suite run before it;",
        "unmarked values were reset before the suite.",
        "",
        "| Suite | Best | Mean ± std | Repeats | Peak RSS | Floored |",
        "| --- | ---: | ---: | ---: | ---: | :---: |",
    ]
    for name in sorted(suites):
        suite = suites[name]
        if suite.get("skipped"):
            lines.append(
                f"| `{name}` | skipped | - | - | - | "
                f"{'yes' if suite.get('floor') is not None else 'no'} |"
            )
            continue
        mean = _seconds(suite.get("mean_seconds"))
        std = _seconds(suite.get("std_seconds"))
        lines.append(
            f"| `{name}` | {_seconds(suite.get('best_seconds'))} | "
            f"{mean} ± {std} | {suite.get('repeats', '-')} | "
            f"{_suite_rss(suite)} | "
            f"{'yes' if suite.get('floor') is not None else 'no'} |"
        )

    floored = [name for name in sorted(suites) if suites[name].get("floor")]
    if floored:
        lines += [
            "",
            "## Speed floors",
            "",
            "Floors assert headroom (e.g. \"CSR gossip ≥ 10× dense at N = 4096\")",
            "and arm only at full scale, with enough CPUs and enough baseline",
            "signal — see the shared guard in `repro.bench.guard`.",
            "",
            "| Suite | Metric | Floor | Measured | Armed | Status |",
            "| --- | --- | ---: | ---: | :---: | :---: |",
        ]
        for name in floored:
            floor: Dict[str, object] = suites[name]["floor"]  # type: ignore[assignment]
            value = floor.get("value")
            measured = "-" if value is None else f"{float(value):.1f}×"
            if floor.get("armed"):
                status = "pass" if floor.get("passed") else "**FAIL**"
            else:
                status = f"disarmed ({floor.get('reason')})"
            lines.append(
                f"| `{name}` | `{floor.get('metric')}` | "
                f"{float(floor.get('minimum', 0)):.1f}× | {measured} | "
                f"{'yes' if floor.get('armed') else 'no'} | {status} |"
            )

    lines += ["", "## Per-suite detail", ""]
    for name in sorted(suites):
        suite = suites[name]
        lines += [f"### `{name}`", ""]
        description = str(suite.get("description", "")).strip()
        if description:
            lines += [description.rstrip(".") + ".", ""]
        if suite.get("skipped"):
            lines += [f"Skipped: {suite.get('skip_reason', 'no reason recorded')}.", ""]
            continue
        params: Dict[str, object] = suite.get("params", {})  # type: ignore[assignment]
        if params:
            rendered = ", ".join(f"{k} = {params[k]}" for k in sorted(params))
            lines += [f"Parameters: {rendered}.", ""]
        metrics: Dict[str, float] = suite.get("metrics", {})  # type: ignore[assignment]
        if metrics:
            lines += ["| Metric | Value |", "| --- | ---: |"]
            for key in sorted(metrics):
                lines.append(f"| `{key}` | {_metric_value(float(metrics[key]))} |")
            lines.append("")
        notes: Dict[str, str] = suite.get("notes", {}) or {}  # type: ignore[assignment]
        if notes:
            lines += ["Notes:", ""]
            for key in sorted(notes):
                lines.append(f"- `{key}`: {notes[key]}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
