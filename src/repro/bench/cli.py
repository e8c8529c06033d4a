"""``repro-bench`` — the command-line surface of the benchmark harness.

Four subcommands::

    repro-bench list                                   # registered suites
    repro-bench run --out BENCH_5.json                 # run suites, emit artifact
    repro-bench run --filter gossip --repeats 5        # subset, more repeats
    repro-bench compare BENCH_5.json BENCH_6.json      # regression gate
    repro-bench report BENCH_5.json --check            # docs/PERFORMANCE.md freshness

``run --scale smoke`` applies the reduced CI knob set
(:data:`repro.bench.suites.SMOKE_SCALE`) so every suite finishes in seconds
with every floor disarmed; explicit ``REPRO_BENCH_*`` environment settings
always win over the scale preset.

Exit status: ``run`` is 0 unless a suite raises (or, with
``--strict-floors``, an armed floor fails); ``compare`` is 0 unless a
floor-asserted suite regressed beyond ``--max-regression``; ``report
--check`` is 0 when the rendered page matches the file on disk.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench import suites as _suites  # noqa: F401 - registers the suites
from repro.bench.artifact import (
    DEFAULT_FAIL_THRESHOLD,
    DEFAULT_MIN_SECONDS,
    DEFAULT_WARN_THRESHOLD,
    compare_artifacts,
    comparison_exit_code,
    format_comparison,
    load_artifact,
    results_to_artifact,
    write_artifact,
)
from repro.bench.registry import (
    BenchResult,
    create_benchmark,
    registered_benchmarks,
    run_benchmark,
    select_benchmarks,
)
from repro.bench.report import render_markdown
from repro.bench.suites import SMOKE_SCALE, apply_scale
from repro.simulation.checkpoint import atomic_write_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Registered benchmark suites, perf-history artifacts and "
        "the regression gate for the PDSL reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered benchmark suites")

    run = subparsers.add_parser(
        "run", help="run suites and emit a schema-versioned BENCH_<n>.json"
    )
    run.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="SUBSTR",
        help="only run suites whose name contains SUBSTR (repeatable)",
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repetitions per suite (default: each suite's own setting)",
    )
    run.add_argument(
        "--scale",
        choices=("default", "smoke"),
        default="default",
        help="knob preset: 'smoke' applies the reduced CI scale "
        "(explicit REPRO_BENCH_* env settings still win)",
    )
    run.add_argument(
        "--out", default=None, metavar="PATH", help="write the JSON artifact here"
    )
    run.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also render the markdown performance page to PATH",
    )
    run.add_argument(
        "--strict-floors",
        action="store_true",
        help="exit 1 when an armed speed floor fails (default: report only)",
    )

    compare = subparsers.add_parser(
        "compare", help="gate a candidate artifact against a baseline"
    )
    compare.add_argument("baseline", help="baseline BENCH_<n>.json")
    compare.add_argument("candidate", help="candidate BENCH_<n>.json")
    compare.add_argument(
        "--warn",
        type=float,
        default=DEFAULT_WARN_THRESHOLD,
        help="warn on slowdowns beyond this fraction (default: %(default)s)",
    )
    compare.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_FAIL_THRESHOLD,
        help="fail floor-asserted suites beyond this fraction "
        "(default: %(default)s)",
    )
    compare.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help="baselines faster than this never fail the gate "
        "(timer-noise floor; default: %(default)s)",
    )

    report = subparsers.add_parser(
        "report", help="render (or freshness-check) docs/PERFORMANCE.md"
    )
    report.add_argument("artifact", help="BENCH_<n>.json to render")
    report.add_argument(
        "--out",
        default="docs/PERFORMANCE.md",
        help="markdown destination (default: %(default)s)",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 if the rendered page differs from --out",
    )
    return parser


def _format_rss(num_bytes: Optional[int]) -> str:
    if num_bytes is None:
        return "n/a"
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TiB"  # pragma: no cover - unreachable


def _print_result(result: BenchResult) -> None:
    if result.skipped:
        print(f"[{result.name}] SKIPPED: {result.skip_reason}")
        return
    print(f"[{result.name}] best {result.best_seconds:.5f}s over "
          f"{result.repeats} repeat(s) (mean {result.mean_seconds:.5f}s "
          f"± {result.std_seconds:.5f}s, peak RSS "
          f"{_format_rss(result.rss_peak_bytes)}, {result.rss_scope}-scoped)")
    for key in sorted(result.metrics):
        print(f"    {key:<28s} {result.metrics[key]:.6g}")
    for key in sorted(result.notes):
        print(f"    {key:<28s} {result.notes[key]}")
    if result.floor is not None:
        floor = result.floor
        if floor["armed"]:
            verdict = "PASS" if floor["passed"] else "FAIL"
            print(
                f"    floor: {floor['metric']} >= {floor['minimum']} -> "
                f"{floor['value']:.2f} [{verdict}]"
            )
        else:
            print(f"    floor: not armed ({floor['reason']})")


def _cmd_list() -> int:
    for name in registered_benchmarks():
        bench = create_benchmark(name)
        floored = " [floored]" if bench.floor is not None else ""
        print(f"{name:<26s} {bench.description}{floored}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scale == "smoke":
        apply_scale(SMOKE_SCALE)
    names = select_benchmarks(args.filter)
    if not names:
        print(f"repro-bench: no suites match {args.filter!r}", file=sys.stderr)
        return 2
    results: List[BenchResult] = []
    for name in names:
        bench = create_benchmark(name)
        print(f"running {name} ({bench.description}) ...", flush=True)
        results.append(run_benchmark(bench, repeats=args.repeats))
        _print_result(results[-1])
    artifact = results_to_artifact(results)
    if args.out:
        path = write_artifact(args.out, artifact)
        print(f"wrote {path} ({len(results)} suite(s))")
    if args.report:
        source = Path(args.out).name if args.out else "<unsaved run>"
        atomic_write_text(Path(args.report), render_markdown(artifact, source))
        print(f"wrote {args.report}")
    if args.strict_floors:
        failed = [
            r.name
            for r in results
            if r.floor is not None and r.floor["armed"] and not r.floor["passed"]
        ]
        if failed:
            print(f"repro-bench: floor failures: {', '.join(failed)}", file=sys.stderr)
            return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_artifacts(
        load_artifact(args.baseline),
        load_artifact(args.candidate),
        warn_threshold=args.warn,
        fail_threshold=args.max_regression,
        min_seconds=args.min_seconds,
    )
    print(format_comparison(comparison))
    return comparison_exit_code(comparison)


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.artifact)
    rendered = render_markdown(artifact, Path(args.artifact).name)
    out = Path(args.out)
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != rendered:
            print(
                f"repro-bench: {out} is stale — regenerate with "
                f"'repro-bench report {args.artifact} --out {out}'",
                file=sys.stderr,
            )
            return 1
        print(f"{out} is up to date with {args.artifact}")
        return 0
    atomic_write_text(out, rendered)
    print(f"wrote {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-bench`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        # No blanket except here: anything a suite raises propagates with
        # its traceback — a failing benchmark is a bug to debug, not a
        # usage error to summarise.
        return _cmd_run(args)
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_report(args)
    except (ValueError, FileNotFoundError) as error:
        # Input errors: unreadable/foreign artifacts, bad thresholds.
        print(f"repro-bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
