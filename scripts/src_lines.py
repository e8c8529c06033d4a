#!/usr/bin/env python3
"""Report the Python line count of ``src/``, in total and per package (stdlib only).

The count is plain physical lines (``wc -l``), comments and docstrings
included, so it matches ``find src -name '*.py' | xargs cat | wc -l``.
Packages are the directories directly under ``src/repro``; modules that sit
directly in a package root count toward that package.  Report only — it
never fails::

    python scripts/src_lines.py
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def line_counts(root: Path = SRC) -> Counter:
    """Lines per package (``repro.core``, ``repro.simulation``, ...)."""
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = ".".join(parts[:2]) if len(parts) > 2 else parts[0]
        with path.open("rb") as handle:
            counts[package] += sum(1 for _ in handle)
    return counts


def main() -> int:
    counts = line_counts()
    width = max(map(len, counts), default=0)
    for package, lines in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{package:<{width}}  {lines:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
