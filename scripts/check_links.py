#!/usr/bin/env python3
"""Check that relative markdown links in the docs resolve (stdlib only).

Walks ``README.md`` and every ``docs/*.md``, extracts ``[text](target)``
links, and verifies that each *relative* target exists on disk (anchors are
stripped; external ``http(s)://`` and ``mailto:`` targets are skipped — the
offline CI cannot verify them).  It also checks every ``*.md`` file named in
the code under ``src/``, ``tests/`` and ``benchmarks/`` (docstrings and
comments included): a path must exist relative to the repository root, and
a bare file name there or in ``docs/``.  Exit 1 with a per-link report when
anything dangles::

    python scripts/check_links.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown links; deliberately simple — fenced code blocks are
#: stripped first so example snippets cannot produce false positives.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"```.*?```", re.DOTALL)
#: A markdown file named in code, e.g. ``docs/BENCHMARKING.md``.
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
CODE_DIRS = ("src", "tests", "benchmarks")


def link_targets(path: Path) -> List[str]:
    text = FENCE.sub("", path.read_text())
    return LINK.findall(text)


def is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def check_file(path: Path) -> List[Tuple[str, str]]:
    """``(target, reason)`` for every broken relative link in ``path``."""
    broken = []
    for target in link_targets(path):
        if is_external(target):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            # relpath, not Path.relative_to: a link escaping the repo root
            # must report FAIL, not crash the checker.
            shown = os.path.relpath(resolved, REPO_ROOT)
            broken.append((target, f"missing: {shown}"))
    return broken


def missing_cited_markdown() -> List[Tuple[Path, str]]:
    """``(file, name)`` for every ``*.md`` named in the code that does not exist."""
    missing = []
    for directory in CODE_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for name in sorted(set(MD_NAME.findall(path.read_text()))):
                candidates = [REPO_ROOT / name]
                if "/" not in name:
                    candidates.append(REPO_ROOT / "docs" / name)
                if not any(candidate.exists() for candidate in candidates):
                    missing.append((path, name))
    return missing


def main() -> int:
    files = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("*.md"))
    total_links = 0
    failures = 0
    for path in files:
        if not path.exists():
            print(f"FAIL {path}: file itself is missing")
            failures += 1
            continue
        targets = [t for t in link_targets(path) if not is_external(t)]
        total_links += len(targets)
        for target, reason in check_file(path):
            print(f"FAIL {path.relative_to(REPO_ROOT)}: ({target}) {reason}")
            failures += 1
    print(
        f"checked {total_links} relative link(s) across {len(files)} file(s): "
        f"{failures} broken"
    )
    missing = missing_cited_markdown()
    for path, name in missing:
        print(f"FAIL {path.relative_to(REPO_ROOT)}: names {name}, which does not exist")
    print(f"checked the *.md files named in {', '.join(CODE_DIRS)}: {len(missing)} missing")
    return 1 if failures or missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
