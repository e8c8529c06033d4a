#!/usr/bin/env python3
"""Generate ``docs/API.md`` from the public-API docstrings (stdlib only).

The public surface of the execution stack — the orchestrator, the run
session, the topology schedules and the benchmark harness — is documented in
the code (module docstrings, ``__all__``, per-member docstrings).  This
script renders that documentation into one markdown page with ``inspect``,
so the page can never drift from the code without CI noticing::

    python scripts/gen_api_docs.py                 # (re)write docs/API.md
    python scripts/gen_api_docs.py --check         # exit 1 when stale

Determinism is the contract: members render in ``__all__`` order, signatures
come from ``inspect.signature``, and only the first paragraph of each
docstring is used — the full prose stays in the source.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: The modules whose ``__all__`` constitutes the documented public API.
PUBLIC_MODULES = [
    "repro.core.streams",
    "repro.data.flat",
    "repro.simulation.runner",
    "repro.simulation.events",
    "repro.experiments.orchestrator",
    "repro.topology.schedule",
    "repro.topology.hierarchical",
    "repro.sharding",
    "repro.compression",
    "repro.bench.registry",
    "repro.bench.artifact",
    "repro.bench.guard",
    "repro.attacks",
    "repro.experiments.privacy_frontier",
]

GENERATED_MARKER = (
    "<!-- Generated by scripts/gen_api_docs.py; do not edit by hand. "
    "Regenerate with: python scripts/gen_api_docs.py -->"
)


def first_paragraph(obj: object) -> str:
    """The first paragraph of ``obj``'s docstring, joined to one flow of text."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines()).strip()


def render_signature(name: str, obj: object) -> str:
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        signature = "(...)"
    return f"{name}{signature}"


def render_function(name: str, obj: object, depth: str = "###") -> List[str]:
    lines = [f"{depth} `{render_signature(name, obj)}`", ""]
    summary = first_paragraph(obj)
    if summary:
        lines += [summary, ""]
    return lines


def public_members(cls: type) -> List[str]:
    """Methods/properties defined by ``cls`` itself (no dunder/underscore)."""
    names = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(
            member, (property, classmethod, staticmethod)
        ):
            names.append(name)
    return names


def render_class(name: str, cls: type) -> List[str]:
    lines = [f"### class `{name}`", ""]
    summary = first_paragraph(cls)
    if summary:
        lines += [summary, ""]
    for member_name in public_members(cls):
        member = inspect.getattr_static(cls, member_name)
        if isinstance(member, property):
            lines += [f"- `.{member_name}` (property)"]
            doc = first_paragraph(member)
        elif isinstance(member, classmethod):
            underlying = member.__func__
            lines += [
                f"- `.{render_signature(member_name, underlying)}` (classmethod)"
            ]
            doc = first_paragraph(underlying)
        elif isinstance(member, staticmethod):
            underlying = member.__func__
            lines += [
                f"- `.{render_signature(member_name, underlying)}` (staticmethod)"
            ]
            doc = first_paragraph(underlying)
        elif callable(member):
            lines += [f"- `.{render_signature(member_name, member)}`"]
            doc = first_paragraph(member)
        else:  # pragma: no cover - filtered by public_members
            continue
        if doc:
            lines[-1] += f" — {doc}"
    if lines[-1] != "":
        lines.append("")
    return lines


def render_module(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        raise SystemExit(f"{module_name} has no __all__; refusing to guess its API")
    lines = [f"## `{module_name}`", ""]
    summary = first_paragraph(module)
    if summary:
        lines += [summary, ""]
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            lines += render_class(name, obj)
        elif callable(obj):
            lines += render_function(name, obj)
        else:
            # Constants have no docstring of their own (inspect would hand
            # back their *type*'s docstring); show the value only.  Sets are
            # rendered sorted — their repr order is hash-randomised and this
            # page must be byte-stable across runs.
            if isinstance(obj, (set, frozenset)):
                value = "{" + ", ".join(repr(v) for v in sorted(obj, key=repr)) + "}"
            else:
                value = repr(obj)
            lines += [f"### `{name}`", "", f"Constant: `{value}`.", ""]
    return lines


def render_page() -> str:
    lines = [
        GENERATED_MARKER,
        "",
        "# Public API reference",
        "",
        "Generated from the docstrings and `__all__` declarations of the",
        "public modules — the prose source of truth is the code.  See",
        "[index.md](index.md) for the narrative handbook.",
        "",
    ]
    for module_name in PUBLIC_MODULES:
        lines += render_module(module_name)
    return "\n".join(lines).rstrip() + "\n"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "docs" / "API.md"),
        help="destination markdown file (default: docs/API.md)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; exit 1 when --out differs from the rendered page",
    )
    args = parser.parse_args(argv)
    rendered = render_page()
    out = Path(args.out)
    if args.check:
        current = out.read_text() if out.exists() else ""
        if current != rendered:
            print(
                f"{out} is stale — regenerate with 'python scripts/gen_api_docs.py'",
                file=sys.stderr,
            )
            return 1
        print(f"{out} is up to date")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(".md.tmp")
    tmp.write_text(rendered)
    os.replace(tmp, out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
