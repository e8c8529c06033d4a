"""The benchmark's span probes must name attributes that still exist.

``perfbench/spans.py`` wraps package functions by dotted name from outside
the package.  Building its ``SpanRecorder`` resolves every probe target
without installing any, so a renamed or deleted probed function fails here,
in the tier-1 suite, rather than only in the benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import repro.core.pdsl as pdsl
from repro.game.shapley import monte_carlo_shapley

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def test_every_probe_target_resolves_without_installing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    assert not recorder.installed
    assert len(recorder._patches) == len(spans.PROBES)
    # Resolving a probe patches nothing.
    assert pdsl.monte_carlo_shapley is monte_carlo_shapley

