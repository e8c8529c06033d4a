"""Micro-benchmark: stacked mean-agent test accuracy vs the per-agent loop.

Thin pytest wrapper over the registered ``eval/test-accuracy`` suite
(:class:`repro.bench.suites.StackedEvalSuite`): one ``Model.accuracy`` call
per agent vs ``test_accuracy(mode="mean_agent")`` on the stacked path, for a
``linear`` d = 68 fleet and a shared 512-row test set.  The suite asserts
that the per-agent accuracies are equal; this wrapper also asserts that the
two mean accuracies are equal at every size.  The ≥2x floor at 16384 agents
routes through the shared guard (full scale + CPUs + signal).

Environment knob (shared with ``repro-bench``):

* ``REPRO_BENCH_EVAL_AGENTS`` — comma-separated agent counts
  (default "1024,4096,16384").
"""

from __future__ import annotations

from repro.bench.registry import assert_floor, run_benchmark
from repro.bench.suites import StackedEvalSuite


def test_bench_micro_stacked_eval_speedup():
    suite = StackedEvalSuite()
    result = run_benchmark(suite)

    metrics = result.metrics
    print()
    print("=" * 72)
    print(
        f"mean-agent test accuracy on {suite.TEST_ROWS} rows: "
        "per-agent loop vs stacked pass"
    )
    print(f"{'agents':>8s} {'loop':>12s} {'stacked':>12s} {'speedup':>8s} {'accuracy':>9s}")
    for num_agents in suite.agent_counts:
        print(
            f"{num_agents:>8d} {metrics[f'loop_s@{num_agents}']:>11.4f}s "
            f"{metrics[f'stacked_s@{num_agents}']:>11.4f}s "
            f"{metrics[f'speedup@{num_agents}']:>7.1f}x "
            f"{metrics[f'stacked_accuracy@{num_agents}']:>9.4f}"
        )
        assert (
            metrics[f"stacked_accuracy@{num_agents}"]
            == metrics[f"loop_accuracy@{num_agents}"]
        )

    assert_floor(result)
