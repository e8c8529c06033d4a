"""Micro-benchmark: per-agent reference vs round pipeline at increasing agent counts.

Thin pytest wrapper over the registered ``engine/round`` suite
(:class:`repro.bench.suites.EngineRoundSuite`) — the same suite object
``repro-bench run`` executes, so the pytest and CLI surfaces can never
drift apart.  The per-agent side is :func:`repro.bench.reference.reference_round`
(reported as ``loop_s@N``), the other the blocked pipeline's ``run_round``
(``vectorized_s@N``).  The speedup floor (≥5x at 256 agents) routes through
the shared guard in :mod:`repro.bench.guard`: it arms only at full scale,
with ≥2 CPUs, and with enough reference-side signal to trust the ratio.

Environment knobs (shared with ``repro-bench``):

* ``REPRO_BENCH_ENGINE_AGENTS`` — comma-separated agent counts
  (default "16,64,256");
* ``REPRO_BENCH_ENGINE_ROUNDS`` — timed rounds per measurement (default 2).
"""

from __future__ import annotations

import numpy as np

from repro.bench.reference import reference_round
from repro.bench.registry import assert_floor, run_benchmark
from repro.bench.suites import EngineRoundSuite


def test_bench_micro_engine_speedup():
    suite = EngineRoundSuite()
    result = run_benchmark(suite)

    print()
    print("=" * 66)
    print("engine micro-benchmark: seconds per DP-DPSGD round (full topology)")
    print(f"{'agents':>8s} {'reference':>12s} {'pipeline':>12s} {'speedup':>10s}")
    for num_agents in sorted(suite.agent_counts):
        print(
            f"{num_agents:>8d} {result.metrics[f'loop_s@{num_agents}']:>12.5f} "
            f"{result.metrics[f'vectorized_s@{num_agents}']:>12.5f} "
            f"{result.metrics[f'speedup@{num_agents}']:>9.1f}x"
        )

    # Only the large-N speedup is asserted, and only when the shared guard
    # arms it (full scale, enough CPUs, enough reference-side signal) — at small
    # N or on a starved machine the ratio is scheduler noise.
    assert_floor(result)


def test_bench_micro_engine_backends_agree():
    """The benchmark is only meaningful if both sides run the same algorithm."""
    reference = EngineRoundSuite.build(16)
    pipeline = EngineRoundSuite.build(16)
    for _ in range(2):
        reference_round(reference)
        pipeline.run_round()
    np.testing.assert_allclose(reference.state, pipeline.state, rtol=1e-9, atol=1e-12)
    assert reference.network.messages_sent == pipeline.network.messages_sent
