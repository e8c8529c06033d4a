"""Micro-benchmark: dense vs compressed gossip wire bytes at fleet scale.

Thin pytest wrapper over the registered ``gossip/compressed`` suite
(:class:`repro.bench.suites.CompressedGossipSuite`): vectorized DP-DPSGD
rounds on a ring fleet under the dense, top-k (``k = d // 10``), random-k
(same ``k``) and int8 codecs, with the identity codec asserted
bit-identical to the uncompressed path and random-k's wire bytes asserted
equal to top-k's inside the suite itself.  The ≥4x bytes-reduction floor
at 1024 agents routes through the shared guard (full scale + CPUs +
signal).

Environment knobs (shared with ``repro-bench``):

* ``REPRO_BENCH_COMPRESS_AGENTS`` — comma-separated agent counts
  (default "1024");
* ``REPRO_BENCH_COMPRESS_ROUNDS`` — timed rounds per variant (default 2).
"""

from __future__ import annotations

from repro.bench.registry import assert_floor, run_benchmark
from repro.bench.suites import CompressedGossipSuite


def test_bench_compressed_gossip_bytes_reduction():
    suite = CompressedGossipSuite()
    result = run_benchmark(suite)

    metrics = result.metrics
    print()
    print("=" * 84)
    print("compressed gossip micro-benchmark: network bytes per round (ring)")
    print(
        f"{'agents':>8s} {'dense B':>14s} {'topk B':>14s} {'randomk B':>14s} "
        f"{'int8 B':>14s} "
        f"{'topk redux':>11s} {'int8 redux':>11s}"
    )
    for num_agents in suite.agent_counts:
        print(
            f"{num_agents:>8d} {metrics[f'dense_bytes@{num_agents}']:>14,.0f} "
            f"{metrics[f'topk_bytes@{num_agents}']:>14,.0f} "
            f"{metrics[f'randomk_bytes@{num_agents}']:>14,.0f} "
            f"{metrics[f'int8_bytes@{num_agents}']:>14,.0f} "
            f"{metrics[f'bytes_reduction@{num_agents}']:>10.1f}x "
            f"{metrics[f'bytes_reduction_int8@{num_agents}']:>10.1f}x"
        )

    # The fleet-scale bytes-reduction floor, armed through the shared guard.
    assert_floor(result)
