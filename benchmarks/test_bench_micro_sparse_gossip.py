"""Micro-benchmark: the CSR gossip kernel vs a dense einsum at fleet scale.

Thin pytest wrapper over the registered ``gossip/sparse`` suite
(:class:`repro.bench.suites.SparseGossipSuite`): one gossip application
``W @ X`` through the CSR :class:`~repro.topology.mixing.MixingOperator`
and through an inline ``np.einsum`` over ``operator.toarray()`` on ring and
torus topologies, with a raw-BLAS reference column and bit-identity between
the two asserted at every measured size inside the suite itself.  The ≥10x
floor on the ring at 4096 agents routes through the shared guard (full
scale + CPUs + signal).

Environment knobs (shared with ``repro-bench``):

* ``REPRO_BENCH_SPARSE_AGENTS`` — comma-separated agent counts
  (default "1024,4096"); torus cells round each count to a square grid;
* ``REPRO_BENCH_SPARSE_ROUNDS`` — timed applications per measurement
  (default 2);
* ``REPRO_BENCH_SPARSE_DIM`` — model dimension d of the mixed state
  (default 64).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bench.registry import assert_floor, run_benchmark
from repro.bench.suites import SparseGossipSuite


def test_bench_micro_sparse_gossip_speedup():
    suite = SparseGossipSuite()
    result = run_benchmark(suite)

    labels = [
        label
        for num_agents in suite.agent_counts
        for label in suite.topology_labels(num_agents)
    ]
    print()
    print("=" * 84)
    print(
        f"sparse gossip micro-benchmark: seconds per W @ X apply "
        f"(d = {suite.dimension})"
    )
    print(
        f"{'topology':>14s} {'nnz':>10s} {'dense':>12s} {'blas-ref':>12s} "
        f"{'csr':>12s} {'speedup':>9s} {'vs blas':>9s}"
    )
    for label in labels:
        metrics = result.metrics
        print(
            f"{label:>14s} {int(metrics[f'nnz@{label}']):>10d} "
            f"{metrics[f'dense_s@{label}']:>12.5f} "
            f"{metrics[f'blas_s@{label}']:>12.5f} "
            f"{metrics[f'csr_s@{label}']:>12.5f} "
            f"{metrics[f'speedup@{label}']:>8.1f}x "
            f"{metrics[f'blas_s@{label}'] / metrics[f'csr_s@{label}']:>8.1f}x"
        )

    # The fleet-scale ring floor, armed through the shared guard only.
    assert_floor(result)


def test_bench_sparse_spectral_diagnostics_at_scale():
    """The Lanczos path keeps fleet-scale spectral gaps affordable.

    A dense eigendecomposition at N = 4096 is O(N^3) (~minutes); the sparse
    path must produce the ring's analytic gap in a small fraction of the
    benchmark budget.
    """
    from repro.topology.graphs import ring_graph
    from repro.topology.mixing import spectral_gap

    num_agents = max(SparseGossipSuite().agent_counts)
    topology = ring_graph(num_agents)
    start = time.perf_counter()
    gap = spectral_gap(topology.mixing_matrix)
    elapsed = time.perf_counter() - start
    analytic = 1.0 - (1.0 + 2.0 * math.cos(2.0 * math.pi / num_agents)) / 3.0
    print(
        f"\nring/{num_agents} spectral gap: {gap:.3e} "
        f"(analytic {analytic:.3e}) in {elapsed:.3f}s via eigsh"
    )
    np.testing.assert_allclose(gap, analytic, atol=1e-7)
    assert elapsed < 60.0
