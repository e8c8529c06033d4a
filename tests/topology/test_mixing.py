"""Tests for mixing-matrix construction and spectral diagnostics."""

import math
import time

import networkx as nx
import numpy as np
import pytest

from repro.bench.suites import SparseGossipSuite
from repro.topology.mixing import (
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
    second_largest_eigenvalue,
    spectral_gap,
    uniform_neighbor_weights,
    validate_mixing_matrix,
)


GRAPHS = [
    nx.complete_graph(6),
    nx.cycle_graph(7),
    nx.complete_bipartite_graph(3, 4),
    nx.star_graph(5),
    nx.path_graph(5),
]


def _layout(graph):
    """``graph`` (nodes ``0..M-1``) as the weight builders' ``(num_agents, edges)``."""
    return graph.number_of_nodes(), list(graph.edges())


@pytest.mark.parametrize("graph", GRAPHS)
def test_metropolis_hastings_is_symmetric_doubly_stochastic(graph):
    w = metropolis_hastings_weights(*_layout(graph))
    assert is_symmetric(w)
    assert is_doubly_stochastic(w)


@pytest.mark.parametrize("graph", GRAPHS)
def test_uniform_neighbor_is_symmetric_doubly_stochastic(graph):
    w = uniform_neighbor_weights(*_layout(graph))
    assert is_symmetric(w)
    assert is_doubly_stochastic(w)


@pytest.mark.parametrize("graph", GRAPHS)
def test_zero_weight_exactly_on_non_edges(graph):
    w = metropolis_hastings_weights(*_layout(graph))
    nodes = sorted(graph.nodes())
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i == j:
                continue
            has_edge = graph.has_edge(u, v)
            assert (w[i, j] > 0) == has_edge


def test_metropolis_weights_formula():
    graph = nx.path_graph(3)  # degrees 1, 2, 1
    w = metropolis_hastings_weights(*_layout(graph))
    np.testing.assert_allclose(w[0, 1], 1.0 / 3.0)
    np.testing.assert_allclose(w[1, 2], 1.0 / 3.0)
    np.testing.assert_allclose(w[0, 0], 2.0 / 3.0)
    np.testing.assert_allclose(w[1, 1], 1.0 / 3.0)


def test_positive_diagonal_for_connected_graphs():
    for graph in GRAPHS:
        w = metropolis_hastings_weights(*_layout(graph))
        assert np.all(w.diagonal() > 0)


class TestSpectralDiagnostics:
    def test_uniform_matrix_gap_one(self):
        w = np.full((5, 5), 0.2)
        np.testing.assert_allclose(spectral_gap(w), 1.0, atol=1e-12)
        np.testing.assert_allclose(second_largest_eigenvalue(w), 0.0, atol=1e-12)

    def test_identity_matrix_gap_zero(self):
        w = np.eye(4)
        np.testing.assert_allclose(spectral_gap(w), 0.0, atol=1e-12)

    def test_largest_eigenvalue_is_one(self):
        for graph in GRAPHS:
            w = metropolis_hastings_weights(*_layout(graph))
            eigenvalues = np.linalg.eigvalsh(w.toarray())
            np.testing.assert_allclose(eigenvalues.max(), 1.0, atol=1e-10)

    def test_connected_graphs_have_positive_gap(self):
        for graph in GRAPHS:
            w = metropolis_hastings_weights(*_layout(graph))
            assert spectral_gap(w) > 0.0

    def test_single_node(self):
        assert second_largest_eigenvalue(np.array([[1.0]])) == 0.0


class TestValidation:
    def test_accepts_valid_matrix(self):
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(5)))
        validate_mixing_matrix(w, require_contraction=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_mixing_matrix(np.ones((2, 3)) / 3)

    def test_rejects_asymmetric(self):
        w = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError):
            validate_mixing_matrix(w)

    def test_rejects_negative_entries(self):
        w = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(ValueError):
            validate_mixing_matrix(w)

    def test_rejects_non_stochastic(self):
        w = np.array([[0.5, 0.2], [0.2, 0.5]])
        with pytest.raises(ValueError):
            validate_mixing_matrix(w)

    def test_contraction_requirement(self):
        identity = np.eye(3)
        validate_mixing_matrix(identity)  # fine without contraction
        with pytest.raises(ValueError):
            validate_mixing_matrix(identity, require_contraction=True)

    def test_is_doubly_stochastic_rejects_non_square(self):
        assert not is_doubly_stochastic(np.ones((2, 3)))


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
