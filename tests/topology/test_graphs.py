"""Tests for the topology constructors."""

import networkx as nx
import numpy as np
import pytest

from repro.topology.graphs import (
    Topology,
    bipartite_graph,
    erdos_renyi_graph,
    fully_connected_graph,
    grid_graph,
    ring_graph,
    star_graph,
)
from repro.topology.mixing import is_doubly_stochastic, is_symmetric


ALL_BUILDERS = [
    lambda: fully_connected_graph(8),
    lambda: ring_graph(8),
    lambda: bipartite_graph(8),
    lambda: star_graph(8),
    lambda: grid_graph(3, 3),
    lambda: erdos_renyi_graph(8, 0.5, seed=0),
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_topology_has_valid_mixing_matrix(builder):
    topo = builder()
    assert is_symmetric(topo.mixing_matrix)
    assert is_doubly_stochastic(topo.mixing_matrix)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_every_topology_is_connected_with_positive_gap(builder):
    topo = builder()
    assert nx.is_connected(topo.graph)
    assert topo.spectral_gap > 0.0
    assert 0.0 <= topo.rho < 1.0


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_directed_pairs_cover_all_edges_in_loop_order(builder):
    topo = builder()
    pairs = topo.directed_pairs()
    assert len(pairs) == topo.num_directed_edges
    # Grouped by agent, neighbours ascending — each agent's noise-slot order.
    expected = [
        (i, j)
        for i in range(topo.num_agents)
        for j in topo.neighbors(i, include_self=False)
    ]
    assert pairs == expected
    # Symmetric graph: every directed pair appears with its reverse.
    assert set(pairs) == {(j, i) for i, j in pairs}
    assert all(i != j for i, j in pairs)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_neighbors_include_self_and_match_matrix(builder):
    topo = builder()
    for agent in range(topo.num_agents):
        neighbors = topo.neighbors(agent, include_self=True)
        assert agent in neighbors
        for j in neighbors:
            assert topo.weight(agent, j) > 0.0 or j == agent
        without_self = topo.neighbors(agent, include_self=False)
        assert agent not in without_self


class TestFullyConnected:
    def test_uniform_weights(self):
        topo = fully_connected_graph(5)
        np.testing.assert_allclose(topo.mixing_matrix, 1.0 / 5)

    def test_everyone_is_neighbor(self):
        topo = fully_connected_graph(6)
        assert topo.neighbors(0) == list(range(6))

    def test_spectral_gap_is_one(self):
        topo = fully_connected_graph(10)
        np.testing.assert_allclose(topo.spectral_gap, 1.0, atol=1e-10)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            fully_connected_graph(1)


class TestRing:
    def test_degree_two(self):
        topo = ring_graph(7)
        for agent in range(7):
            assert topo.degree(agent) == 2

    def test_smaller_gap_than_fully_connected(self):
        ring = ring_graph(10)
        full = fully_connected_graph(10)
        assert ring.spectral_gap < full.spectral_gap

    def test_gap_shrinks_with_size(self):
        assert ring_graph(20).spectral_gap < ring_graph(6).spectral_gap

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ring_graph(2)


class TestBipartite:
    def test_no_edges_within_sides(self):
        topo = bipartite_graph(8)
        left = set(range(4))
        for u, v in topo.edges():
            assert (u in left) != (v in left)

    def test_odd_number_of_agents(self):
        topo = bipartite_graph(7)
        assert topo.num_agents == 7

    def test_sparser_than_full_denser_than_ring(self):
        full = fully_connected_graph(10)
        bi = bipartite_graph(10)
        ring = ring_graph(10)
        assert ring.spectral_gap <= bi.spectral_gap <= full.spectral_gap + 1e-12

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            bipartite_graph(1)


class TestStarGridErdosRenyi:
    def test_star_hub_degree(self):
        topo = star_graph(6)
        degrees = sorted(topo.degree(a) for a in range(6))
        assert degrees == [1, 1, 1, 1, 1, 5]

    def test_grid_number_of_agents(self):
        topo = grid_graph(3, 4)
        assert topo.num_agents == 12

    def test_small_grid_falls_back_to_nonperiodic(self):
        topo = grid_graph(2, 2)
        assert topo.num_agents == 4
        assert topo.name in ("grid", "torus")

    def test_erdos_renyi_connected(self):
        topo = erdos_renyi_graph(12, 0.3, seed=1)
        assert nx.is_connected(topo.graph)

    def test_erdos_renyi_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, 0.0)

    def test_erdos_renyi_failure_when_probability_too_small(self):
        with pytest.raises(RuntimeError):
            erdos_renyi_graph(30, 0.01, seed=0, max_tries=2)


class TestTopologyValidation:
    def test_min_weight_positive(self):
        for builder in ALL_BUILDERS:
            assert builder().min_weight() > 0.0

    def test_mismatched_matrix_rejected(self):
        graph = nx.complete_graph(4)
        bad = np.full((3, 3), 1.0 / 3)
        with pytest.raises(ValueError):
            Topology(graph=graph, mixing_matrix=bad)

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        mixing = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
        with pytest.raises(ValueError):
            Topology(graph=graph, mixing_matrix=mixing)
