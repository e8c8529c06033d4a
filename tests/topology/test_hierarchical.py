"""Hierarchical (two-level) gossip: clusters, the blown-up mixing matrix, traffic tags."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.topology.hierarchical import (
    HierarchicalTopology,
    default_cluster_size,
    hierarchical_graph,
)
from repro.topology.graphs import ring_graph
from repro.topology.mixing import validate_mixing_matrix


class TestDefaultClusterSize:
    def test_scales_with_sqrt(self):
        assert default_cluster_size(16) == 4
        assert default_cluster_size(64) == 8
        assert default_cluster_size(262144) == 512

    def test_always_divides(self):
        for num_agents in (8, 12, 16, 48, 100, 1024):
            c = default_cluster_size(num_agents)
            assert num_agents % c == 0
            assert 1 <= c <= num_agents


class TestHierarchicalGraph:
    def test_builds_topology(self):
        topology = hierarchical_graph(16, cluster_size=4)
        assert isinstance(topology, HierarchicalTopology)
        assert topology.num_agents == 16
        assert topology.cluster_size == 4
        assert topology.num_clusters == 4
        assert "hierarchical" in topology.name

    def test_effective_matrix_doubly_stochastic(self):
        topology = hierarchical_graph(24, cluster_size=4)
        effective = topology.mixing_matrix
        assert isinstance(effective, sp.csr_array)
        validate_mixing_matrix(effective)
        np.testing.assert_allclose(effective.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(effective.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_non_divisor_cluster_size(self):
        with pytest.raises(ValueError):
            hierarchical_graph(16, cluster_size=5)

    def test_rejects_tiny_fleet(self):
        with pytest.raises(ValueError):
            hierarchical_graph(2)

    def test_rejects_unknown_cluster_topology(self):
        with pytest.raises(ValueError):
            hierarchical_graph(16, cluster_size=4, cluster_topology="mesh")

    def test_fully_connected_cluster_level(self):
        topology = hierarchical_graph(16, cluster_size=4, cluster_topology="fully_connected")
        validate_mixing_matrix(topology.mixing_matrix)
        np.testing.assert_array_equal(
            topology.mixing_matrix.toarray(), np.full((16, 16), 1.0 / 16)
        )

    def test_matrix_is_the_kronecker_blow_up(self):
        # W_eff[i, j] = W_K[cluster(i), cluster(j)] / c, entry for entry.
        c, k = 4, 6
        topology = hierarchical_graph(c * k, cluster_size=c)
        cluster_w = ring_graph(k).mixing_matrix.toarray()
        members = np.arange(c * k) // c
        expected = cluster_w[np.ix_(members, members)] * (1.0 / c)
        np.testing.assert_array_equal(topology.mixing_matrix.toarray(), expected)

    def test_directed_edge_split(self):
        topology = hierarchical_graph(16, cluster_size=4)
        intra, inter = topology.directed_edge_split
        # Dense intra-cluster averaging: c-1 peers per agent.
        assert intra == 16 * 3
        assert inter > 0
        total = int(np.count_nonzero(topology.mixing_matrix.toarray())) - 16  # minus diagonal
        assert intra + inter == total


class TestHierarchicalGossip:
    def test_consensus_contraction(self, rng):
        """Two-level gossip must shrink disagreement every application."""
        operator = hierarchical_graph(32, cluster_size=8).mixing_operator()
        state = rng.normal(size=(32, 4))
        before = np.linalg.norm(state - state.mean(axis=0))
        after_state = operator.apply(state)
        after = np.linalg.norm(after_state - after_state.mean(axis=0))
        assert after < before
        np.testing.assert_allclose(
            after_state.mean(axis=0), state.mean(axis=0), atol=1e-12
        )

    def test_apply_averages_within_clusters(self, rng):
        # One step maps every member of a cluster to the same row: the
        # cluster-level mix of the cluster means.
        operator = hierarchical_graph(24, cluster_size=4).mixing_operator()
        state = rng.normal(size=(24, 7))
        mixed = operator.apply(state).reshape(6, 4, 7)
        np.testing.assert_allclose(mixed, mixed[:, :1, :].repeat(4, axis=1), atol=1e-12)
        means = state.reshape(6, 4, 7).mean(axis=1)
        cluster_w = ring_graph(6).mixing_matrix.toarray()
        np.testing.assert_allclose(mixed[:, 0, :], cluster_w @ means, atol=1e-12)


class TestEngineIntegration:
    def test_traffic_split_by_tag(self):
        from repro.experiments.harness import build_algorithm, build_experiment_components
        from repro.experiments.specs import fast_spec

        spec = fast_spec(
            num_agents=16, topology="hierarchical", num_rounds=2, algorithms=["DP-DPSGD"]
        )
        algorithm = build_algorithm(
            "DP-DPSGD", build_experiment_components(spec)
        )
        for _ in range(2):
            algorithm.run_round()
        by_tag = algorithm.network.traffic_by_tag
        assert "model.intra" in by_tag and "model.inter" in by_tag
        assert by_tag["model.intra"] > 0 and by_tag["model.inter"] > 0
        assert (
            by_tag["model.intra"] + by_tag["model.inter"]
            == algorithm.network.floats_sent
        )

    def test_spec_cluster_size_respected(self):
        from repro.experiments.harness import build_experiment_components
        from repro.experiments.specs import fast_spec

        spec = fast_spec(num_agents=16, topology="hierarchical").with_updates(
            cluster_size=8
        )
        components = build_experiment_components(spec)
        assert components.topology.cluster_size == 8

    def test_cluster_size_requires_hierarchical(self):
        from repro.experiments.specs import fast_spec

        with pytest.raises(ValueError):
            fast_spec(num_agents=16, topology="ring").with_updates(cluster_size=4)
