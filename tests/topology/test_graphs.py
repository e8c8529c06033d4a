"""Tests for the topology constructors."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.topology.graphs import (
    TOPOLOGY_NAMES,
    Topology,
    bipartite_graph,
    check_topology,
    erdos_renyi_graph,
    fully_connected_graph,
    grid_graph,
    ring_graph,
    star_graph,
)
from repro.topology.hierarchical import hierarchical_graph
from repro.topology.mixing import (
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
)
from repro.topology.schedule import (
    DynamicTopologySchedule,
    ShiftOneSchedule,
    periodic_rewiring_schedule,
)


def is_connected(topology):
    """Whether ``W``'s positive entries connect every agent."""
    return connected_components(topology.mixing_matrix > 0.0)[0] == 1


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
    assert is_connected(topo)
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
        np.testing.assert_array_equal(topo.mixing_matrix.toarray(), np.full((5, 5), 1.0 / 5))

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
        assert is_connected(topo)

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
        bad = np.full((3, 4), 1.0 / 4)
        with pytest.raises(ValueError):
            Topology(bad)

    def test_disconnected_graph_rejected(self):
        mixing = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
        with pytest.raises(ValueError, match="connected"):
            Topology(mixing)
        # A schedule snapshot may split the fleet for a round.
        split = Topology(mixing, require_connected=False)
        assert split.num_agents == 4
        assert split.edges().tolist() == [[0, 1], [2, 3]]
        assert [split.degree(agent) for agent in range(4)] == [1, 1, 1, 1]


def _accessor_cases():
    """Every harness topology name at 16 agents, plus schedule snapshots."""
    from repro.experiments.harness import _make_topology

    cases = {
        name: (lambda name=name: _make_topology(name, 16, seed=0))
        for name in TOPOLOGY_NAMES
    }
    cases["hierarchical_fully_connected"] = lambda: hierarchical_graph(
        12, cluster_size=3, cluster_topology="fully_connected"
    )
    cases["rewired_snapshot"] = lambda: periodic_rewiring_schedule(
        ring_graph(10), rewire_every=2, seed=1
    ).topology_at(2)
    cases["dynamic_snapshot"] = lambda: DynamicTopologySchedule(
        ring_graph(12),
        rewire_every=2,
        churn_rate=0.3,
        rejoin_rate=0.3,
        edge_failure_rate=0.2,
        seed=1,
    ).topology_at(3)
    cases["shift_one_snapshot"] = lambda: ShiftOneSchedule(ring_graph(7)).topology_at(2)
    return cases


ACCESSOR_CASES = _accessor_cases()


@pytest.mark.parametrize("case", sorted(ACCESSOR_CASES))
def test_csr_accessors_agree_with_the_dense_matrix(case):
    topology = ACCESSOR_CASES[case]()
    assert isinstance(topology.mixing_matrix, sp.csr_array)
    dense = topology.mixing_matrix.toarray()
    n = topology.num_agents
    off_diagonal = (dense > 0.0) & ~np.eye(n, dtype=bool)
    assert topology.num_directed_edges == int(off_diagonal.sum())
    assert topology.min_weight() == dense[dense > 0.0].min()
    for i in range(n):
        expected = [int(j) for j in np.flatnonzero(off_diagonal[i])]
        assert topology.neighbors(i, include_self=False) == expected
        assert topology.neighbors(i) == sorted(expected + [i])
        for j in range(n):
            assert topology.weight(i, j) == dense[i, j]
    assert topology.directed_pairs() == [
        (int(i), int(j)) for i, j in zip(*np.nonzero(off_diagonal))
    ]


def test_ndarray_mixing_matrix_is_stored_as_identical_csr():
    mixing = metropolis_hastings_weights(6, [(i, (i + 1) % 6) for i in range(6)]).toarray()
    topology = Topology(mixing)
    assert isinstance(topology.mixing_matrix, sp.csr_array)
    assert topology.mixing_matrix.has_canonical_format
    np.testing.assert_array_equal(topology.mixing_matrix.toarray(), mixing)
    assert topology.mixing_matrix.nnz == int(np.count_nonzero(mixing))


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_check_topology_minimum_matches_the_constructor(name, monkeypatch):
    """The rule table's smallest fleet is exactly the constructor's smallest."""
    from repro.experiments import harness

    smallest = min(n for n in range(1, 17) if _accepts(name, n))
    assert harness._make_topology(name, smallest, seed=0).num_agents == smallest
    with pytest.raises(ValueError):
        check_topology(name, smallest - 1)
    # Without the check, the constructor itself refuses one agent fewer.
    monkeypatch.setattr(harness, "check_topology", lambda *args: None)
    with pytest.raises(ValueError):
        harness._make_topology(name, smallest - 1, seed=0)


def _accepts(name, num_agents):
    try:
        check_topology(name, num_agents)
    except ValueError:
        return False
    return True
