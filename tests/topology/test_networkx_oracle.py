"""``W`` from the NumPy edge arrays equals a networkx oracle, bit for bit.

The topology constructors build their edge arrays with NumPy; only the
random families sample through networkx.  The oracle here rebuilds every
graph with the networkx generator, labels its nodes ``0..M-1`` in sorted
order, and applies the Metropolis–Hastings formula densely:
``w_ij = 1 / (1 + max(deg_i, deg_j))`` on edges and the diagonal
``1 - sum_j w_ij``, the row sum taken the way SciPy sums a CSR row
(``np.add.reduceat`` over the weights in ascending column order).  Its CSR
form must
equal the constructor's ``indptr``, ``indices`` and ``data`` exactly, for
static topologies and for schedule snapshots alike.
"""

import os
import subprocess
import sys
import textwrap

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.experiments.harness import _make_topology
from repro.topology.graphs import (
    TOPOLOGY_NAMES,
    default_cluster_size,
    grid_graph,
    ring_graph,
)
from repro.topology.hierarchical import hierarchical_graph
from repro.topology.schedule import DynamicTopologySchedule, ShiftOneSchedule


def metropolis_hastings_oracle(graph):
    """Dense Metropolis–Hastings matrix of ``graph`` (nodes relabelled in sorted order)."""
    graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
    n = graph.number_of_nodes()
    w = np.zeros((n, n))
    for i in range(n):
        for j in graph[i]:
            w[i, j] = 1.0 / (1.0 + max(graph.degree[i], graph.degree[j]))
        row = w[i, sorted(graph[i])]
        w[i, i] = 1.0 - (np.add.reduceat(row, [0])[0] if row.size else 0.0)
    return w


def _sample_connected(sample, seed):
    """The first connected draw, seeded like the repo's random constructors."""
    rng = np.random.default_rng(seed)
    while True:
        graph = sample(int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return graph


def _exponential(n):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    hop = 1
    while hop < n:
        graph.add_edges_from((i, (i + hop) % n) for i in range(n))
        hop *= 2
    return graph


def _grid(rows, cols, periodic):
    # networkx wraps only dimensions of at least 3 agents.
    return nx.grid_2d_graph(rows, cols, periodic=periodic and rows >= 3 and cols >= 3)


def _hierarchical(n, c, cluster_topology):
    k = n // c
    if cluster_topology == "ring":
        cluster = metropolis_hastings_oracle(nx.cycle_graph(k) if k >= 3 else nx.path_graph(k))
    else:
        cluster = np.full((k, k), 1.0 / k)
    return np.kron(cluster, np.full((c, c), 1.0 / c))


def oracle_graph(name, n, seed):
    """The networkx graph :func:`_make_topology` samples or builds for ``name``."""
    if name == "ring":
        return nx.cycle_graph(n)
    if name == "bipartite":
        return nx.complete_bipartite_graph(n // 2 + n % 2, n // 2)
    if name == "star":
        return nx.star_graph(n - 1)
    if name == "grid":
        rows = int(np.floor(np.sqrt(n)))
        return _grid(rows, int(np.ceil(n / rows)), periodic=True)
    if name == "torus":
        side = int(np.sqrt(n))
        return _grid(side, side, periodic=True)
    if name == "erdos_renyi":
        return _sample_connected(lambda s: nx.erdos_renyi_graph(n, 0.4, seed=s), seed)
    if name == "random_regular":
        degree = 4 if n > 4 else 2
        return _sample_connected(lambda s: nx.random_regular_graph(degree, n, seed=s), seed)
    if name == "small_world":
        return nx.connected_watts_strogatz_graph(n, 4, 0.1, tries=100, seed=seed)
    if name == "hypercube":
        return nx.hypercube_graph(n.bit_length() - 1)
    assert name == "exponential"
    return _exponential(n)


def oracle_matrix(name, n, seed):
    """The dense ``W`` the oracle expects from ``_make_topology(name, n, seed)``."""
    if name == "fully_connected":
        return np.full((n, n), 1.0 / n)
    if name == "hierarchical":
        return _hierarchical(n, default_cluster_size(n), "ring")
    return metropolis_hastings_oracle(oracle_graph(name, n, seed))


def assert_csr_equals(topology, dense):
    expected = sp.csr_array(dense)
    actual = topology.mixing_matrix
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_array_equal(actual.data, expected.data)


SIZES = {
    "fully_connected": (2, 5, 16),
    "ring": (3, 8, 33),
    "bipartite": (2, 7, 16),
    "star": (2, 9, 20),
    # 4 and 6 agents fall back to the plain grid (2 rows); 9 and 12 wrap.
    "grid": (4, 6, 9, 12),
    "torus": (9, 16, 36),
    "erdos_renyi": (2, 8, 20),
    "random_regular": (3, 8, 20),
    "small_world": (5, 16, 40),
    "hypercube": (2, 8, 64),
    "exponential": (2, 6, 16, 33),
    "hierarchical": (4, 16, 64),
}


def test_sizes_cover_every_topology_name():
    assert set(SIZES) == set(TOPOLOGY_NAMES)


@pytest.mark.parametrize(
    "name, num_agents", [(name, n) for name in TOPOLOGY_NAMES for n in SIZES[name]]
)
def test_named_topology_matches_the_oracle(name, num_agents):
    topology = _make_topology(name, num_agents, seed=3)
    assert_csr_equals(topology, oracle_matrix(name, num_agents, seed=3))


@pytest.mark.parametrize("rows, cols", [(1, 5), (2, 2), (2, 7), (3, 3), (4, 6)])
@pytest.mark.parametrize("periodic", [True, False])
def test_grid_matches_the_oracle(rows, cols, periodic):
    topology = grid_graph(rows, cols, periodic=periodic)
    assert_csr_equals(topology, metropolis_hastings_oracle(_grid(rows, cols, periodic)))


@pytest.mark.parametrize("cluster_topology", ["ring", "fully_connected"])
@pytest.mark.parametrize("num_agents, cluster_size", [(4, 4), (8, 4), (12, 3), (32, 4)])
def test_hierarchical_matches_the_oracle(num_agents, cluster_size, cluster_topology):
    topology = hierarchical_graph(
        num_agents, cluster_size=cluster_size, cluster_topology=cluster_topology
    )
    assert_csr_equals(topology, _hierarchical(num_agents, cluster_size, cluster_topology))


def snapshot_oracle(base_graph, base_dense, schedule, round_index, failed):
    """Round ``round_index``'s ``W`` from the base graph, the epoch's relabelling,
    the failed edges and the round's active mask."""
    n = schedule.num_agents
    epoch = 0 if schedule.rewire_every is None else round_index // schedule.rewire_every
    perm = np.arange(n)
    if epoch:
        perm = np.random.default_rng([schedule.seed, 0x5EED, epoch]).permutation(n)
    active = schedule.active_mask_at(round_index)
    if not failed and active.all():
        # A pure rewire relabels the base matrix itself: w'_{perm(u), perm(v)} = w_uv.
        inverse = np.argsort(perm)
        return base_dense[np.ix_(inverse, inverse)]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v in nx.relabel_nodes(base_graph, dict(enumerate(perm.tolist()))).edges():
        if active[u] and active[v] and (min(u, v), max(u, v)) not in failed:
            graph.add_edge(u, v)
    return metropolis_hastings_oracle(graph)


DYNAMIC_CASES = {
    "rewire": ("small_world", 16, dict(rewire_every=2, seed=2)),
    # 1024-agent ``edge``-style churn and stragglers, at a test-sized fleet.
    "churn_straggler": (
        "random_regular",
        64,
        dict(churn_rate=0.05, rejoin_rate=0.5, straggler_fraction=0.1, seed=1),
    ),
    "rewire_churn_straggler_failure": (
        "ring",
        24,
        dict(
            rewire_every=3,
            churn_rate=0.1,
            straggler_fraction=0.2,
            edge_failure_rate=0.1,
            seed=4,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(DYNAMIC_CASES))
def test_dynamic_snapshots_match_the_oracle(case):
    name, num_agents, dynamics = DYNAMIC_CASES[case]
    base = _make_topology(name, num_agents, seed=3)
    schedule = DynamicTopologySchedule(base, **dynamics)
    base_graph = oracle_graph(name, num_agents, seed=3)
    base_dense = oracle_matrix(name, num_agents, seed=3)
    failed = set()
    for round_index in range(12):
        for event in schedule.events_at(round_index):
            if event.kind == "rewire":
                failed = set()
            elif event.kind == "edge_failure":
                failed.add(tuple(event.detail["edge"]))
            elif event.kind == "edge_recovery":
                failed.remove(tuple(event.detail["edge"]))
        expected = snapshot_oracle(base_graph, base_dense, schedule, round_index, failed)
        assert_csr_equals(schedule.topology_at(round_index), expected)


@pytest.mark.parametrize("num_agents", [7, 10])
def test_shift_one_snapshots_match_the_oracle(num_agents):
    schedule = ShiftOneSchedule(ring_graph(num_agents))
    for round_index in range(schedule.period):
        # W = (I + P) / 2: half self-weight, half to the partner; the bye
        # agent keeps both halves.
        expected = np.eye(num_agents)
        for u, v in schedule.pairs_at(round_index):
            expected[[u, u, v, v], [u, v, u, v]] = 0.5
        assert_csr_equals(schedule.topology_at(round_index), expected)


def test_deterministic_topologies_and_schedules_never_import_networkx():
    script = textwrap.dedent(
        """
        import sys

        import repro.experiments.harness
        from repro.topology.graphs import hypercube_graph, ring_graph, torus_graph
        from repro.topology.hierarchical import hierarchical_graph
        from repro.topology.schedule import DynamicTopologySchedule

        ring_graph(16)
        torus_graph(4)
        hypercube_graph(4)
        hierarchical_graph(16, cluster_size=4)
        hierarchical_graph(16, cluster_size=4, cluster_topology="fully_connected")
        schedule = DynamicTopologySchedule(
            ring_graph(16), rewire_every=2, churn_rate=0.2, straggler_fraction=0.2, seed=0
        )
        for round_index in range(5):
            schedule.operator_at(round_index)
        assert "networkx" not in sys.modules, "networkx was imported"
        """
    )
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
