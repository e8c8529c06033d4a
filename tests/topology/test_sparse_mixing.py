"""CSR mixing: builders, validation, the operator kernel, diagnostics.

``W`` is always CSR.  The edge-wise builders must match the textbook dense
construction, validation checks Assumption 3's structure without
densifying, and the :class:`MixingOperator` kernel must reproduce a dense
sequential sum-of-products (``np.einsum``) over the same matrix bit for
bit — the ascending-column accumulation every blocked and parallel gossip
variant relies on.
"""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.topology.graphs import (
    Topology,
    exponential_graph,
    hypercube_graph,
    random_regular_graph,
    ring_graph,
    small_world_graph,
    torus_graph,
)
from repro.topology.mixing import (
    DENSE_EIG_MAX_AGENTS,
    MixingOperator,
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
    second_largest_eigenvalue,
    spectral_gap,
    uniform_neighbor_weights,
    validate_mixing_matrix,
)

GRAPHS = [
    nx.cycle_graph(12),
    nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(4, 4, periodic=True), ordering="sorted"
    ),
    nx.star_graph(9),
    nx.path_graph(7),
    nx.erdos_renyi_graph(20, 0.3, seed=0),
]


def _layout(graph):
    """``graph`` (nodes ``0..M-1``) as the weight builders' ``(num_agents, edges)``."""
    return graph.number_of_nodes(), list(graph.edges())


def dense_weights(graph, edge_weight):
    """The textbook dense construction: edge weights, then the residual diagonal."""
    nodes = sorted(graph.nodes())
    index = {node: k for k, node in enumerate(nodes)}
    w = np.zeros((len(nodes), len(nodes)))
    for u, v in graph.edges():
        w[index[u], index[v]] = w[index[v], index[u]] = edge_weight(u, v)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def dense_metropolis_hastings(graph):
    return dense_weights(
        graph, lambda u, v: 1.0 / (1.0 + max(graph.degree[u], graph.degree[v]))
    )


def dense_uniform(graph):
    d_max = max(degree for _, degree in graph.degree())
    return dense_weights(graph, lambda u, v: 1.0 / (d_max + 1.0))


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize(
    "builder, reference",
    [
        (metropolis_hastings_weights, dense_metropolis_hastings),
        (uniform_neighbor_weights, dense_uniform),
    ],
)
class TestCsrBuilders:
    def test_matches_dense_construction(self, builder, reference, graph):
        sparse = builder(*_layout(graph))
        assert isinstance(sparse, sp.csr_array)
        np.testing.assert_allclose(sparse.toarray(), reference(graph), atol=1e-12)

    def test_csr_satisfies_assumption3(self, builder, reference, graph):
        sparse = builder(*_layout(graph))
        assert is_symmetric(sparse)
        assert is_doubly_stochastic(sparse)
        validate_mixing_matrix(sparse)

    def test_zero_weight_exactly_on_non_edges(self, builder, reference, graph):
        dense = builder(*_layout(graph)).toarray()
        nodes = sorted(graph.nodes())
        index = {node: k for k, node in enumerate(nodes)}
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                assert (dense[index[u], index[v]] > 0) == graph.has_edge(u, v)


class TestCsrValidation:
    def test_rejects_asymmetric_csr(self):
        w = sp.csr_array(np.array([[0.5, 0.5, 0.0], [0.4, 0.2, 0.4], [0.1, 0.3, 0.6]]))
        assert not is_symmetric(w)
        with pytest.raises(ValueError, match="symmetric"):
            validate_mixing_matrix(w)

    def test_rejects_non_stochastic_csr(self):
        w = sp.csr_array(np.array([[0.5, 0.2], [0.2, 0.5]]))
        assert not is_doubly_stochastic(w)
        with pytest.raises(ValueError, match="stochastic"):
            validate_mixing_matrix(w)

    def test_rejects_negative_entries_csr(self):
        w = sp.csr_array(np.array([[1.2, -0.2], [-0.2, 1.2]]))
        with pytest.raises(ValueError, match="stochastic"):
            validate_mixing_matrix(w)

    def test_rejects_non_square_csr(self):
        w = sp.csr_array(np.ones((2, 3)) / 3.0)
        with pytest.raises(ValueError, match="square"):
            validate_mixing_matrix(w)

    def test_validation_never_densifies(self):
        # A 100k-agent ring: the dense matrix would be 10^10 entries (~80 GB),
        # so merely finishing proves the checks stay on the sparse structure.
        graph = nx.cycle_graph(100_000)
        w = metropolis_hastings_weights(*_layout(graph))
        validate_mixing_matrix(w)
        assert w.nnz == 3 * 100_000

    def test_contraction_check_on_csr(self):
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(11)))
        validate_mixing_matrix(w, require_contraction=True)
        disconnected = sp.csr_array(sp.eye(5).tocsr())
        with pytest.raises(ValueError, match="spectral gap"):
            validate_mixing_matrix(disconnected, require_contraction=True)


class TestSpectralDiagnostics:
    def test_eigsh_matches_dense_path(self):
        # Same matrix through both code paths: dense eigvalsh below the
        # threshold, Lanczos above it (forced by a graph larger than
        # DENSE_EIG_MAX_AGENTS).
        n = DENSE_EIG_MAX_AGENTS + 64
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(n)))
        lanczos = second_largest_eigenvalue(w)
        dense = np.linalg.eigvalsh(w.toarray())
        expected = float(np.sort(np.abs(dense))[::-1][1])
        assert lanczos == pytest.approx(expected, abs=1e-8)

    def test_eigsh_matches_analytic_ring_value(self):
        n = 2048
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(n)))
        # Ring MH weights are (1 + 2 cos(2 pi k / n)) / 3; the second-largest
        # magnitude is attained at k = 1.
        analytic = (1.0 + 2.0 * np.cos(2.0 * np.pi / n)) / 3.0
        assert second_largest_eigenvalue(w) == pytest.approx(analytic, abs=1e-8)
        assert 0.0 < spectral_gap(w) < 1e-4

    def test_eigsh_accepts_ndarray_above_threshold(self):
        n = DENSE_EIG_MAX_AGENTS + 32
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(n)))
        assert spectral_gap(w.toarray()) == pytest.approx(spectral_gap(w), abs=1e-10)


def einsum_reference(w, rows):
    """Dense sequential sum-of-products over ascending columns."""
    return np.einsum("ij,jk->ik", np.asarray(w), rows)


class TestMixingOperator:
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_apply_matches_einsum_reference_bitwise(self, graph):
        w = metropolis_hastings_weights(*_layout(graph))
        rows = np.random.default_rng(0).normal(size=(w.shape[0], 23))
        operator = MixingOperator(w)
        expected = einsum_reference(w.toarray(), rows)
        np.testing.assert_array_equal(operator.apply(rows), expected)
        for block_rows in (1, 3, w.shape[0]):
            np.testing.assert_array_equal(
                operator.mix_rows_blocked(rows, block_rows), expected
            )

    def test_float32_apply_matches_einsum_reference_bitwise(self):
        w = metropolis_hastings_weights(*_layout(nx.erdos_renyi_graph(20, 0.3, seed=0)))
        rows = np.random.default_rng(2).normal(size=(20, 9)).astype(np.float32)
        out = MixingOperator(w).apply(rows)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out, einsum_reference(w.toarray().astype(np.float32), rows)
        )

    def test_apply_matches_matmul_semantics(self):
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(9)))
        rows = np.random.default_rng(1).normal(size=(9, 5))
        np.testing.assert_allclose(
            MixingOperator(w).apply(rows), w.toarray() @ rows, atol=1e-12
        )

    def test_ndarray_input_becomes_canonical_csr(self):
        w = metropolis_hastings_weights(*_layout(nx.cycle_graph(7)))
        operator = MixingOperator(w.toarray())
        assert isinstance(operator.matrix, sp.csr_array)
        assert operator.matrix.has_canonical_format
        np.testing.assert_array_equal(operator.toarray(), w.toarray())

    def test_shape_mismatch_rejected(self):
        op = MixingOperator(metropolis_hastings_weights(*_layout(nx.cycle_graph(6))))
        with pytest.raises(ValueError, match="stack of agent rows"):
            op.apply(np.zeros((5, 3)))

    def test_metadata(self):
        op = MixingOperator(metropolis_hastings_weights(*_layout(nx.cycle_graph(10))))
        assert op.num_agents == 10
        assert op.nnz == 30
        assert op.density == pytest.approx(0.3)


class TestSparseTopology:
    def test_spectral_properties_match_dense_eigensolve(self):
        graph = nx.erdos_renyi_graph(30, 0.2, seed=3)
        topology = Topology(metropolis_hastings_weights(*_layout(graph)))
        eigenvalues = np.linalg.eigvalsh(topology.mixing_matrix.toarray())
        expected = float(np.sort(np.abs(eigenvalues))[::-1][1])
        assert topology.rho == pytest.approx(expected**2, abs=1e-10)
        assert topology.spectral_gap == pytest.approx(1.0 - expected, abs=1e-10)

    def test_invalid_sparse_matrix_rejected(self):
        bad = sp.csr_array(np.eye(5) * 0.9)
        with pytest.raises(ValueError, match="stochastic"):
            Topology(bad)


class TestLargeGraphConstructors:
    def test_torus_is_4_regular(self):
        topology = torus_graph(8)
        assert topology.num_agents == 64
        assert topology.name == "torus"
        assert all(topology.degree(a) == 4 for a in range(64))
        assert isinstance(topology.mixing_matrix, sp.csr_array)

    def test_torus_rectangular_and_validation(self):
        assert torus_graph(3, 5).num_agents == 15
        with pytest.raises(ValueError):
            torus_graph(2)

    def test_random_regular_degree_and_connectivity(self):
        topology = random_regular_graph(64, degree=6, seed=1)
        assert topology.name == "random_regular"
        assert all(topology.degree(a) == 6 for a in range(64))
        assert topology.spectral_gap > 0.0
        with pytest.raises(ValueError):
            random_regular_graph(9, degree=3)  # odd product

    def test_small_world_shortcut_gap(self):
        ring = ring_graph(128)
        small_world = small_world_graph(128, nearest_neighbors=4, rewire_probability=0.2, seed=0)
        assert small_world.name == "small_world"
        # Shortcuts must mix strictly faster than the plain ring.
        assert small_world.spectral_gap > ring.spectral_gap

    def test_hypercube_structure(self):
        topology = hypercube_graph(6)
        assert topology.num_agents == 64
        assert topology.name == "hypercube"
        assert all(topology.degree(a) == 6 for a in range(64))
        for i, j in topology.edges():
            assert bin(i ^ j).count("1") == 1

    def test_exponential_degree_is_logarithmic(self):
        topology = exponential_graph(64)
        assert topology.name == "exponential"
        # Neighbours at hops 1, 2, 4, ..., 32 in both directions; the +/-32
        # hops coincide, giving 11 distinct neighbours.
        assert topology.degree(0) == 11
        assert topology.spectral_gap > ring_graph(64).spectral_gap

    def test_all_constructors_validate(self):
        for topology in [
            torus_graph(4),
            random_regular_graph(16, 4),
            small_world_graph(16),
            hypercube_graph(4),
            exponential_graph(16),
        ]:
            validate_mixing_matrix(topology.mixing_matrix)
            assert connected_components(topology.mixing_matrix > 0.0)[0] == 1
