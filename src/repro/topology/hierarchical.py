"""Hierarchical two-level gossip: intra-cluster averaging + inter-cluster mixing.

Production fleets are not flat: agents sit behind racks, cells or regions
with cheap local links and expensive cross-links.  Two-level gossip (the
``hierarchical`` flag of frameworks like Bagua) exploits this: each round,
agents first average *densely within their cluster* (cheap local traffic)
and the cluster aggregates then mix over a *sparse inter-cluster topology*
(few expensive hops).  For clusters of equal size ``c`` and a symmetric
doubly stochastic cluster-level matrix ``W_K`` on the ``K = N / c``
clusters, the effective fleet-level operator is the Kronecker blow-up

    ``W_eff = W_K  ⊗  (11^T / c)``,   i.e.  ``W_eff[i, j] = W_K[cluster(i), cluster(j)] / c``

which is symmetric and doubly stochastic whenever ``W_K`` is — and is
*validated* as such at construction, like every other mixing matrix in this
library.  Two implementations of the same operator live here:

* :class:`HierarchicalTopology` materialises ``W_eff`` as a CSR matrix, so
  it plugs into the engine exactly like any :class:`Topology` (and into a
  :class:`~repro.topology.schedule.StaticSchedule` / the experiment
  harness via ``topology="hierarchical"``), bit-identical under any
  storage format as usual.  Its ``directed_edge_split`` lets
  :meth:`~repro.core.base.DecentralizedAlgorithm.record_fleet_exchange`
  account intra-cluster and inter-cluster traffic under separate tags.
* :class:`TwoLevelMixingOperator` applies the operator in factored form —
  per-cluster means, ``W_K`` on the ``(K, d)`` means, broadcast back — in
  O(N d + nnz(W_K) d) time and O(K d) extra memory, never materialising
  ``W_eff`` (whose nnz grows as ``nnz(W_K) · c²``).  This is what the
  scaling sweep runs at fleet sizes where even storing ``W_eff`` is off the
  table.  The factored apply reassociates the sum (mean first, then mix),
  so it matches the materialised operator to floating-point tolerance, not
  bitwise — the hierarchical tests pin the agreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.topology.graphs import Topology
from repro.topology.mixing import (
    MixingMatrix,
    MixingOperator,
    metropolis_hastings_weights,
    validate_mixing_matrix,
)

__all__ = [
    "TwoLevelMixingOperator",
    "HierarchicalTopology",
    "hierarchical_graph",
    "default_cluster_size",
]


def default_cluster_size(num_agents: int) -> int:
    """The largest power of two ``<= sqrt(num_agents)`` that divides ``num_agents``.

    Balancing the two tiers: ``c ~ sqrt(N)`` equalises the intra-cluster
    fan-out (``c - 1`` local channels per agent) and the number of clusters
    the sparse upper tier must mix (``N / c``).
    """
    if num_agents < 4:
        raise ValueError("hierarchical gossip needs at least 4 agents")
    best = 2
    candidate = 2
    while candidate * candidate <= num_agents:
        if num_agents % candidate == 0:
            best = candidate
        candidate *= 2
    return best


class TwoLevelMixingOperator:
    """``W_K ⊗ (11^T / c)`` applied in factored form (never materialised).

    ``apply`` computes per-cluster means (the dense intra-cluster averaging
    step), mixes the ``(K, d)`` cluster aggregates with the sparse
    cluster-level operator, and broadcasts each mixed aggregate back to the
    cluster's members — algebraically identical to multiplying by the
    blown-up ``W_eff``, at O(N d + nnz(W_K) d) cost.  Float32 input stays
    float32 (the cluster operator's kernels are dtype-aware).

    ``effective_operator`` materialises ``W_eff`` as a CSR
    :class:`~repro.topology.mixing.MixingOperator` on demand — used by the
    validation tests and small-fleet comparisons; avoid it at scales where
    ``nnz(W_K) · c²`` entries no longer fit.
    """

    format = "two_level"

    def __init__(self, cluster_matrix: MixingMatrix, cluster_size: int) -> None:
        if cluster_size < 1:
            raise ValueError("cluster_size must be a positive integer")
        validate_mixing_matrix(cluster_matrix)
        self.cluster_operator = MixingOperator(cluster_matrix)
        self.cluster_size = int(cluster_size)
        self.num_clusters = self.cluster_operator.num_agents
        self._effective: Optional[MixingOperator] = None

    @property
    def num_agents(self) -> int:
        return self.num_clusters * self.cluster_size

    @property
    def nnz(self) -> int:
        """Stored nonzeros of the *materialised* effective matrix."""
        return self.cluster_operator.nnz * self.cluster_size * self.cluster_size

    def effective_matrix(self) -> sp.csr_array:
        """The blown-up ``W_eff`` as CSR (``nnz(W_K) · c²`` stored entries)."""
        c = self.cluster_size
        blow_up = np.full((c, c), 1.0 / c, dtype=np.float64)
        cluster = self.cluster_operator.matrix
        if not sp.issparse(cluster):
            cluster = sp.csr_array(cluster)
        effective = sp.csr_array(sp.kron(cluster, blow_up, format="csr"))
        effective.sum_duplicates()
        effective.sort_indices()
        return effective

    def effective_operator(self) -> MixingOperator:
        """``W_eff`` wrapped as a standard (exact, bit-stable) operator."""
        if self._effective is None:
            self._effective = MixingOperator(self.effective_matrix())
        return self._effective

    def apply(self, rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One two-level gossip step: cluster means → ``W_K`` → broadcast."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != self.num_agents:
            raise ValueError(
                f"expected a ({self.num_agents}, d) stack of agent rows, "
                f"got shape {rows.shape}"
            )
        k, c = self.num_clusters, self.cluster_size
        means = rows.reshape(k, c, rows.shape[1]).mean(axis=1)
        mixed = self.cluster_operator.apply(means)
        if out is None:
            return np.repeat(mixed, c, axis=0)
        if out.shape != rows.shape:
            raise ValueError(f"out buffer has shape {out.shape}, expected {rows.shape}")
        for start in range(0, self.num_agents, c):
            out[start : start + c] = mixed[start // c]
        return out

    def mix_rows_blocked(
        self,
        rows: np.ndarray,
        block_rows: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Blocked-output variant of :meth:`apply` (same factored math).

        The cluster aggregates are tiny (``(K, d)``), so blocking only
        matters for the broadcast-back stage; results are identical to
        :meth:`apply`.
        """
        del block_rows  # the (K, d) aggregate stage has nothing to block
        if out is None:
            return self.apply(rows)
        return self.apply(rows, out=out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TwoLevelMixingOperator(num_clusters={self.num_clusters}, "
            f"cluster_size={self.cluster_size})"
        )


@dataclass
class HierarchicalTopology(Topology):
    """A :class:`Topology` whose mixing matrix is the two-level blow-up.

    Behaves exactly like any topology (the engine applies the materialised
    ``W_eff`` with the standard bit-stable kernels), plus hierarchy metadata: ``cluster_size``,
    ``num_clusters``, the intra/inter directed-channel split used for
    two-tier traffic accounting, and :meth:`two_level_operator` for the
    factored O(N d) fast path.
    """

    cluster_size: int = 1
    cluster_matrix: Optional[MixingMatrix] = None

    @property
    def num_clusters(self) -> int:
        return self.num_agents // self.cluster_size

    @property
    def directed_edge_split(self) -> Tuple[int, int]:
        """``(intra, inter)`` directed channel counts for traffic accounting.

        Intra-cluster: every ordered pair within a cluster —
        ``N · (c - 1)`` channels over cheap local links.  Inter-cluster:
        everything else in the blow-up graph.
        """
        intra = self.num_agents * (self.cluster_size - 1)
        return intra, self.num_directed_edges - intra

    def two_level_operator(self) -> TwoLevelMixingOperator:
        """The factored fast-path operator (see :class:`TwoLevelMixingOperator`)."""
        assert self.cluster_matrix is not None
        return TwoLevelMixingOperator(self.cluster_matrix, self.cluster_size)


def hierarchical_graph(
    num_agents: int,
    cluster_size: Optional[int] = None,
    cluster_topology: str = "ring",
) -> HierarchicalTopology:
    """Two-level topology: dense clusters of ``cluster_size`` over a sparse core.

    Agents ``[k·c, (k+1)·c)`` form cluster ``k``; clusters are arranged on a
    ``cluster_topology`` graph (``"ring"`` or ``"fully_connected"``) with
    Metropolis–Hastings weights ``W_K``, and the fleet-level mixing matrix
    is the validated doubly stochastic blow-up ``W_K ⊗ (11^T / c)``.
    ``cluster_size`` must divide ``num_agents``; ``None`` picks
    :func:`default_cluster_size`.
    """
    if num_agents < 4:
        raise ValueError("hierarchical gossip needs at least 4 agents")
    c = default_cluster_size(num_agents) if cluster_size is None else int(cluster_size)
    if c < 1 or num_agents % c != 0:
        raise ValueError(
            f"cluster_size must be a positive divisor of num_agents, got {c} "
            f"for {num_agents} agents"
        )
    k = num_agents // c
    if k < 1:
        raise ValueError("need at least one cluster")
    if cluster_topology == "ring":
        if k >= 3:
            cluster_graph = nx.cycle_graph(k)
        elif k == 2:
            cluster_graph = nx.path_graph(2)
        else:
            cluster_graph = nx.Graph()
            cluster_graph.add_node(0)
        cluster_w = metropolis_hastings_weights(cluster_graph, sparse=k >= 3)
    elif cluster_topology == "fully_connected":
        cluster_graph = nx.complete_graph(k) if k > 1 else nx.Graph()
        if k == 1:
            cluster_graph.add_node(0)
        cluster_w = np.full((k, k), 1.0 / k, dtype=np.float64)
    else:
        raise ValueError("cluster_topology must be 'ring' or 'fully_connected'")

    # Blow-up graph: a clique inside each cluster, complete bipartite links
    # between adjacent clusters — the support of W_eff off the diagonal.
    graph = nx.Graph()
    graph.add_nodes_from(range(num_agents))
    for cluster in range(k):
        members = range(cluster * c, (cluster + 1) * c)
        graph.add_edges_from(itertools.combinations(members, 2))
    for a, b in cluster_graph.edges():
        graph.add_edges_from(
            (u, v)
            for u in range(a * c, (a + 1) * c)
            for v in range(b * c, (b + 1) * c)
        )

    operator = TwoLevelMixingOperator(cluster_w, c)
    effective = operator.effective_matrix()
    # Topology.__post_init__ re-validates: symmetric, doubly stochastic.
    return HierarchicalTopology(
        graph=graph,
        mixing_matrix=effective,
        name=f"hierarchical(c={c},{cluster_topology})",
        cluster_size=c,
        cluster_matrix=cluster_w,
    )
