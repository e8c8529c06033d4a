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
library.  :func:`hierarchical_graph` builds ``W_eff`` directly as CSR with
``sp.kron``, so a :class:`HierarchicalTopology` plugs into the engine
exactly like any :class:`Topology` (and into a
:class:`~repro.topology.schedule.StaticSchedule` / the experiment harness
via ``topology="hierarchical"``).  Its ``directed_edge_split`` lets
:meth:`~repro.core.base.DecentralizedAlgorithm.record_fleet_exchange`
account intra-cluster and inter-cluster traffic under separate tags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.topology.graphs import Topology, check_topology, default_cluster_size
from repro.topology.mixing import metropolis_hastings_weights

__all__ = [
    "HierarchicalTopology",
    "hierarchical_graph",
    "default_cluster_size",
]


@dataclass
class HierarchicalTopology(Topology):
    """A :class:`Topology` whose mixing matrix is the two-level blow-up.

    Behaves exactly like any topology (the engine applies ``W_eff`` with the
    one CSR kernel), plus hierarchy metadata: ``cluster_size``,
    ``num_clusters`` and the intra/inter directed-channel split used for
    two-tier traffic accounting.
    """

    cluster_size: int = 1

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
    check_topology("hierarchical", num_agents, cluster_size)
    c = default_cluster_size(num_agents) if cluster_size is None else int(cluster_size)
    k = num_agents // c
    if cluster_topology == "ring":
        if k >= 3:
            cluster_graph = nx.cycle_graph(k)
        elif k == 2:
            cluster_graph = nx.path_graph(2)
        else:
            cluster_graph = nx.Graph()
            cluster_graph.add_node(0)
        cluster_w = metropolis_hastings_weights(cluster_graph)
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

    blow_up = np.full((c, c), 1.0 / c, dtype=np.float64)
    # Topology.__post_init__ re-validates: symmetric, doubly stochastic.
    return HierarchicalTopology(
        graph=graph,
        mixing_matrix=sp.kron(cluster_w, blow_up, format="csr"),
        name=f"hierarchical(c={c},{cluster_topology})",
        cluster_size=c,
    )
