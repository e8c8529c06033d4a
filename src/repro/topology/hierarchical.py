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
``sp.kron`` and keeps nothing beside it (the blow-up's edges are
``W_eff``'s positive off-diagonal entries), so a
:class:`HierarchicalTopology` plugs into the engine exactly like any
:class:`Topology` (and into a
:class:`~repro.topology.schedule.StaticSchedule` / the experiment harness
via ``topology="hierarchical"``).  Its ``directed_edge_split`` lets
:meth:`~repro.core.base.DecentralizedAlgorithm.record_fleet_exchange`
account intra-cluster and inter-cluster traffic under separate tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.topology.graphs import (
    Topology,
    _ring_edges,
    check_topology,
    default_cluster_size,
)
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
        every other positive off-diagonal entry of ``W_eff``.
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
        # Two clusters share one link and a single cluster has none.
        cluster_edges = _ring_edges(k) if k >= 3 else [[0, 1]][: k - 1]
        cluster_w = metropolis_hastings_weights(k, cluster_edges)
    elif cluster_topology == "fully_connected":
        cluster_w = np.full((k, k), 1.0 / k, dtype=np.float64)
    else:
        raise ValueError("cluster_topology must be 'ring' or 'fully_connected'")

    blow_up = np.full((c, c), 1.0 / c, dtype=np.float64)
    # Topology.__post_init__ re-validates: symmetric, doubly stochastic.
    return HierarchicalTopology(
        sp.kron(cluster_w, blow_up, format="csr"),
        name=f"hierarchical(c={c},{cluster_topology})",
        cluster_size=c,
    )
