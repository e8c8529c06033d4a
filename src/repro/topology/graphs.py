"""Graph topologies for decentralized learning.

A :class:`Topology` *is* its symmetric doubly stochastic mixing matrix
``W``: who talks to whom is fixed by ``W`` alone (``M_i = {j : w_{ij} > 0}``,
Sec. III-A), so the agent count, neighbour sets ``M_i`` *including self*,
degrees, edges, edge weights ``w_{ij}`` and the connectivity check are all
read from ``W``'s CSR.  No graph object is kept next to it.

``W`` is always stored as a ``scipy.sparse`` CSR matrix.  The deterministic
constructors build their edge arrays with NumPy and assemble ``W``
edge-wise, so a 100k-agent ring never materialises a 10^10-entry array; a
caller that passes an ndarray to :class:`Topology` gets it converted once,
entries preserved exactly.  Only the random families (Erdős–Rényi,
random-regular, small-world) import ``networkx``, to sample the same seeded
graphs, and hand over their edge arrays.
:meth:`Topology.mixing_operator` hands the gossip engine the cached
:class:`~repro.topology.mixing.MixingOperator` over that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.topology.mixing import (
    MixingOperator,
    as_csr,
    metropolis_hastings_weights,
    validate_mixing_matrix,
    second_largest_eigenvalue,
    spectral_gap,
)

__all__ = [
    "Topology",
    "TOPOLOGY_NAMES",
    "check_topology",
    "default_cluster_size",
    "fully_connected_graph",
    "ring_graph",
    "bipartite_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "small_world_graph",
    "hypercube_graph",
    "exponential_graph",
]


#: Every topology name an experiment spec may use, with the fewest agents
#: its constructor accepts.
_MIN_AGENTS = {
    "fully_connected": 2,
    "ring": 3,
    "bipartite": 2,
    "star": 2,
    "grid": 2,
    "torus": 9,
    "erdos_renyi": 2,
    "random_regular": 3,
    "small_world": 5,
    "hypercube": 2,
    "exponential": 2,
    "hierarchical": 4,
}

TOPOLOGY_NAMES = tuple(_MIN_AGENTS)


def default_cluster_size(num_agents: int) -> int:
    """The largest power of two ``<= sqrt(num_agents)`` that divides ``num_agents``.

    Balancing the two tiers of a hierarchical topology: ``c ~ sqrt(N)``
    equalises the intra-cluster fan-out (``c - 1`` local channels per agent)
    and the number of clusters the sparse upper tier must mix (``N / c``).
    Returns 2 when no such power divides ``num_agents`` (odd fleets), which
    :func:`check_topology` then rejects.
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


def check_topology(
    name: str, num_agents: int, cluster_size: Optional[int] = None
) -> None:
    """Raise ``ValueError`` unless topology ``name`` can be built on ``num_agents``.

    The size rules of the named constructors: a minimum fleet per topology,
    a square number of agents for ``"torus"``, a power of two for
    ``"hypercube"``, and for ``"hierarchical"`` a ``cluster_size`` (default
    :func:`default_cluster_size`) that divides ``num_agents``.  Experiment
    specs call this at parse time, so a bad spec fails before anything is
    built.
    """
    if name not in _MIN_AGENTS:
        raise ValueError(
            f"unknown topology {name!r}; expected one of {', '.join(TOPOLOGY_NAMES)}"
        )
    if num_agents < _MIN_AGENTS[name]:
        raise ValueError(
            f"{name} topology needs at least {_MIN_AGENTS[name]} agents, got {num_agents}"
        )
    if name == "torus" and math.isqrt(num_agents) ** 2 != num_agents:
        raise ValueError("torus topology needs a square number of agents")
    if name == "hypercube" and num_agents & (num_agents - 1):
        raise ValueError("hypercube topology needs a power-of-two number of agents")
    if name == "hierarchical":
        c = default_cluster_size(num_agents) if cluster_size is None else int(cluster_size)
        if c < 1 or num_agents % c:
            raise ValueError(
                f"cluster_size must be a positive divisor of num_agents, got {c} "
                f"for {num_agents} agents"
            )


@dataclass
class Topology:
    """A communication topology, held as its doubly stochastic mixing matrix.

    Attributes
    ----------
    mixing_matrix:
        Symmetric doubly stochastic ``(M, M)`` matrix ``W`` with
        ``w_{ij} > 0`` only for edges (and the diagonal), stored as
        canonical CSR (an ndarray argument is converted at construction).
        It is the topology's only representation: the edges are the
        positive off-diagonal entries.
    name:
        Human-readable topology name used in experiment reports.
    require_connected:
        Whether construction rejects a disconnected ``W``.  The default
        (``True``) matches Assumption 3; per-round snapshots produced by a
        :class:`~repro.topology.schedule.TopologySchedule` pass ``False``
        because churned-out agents appear as isolated nodes (their mixing
        row is the identity) and edge failures may split the active fleet
        for a round.
    """

    mixing_matrix: sp.csr_array
    name: str = "topology"
    require_connected: bool = True
    _row_cache: Dict[int, Dict[int, float]] = field(default_factory=dict, repr=False)
    _neighbor_cache: Dict[int, List[int]] = field(default_factory=dict, repr=False)
    _directed_pairs_cache: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    _operator: Optional[MixingOperator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        validate_mixing_matrix(self.mixing_matrix)
        self.mixing_matrix = as_csr(self.mixing_matrix)
        if self.require_connected and (
            connected_components(self.mixing_matrix > 0.0, directed=False)[0] > 1
        ):
            raise ValueError("communication graph must be connected")

    @property
    def num_agents(self) -> int:
        return int(self.mixing_matrix.shape[0])

    def mixing_operator(self) -> MixingOperator:
        """``W`` wrapped for the gossip engine (built once, then cached)."""
        if self._operator is None:
            self._operator = MixingOperator(self.mixing_matrix)
        return self._operator

    def _row(self, agent: int) -> Dict[int, float]:
        """The agent's stored mixing row as ``{j: w_agent_j}`` (cached per agent)."""
        row = self._row_cache.get(agent)
        if row is None:
            w = self.mixing_matrix
            start, stop = int(w.indptr[agent]), int(w.indptr[agent + 1])
            row = dict(zip(w.indices[start:stop].tolist(), w.data[start:stop].tolist()))
            self._row_cache[agent] = row
        return row

    def neighbors(self, agent: int, include_self: bool = True) -> List[int]:
        """The neighbour set ``M_i`` of an agent (including the agent itself by default).

        Neighbourhood membership follows the mixing matrix: ``j in M_i`` iff
        ``w_{ij} > 0``, matching the paper's definition.
        """
        members = self._neighbor_cache.get(agent)
        if members is None:
            row = self._row(agent)
            members = sorted({agent, *(j for j, w in row.items() if w > 0.0)})
            self._neighbor_cache[agent] = members
        if include_self:
            return list(members)
        return [j for j in members if j != agent]

    def weight(self, i: int, j: int) -> float:
        """Mixing weight ``w_{ij}`` (a lookup in agent ``i``'s cached row)."""
        row = self._row_cache.get(i)
        if row is None:
            row = self._row(i)
        return row.get(j, 0.0)

    def degree(self, agent: int) -> int:
        """Graph degree (number of neighbours excluding self)."""
        return len(self.neighbors(agent, include_self=False))

    @property
    def rho(self) -> float:
        """``rho`` from Assumption 3: ``max(|lambda_2|, |lambda_M|)^2 <= rho < 1``."""
        return float(second_largest_eigenvalue(self.mixing_matrix) ** 2)

    @property
    def spectral_gap(self) -> float:
        """``1 - sqrt(rho)``, the quantity appearing in the convergence bound."""
        return float(spectral_gap(self.mixing_matrix))

    def min_weight(self) -> float:
        """``omega_min``: the smallest positive mixing weight (Theorem 1)."""
        data = self.mixing_matrix.data
        positive = data[data > 0.0]
        return float(positive.min()) if positive.size else 0.0

    def edges(self) -> np.ndarray:
        """The undirected edges as an ``(E, 2)`` array of ``(i, j)``, ``i < j``.

        The strict upper triangle of ``W`` with ``w_{ij} > 0``, in row-major
        order.
        """
        w = self.mixing_matrix
        rows = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
        upper = (w.indices > rows) & (w.data > 0.0)
        return np.column_stack([rows[upper], w.indices[upper]])

    def directed_pairs(self) -> List[Tuple[int, int]]:
        """Every ordered pair ``(i, j)`` with ``j`` a neighbour of ``i`` (``j != i``).

        Sorted by ``(i, j)``, i.e. grouped by agent with neighbours ascending —
        the order in which each agent claims its cross-gradient noise slots.
        """
        if self._directed_pairs_cache is None:
            self._directed_pairs_cache = [
                (i, j)
                for i in range(self.num_agents)
                for j in self.neighbors(i, include_self=False)
            ]
        return list(self._directed_pairs_cache)

    @property
    def num_directed_edges(self) -> int:
        """Number of directed communication channels (twice the edge count).

        Counted straight off the mixing matrix — positive off-diagonal
        entries, the same ``w_{ij} > 0`` membership rule :meth:`neighbors`
        uses — without materialising the :meth:`directed_pairs` list, which
        at fleet scale costs one Python tuple per channel.
        """
        if self._directed_pairs_cache is not None:
            return len(self._directed_pairs_cache)
        w = self.mixing_matrix
        positive_diagonal = int(np.count_nonzero(w.diagonal() > 0.0))
        return int(np.count_nonzero(w.data > 0.0)) - positive_diagonal


def _from_edges(num_agents: int, edges, name: str) -> Topology:
    """The Metropolis–Hastings topology on ``num_agents`` agents and ``edges``."""
    return Topology(metropolis_hastings_weights(num_agents, edges), name=name)


def _ring_edges(num_agents: int) -> np.ndarray:
    """Edges ``(i, i + 1 mod M)`` of the cycle on ``num_agents >= 3`` agents."""
    agents = np.arange(num_agents)
    return np.column_stack([agents, (agents + 1) % num_agents])


def fully_connected_graph(num_agents: int) -> Topology:
    """Complete graph: every pair of agents communicates (dense topology).

    The mixing matrix is the uniform averaging matrix ``W = 11^T / M``, which
    is the natural doubly stochastic choice for a complete graph and has
    spectral gap 1.  Its CSR form stores all ``M^2`` entries.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    mixing = np.full((num_agents, num_agents), 1.0 / num_agents, dtype=np.float64)
    return Topology(mixing, name="fully_connected")


def ring_graph(num_agents: int) -> Topology:
    """Cycle topology: each agent talks to exactly two neighbours (sparse)."""
    if num_agents < 3:
        raise ValueError("a ring needs at least 3 agents")
    return _from_edges(num_agents, _ring_edges(num_agents), "ring")


def bipartite_graph(num_agents: int) -> Topology:
    """Complete bipartite topology splitting the agents into two halves.

    Agents ``0 .. ceil(M/2)-1`` form one side and the rest the other side;
    every cross-side pair is connected.  This is the "bipartite" sparser
    topology of the paper's evaluation.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    left = num_agents // 2 + num_agents % 2
    right = num_agents - left
    edges = np.column_stack(
        [np.repeat(np.arange(left), right), np.tile(np.arange(left, num_agents), left)]
    )
    return _from_edges(num_agents, edges, "bipartite")


def star_graph(num_agents: int) -> Topology:
    """Star topology: agent 0 is the hub (useful as a quasi-centralised ablation)."""
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    leaves = np.arange(1, num_agents)
    return _from_edges(num_agents, np.column_stack([np.zeros_like(leaves), leaves]), "star")


def grid_graph(rows: int, cols: int, periodic: bool = True) -> Topology:
    """2-D grid / torus topology with ``rows * cols`` agents.

    Agent ``r * cols + c`` sits at row ``r``, column ``c`` and links to its
    right and lower neighbours, wrapping around when ``periodic``.  A
    dimension shorter than 3 cannot wrap without doubling an edge, so such
    a grid falls back to the plain (non-periodic) grid.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("grid must contain at least 2 agents")
    periodic = periodic and rows >= 3 and cols >= 3
    index = np.arange(rows * cols).reshape(rows, cols)
    if periodic:
        pairs = [(index, np.roll(index, -1, axis=0)), (index, np.roll(index, -1, axis=1))]
    else:
        pairs = [(index[:-1], index[1:]), (index[:, :-1], index[:, 1:])]
    edges = np.concatenate([np.column_stack([a.ravel(), b.ravel()]) for a, b in pairs])
    return _from_edges(rows * cols, edges, "torus" if periodic else "grid")


def torus_graph(rows: int, cols: Optional[int] = None) -> Topology:
    """2-D torus: a periodic grid where every agent has exactly 4 neighbours.

    The constant degree keeps the per-agent communication cost flat as the
    fleet grows, while the wrap-around links roughly square the spectral gap
    of a ring with the same number of agents — the canonical scalable
    topology for large decentralized fleets.  ``cols`` defaults to ``rows``
    (a square torus).
    """
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs at least 3 agents per dimension")
    return grid_graph(rows, cols, periodic=True)


def erdos_renyi_graph(
    num_agents: int,
    edge_probability: float,
    seed: Optional[int] = 0,
    max_tries: int = 100,
) -> Topology:
    """Random G(n, p) topology, re-sampled until connected."""
    import networkx as nx

    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError("edge_probability must be in (0, 1]")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        graph = nx.erdos_renyi_graph(num_agents, edge_probability, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _from_edges(num_agents, np.asarray(graph.edges()), "erdos_renyi")
    raise RuntimeError(
        "failed to sample a connected Erdos-Renyi graph; increase edge_probability"
    )


def random_regular_graph(
    num_agents: int,
    degree: int = 4,
    seed: Optional[int] = 0,
    max_tries: int = 100,
) -> Topology:
    """Random ``k``-regular topology, re-sampled until connected.

    Every agent has exactly ``degree`` neighbours; random regular graphs are
    expanders with high probability, so the spectral gap stays bounded away
    from zero as the fleet grows — constant per-agent traffic with
    near-constant mixing time.
    """
    import networkx as nx

    if num_agents < 3:
        raise ValueError("need at least 3 agents")
    if degree < 2 or degree >= num_agents:
        raise ValueError("degree must lie in [2, num_agents)")
    if (num_agents * degree) % 2 != 0:
        raise ValueError("num_agents * degree must be even")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        graph = nx.random_regular_graph(degree, num_agents, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            return _from_edges(num_agents, np.asarray(graph.edges()), "random_regular")
    raise RuntimeError(
        "failed to sample a connected random regular graph; increase degree"
    )


def small_world_graph(
    num_agents: int,
    nearest_neighbors: int = 4,
    rewire_probability: float = 0.1,
    seed: Optional[int] = 0,
) -> Topology:
    """Watts–Strogatz small-world topology (connected variant).

    A ring lattice where each agent talks to its ``nearest_neighbors``
    closest agents, with each edge rewired to a random agent with probability
    ``rewire_probability``.  The shortcuts give logarithmic diameter — and a
    far larger spectral gap than a plain ring — at ring-like per-agent cost.
    """
    import networkx as nx

    if num_agents < 4:
        raise ValueError("need at least 4 agents")
    if not 2 <= nearest_neighbors < num_agents:
        raise ValueError("nearest_neighbors must lie in [2, num_agents)")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError("rewire_probability must lie in [0, 1]")
    graph = nx.connected_watts_strogatz_graph(
        num_agents, nearest_neighbors, rewire_probability, tries=100, seed=seed
    )
    return _from_edges(num_agents, np.asarray(graph.edges()), "small_world")


def hypercube_graph(dimension: int) -> Topology:
    """Hypercube topology on ``2**dimension`` agents.

    Agent ``i`` and agent ``j`` are connected iff their ids differ in exactly
    one bit, so every agent has ``dimension = log2(M)`` neighbours and the
    spectral gap decays only as ``O(1 / log M)`` — logarithmic traffic for
    near-dense mixing quality.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    agents = np.arange(2**dimension)
    partners = agents[:, None] ^ (1 << np.arange(dimension))
    edges = np.column_stack([np.repeat(agents, dimension), partners.ravel()])
    edges = edges[edges[:, 0] < edges[:, 1]]
    return _from_edges(len(agents), edges, "hypercube")


def exponential_graph(num_agents: int) -> Topology:
    """Exponential topology: agent ``i`` connects to ``(i ± 2^k) mod M``.

    Each agent has ``O(log M)`` neighbours at exponentially growing hop
    distances — the classic decentralized-SGD topology that combines
    logarithmic degree with a spectral gap far better than rings or grids of
    the same size.
    """
    if num_agents < 2:
        raise ValueError("need at least 2 agents")
    agents = np.arange(num_agents)
    hops = 1 << np.arange((num_agents - 1).bit_length())
    ends = np.column_stack(
        [np.tile(agents, len(hops)), ((agents + hops[:, None]) % num_agents).ravel()]
    )
    # Hops h and M - h reach the same pair from both ends; keep each edge once.
    return _from_edges(num_agents, np.unique(np.sort(ends, axis=1), axis=0), "exponential")
