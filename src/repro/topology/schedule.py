"""Time-varying communication topologies: schedules, churn and stragglers.

The algorithms in :mod:`repro.core` were originally analysed on one fixed
graph, but real decentralized fleets rewire, lose agents and straggle.  A
:class:`TopologySchedule` turns the topology from a constructor-time constant
into a *per-round provider*: the engine asks ``schedule.topology_at(t)`` /
``schedule.operator_at(t)`` at the start of round ``t`` (0-based) and mixes
with whatever graph the schedule prescribes for that round.

Every per-round snapshot is a full ``Topology`` on all ``N`` constructed
agents.  Agents that are inactive for the round (departed through churn, or
masked as stragglers) appear as **isolated nodes whose mixing row is the
identity** (``w_ii = 1``): gossip leaves their parameters untouched, they
have no neighbours (so nobody sends to or receives from them), and the
Metropolis–Hastings weights of the surviving subgraph renormalise the
remaining agents' rows — the snapshot matrix therefore stays symmetric and
doubly stochastic, so one round of dynamic gossip still preserves the
average over *active* agents and Assumption 3's structure holds row by row.

Four dynamic mechanisms are provided, freely composable through
:class:`DynamicTopologySchedule` (or its convenience constructors):

* **periodic rewiring** — every ``rewire_every`` rounds the base graph's
  node labels are re-permuted with a fresh seed (epoch 0 keeps the base
  graph verbatim), preserving the degree structure and connectivity while
  changing who talks to whom;
* **edge failure / recovery** — a per-edge Markov chain: each up edge fails
  with probability ``edge_failure_rate`` per round, each failed edge
  recovers with probability ``edge_recovery_rate`` (one uniform draw per
  edge per round, in the epoch's edge order — the base's
  :meth:`~repro.topology.graphs.Topology.edges`, relabelled);
* **agent churn** — each active agent leaves with probability
  ``churn_rate`` per round and each departed agent rejoins with probability
  ``rejoin_rate`` (``min_active`` is a participation floor: neither churn
  nor the straggler draw takes a round below it);
* **straggler masks** — each round, ``floor(straggler_fraction * active)``
  of the active agents are sampled as stragglers: too slow to contribute,
  they are zeroed out of the round's mixing exactly like departed agents,
  but only for that one round.

The base topology's weighting scheme is preserved wherever a weighting
exists to preserve: a round with no deviation at all (epoch 0, no failed
edges, everyone active) reuses the base ``Topology`` object itself, and a
*pure rewire* — a node relabelling — permutes the base mixing matrix
(``w'_{perm(u), perm(v)} = w_{uv}``), so custom or uniform-neighbour
weights survive epoch changes verbatim.  Only rounds that actually lose
agents or edges rebuild the surviving subgraph's weights with
Metropolis–Hastings (the scheme that stays symmetric and doubly stochastic
for any subgraph).  A snapshot is only its mixing matrix: the surviving
subgraph is the epoch's ``(E, 2)`` edge array with failed edges and edges
touching an inactive agent filtered out, and no graph object is built.

Snapshots are built lazily and memoised in an LRU cache keyed by the round's
*structure* (rewire epoch, failed edges, active mask), so a schedule that
holds the graph constant for 50 rounds pays Metropolis–Hastings construction
and validation once, not 50 times — and the per-round
:class:`~repro.topology.mixing.MixingOperator` rides on each cached
``Topology``'s own operator cache.

Round-state evolution is deterministic in the schedule's seed: each round's
draws come from a ``(seed, round)``-derived generator, so the churn/failure
Markov chain is a pure function of the previous state and any state can be
recomputed exactly.  A schedule shared by several algorithm instances — as
:func:`repro.experiments.harness.run_comparison` does — therefore serves
every instance the identical sequence of graphs, and memory stays bounded
over arbitrarily long runs (a small LRU of recent states plus sparse
permanent checkpoints, rather than one retained state per round).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.topology.graphs import Topology
from repro.topology.mixing import MixingOperator, metropolis_hastings_weights

__all__ = [
    "TopologyEvent",
    "TopologySchedule",
    "StaticSchedule",
    "DynamicTopologySchedule",
    "ShiftOneSchedule",
    "periodic_rewiring_schedule",
    "edge_failure_schedule",
    "churn_schedule",
    "straggler_schedule",
    "schedule_from_dynamics",
    "validate_dynamics",
    "DYNAMICS_KEYS",
]

Edge = Tuple[int, int]

#: The failed-edge indices of a round with no failed edge.
_NO_EDGES = np.zeros(0, dtype=np.intp)


@dataclass(frozen=True)
class TopologyEvent:
    """One discrete change the schedule applied at the start of a round.

    ``kind`` is one of ``"rewire"``, ``"edge_failure"``, ``"edge_recovery"``,
    ``"leave"``, ``"join"``, ``"straggle"``; ``detail`` carries the affected
    epoch / edge / agents.  ``round`` is the schedule's 0-based round index
    (the engine's ``round_index``); the runner renumbers to the 1-based
    round numbering of :class:`~repro.simulation.metrics.RoundRecord` when
    it stores events in the training history.
    """

    round: int
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for :class:`~repro.simulation.metrics.RoundRecord`."""
        return {"round": self.round, "kind": self.kind, **self.detail}


class TopologySchedule:
    """Per-round provider of communication topologies (base class).

    Subclasses implement :meth:`_key_at` (a hashable signature of round
    ``t``'s graph structure), :meth:`_build` (construct the ``Topology`` for
    a signature), :meth:`active_mask_at` and :meth:`events_at`; this base
    class supplies the LRU snapshot cache and the operator accessor.
    """

    #: True only for :class:`StaticSchedule`; lets the engine skip all
    #: per-round schedule work on the (bit-identical) legacy path.
    is_static: bool = False

    def __init__(self, base: Topology, cache_size: int = 32) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.base = base
        self.cache_size = int(cache_size)
        self._snapshots: "OrderedDict[Hashable, Topology]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    @property
    def num_agents(self) -> int:
        """Number of constructed agents (constant: snapshots cover all ``N``)."""
        return self.base.num_agents

    # -- subclass interface --------------------------------------------
    def _key_at(self, round_index: int) -> Hashable:
        raise NotImplementedError

    def _build(self, key: Hashable) -> Topology:
        raise NotImplementedError

    def active_mask_at(self, round_index: int) -> np.ndarray:
        """Boolean ``(N,)`` mask of agents that participate in the round."""
        raise NotImplementedError

    def events_at(self, round_index: int) -> List[TopologyEvent]:
        """The discrete changes applied at the start of the round."""
        raise NotImplementedError

    # -- shared accessors ----------------------------------------------
    def topology_at(self, round_index: int) -> Topology:
        """The (cached) ``N``-agent topology snapshot for round ``round_index``."""
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        key = self._key_at(round_index)
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            self._hits += 1
            self._snapshots.move_to_end(key)
            return snapshot
        self._misses += 1
        snapshot = self._build(key)
        self._snapshots[key] = snapshot
        while len(self._snapshots) > self.cache_size:
            self._snapshots.popitem(last=False)
        return snapshot

    def operator_at(self, round_index: int) -> MixingOperator:
        """Round ``round_index``'s mixing matrix wrapped for the gossip engine.

        Operators are cached per snapshot, so repeated graphs pay
        construction once.
        """
        return self.topology_at(round_index).mixing_operator()

    def cache_info(self) -> Dict[str, int]:
        """Snapshot-cache statistics (used by the micro-benchmarks and tests)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._snapshots),
            "capacity": self.cache_size,
        }

    def describe(self) -> Dict[str, object]:
        """Serialisable summary for experiment metadata."""
        return {"kind": type(self).__name__, "base": self.base.name}


class StaticSchedule(TopologySchedule):
    """The backward-compatible wrapper: one fixed graph, every agent active.

    ``topology_at``/``operator_at`` return the *same objects* the engine
    would have used before schedules existed, so a run constructed with a
    static schedule is bit-identical to one constructed with the bare
    ``Topology``.
    """

    is_static = True

    def __init__(self, base: Topology) -> None:
        super().__init__(base, cache_size=1)
        self._all_active = np.ones(base.num_agents, dtype=bool)

    def topology_at(self, round_index: int) -> Topology:
        return self.base

    def operator_at(self, round_index: int) -> MixingOperator:
        return self.base.mixing_operator()

    def active_mask_at(self, round_index: int) -> np.ndarray:
        return self._all_active

    def events_at(self, round_index: int) -> List[TopologyEvent]:
        return []


@dataclass
class _RoundState:
    """Materialised dynamics for one round (memoised in round order)."""

    epoch: int
    failed_edges: np.ndarray  # sorted indices into the epoch's edge array
    member_mask: np.ndarray  # churn state: True = agent is in the fleet
    straggler_mask: np.ndarray  # True = active member too slow this round
    events: List[TopologyEvent]
    active_mask: np.ndarray = field(init=False)  # member & not straggling
    key: Hashable = field(init=False)  # snapshot-cache signature

    def __post_init__(self) -> None:
        self.active_mask = self.member_mask & ~self.straggler_mask
        self.key = (
            self.epoch,
            self.failed_edges.tobytes(),
            self.active_mask.tobytes(),
        )


class DynamicTopologySchedule(TopologySchedule):
    """The workhorse schedule: rewiring, edge failures, churn and stragglers.

    All four mechanisms compose; disable any of them by leaving its rate at
    the default.  ``seed`` makes the whole trajectory of graphs
    deterministic.  See the module docstring for the semantics of each
    mechanism and of inactive agents.
    """

    def __init__(
        self,
        base: Topology,
        rewire_every: Optional[int] = None,
        edge_failure_rate: float = 0.0,
        edge_recovery_rate: float = 0.5,
        churn_rate: float = 0.0,
        rejoin_rate: float = 0.5,
        straggler_fraction: float = 0.0,
        min_active: int = 1,
        seed: int = 0,
        cache_size: int = 32,
    ) -> None:
        super().__init__(base, cache_size=cache_size)
        _validate_dynamics_values(
            rewire_every=rewire_every,
            edge_failure_rate=edge_failure_rate,
            edge_recovery_rate=edge_recovery_rate,
            churn_rate=churn_rate,
            rejoin_rate=rejoin_rate,
            straggler_fraction=straggler_fraction,
            min_active=min_active,
        )
        if min_active > base.num_agents:
            raise ValueError("min_active must lie in [1, num_agents]")
        self.rewire_every = rewire_every
        self.edge_failure_rate = float(edge_failure_rate)
        self.edge_recovery_rate = float(edge_recovery_rate)
        self.churn_rate = float(churn_rate)
        self.rejoin_rate = float(rejoin_rate)
        self.straggler_fraction = float(straggler_fraction)
        self.min_active = int(min_active)
        self.seed = int(seed)
        self._base_edges = base.edges()
        # Round ``t``'s randomness comes from a generator derived from
        # ``(seed, t)``, so the Markov transition ``state_{t-1} -> state_t``
        # is a pure function and any round's state can be recomputed from
        # any earlier one.  That keeps memory bounded over arbitrarily long
        # runs: a small LRU of recent states serves the engine's sequential
        # access (and a second algorithm replaying the same schedule), and
        # sparse permanent checkpoints cap the recompute distance for
        # arbitrary access patterns.
        self._recent_states: "OrderedDict[int, _RoundState]" = OrderedDict()
        self._recent_capacity = 512
        self._checkpoints: Dict[int, _RoundState] = {}
        self._checkpoint_every = 256

    # -- epoch graphs ---------------------------------------------------
    def _epoch_of(self, round_index: int) -> int:
        if self.rewire_every is None:
            return 0
        return round_index // self.rewire_every

    def _permutation_for_epoch(self, epoch: int) -> np.ndarray:
        """Node-label permutation of the epoch (identity for epoch 0)."""
        if epoch == 0:
            return np.arange(self.num_agents)
        return np.random.default_rng([self.seed, 0x5EED, epoch]).permutation(
            self.num_agents
        )

    def _edges_for_epoch(self, epoch: int) -> np.ndarray:
        """The base edges ``(u, v)``, ``u < v``, under the epoch's label permutation.

        Row ``k`` is base edge ``k`` relabelled, so per-edge state (the
        failed-edge indices) addresses the same edge within an epoch.
        """
        if epoch == 0:
            return self._base_edges
        return np.sort(self._permutation_for_epoch(epoch)[self._base_edges], axis=1)

    # -- round-state chain ---------------------------------------------
    def _state_at(self, round_index: int) -> _RoundState:
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        state = self._recent_states.get(round_index)
        if state is not None:
            self._recent_states.move_to_end(round_index)
            return state
        state = self._checkpoints.get(round_index)
        if state is not None:
            return state
        # Recompute forward from the nearest memoised state at or below the
        # requested round (a permanent checkpoint, or a fresher LRU entry).
        anchor_round, anchor = -1, None
        checkpoint = (round_index // self._checkpoint_every) * self._checkpoint_every
        while checkpoint >= 0:
            if checkpoint in self._checkpoints:
                anchor_round, anchor = checkpoint, self._checkpoints[checkpoint]
                break
            checkpoint -= self._checkpoint_every
        for cached_round, cached in self._recent_states.items():
            if anchor_round < cached_round <= round_index:
                anchor_round, anchor = cached_round, cached
        for current_round in range(anchor_round + 1, round_index + 1):
            anchor = self._advance(current_round, anchor)
            self._remember(current_round, anchor)
        return anchor

    def _remember(self, round_index: int, state: _RoundState) -> None:
        if round_index % self._checkpoint_every == 0:
            self._checkpoints[round_index] = state
        self._recent_states[round_index] = state
        self._recent_states.move_to_end(round_index)
        while len(self._recent_states) > self._recent_capacity:
            self._recent_states.popitem(last=False)

    def _advance(
        self, round_index: int, previous: Optional[_RoundState]
    ) -> _RoundState:
        """Compute round ``round_index``'s state from its predecessor.

        A pure function of ``(previous, round_index)`` — the round's draws
        come from a ``(seed, round_index)``-derived generator — so states
        evicted from the caches can be recomputed exactly.
        """
        rng = np.random.default_rng([self.seed, 0xD1CE, round_index])
        n = self.num_agents
        events: List[TopologyEvent] = []
        if round_index == 0:
            epoch = 0
            failed = _NO_EDGES
            members = np.ones(n, dtype=bool)
        else:
            epoch = self._epoch_of(round_index)
            failed = previous.failed_edges
            members = previous.member_mask.copy()
            if epoch != previous.epoch:
                # A rewire replaces the graph wholesale; stale per-edge
                # failure state does not carry over to the new edge set.
                failed = _NO_EDGES
                events.append(
                    TopologyEvent(round_index, "rewire", {"epoch": epoch})
                )
            failed, edge_events = self._step_edges(round_index, epoch, failed, rng)
            events.extend(edge_events)
            members, churn_events = self._step_churn(round_index, members, rng)
            events.extend(churn_events)
        stragglers = self._draw_stragglers(round_index, members, rng)
        if stragglers.any():
            events.append(
                TopologyEvent(
                    round_index,
                    "straggle",
                    {"agents": [int(i) for i in np.flatnonzero(stragglers)]},
                )
            )
        return _RoundState(
            epoch=epoch,
            failed_edges=failed,
            member_mask=members,
            straggler_mask=stragglers,
            events=events,
        )

    def _step_edges(
        self,
        round_index: int,
        epoch: int,
        failed: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, List[TopologyEvent]]:
        """One Markov step of every edge: one uniform draw per edge, in edge order.

        A down edge recovers when its draw falls below ``edge_recovery_rate``,
        an up edge fails when it falls below ``edge_failure_rate``.
        """
        if self.edge_failure_rate == 0.0 and not failed.size:
            return failed, []
        edges = self._edges_for_epoch(epoch)
        draws = rng.random(len(edges))
        down = np.zeros(len(edges), dtype=bool)
        down[failed] = True
        flipped = np.where(
            down, draws < self.edge_recovery_rate, draws < self.edge_failure_rate
        )
        events = [
            TopologyEvent(
                round_index,
                "edge_recovery" if down[k] else "edge_failure",
                {"edge": edges[k].tolist()},
            )
            for k in np.flatnonzero(flipped)
        ]
        return np.flatnonzero(down ^ flipped), events

    def _step_churn(
        self, round_index: int, members: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, List[TopologyEvent]]:
        events: List[TopologyEvent] = []
        if self.churn_rate == 0.0 and members.all():
            return members, events
        draws = rng.random(self.num_agents)
        joined = (~members) & (draws < self.rejoin_rate)
        left = members & (draws < self.churn_rate)
        members = members & ~left | joined
        # Never let the fleet shrink below min_active: cancel this round's
        # departures (lowest agent id first) until the floor is met.
        if int(members.sum()) < self.min_active:
            for agent in np.flatnonzero(left):
                members[agent] = True
                left[agent] = False
                if int(members.sum()) >= self.min_active:
                    break
        for agent in np.flatnonzero(left):
            events.append(TopologyEvent(round_index, "leave", {"agent": int(agent)}))
        for agent in np.flatnonzero(joined):
            events.append(TopologyEvent(round_index, "join", {"agent": int(agent)}))
        return members, events

    def _draw_stragglers(
        self, round_index: int, members: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        stragglers = np.zeros(self.num_agents, dtype=bool)
        if self.straggler_fraction == 0.0:
            return stragglers
        active = np.flatnonzero(members)
        # min_active is a *participation* floor: the straggler draw never
        # masks the round below it, even when churn already sits at the
        # membership floor.
        count = min(
            int(self.straggler_fraction * len(active)),
            max(0, len(active) - self.min_active),
        )
        if count > 0:
            chosen = rng.choice(active, size=count, replace=False)
            stragglers[chosen] = True
        return stragglers

    # -- TopologySchedule interface -------------------------------------
    def _key_at(self, round_index: int) -> Hashable:
        return self._state_at(round_index).key

    def _build(self, key: Hashable) -> Topology:
        epoch, failed_bytes, mask_bytes = key
        failed = np.frombuffer(failed_bytes, dtype=_NO_EDGES.dtype)
        active = np.frombuffer(mask_bytes, dtype=bool)
        name = f"{self.base.name}+dynamic"
        if not failed.size and active.all():
            if epoch == 0:
                # The pristine snapshot *is* the base topology — same mixing
                # matrix (which need not be Metropolis–Hastings), so a
                # dynamic schedule's quiet rounds match the static run
                # exactly.
                return self.base
            # A pure rewire is a node relabelling, so the base's weighting
            # scheme survives verbatim: W' = P W P^T, i.e.
            # w'_{perm(u), perm(v)} = w_{uv}.  Only rounds that lose agents
            # or edges need the Metropolis–Hastings renormalisation below.
            perm = self._permutation_for_epoch(epoch)
            inverse = np.empty(self.num_agents, dtype=np.intp)
            inverse[perm] = np.arange(self.num_agents)
            mixing = self.base.mixing_matrix[inverse][:, inverse]
            return Topology(mixing, name=name, require_connected=False)
        edges = self._edges_for_epoch(epoch)
        kept = active[edges].all(axis=1)
        kept[failed] = False
        return Topology(
            metropolis_hastings_weights(self.num_agents, edges[kept]),
            name=name,
            require_connected=False,
        )

    def active_mask_at(self, round_index: int) -> np.ndarray:
        return self._state_at(round_index).active_mask

    def events_at(self, round_index: int) -> List[TopologyEvent]:
        return list(self._state_at(round_index).events)

    def describe(self) -> Dict[str, object]:
        return {
            "kind": type(self).__name__,
            "base": self.base.name,
            "rewire_every": self.rewire_every,
            "edge_failure_rate": self.edge_failure_rate,
            "edge_recovery_rate": self.edge_recovery_rate,
            "churn_rate": self.churn_rate,
            "rejoin_rate": self.rejoin_rate,
            "straggler_fraction": self.straggler_fraction,
            "min_active": self.min_active,
            "seed": self.seed,
        }


class ShiftOneSchedule(TopologySchedule):
    """Rotating perfect-matching gossip: one peer per agent per round.

    Implements the ``"shift_one"`` peer-selection mode of
    :class:`~repro.compression.config.CompressionConfig`, mirroring Bagua's
    low-precision decentralized algorithm: instead of exchanging with every
    topology neighbour, each agent pairs up with exactly one peer per round,
    and the pairing rotates so that over one period of ``N - 1`` rounds
    (``N`` rounds for odd fleets, where one agent sits each round out as the
    bye) every agent meets every other agent exactly once.  The round's
    mixing matrix is ``W = (I + P) / 2`` for the matching's permutation
    ``P`` — symmetric and doubly stochastic, with ``w_ii = 1`` for the bye
    agent.

    Pairings come from the round-robin tournament ("circle") construction
    and deliberately ignore the base graph's edge set — like Bagua, this
    mode assumes any pair of agents can reach each other.  Every agent is
    active in every round, so the mode composes with
    ``communication_interval`` but not with churn/straggler schedules.
    """

    def __init__(self, base: Topology, cache_size: Optional[int] = None) -> None:
        n_even = base.num_agents + (base.num_agents % 2)
        self._period = max(1, n_even - 1)
        if cache_size is None:
            # One period covers every distinct matching; cap the cache so a
            # huge fleet does not pin thousands of snapshots.
            cache_size = min(self._period, 128)
        super().__init__(base, cache_size=cache_size)
        self._n_even = n_even
        self._all_active = np.ones(base.num_agents, dtype=bool)

    @property
    def period(self) -> int:
        """Rounds until the pairing sequence repeats (``N - 1``, or ``N`` odd)."""
        return self._period

    def pairs_at(self, round_index: int) -> List[Edge]:
        """The round's matching as sorted ``(u, v)`` pairs (bye agent omitted).

        Circle method: agent 0 stays fixed while the others rotate one slot
        per round; pairing the rotated order front-to-back yields a perfect
        matching, and the ``period`` rotations enumerate all matchings of
        the round-robin tournament.  Odd fleets add a phantom agent whose
        partner gets the bye.
        """
        n = self._n_even
        rotation = int(round_index) % self._period
        others = list(range(1, n))
        rotated = others[rotation:] + others[:rotation]
        order = [0] + rotated
        pairs: List[Edge] = []
        for i in range(n // 2):
            u, v = order[i], order[n - 1 - i]
            if u < self.num_agents and v < self.num_agents:
                pairs.append((min(u, v), max(u, v)))
        return pairs

    def _key_at(self, round_index: int) -> Hashable:
        return int(round_index) % self._period

    def _build(self, key: Hashable) -> Topology:
        pairs = self.pairs_at(int(key))
        # W = (I + P) / 2 for the matching's permutation P, assembled
        # edge-wise; the bye agent is its own partner, so its two diagonal
        # halves sum to 1.
        n = self.num_agents
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        partner = np.arange(n)
        partner[ends[:, 0]], partner[ends[:, 1]] = ends[:, 1], ends[:, 0]
        agents = np.arange(n)
        mixing = sp.coo_array(
            (np.full(2 * n, 0.5), (np.tile(agents, 2), np.concatenate([agents, partner]))),
            shape=(n, n),
        )
        return Topology(
            mixing, name=f"{self.base.name}+shift_one", require_connected=False
        )

    def active_mask_at(self, round_index: int) -> np.ndarray:
        return self._all_active

    def events_at(self, round_index: int) -> List[TopologyEvent]:
        return []

    def describe(self) -> Dict[str, object]:
        return {
            "kind": type(self).__name__,
            "base": self.base.name,
            "period": self._period,
        }


def periodic_rewiring_schedule(
    base: Topology, rewire_every: int, seed: int = 0, cache_size: int = 32
) -> DynamicTopologySchedule:
    """Re-permute the base graph's labels every ``rewire_every`` rounds."""
    return DynamicTopologySchedule(
        base, rewire_every=rewire_every, seed=seed, cache_size=cache_size
    )


def edge_failure_schedule(
    base: Topology,
    failure_rate: float,
    recovery_rate: float = 0.5,
    seed: int = 0,
    cache_size: int = 32,
) -> DynamicTopologySchedule:
    """Per-edge Markov failures: links go down and come back round to round."""
    return DynamicTopologySchedule(
        base,
        edge_failure_rate=failure_rate,
        edge_recovery_rate=recovery_rate,
        seed=seed,
        cache_size=cache_size,
    )


def churn_schedule(
    base: Topology,
    churn_rate: float,
    rejoin_rate: float = 0.5,
    min_active: int = 1,
    seed: int = 0,
    cache_size: int = 32,
) -> DynamicTopologySchedule:
    """Agents leave and rejoin the fleet round to round."""
    return DynamicTopologySchedule(
        base,
        churn_rate=churn_rate,
        rejoin_rate=rejoin_rate,
        min_active=min_active,
        seed=seed,
        cache_size=cache_size,
    )


def straggler_schedule(
    base: Topology, straggler_fraction: float, seed: int = 0, cache_size: int = 32
) -> DynamicTopologySchedule:
    """Mask a fresh fraction of the fleet out of the mixing every round."""
    return DynamicTopologySchedule(
        base, straggler_fraction=straggler_fraction, seed=seed, cache_size=cache_size
    )


#: Keys accepted in an :class:`~repro.experiments.specs.ExperimentSpec`
#: ``dynamics`` mapping (and by :func:`schedule_from_dynamics`).
DYNAMICS_KEYS = frozenset(
    {
        "rewire_every",
        "edge_failure_rate",
        "edge_recovery_rate",
        "churn_rate",
        "rejoin_rate",
        "straggler_fraction",
        "min_active",
        "seed",
    }
)


def _validate_dynamics_values(
    rewire_every: Optional[int] = None,
    edge_failure_rate: float = 0.0,
    edge_recovery_rate: float = 0.5,
    churn_rate: float = 0.0,
    rejoin_rate: float = 0.5,
    straggler_fraction: float = 0.0,
    min_active: int = 1,
    seed: int = 0,
) -> None:
    """Range checks shared by the constructor and :func:`validate_dynamics`.

    Everything except the base-dependent ``min_active <= num_agents`` bound,
    which only the constructor can check.
    """
    del seed  # any int is a valid seed; accepted so dict-splat works
    if rewire_every is not None and rewire_every < 1:
        raise ValueError("rewire_every must be a positive round count")
    for name, rate in (
        ("edge_failure_rate", edge_failure_rate),
        ("edge_recovery_rate", edge_recovery_rate),
        ("churn_rate", churn_rate),
        ("rejoin_rate", rejoin_rate),
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if not 0.0 <= straggler_fraction < 1.0:
        raise ValueError("straggler_fraction must lie in [0, 1)")
    if min_active < 1:
        raise ValueError("min_active must lie in [1, num_agents]")


def validate_dynamics(
    dynamics: Optional[Dict[str, object]], num_agents: Optional[int] = None
) -> None:
    """Raise ``ValueError`` unless the mapping is a valid dynamics declaration.

    Checks both the vocabulary (keys must come from :data:`DYNAMICS_KEYS`)
    and the value ranges — including ``min_active <= num_agents`` when the
    caller knows the fleet size — so an invalid declaration fails at spec
    construction instead of deep in the harness after data generation.  The
    single source of truth shared by
    :class:`~repro.experiments.specs.ExperimentSpec` and
    :func:`schedule_from_dynamics`.
    """
    if not dynamics:
        return
    unknown = sorted(set(dynamics) - DYNAMICS_KEYS)
    if unknown:
        raise ValueError(
            f"unknown dynamics keys: {unknown}; expected a subset of "
            f"{sorted(DYNAMICS_KEYS)}"
        )
    _validate_dynamics_values(**dynamics)
    min_active = dynamics.get("min_active")
    if num_agents is not None and min_active is not None and min_active > num_agents:
        raise ValueError("min_active must lie in [1, num_agents]")


def schedule_from_dynamics(
    base: Topology,
    dynamics: Optional[Dict[str, object]],
    seed: int = 0,
) -> TopologySchedule:
    """Build a schedule from a declarative dynamics mapping.

    ``dynamics`` uses the :data:`DYNAMICS_KEYS` vocabulary, e.g.
    ``{"rewire_every": 50, "churn_rate": 0.01, "straggler_fraction": 0.1}``;
    an empty or ``None`` mapping yields the backward-compatible
    :class:`StaticSchedule`.  ``seed`` is the default when the mapping does
    not carry its own ``"seed"`` entry.
    """
    if not dynamics:
        return StaticSchedule(base)
    validate_dynamics(dynamics)
    kwargs = dict(dynamics)
    rewire_every = kwargs.pop("rewire_every", None)
    kwargs.setdefault("seed", seed)
    return DynamicTopologySchedule(
        base,
        rewire_every=None if rewire_every is None else int(rewire_every),
        **kwargs,
    )
