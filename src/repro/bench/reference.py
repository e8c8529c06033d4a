"""Per-agent reference rounds for DP-DPSGD and PDSL.

:class:`~repro.core.base.DecentralizedAlgorithm` runs every round as one
blocked pipeline: stacked gradient passes over row blocks, row-wise
clip + noise, and gossip as ``W @ X``.  This module runs the same rounds
the way Algorithm 1 reads: one agent at a time, one
``Model.loss_and_gradient`` call per gradient, and each agent's gossip as a
weighted sum over its neighbourhood.  It reads the algorithm's own keyed
streams at the same addresses, so its trajectory equals the pipeline's up
to floating-point associativity.

The tests use it as the pipeline's equivalence oracle, and the
``engine/round`` suite times it as the per-agent baseline.  It covers
static and dynamic topologies and ``communication_interval``; it does not
model gossip codecs or message drops.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.baselines.dp_dpsgd import DPDPSGD
from repro.core.base import DecentralizedAlgorithm
from repro.core.pdsl import PDSL
from repro.privacy.mechanisms import clip_by_l2_norm

__all__ = ["reference_round"]


def reference_round(algorithm: DecentralizedAlgorithm) -> None:
    """Run one round of ``algorithm`` (DP-DPSGD or PDSL) agent by agent, in place.

    Like :meth:`~repro.core.base.DecentralizedAlgorithm.run_round`, it
    advances the network round, updates the fleet state, accounts every
    message, records the round's privacy cost and counts the round.
    """
    if not algorithm.codec.is_identity or algorithm.network.drop_probability > 0.0:
        raise ValueError("the reference round models neither codecs nor message drops")
    if not isinstance(algorithm, (DPDPSGD, PDSL)):
        raise TypeError(f"no reference round for {type(algorithm).__name__}")
    round_index = algorithm.rounds_completed
    algorithm.network.advance_round()
    algorithm._begin_round(round_index)
    if isinstance(algorithm, PDSL):
        _pdsl_round(algorithm, round_index)
    else:
        _dpsgd_round(algorithm, round_index)
    if algorithm.config.epsilon is not None and algorithm.sigma > 0:
        algorithm.accountant.record(algorithm.config.epsilon, algorithm.config.delta)
    algorithm.rounds_completed += 1


def _batch(algorithm: DecentralizedAlgorithm, agent: int) -> Tuple[np.ndarray, np.ndarray]:
    """The agent's mini-batch of the round (its only batch draw, slot 0)."""
    batch_size = algorithm.config.batch_size
    agents = np.array([agent])
    words = algorithm.streams.row_words(
        "batch", algorithm.rounds_completed, agents, np.zeros(1, dtype=np.int64), batch_size
    )
    index, sizes = algorithm.flat_shards.sample(words, agents, batch_size)
    rows = index[0, : sizes[0]]
    return algorithm.flat_shards.inputs[rows], algorithm.flat_shards.labels[rows]


def _perturbed_gradient(
    algorithm: DecentralizedAlgorithm,
    agent: int,
    params: np.ndarray,
    batch: Tuple[np.ndarray, np.ndarray],
    slot: int,
) -> np.ndarray:
    """Agent's clipped gradient at ``params`` plus its ``slot``-th noise draw of the round."""
    _, gradient = algorithm.model.loss_and_gradient(batch[0], batch[1], params=params)
    clipped = clip_by_l2_norm(gradient, algorithm.config.clip_threshold)
    if algorithm.sigma == 0.0:
        return clipped
    noise = algorithm.streams.normal_rows(
        algorithm.rounds_completed, np.array([agent]), np.array([slot]), algorithm.dimension
    )
    return clipped + algorithm.sigma * noise[0]


def _gossip(
    algorithm: DecentralizedAlgorithm, tag: str, *rows: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Each agent sends ``rows`` to its neighbours and averages what it holds."""
    topology = algorithm.topology
    mixed = tuple(np.zeros_like(matrix) for matrix in rows)
    for agent in range(algorithm.num_agents):
        neighbors = topology.neighbors(agent, include_self=False)
        algorithm.network.record_bulk(tag, len(neighbors), len(rows) * algorithm.dimension)
        for j in topology.neighbors(agent, include_self=True):
            weight = topology.weight(agent, j)
            for out, matrix in zip(mixed, rows):
                out[agent] += weight * matrix[j]
    return mixed


def _dpsgd_round(algorithm: DPDPSGD, round_index: int) -> None:
    provisional = np.array(algorithm.state, dtype=np.float64)
    for agent in algorithm.active_agents:
        perturbed = _perturbed_gradient(
            algorithm, agent, algorithm.state[agent], _batch(algorithm, agent), slot=0
        )
        provisional[agent] -= algorithm.config.learning_rate * perturbed
    if algorithm.gossip_now(round_index):
        (provisional,) = _gossip(algorithm, "model", provisional)
    algorithm.state = provisional


def _pdsl_round(algorithm: PDSL, round_index: int) -> None:
    topology = algorithm.topology
    dimension = algorithm.dimension
    # Phase 1: local gradients; phase 2: every neighbour's model on the
    # agent's own batch, noised in owner order after the local gradient.
    own: Dict[int, np.ndarray] = {}
    cross: Dict[Tuple[int, int], np.ndarray] = {}
    for agent in algorithm.active_agents:
        batch = _batch(algorithm, agent)
        own[agent] = _perturbed_gradient(algorithm, agent, algorithm.state[agent], batch, 0)
        neighbors = topology.neighbors(agent, include_self=False)
        algorithm.network.record_bulk("model", len(neighbors), dimension)
        for slot, owner in enumerate(neighbors, start=1):
            cross[(agent, owner)] = _perturbed_gradient(
                algorithm, agent, algorithm.state[owner], batch, slot
            )
        algorithm.network.record_bulk("cross_grad", len(neighbors), dimension)
    # Phase 3: Shapley-weighted aggregation and the momentum step.
    momentum = np.array(algorithm.momentum_state, dtype=np.float64)
    params = np.array(algorithm.state, dtype=np.float64)
    for agent in algorithm.active_agents:
        returned = {
            j: cross[(j, agent)] for j in topology.neighbors(agent, include_self=False)
        }
        returned[agent] = own[agent]
        aggregated = algorithm._aggregate_returned(agent, returned)
        momentum[agent] = algorithm.config.momentum * momentum[agent] + aggregated
        params[agent] = params[agent] - algorithm.config.learning_rate * momentum[agent]
    # Phase 4: gossip averaging of momentum and model.
    if algorithm.gossip_now(round_index):
        momentum, params = _gossip(algorithm, "mix", momentum, params)
    algorithm.momentum_state = momentum
    algorithm.state = params
