"""MUFFLIATO: local Gaussian noise injection followed by multi-step gossiping.

Cyffers et al. (NeurIPS 2022) alternate a locally perturbed gradient step
with several rounds of gossip averaging; the repeated gossip amplifies
privacy because each individual contribution gets diluted across the graph
before anyone can inspect it.  As in the paper's evaluation it does not model
data heterogeneity explicitly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import MuffliatoConfig

__all__ = ["Muffliato"]


class Muffliato(DecentralizedAlgorithm):
    """Perturbed local step + ``gossip_steps`` rounds of model averaging."""

    name = "MUFFLIATO"

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, MuffliatoConfig):
            raise TypeError("Muffliato requires a MuffliatoConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: MuffliatoConfig = config

    def _one_gossip_exchange(self, vectors: List[np.ndarray], tag: str) -> List[np.ndarray]:
        """A single gossip round executed through the message-passing network."""
        shared: List[np.ndarray] = [
            self.gossip_broadcast(agent, tag, vectors[agent])
            for agent in range(self.num_agents)
        ]
        mixed: List[np.ndarray] = []
        for agent in range(self.num_agents):
            received = self.gossip_receive(agent, tag)
            received[agent] = shared[agent]
            acc = np.zeros(self.dimension, dtype=np.float64)
            for j, value in received.items():
                acc += self.topology.weight(agent, j) * value
            mixed.append(acc)
        return mixed

    def _step_loop(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        batches = self.draw_batches()

        # Local gradient step with clipped + noised gradient.  Inactive
        # agents take no step; the gossip exchanges below leave them
        # untouched because the round topology gives them no neighbours and
        # an identity mixing row.
        updated: List[np.ndarray] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                updated.append(self.params[agent].copy())
                continue
            gradient = self.local_gradient(agent, self.params[agent], batches[agent])
            perturbed = self.privatize(agent, gradient)
            updated.append(self.params[agent] - gamma * perturbed)

        # Multiple gossip steps for privacy amplification / better consensus.
        # Off-interval rounds skip the whole gossip cascade: the perturbed
        # local step stands alone until the next communication round.
        if self.gossip_now(round_index):
            for gossip_round in range(self.config.gossip_steps):
                updated = self._one_gossip_exchange(updated, tag=f"gossip_{gossip_round}")

        self.params = updated

    def _step_vectorized(self, round_index: int) -> None:
        # The perturbed local step is float64 and the gossip cascade mixes
        # it between two float64 fleet scratches; only the last step writes
        # (rounded) into state.  Inactive rows are exactly zero in the
        # perturbed gradients and have identity mixing rows, so they ride
        # through the step and gossip unchanged.
        gamma = self.config.learning_rate
        source: Optional[np.ndarray] = None  # the previous gossip step's output

        def produce(start: int, stop: int):
            if source is not None:
                return (source[start:stop],)
            perturbed = self._block_perturbed_gradients(start, stop)
            return (self.state[start:stop] - gamma * perturbed,)

        serial = self._stacked is None
        if not self.gossip_now(round_index):
            # Off-interval round: the local step stands alone.
            self._gossip_blocks(
                "gossip_0",
                produce,
                (self.state,),
                np.float64,
                communicate=False,
                serial=serial,
            )
            return
        steps = self.config.gossip_steps
        for gossip_round in range(steps):
            target = (
                self.state
                if gossip_round == steps - 1
                else self._round_scratch(f"muffliato.{gossip_round % 2}", np.float64)
            )
            self._gossip_blocks(
                f"gossip_{gossip_round}",
                produce,
                (target,),
                np.float64,
                serial=serial and source is None,
            )
            source = target
