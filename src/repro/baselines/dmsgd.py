"""DMSGD: decentralized momentum SGD (non-private reference).

The momentum version of D-PSGD [Yu, Jin & Yang, ICML 2019]: each agent takes
a momentum step with its (optionally clipped / perturbed) local gradient and
then gossip-averages the model.  With ``sigma = 0`` this is the classic
non-private algorithm; with noise enabled it is a "DP but heterogeneity
oblivious with momentum" ablation point between DP-DPSGD and PDSL.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.base import DecentralizedAlgorithm

__all__ = ["DMSGD"]


class DMSGD(DecentralizedAlgorithm):
    """Decentralized momentum SGD with one gossip-averaging step per round."""

    name = "DMSGD"
    async_capable = True

    def _step_loop(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        alpha = self.config.momentum
        communicate = self.gossip_now(round_index)
        batches = self.draw_batches()

        provisional: List[np.ndarray] = []
        shared: List[np.ndarray] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                # Inactive agents take no step and their momentum does not
                # decay; the round topology's identity row keeps their model.
                provisional.append(self.params[agent].copy())
                shared.append(provisional[agent])
                continue
            gradient = self.local_gradient(agent, self.params[agent], batches[agent])
            perturbed = self.privatize(agent, gradient)
            self.momenta[agent] = alpha * self.momenta[agent] + perturbed
            provisional.append(self.params[agent] - gamma * self.momenta[agent])
            if communicate:
                shared.append(self.gossip_broadcast(agent, "model", provisional[agent]))

        if not communicate:
            # Off-interval round: purely local steps, nothing on the wire.
            self.params = provisional
            return

        new_params: List[np.ndarray] = []
        for agent in range(self.num_agents):
            received = self.gossip_receive(agent, "model")
            received[agent] = shared[agent]
            acc = np.zeros(self.dimension, dtype=np.float64)
            for j, value in received.items():
                acc += self.topology.weight(agent, j) * value
            new_params.append(acc)
        self.params = new_params

    def _step_vectorized(self, round_index: int) -> None:
        def provisional(start: int, stop: int):
            perturbed = self._block_perturbed_gradients(start, stop)
            momentum, params = self._momentum_rows(start, stop, perturbed)
            self.momentum_state[start:stop] = momentum
            return (params,)

        self._gossip_blocks(
            "model",
            provisional,
            (self.state,),
            self._dtype,
            communicate=self.gossip_now(round_index),
            serial=self._stacked is None,
        )
