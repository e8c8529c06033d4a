"""PDSL — Privacy-preserved Decentralized Stochastic Learning (Algorithm 1).

One round proceeds in four message-passing phases, matching the pseudo-code
line by line:

1. **Local gradient + model broadcast** (lines 2–5): each agent computes its
   local stochastic gradient on a fresh mini-batch, clips it, perturbs it with
   Gaussian noise, and broadcasts its current model to its neighbours.
2. **Cross-gradients** (lines 6–12): on receiving a neighbour's model, the
   agent evaluates the gradient of that model on its *own* mini-batch (the
   cross-gradient, eq. 12), clips, perturbs, and sends it back to the model's
   owner.
3. **Shapley-weighted aggregation + momentum update** (lines 13–21): the agent
   forms one candidate update per neighbour from the returned perturbed
   gradients (eq. 15), scores coalitions of candidates on the shared
   validation set (eq. 16–17), computes (Monte-Carlo) Shapley values
   (Algorithm 2), normalises them (eq. 19), builds aggregation weights
   (eq. 20), takes the weighted gradient average (eq. 21) and performs the
   momentum update (eqs. 22–23).  It then broadcasts its provisional momentum
   and model.
4. **Gossip averaging** (lines 22–24): momentum buffers and models are mixed
   with the doubly stochastic matrix ``W`` (eqs. 24–25).

The round pipeline computes all local gradients and all per-edge
cross-gradients with stacked forward/backward passes and performs phase 4
as two ``W @ X`` multiplies.  Phase 3's Shapley games run one agent at a
time today, each from its own per-``(agent, round)`` generator, so they
could equally be planned up front and scored in bulk.  Under fault
injection an agent aggregates only the cross-gradients that reached it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.characteristic import make_update_characteristic
from repro.core.config import PDSLConfig
from repro.data.dataset import Dataset
from repro.game.cooperative import CooperativeGame
from repro.game.shapley import (
    exact_shapley,
    monte_carlo_shapley,
    normalize_shapley,
    shapley_aggregation_weights,
)
from repro.nn.model import Model
from repro.topology.graphs import Topology

__all__ = ["PDSL"]


class PDSL(DecentralizedAlgorithm):
    """The paper's algorithm: Shapley-weighted, differentially private decentralized SGD."""

    name = "PDSL"
    # Gossip carries a (momentum, model) pair per message.
    num_gossip_channels = 2

    def __init__(
        self,
        model: Model,
        topology: Topology,
        shards: Sequence[Dataset],
        config: PDSLConfig,
        validation: Dataset,
    ) -> None:
        if validation is None or len(validation) == 0:
            raise ValueError("PDSL requires a non-empty shared validation dataset Q")
        if not isinstance(config, PDSLConfig):
            raise TypeError("PDSL requires a PDSLConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: PDSLConfig = config
        # Diagnostics: the most recent Shapley values and aggregation weights
        # per agent, exposed for tests and the ablation experiments.
        self.last_shapley: List[Dict[int, float]] = [{} for _ in range(self.num_agents)]
        self.last_weights: List[Dict[int, float]] = [{} for _ in range(self.num_agents)]

    def _extra_state(self, copy: bool = True) -> Dict[str, object]:
        # The Shapley diagnostics do not influence the trajectory (the
        # permutation streams are addressed by (agent, round), see
        # agent_rng), but a resumed run should report the same "most recent
        # weights" an uninterrupted one would.  The per-agent dicts are
        # small, so ``copy`` has no out-of-core significance here.
        return {
            "last_shapley": [dict(entry) for entry in self.last_shapley],
            "last_weights": [dict(entry) for entry in self.last_weights],
        }

    def _load_extra_state(self, payload: Dict[str, object]) -> None:
        self.last_shapley = [
            {int(k): float(v) for k, v in entry.items()}
            for entry in payload["last_shapley"]
        ]
        self.last_weights = [
            {int(k): float(v) for k, v in entry.items()}
            for entry in payload["last_weights"]
        ]

    # ------------------------------------------------------------------
    # Shapley helpers
    # ------------------------------------------------------------------
    def _shapley_values(
        self, agent: int, candidate_updates: Dict[int, np.ndarray]
    ) -> Dict[int, float]:
        """Shapley value of every neighbour's candidate update (Algorithm 2 or eq. 18)."""
        rng = self.agent_rng(agent)
        characteristic = make_update_characteristic(
            model=self.model,
            candidate_updates=candidate_updates,
            validation=self.validation,
            metric=self.config.characteristic_metric,
            validation_batch_size=self.config.validation_batch_size,
            rng=rng,
        )
        game = CooperativeGame(list(candidate_updates.keys()), characteristic)
        if self.config.shapley_permutations == 0:
            return exact_shapley(game)
        return monte_carlo_shapley(game, self.config.shapley_permutations, rng)

    def _aggregate_returned(
        self, agent: int, returned: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """Phase-3 body for one agent: Shapley weights over the returned
        perturbed gradients (eqs. 15–20) and their weighted average (eq. 21).

        ``returned`` maps contributor id to perturbed gradient and must be
        ordered neighbours-ascending-then-self: the Shapley game's player
        order (and hence the Monte-Carlo permutation stream) follows dict
        order.
        """
        gamma = self.config.learning_rate
        # Candidate updates x_{i,j} = x_i - gamma * g_hat_{j,i} (eq. 15).
        candidates = {
            j: self.state[agent] - gamma * grad for j, grad in returned.items()
        }
        shapley = self._shapley_values(agent, candidates)
        normalized = normalize_shapley(shapley)
        mixing = {j: self.topology.weight(agent, j) for j in returned}
        weights = shapley_aggregation_weights(normalized, mixing)
        self.last_shapley[agent] = {int(k): float(v) for k, v in shapley.items()}
        self.last_weights[agent] = {int(k): float(v) for k, v in weights.items()}

        # Weighted perturbed-gradient average (eq. 21).
        aggregated = np.zeros(self.dimension, dtype=np.float64)
        for j, grad in returned.items():
            aggregated += weights[j] * grad
        return aggregated

    # ------------------------------------------------------------------
    # One round of Algorithm 1
    # ------------------------------------------------------------------
    def _round_body(self, round_index: int) -> None:
        # Phase 1 — all local gradients, privatized in agent order (noise
        # slot 0 per agent), block by block.  Inactive agents draw nothing.
        batches, own_perturbed = self._local_perturbed_gradients()

        # Phases 1–2 exchanges — model broadcast, then all cross-gradients
        # in stacked passes over the directed pairs (evaluator i, model
        # owner j): agent i's batch, agent j's model.
        cross_perturbed, pair_rows = self.fleet_cross_gradients(batches)

        # Phase 3 — per-agent Shapley aggregation over the cross-gradients
        # that came back, then the blocked momentum update.  Inactive
        # agents run no Shapley game and keep momentum and model frozen
        # for the round.
        aggregated = np.zeros_like(self.state)
        for agent in self.active_agents:
            returned = {
                j: cross_perturbed[pair_rows[(j, agent)]]
                for j in self.topology.neighbors(agent, include_self=False)
                if (j, agent) in pair_rows
            }
            returned[agent] = own_perturbed[agent]
            aggregated[agent] = self._aggregate_returned(agent, returned)

        # Phase 4 — gossip averaging of momentum and model (off-interval
        # rounds keep the local update).
        def momentum_step(start: int, stop: int):
            return self._momentum_rows(start, stop, aggregated[start:stop])

        self._gossip_blocks(
            "mix",
            momentum_step,
            (self.momentum_state, self.state),
            self._dtype,
            communicate=self.gossip_now(round_index),
        )
