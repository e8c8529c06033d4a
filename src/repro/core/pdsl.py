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

Both execution backends run the same four phases.  The vectorized engine
computes all local gradients and all per-edge cross-gradients with stacked
forward/backward passes and performs phase 4 as two ``W @ X`` multiplies;
phase 3's Shapley games remain per-agent (they are inherently sequential
coalition evaluations) but draw from the same per-``(agent, round)``
generators as the loop backend, so both backends follow the same trajectory
for a fixed seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
        order, so both backends build it identically.
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
    # One round of Algorithm 1 — loop backend
    # ------------------------------------------------------------------
    def _step_loop(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        alpha = self.config.momentum
        batches = self.draw_batches()

        # Phase 1 — local gradients (lines 2-4) and model broadcast (line 5).
        # Agents inactive this round (churned out or straggling) sit every
        # phase out: they draw no batch or noise, broadcast nothing, and the
        # round topology's identity mixing row freezes their state.
        own_perturbed: List[Optional[np.ndarray]] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                own_perturbed.append(None)
                continue
            local_grad = self.local_gradient(agent, self.params[agent], batches[agent])
            own_perturbed.append(self.privatize(agent, local_grad))
            neighbors = self.topology.neighbors(agent, include_self=False)
            self.network.broadcast(agent, neighbors, "model", self.params[agent].copy())

        # Phase 2 — cross-gradients on neighbours' models (lines 6-12).
        for agent in range(self.num_agents):
            received_models = self.network.receive_by_sender(agent, "model")
            for neighbor, neighbor_params in received_models.items():
                cross_grad = self.local_gradient(agent, neighbor_params, batches[agent])
                perturbed = self.privatize(agent, cross_grad)
                self.network.send(agent, neighbor, "cross_grad", perturbed)

        # Phase 3 — Shapley-weighted aggregation and momentum update (lines 13-21).
        # The gradient exchanges of phases 1–2 always run at full precision;
        # only the phase-3/4 gossip of (momentum, model) tuples goes through
        # the compression codec and the communication interval.
        communicate = self.gossip_now(round_index)
        provisional: List[Tuple[np.ndarray, np.ndarray]] = []
        shared: List[Tuple[np.ndarray, np.ndarray]] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                provisional.append(
                    (self.momenta[agent].copy(), self.params[agent].copy())
                )
                shared.append(provisional[agent])
                continue
            returned = self.network.receive_by_sender(agent, "cross_grad")
            returned[agent] = own_perturbed[agent]
            aggregated = self._aggregate_returned(agent, returned)

            # Momentum-like update (eqs. 22-23).
            momentum_hat = alpha * self.momenta[agent] + aggregated
            params_hat = self.params[agent] - gamma * momentum_hat
            provisional.append((momentum_hat, params_hat))
            if communicate:
                shared.append(
                    self.gossip_broadcast(agent, "mix", (momentum_hat, params_hat))
                )

        if not communicate:
            # Off-interval round: keep the local update, skip the gossip.
            self.momenta = [momentum_hat for momentum_hat, _ in provisional]
            self.params = [params_hat for _, params_hat in provisional]
            return

        # Phase 4 — gossip averaging of momentum and model (lines 22-24).
        new_momenta: List[np.ndarray] = []
        new_params: List[np.ndarray] = []
        for agent in range(self.num_agents):
            received_mix = self.gossip_receive(agent, "mix")
            received_mix[agent] = shared[agent]
            momentum_acc = np.zeros(self.dimension, dtype=np.float64)
            params_acc = np.zeros(self.dimension, dtype=np.float64)
            for j, (momentum_hat, params_hat) in received_mix.items():
                weight = self.topology.weight(agent, j)
                momentum_acc += weight * momentum_hat
                params_acc += weight * params_hat
            new_momenta.append(momentum_acc)
            new_params.append(params_acc)

        self.momenta = new_momenta
        self.params = new_params

    # ------------------------------------------------------------------
    # One round of Algorithm 1 — vectorized backend
    # ------------------------------------------------------------------
    def _step_vectorized(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        alpha = self.config.momentum

        # Phase 1 — all local gradients, privatized in agent order (noise
        # slot 0 per agent, as in the loop backend).  The streamed
        # pipeline evaluates them block by block into a reusable scratch
        # (bit-identical: every draw is addressed by agent, every kernel
        # row-wise);
        # the one-shot path uses a single stacked pass.
        if self._streamed:
            batches, own_perturbed = self._streamed_local_perturbed()
        else:
            batches = self.draw_batches()
            own = self.fleet_gradients(self.state, batches)
            own_perturbed = self.privatize_rows(own)
        self.record_fleet_exchange("model", self.dimension)

        # Phase 2 — all cross-gradients in one stacked pass over the directed
        # pairs (evaluator i, model owner j): agent i's batch, agent j's model.
        cross_perturbed, pair_rows = self.fleet_cross_gradients(batches)
        self.record_fleet_exchange("cross_grad", self.dimension)

        # Phase 3 — per-agent Shapley aggregation (inherently sequential
        # coalition evaluations), then one fleet-wide momentum update.
        # Inactive agents run no Shapley game and keep momentum and model
        # frozen for the round.
        aggregated = np.zeros_like(self.state)
        for agent in self.active_agents:
            returned = {
                j: cross_perturbed[pair_rows[(j, agent)]]
                for j in self.topology.neighbors(agent, include_self=False)
            }
            returned[agent] = own_perturbed[agent]
            aggregated[agent] = self._aggregate_returned(agent, returned)

        momentum_hat = self.freeze_inactive_rows(
            alpha * self.momentum_state + aggregated, self.momentum_state
        )
        params_hat = self.freeze_inactive_rows(
            self.state - gamma * momentum_hat, self.state
        )
        if not self.gossip_now(round_index):
            # Off-interval round: keep the local update, skip the gossip.
            self.momentum_state = momentum_hat
            self.state = params_hat
            return
        momentum_shared = self.compress_gossip_rows("mix.0", momentum_hat)
        params_shared = self.compress_gossip_rows("mix.1", params_hat)
        values, wire_bytes = self.gossip_wire_cost(self.num_gossip_channels)
        self.record_fleet_exchange("mix", values, wire_bytes)

        # Phase 4 — gossip averaging as two matrix multiplies.
        self.momentum_state = self.mix_rows(momentum_shared)
        self.state = self.mix_rows(params_shared)
