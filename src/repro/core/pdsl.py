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
as two ``W @ X`` multiplies.  Phase 3 runs as one plan for the round:
every active agent, in agent order, draws its validation subsample (if
any) and its Shapley permutations from its own per-``(agent, round)``
generator and lists its coalitions (:func:`~repro.game.shapley.plan_shapley`);
all coalitions of all agents are then scored in stacked passes
(:func:`~repro.core.characteristic.coalition_values`), and each agent
reduces its values to Shapley estimates, weights and its aggregated
gradient.  The result is bit-identical to playing each agent's
:class:`~repro.game.cooperative.CooperativeGame` through
:func:`~repro.game.shapley.monte_carlo_shapley` or
:func:`~repro.game.shapley.exact_shapley`, which is what the per-agent
reference (:mod:`repro.bench.reference`) does.  Under fault injection an
agent aggregates only the cross-gradients that reached it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.characteristic import coalition_values, validation_batch
from repro.core.config import PDSLConfig
from repro.data.dataset import Dataset
from repro.game.shapley import (
    ShapleyPlan,
    normalize_shapley,
    plan_shapley,
    reduce_shapley,
    shapley_aggregation_weights,
)
from repro.nn.model import Model
from repro.topology.graphs import Topology

# The single-game API stays importable from here: perfbench's span probes
# (perfbench/spans.py) name these two functions on this module.
from repro.core.characteristic import make_update_characteristic  # noqa: F401
from repro.game.shapley import monte_carlo_shapley  # noqa: F401

__all__ = ["PDSL", "MAX_EXACT_SHAPLEY_PLAYERS"]

#: Largest closed neighbourhood exact Shapley (``shapley_permutations=0``)
#: accepts: its plan lists all ``2^Z - 1`` coalitions of every agent's game.
MAX_EXACT_SHAPLEY_PLAYERS = 20


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
        if config.shapley_permutations == 0:
            base = self.schedule.base
            players = max(
                len(base.neighbors(agent, include_self=True))
                for agent in range(self.num_agents)
            )
            if players > MAX_EXACT_SHAPLEY_PLAYERS:
                raise ValueError(
                    f"exact Shapley (shapley_permutations=0) on a closed "
                    f"neighbourhood of {players} players would score "
                    f"2^{players} - 1 coalitions per agent and round; the limit "
                    f"is {MAX_EXACT_SHAPLEY_PLAYERS} players. Use "
                    f"shapley_permutations > 0 (Monte-Carlo Shapley) instead"
                )
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
    # Phase 3: Shapley-weighted aggregation
    # ------------------------------------------------------------------
    def _shapley_aggregate(
        self,
        own_perturbed: np.ndarray,
        cross_perturbed: np.ndarray,
        pair_rows: Dict[Tuple[int, int], int],
    ) -> np.ndarray:
        """Every active agent's Shapley-weighted gradient average (eqs. 15–21).

        Agent ``i``'s players are the neighbours whose cross-gradient
        ``g_hat_{j,i}`` came back, ascending, then ``i`` itself with its own
        perturbed gradient; its candidate models are ``x_i - gamma *
        g_hat_{j,i}`` (eq. 15).  Three steps:

        1. plan: per agent, in agent order, one ``agent_rng`` draws the
           validation subsample (if ``validation_batch_size`` is set) and
           then the permutations, and lists the game's coalitions;
        2. compute: :func:`coalition_values` scores all coalitions of all
           agents, in shared stacked passes where agents share ``Q``;
        3. reduce: Shapley estimates, eq. 19 normalisation, eq. 20 weights
           and the eq. 21 weighted average, per agent.

        Returns the ``(N, d)`` aggregated gradients (zero rows for inactive
        agents) in the state dtype.
        """
        gamma = self.config.learning_rate
        # Per agent: its players, their cross-gradient rows, plan and batch.
        plans: List[Tuple[int, List[int], List[int], ShapleyPlan, Tuple]] = []
        for agent in self.active_agents:
            players = [
                int(j)
                for j in self.topology.neighbors(agent, include_self=False)
                if (j, agent) in pair_rows
            ]
            rows = [pair_rows[(j, agent)] for j in players]
            players.append(agent)
            rng = self.agent_rng(agent)
            batch = validation_batch(
                self.validation, self.config.validation_batch_size, rng
            )
            plan = plan_shapley(len(players), self.config.shapley_permutations, rng)
            plans.append((agent, players, rows, plan, batch))

        def returned(agent: int, rows: List[int]) -> np.ndarray:
            """The agent's returned gradients, one row per player."""
            return np.concatenate([cross_perturbed[rows], own_perturbed[agent][None]])

        values = coalition_values(
            self.model,
            (
                (self.state[agent] - gamma * returned(agent, rows), plan.masks, batch)
                for agent, _, rows, plan, batch in plans
            ),
            metric=self.config.characteristic_metric,
            stacked=self._stacked,
        )

        aggregated = np.zeros_like(self.state)
        for (agent, players, rows, plan, _), game_values in zip(plans, values):
            totals = reduce_shapley(plan, game_values)
            shapley = {j: float(totals[k]) for k, j in enumerate(players)}
            mixing = {j: self.topology.weight(agent, j) for j in players}
            weights = shapley_aggregation_weights(normalize_shapley(shapley), mixing)
            self.last_shapley[agent] = shapley
            self.last_weights[agent] = weights
            # Weighted perturbed-gradient average (eq. 21), in player order.
            total = np.zeros(self.dimension, dtype=np.float64)
            for j, gradient in zip(players, returned(agent, rows)):
                total += weights[j] * gradient
            aggregated[agent] = total
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

        # Phase 3 — Shapley aggregation over the cross-gradients that came
        # back, planned for the round and scored in bulk, then the blocked
        # momentum update.  Inactive agents run no Shapley game and keep
        # momentum and model frozen for the round.
        aggregated = self._shapley_aggregate(own_perturbed, cross_perturbed, pair_rows)

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
