"""DP-NET-FLEET: recursive gradient correction with local steps, plus DP noise.

NET-FLEET [Zhang et al., MobiHoc 2022] tackles heterogeneous data in fully
decentralized federated learning with a *recursive gradient correction*
(a gradient-tracking variable ``y_i`` that estimates the global gradient)
and multiple local updates between communication rounds.  The paper's
baseline adds Gaussian perturbation to the quantities agents exchange.

Per communication round each agent:

1. runs ``local_steps`` SGD steps using its corrected gradient estimate
   ``y_i`` in place of the raw local gradient;
2. gossip-averages its model with the mixing matrix;
3. updates the tracking variable with the freshly computed local gradient:
   ``y_i <- sum_j w_ij y_j + (g_i_new - g_i_old)`` where both the tracking
   variables and the models exchanged are clipped and perturbed for DP.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.base import AgentRows, DecentralizedAlgorithm
from repro.core.config import NetFleetConfig
from repro.privacy.mechanisms import clip_rows_by_l2_norm

__all__ = ["DPNetFleet"]


class DPNetFleet(DecentralizedAlgorithm):
    """Gradient-tracking decentralized SGD with local steps and DP perturbation."""

    name = "DP-NET-FLEET"
    # Gossip carries a (model, tracking) pair per message.
    num_gossip_channels = 2

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, NetFleetConfig):
            raise TypeError("DPNetFleet requires a NetFleetConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: NetFleetConfig = config
        # Gradient-tracking state: y_i (the corrected gradient estimate) and
        # the previous local gradient used in the recursive correction, one
        # row per agent like the base class's parameter state.  Under
        # ``storage="memmap"`` both live in memmap-backed FleetStates
        # (always float64, their canonical dtype on the vectorized path) and
        # assignments stream into them block by block.
        self._tracking_state: np.ndarray = self._alloc_fleet_matrix(
            "tracking_state", dtype=np.float64
        )
        self._previous_gradient_state: np.ndarray = self._alloc_fleet_matrix(
            "previous_gradient_state", dtype=np.float64
        )
        self._initialized = False

    @property
    def tracking_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` gradient-tracking matrix ``y``."""
        return self._tracking_state

    @tracking_state.setter
    def tracking_state(self, value: np.ndarray) -> None:
        if self._pinned:
            self._store_blocked(self._tracking_state, value)
        else:
            self._tracking_state = np.asarray(value)

    @property
    def previous_gradient_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` previous-local-gradient matrix."""
        return self._previous_gradient_state

    @previous_gradient_state.setter
    def previous_gradient_state(self, value: np.ndarray) -> None:
        if self._pinned:
            self._store_blocked(self._previous_gradient_state, value)
        else:
            self._previous_gradient_state = np.asarray(value)

    @property
    def tracking(self) -> AgentRows:
        """Per-agent tracking variables as a list-like view."""
        return AgentRows(self.tracking_state)

    @tracking.setter
    def tracking(self, value) -> None:
        self.tracking_state = self._as_state_matrix(value)

    @property
    def previous_gradient(self) -> AgentRows:
        """Per-agent previous local gradients as a list-like view."""
        return AgentRows(self.previous_gradient_state)

    @previous_gradient.setter
    def previous_gradient(self, value) -> None:
        self.previous_gradient_state = self._as_state_matrix(value)

    def _extra_state(self, copy: bool = True):
        return {
            "tracking_state": (
                self.tracking_state.copy() if copy else self.tracking_state
            ),
            "previous_gradient_state": (
                self.previous_gradient_state.copy()
                if copy
                else self.previous_gradient_state
            ),
            "initialized": self._initialized,
        }

    def _load_extra_state(self, payload) -> None:
        if self._pinned:
            # Stream the (possibly memmap-backed) checkpoint payload straight
            # into the pinned float64 tracking buffers block by block — no
            # second in-RAM fleet copy on an out-of-core resume.
            self.tracking_state = np.asarray(payload["tracking_state"])
            self.previous_gradient_state = np.asarray(
                payload["previous_gradient_state"]
            )
        else:
            self.tracking_state = self._as_state_matrix(payload["tracking_state"])
            self.previous_gradient_state = self._as_state_matrix(
                payload["previous_gradient_state"]
            )
        self._initialized = bool(payload["initialized"])

    def _perturbed_local_gradient(self, agent: int, params: np.ndarray) -> np.ndarray:
        """A fresh clipped + noised local gradient at the given parameters."""
        batch = self.draw_batch(agent)
        gradient = self.local_gradient(agent, params, batch)
        return self.privatize(agent, gradient)

    def _fresh_fleet_gradients(self, param_rows: np.ndarray) -> np.ndarray:
        """One fresh perturbed gradient per agent at the given parameter rows.

        Every active agent draws its next batch and noise slot of the
        round, exactly as the loop backend's per-agent calls do.
        """
        gradients = self.fleet_gradients(param_rows, self.draw_batches())
        return self.privatize_rows(gradients)

    def _step_loop(self, round_index: int) -> None:
        gamma = self.config.learning_rate

        # Lazy initialisation of the tracking variable with the first
        # gradients.  Agents inactive in the very first round start from a
        # zero tracking estimate instead (they draw no batch and no noise);
        # it bootstraps through the recursive correction once they rejoin.
        if not self._initialized:
            for agent in range(self.num_agents):
                if not self.is_active(agent):
                    continue
                grad = self._perturbed_local_gradient(agent, self.params[agent])
                self.tracking[agent] = grad
                self.previous_gradient[agent] = grad
            self._initialized = True

        # 1. One DP gradient release per round, reused by every local step.
        #    Each round, agent i publishes a single clipped-and-perturbed local
        #    gradient; the recursive correction and the local steps are
        #    post-processing of that release (plus the already-released
        #    tracking variables), so the per-round privacy cost matches the
        #    other baselines.
        local_params: List[np.ndarray] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                # Inactive agents take no local steps this round.
                local_params.append(self.params[agent].copy())
                continue
            # Gradient-tracking descent: the update direction is the tracking
            # variable y_i (the running estimate of the network-average
            # gradient), re-clipped so accumulated noise cannot inflate the
            # step size.
            corrected = self.clip(self.tracking[agent])
            params = self.params[agent].copy()
            for _ in range(self.config.local_steps):
                params = params - gamma * corrected
            local_params.append(params)

        # 2. Exchange models and tracking variables with neighbours.  The
        #    tracking variable is a post-processing of already clipped-and-
        #    perturbed gradients, so no additional noise is required for DP.
        #    Off-interval rounds exchange nothing: each agent keeps its own
        #    local model and tracking estimate, and the recursive correction
        #    below still refreshes the gradient difference.
        communicate = self.gossip_now(round_index)
        shared: List[Tuple[np.ndarray, np.ndarray]] = []
        if communicate:
            for agent in range(self.num_agents):
                shared.append(
                    self.gossip_broadcast(
                        agent, "state", (local_params[agent], self.tracking[agent])
                    )
                )

        # 3. Gossip averaging + recursive gradient correction
        #    y_i <- sum_j w_ij y_j + (g_i^{t} - g_i^{t-1}).
        new_params: List[np.ndarray] = []
        new_tracking: List[np.ndarray] = []
        for agent in range(self.num_agents):
            if communicate:
                received = self.gossip_receive(agent, "state")
                received[agent] = shared[agent]
                params_acc = np.zeros(self.dimension, dtype=np.float64)
                tracking_acc = np.zeros(self.dimension, dtype=np.float64)
                for j, (params_j, tracking_j) in received.items():
                    weight = self.topology.weight(agent, j)
                    params_acc += weight * params_j
                    tracking_acc += weight * tracking_j
            else:
                params_acc = local_params[agent].copy()
                tracking_acc = self.tracking[agent].copy()
            # Recursive correction with a fresh DP gradient at the mixed model:
            # y_i <- sum_j w_ij y_j + (g_i^{t} - g_i^{t-1}).  Inactive agents
            # draw no fresh gradient; their accumulators already equal their
            # frozen model and tracking (identity mixing row).
            if self.is_active(agent):
                fresh = self._perturbed_local_gradient(agent, params_acc)
                tracking_acc = tracking_acc + fresh - self.previous_gradient[agent]
                self.previous_gradient[agent] = fresh
            new_params.append(params_acc)
            new_tracking.append(tracking_acc)

        self.params = new_params
        self.tracking = new_tracking

    def _step_streamed(self, round_index: int) -> None:
        """Blocked twin of :meth:`_step_vectorized` (bit-identical by design).

        All four fleet matrices (state, tracking, previous gradient, the
        local-step output) are touched strictly block by block; on
        off-interval rounds the "mixed" quantities alias the local ones,
        exactly like the one-shot path, and the update phase computes each
        block's new tracking value before overwriting it, so the aliasing
        is safe under any block order.
        """
        gamma = self.config.learning_rate
        clip = self.config.clip_threshold
        blocks = self._fleet_blocks()
        serial = self._stacked is None
        tracking = self._tracking_state
        previous = self._previous_gradient_state

        if not self._initialized:

            def init_block(start: int, stop: int) -> None:
                grad = self._block_perturbed_gradients(start, stop)
                tracking[start:stop] = grad
                previous[start:stop] = grad

            self._scheduler.map(init_block, blocks, serial=serial)
            self._initialized = True

        # 1. Local steps along the re-clipped tracking direction.
        local = self._round_scratch("netfleet.local", np.float64)

        def local_block(start: int, stop: int) -> None:
            corrected = clip_rows_by_l2_norm(tracking[start:stop], clip)
            params = self.state[start:stop].copy()
            for _ in range(self.config.local_steps):
                params = params - gamma * corrected
            local[start:stop] = self._freeze_block(
                params, self.state[start:stop], start, stop
            )

        self._scheduler.map(local_block, blocks)

        # 2. (model, tracking) gossip; off-interval rounds alias the local
        #    quantities instead (nothing on the wire).
        if self.gossip_now(round_index):
            values, wire_bytes = self.gossip_wire_cost(self.num_gossip_channels)
            mixed_params = self._round_scratch("netfleet.mixed0", np.float64)
            mixed_tracking = self._round_scratch("netfleet.mixed1", np.float64)
            if self._compression_state is None:
                self.record_fleet_exchange("state", values, wire_bytes)
                self._mix_into(local, mixed_params)
                self._mix_into(tracking, mixed_tracking)
            else:
                params_shared = self._round_scratch("netfleet.shared0", np.float64)
                tracking_shared = self._round_scratch("netfleet.shared1", np.float64)
                self._prepare_gossip_channels("state.0", "state.1")

                def encode(start: int, stop: int) -> None:
                    params_shared[start:stop] = self._compress_block(
                        "state.0", local[start:stop], start, stop
                    )
                    tracking_shared[start:stop] = self._compress_block(
                        "state.1", tracking[start:stop], start, stop
                    )

                self._scheduler.map(encode, blocks)
                self.record_fleet_exchange("state", values, wire_bytes)
                self._mix_into(params_shared, mixed_params)
                self._mix_into(tracking_shared, mixed_tracking)
        else:
            mixed_params = local
            mixed_tracking = tracking

        # 3. Recursive gradient correction with a fresh DP gradient at the
        #    mixed model, then the state store — one pass per block.
        def update_block(start: int, stop: int) -> None:
            fresh = self._block_perturbed_gradients(
                start, stop, mixed_params[start:stop]
            )
            new_tracking = self._freeze_block(
                mixed_tracking[start:stop] + fresh - previous[start:stop],
                tracking[start:stop],
                start,
                stop,
            )
            tracking[start:stop] = new_tracking
            previous[start:stop] = self._freeze_block(
                fresh, previous[start:stop], start, stop
            )
            self.state[start:stop] = mixed_params[start:stop]

        self._scheduler.map(update_block, blocks, serial=serial)

    def _step_vectorized(self, round_index: int) -> None:
        if self._streamed:
            self._step_streamed(round_index)
            return
        gamma = self.config.learning_rate

        if not self._initialized:
            # The masked gradient path leaves agents inactive in the first
            # round at a zero tracking estimate, as in the loop engine.
            initial = self._fresh_fleet_gradients(self.state)
            self.tracking_state = initial
            self.previous_gradient_state = initial.copy()
            self._initialized = True

        # 1. Local steps along the re-clipped tracking direction (inactive
        #    agents take none).
        corrected = clip_rows_by_l2_norm(self.tracking_state, self.config.clip_threshold)
        local_params = self.state.copy()
        for _ in range(self.config.local_steps):
            local_params = local_params - gamma * corrected
        local_params = self.freeze_inactive_rows(local_params, self.state)

        # 2. One (model, tracking) exchange per directed edge; off-interval
        #    rounds exchange nothing and keep each agent's own estimates.
        # 3. Gossip averaging + recursive gradient correction.  Inactive
        #    agents draw no fresh gradient and keep their tracking state and
        #    previous gradient frozen.
        if self.gossip_now(round_index):
            params_shared = self.compress_gossip_rows("state.0", local_params)
            tracking_shared = self.compress_gossip_rows("state.1", self.tracking_state)
            values, wire_bytes = self.gossip_wire_cost(self.num_gossip_channels)
            self.record_fleet_exchange("state", values, wire_bytes)
            mixed_params = self.mix_rows(params_shared)
            mixed_tracking = self.mix_rows(tracking_shared)
        else:
            mixed_params = local_params
            mixed_tracking = self.tracking_state
        fresh = self._fresh_fleet_gradients(mixed_params)
        self.tracking_state = self.freeze_inactive_rows(
            mixed_tracking + fresh - self.previous_gradient_state, self.tracking_state
        )
        self.previous_gradient_state = self.freeze_inactive_rows(
            fresh, self.previous_gradient_state
        )
        self.state = mixed_params
