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

import numpy as np

from repro.core.base import DecentralizedAlgorithm
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
        # row per agent like the base class's parameter state, on the same
        # storage, but always float64 (their canonical dtype).
        self._tracking_state = self._alloc_fleet_matrix(np.float64)
        self._previous_gradient_state = self._alloc_fleet_matrix(np.float64)
        self._initialized = False

    @property
    def tracking_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` gradient-tracking matrix ``y``."""
        return self._tracking_state

    @tracking_state.setter
    def tracking_state(self, value: np.ndarray) -> None:
        self._store(self._tracking_state, value)

    @property
    def previous_gradient_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` previous-local-gradient matrix."""
        return self._previous_gradient_state

    @previous_gradient_state.setter
    def previous_gradient_state(self, value: np.ndarray) -> None:
        self._store(self._previous_gradient_state, value)

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
        self.tracking_state = payload["tracking_state"]
        self.previous_gradient_state = payload["previous_gradient_state"]
        self._initialized = bool(payload["initialized"])

    def _round_body(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        clip = self.config.clip_threshold
        blocks = self._fleet_blocks()
        serial = self._stacked is None
        tracking = self._tracking_state
        previous = self._previous_gradient_state

        if not self._initialized:
            # Agents inactive in the first round draw nothing and start
            # from a zero tracking estimate; it bootstraps through the
            # recursive correction once they rejoin.
            def init_block(start: int, stop: int) -> None:
                grad = self._block_perturbed_gradients(start, stop)
                tracking[start:stop] = grad
                previous[start:stop] = grad

            self._scheduler.map(init_block, blocks, serial=serial)
            self._initialized = True

        # 1. Local steps along the re-clipped tracking direction (inactive
        #    agents take none), and 2. one (model, tracking) exchange per
        #    directed edge; off-interval rounds exchange nothing and keep
        #    each agent's own estimates.  The tracking variables are
        #    post-processing of released (clipped and noised) gradients, so
        #    exchanging them costs no extra privacy.
        def local_block(start: int, stop: int):
            corrected = clip_rows_by_l2_norm(tracking[start:stop], clip)
            params = self.state[start:stop].copy()
            for _ in range(self.config.local_steps):
                params = params - gamma * corrected
            local = self.freeze_inactive_rows(params, self.state[start:stop], start)
            return local, tracking[start:stop]

        mixed_params = self._round_scratch("netfleet.mixed0", np.float64)
        mixed_tracking = self._round_scratch("netfleet.mixed1", np.float64)
        self._gossip_blocks(
            "state",
            local_block,
            (mixed_params, mixed_tracking),
            np.float64,
            communicate=self.gossip_now(round_index),
        )

        # 3. Recursive gradient correction with a fresh DP gradient at the
        #    mixed model, then the state store.  Inactive agents draw no
        #    fresh gradient and keep their tracking state and previous
        #    gradient frozen.
        def update_block(start: int, stop: int) -> None:
            fresh = self._block_perturbed_gradients(
                start, stop, mixed_params[start:stop]
            )
            tracking[start:stop] = self.freeze_inactive_rows(
                mixed_tracking[start:stop] + fresh - previous[start:stop],
                tracking[start:stop],
                start,
            )
            previous[start:stop] = self.freeze_inactive_rows(
                fresh, previous[start:stop], start
            )
            self.state[start:stop] = mixed_params[start:stop]

        self._scheduler.map(update_block, blocks, serial=serial)
