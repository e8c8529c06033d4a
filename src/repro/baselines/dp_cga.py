"""DP-CGA: Cross-Gradient Aggregation with differentially private exchanges.

CGA [Esfandiari et al., ICML 2021] has every agent collect the gradients of
its *own model* evaluated on each neighbour's *local data* (cross-gradients)
and project them onto a single update direction by solving the minimum-norm
quadratic program over their convex hull; the projected gradient then drives
a momentum update followed by gossip averaging.  The paper's DP-CGA baseline
perturbs each cross-gradient with Gaussian noise before it is shared.

The quadratic program is

    minimise   || sum_k lambda_k g_k ||^2
    subject to lambda_k >= 0,  sum_k lambda_k = 1

solved here with SciPy's SLSQP (the neighbourhood sizes are tiny, so the QP
has at most a couple of dozen variables).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from scipy.optimize import minimize

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import CGAConfig

__all__ = ["DPCGA", "min_norm_combination"]


def min_norm_combination(gradients: List[np.ndarray]) -> np.ndarray:
    """Convex-combination weights minimising the norm of the combined gradient.

    Returns the weight vector ``lambda`` (not the combined gradient) so tests
    can check the simplex constraints directly.  Falls back to uniform
    weights if the optimiser fails.
    """
    k = len(gradients)
    if k == 0:
        raise ValueError("need at least one gradient")
    if k == 1:
        return np.ones(1, dtype=np.float64)
    stacked = np.stack(gradients, axis=0)
    gram = stacked @ stacked.T

    def objective(lam: np.ndarray) -> float:
        return float(lam @ gram @ lam)

    def gradient(lam: np.ndarray) -> np.ndarray:
        return 2.0 * gram @ lam

    initial = np.full(k, 1.0 / k)
    constraints = [{"type": "eq", "fun": lambda lam: lam.sum() - 1.0}]
    bounds = [(0.0, 1.0)] * k
    result = minimize(
        objective,
        initial,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 100, "ftol": 1e-10},
    )
    if not result.success or not np.all(np.isfinite(result.x)):
        return initial
    lam = np.clip(result.x, 0.0, None)
    total = lam.sum()
    if total <= 0:
        return initial
    return lam / total


class DPCGA(DecentralizedAlgorithm):
    """Cross-gradient aggregation via a min-norm QP, with DP-perturbed exchanges."""

    name = "DP-CGA"

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, CGAConfig):
            raise TypeError("DPCGA requires a CGAConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: CGAConfig = config

    def _step_loop(self, round_index: int) -> None:
        gamma = self.config.learning_rate
        alpha = self.config.momentum
        batches = self.draw_batches()

        # Broadcast models so neighbours can compute cross-gradients.
        for agent in range(self.num_agents):
            neighbors = self.topology.neighbors(agent, include_self=False)
            self.network.broadcast(agent, neighbors, "model", self.params[agent].copy())

        # Compute DP-perturbed cross-gradients of each received model on local data
        # and send them back to the model's owner.  Inactive agents received
        # no models (the round topology gives them no neighbours) and draw
        # neither batches nor noise.
        own_perturbed: List[Optional[np.ndarray]] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                own_perturbed.append(None)
                continue
            local_grad = self.local_gradient(agent, self.params[agent], batches[agent])
            own_perturbed.append(self.privatize(agent, local_grad))
            received_models = self.network.receive_by_sender(agent, "model")
            for neighbor, neighbor_params in received_models.items():
                cross = self.local_gradient(agent, neighbor_params, batches[agent])
                self.network.send(agent, neighbor, "cross_grad", self.privatize(agent, cross))

        # Aggregate the returned cross-gradients with the min-norm QP, take a
        # momentum step, and share the provisional model for gossip averaging.
        # As in PDSL, the gradient exchanges above stay full precision; only
        # the model gossip goes through the codec and the interval.
        communicate = self.gossip_now(round_index)
        provisional: List[np.ndarray] = []
        shared: List[np.ndarray] = []
        for agent in range(self.num_agents):
            if not self.is_active(agent):
                provisional.append(self.params[agent].copy())
                shared.append(provisional[agent])
                continue
            returned: Dict[int, np.ndarray] = self.network.receive_by_sender(agent, "cross_grad")
            returned[agent] = own_perturbed[agent]
            ordered = [returned[j] for j in sorted(returned)]
            lam = min_norm_combination(ordered)
            combined = np.zeros(self.dimension, dtype=np.float64)
            for weight, grad in zip(lam, ordered):
                combined += weight * grad
            self.momenta[agent] = alpha * self.momenta[agent] + combined
            provisional.append(self.params[agent] - gamma * self.momenta[agent])
            if communicate:
                shared.append(self.gossip_broadcast(agent, "mix", provisional[agent]))

        if not communicate:
            # Off-interval round: keep the local update, skip the gossip.
            self.params = provisional
            return

        # Gossip-average the provisional models.
        new_params: List[np.ndarray] = []
        for agent in range(self.num_agents):
            received = self.gossip_receive(agent, "mix")
            received[agent] = shared[agent]
            acc = np.zeros(self.dimension, dtype=np.float64)
            for j, value in received.items():
                acc += self.topology.weight(agent, j) * value
            new_params.append(acc)
        self.params = new_params

    def _step_vectorized(self, round_index: int) -> None:
        # Local gradients, privatized in agent order (noise slot 0 per
        # agent, as in the loop backend).
        batches, own_perturbed = self._local_perturbed_gradients()
        self.record_fleet_exchange("model", self.dimension)

        # Cross-gradients for every directed pair (evaluator i, model owner j):
        # agent i's data, agent j's model.
        cross_perturbed, pair_rows = self.fleet_cross_gradients(batches)
        self.record_fleet_exchange("cross_grad", self.dimension)

        # Min-norm QP per agent over the returned cross-gradients (sorted by
        # contributor id, self included, as in the loop backend).  Inactive
        # agents run no QP and keep their momentum and model frozen.
        combined = np.zeros_like(self.state)
        for agent in self.active_agents:
            contributors = self.topology.neighbors(agent, include_self=True)
            ordered = [
                own_perturbed[agent]
                if j == agent
                else cross_perturbed[pair_rows[(j, agent)]]
                for j in contributors
            ]
            lam = min_norm_combination(ordered)
            acc = np.zeros(self.dimension, dtype=np.float64)
            for weight, grad in zip(lam, ordered):
                acc += weight * grad
            combined[agent] = acc

        def provisional(start: int, stop: int):
            momentum, params = self._momentum_rows(start, stop, combined[start:stop])
            self.momentum_state[start:stop] = momentum
            return (params,)

        self._gossip_blocks(
            "mix",
            provisional,
            (self.state,),
            self._dtype,
            communicate=self.gossip_now(round_index),
        )
