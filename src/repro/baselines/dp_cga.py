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

from typing import List

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

    def _round_body(self, round_index: int) -> None:
        # Local gradients, privatized in agent order (noise slot 0 per
        # agent).
        batches, own_perturbed = self._local_perturbed_gradients()

        # Model broadcast, then cross-gradients for every directed pair
        # (evaluator i, model owner j): agent i's data, agent j's model.
        cross_perturbed, pair_rows = self.fleet_cross_gradients(batches)

        # Min-norm QP per agent over the cross-gradients that came back
        # (sorted by contributor id, self included).  Inactive agents run
        # no QP and keep their momentum and model frozen.
        combined = np.zeros_like(self.state)
        for agent in self.active_agents:
            ordered = [
                own_perturbed[agent]
                if j == agent
                else cross_perturbed[pair_rows[(j, agent)]]
                for j in self.topology.neighbors(agent, include_self=True)
                if j == agent or (j, agent) in pair_rows
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
