"""DP-DPSGD: differentially private decentralized parallel SGD.

This is the synchronous counterpart of A(DP)²SGD [Xu, Zhang & Wang, 2022]
used as a baseline in the paper: each agent takes a gradient step with its
clipped-and-perturbed *local* gradient, then performs one gossip-averaging
step with the mixing matrix.  It does not use cross-gradients or any
contribution weighting, so it is the reference point for the cost of
ignoring data heterogeneity.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import DecentralizedAlgorithm

__all__ = ["DPDPSGD", "DPSGDNonPrivate"]


class DPDPSGD(DecentralizedAlgorithm):
    """Perturbed local gradient step followed by one gossip-averaging step."""

    name = "DP-DPSGD"

    def _round_body(self, round_index: int) -> None:
        # The provisional step is float64 (state minus a float64 perturbed
        # gradient).  Inactive agents' rows are exactly zero after the
        # masked gradient and noise paths, so the step leaves them at their
        # current parameters and the identity mixing row keeps them there.
        gamma = self.config.learning_rate

        def provisional(start: int, stop: int):
            perturbed = self._block_perturbed_gradients(start, stop)
            return (self.state[start:stop] - gamma * perturbed,)

        self._gossip_blocks(
            "model",
            provisional,
            (self.state,),
            np.float64,
            communicate=self.gossip_now(round_index),
            serial=self._stacked is None,
        )


class DPSGDNonPrivate(DPDPSGD):
    """D-PSGD without clipping noise — a non-private reference for ablations.

    Construct it with a config whose ``sigma`` is 0 (the class simply fixes
    the name so experiment reports distinguish it from the DP variant).
    """

    name = "D-PSGD"
