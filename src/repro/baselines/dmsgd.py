"""DMSGD: decentralized momentum SGD (non-private reference).

The momentum version of D-PSGD [Yu, Jin & Yang, ICML 2019]: each agent takes
a momentum step with its (optionally clipped / perturbed) local gradient and
then gossip-averages the model.  With ``sigma = 0`` this is the classic
non-private algorithm; with noise enabled it is a "DP but heterogeneity
oblivious with momentum" ablation point between DP-DPSGD and PDSL.
"""

from __future__ import annotations

from repro.core.base import DecentralizedAlgorithm

__all__ = ["DMSGD"]


class DMSGD(DecentralizedAlgorithm):
    """Decentralized momentum SGD with one gossip-averaging step per round."""

    name = "DMSGD"
    async_capable = True

    def _round_body(self, round_index: int) -> None:
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
