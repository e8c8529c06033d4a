"""MUFFLIATO: local Gaussian noise injection followed by multi-step gossiping.

Cyffers et al. (NeurIPS 2022) alternate a locally perturbed gradient step
with several rounds of gossip averaging; the repeated gossip amplifies
privacy because each individual contribution gets diluted across the graph
before anyone can inspect it.  As in the paper's evaluation it does not model
data heterogeneity explicitly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import MuffliatoConfig

__all__ = ["Muffliato"]


class Muffliato(DecentralizedAlgorithm):
    """Perturbed local step + ``gossip_steps`` rounds of model averaging."""

    name = "MUFFLIATO"

    def __init__(self, model, topology, shards, config, validation=None) -> None:
        if not isinstance(config, MuffliatoConfig):
            raise TypeError("Muffliato requires a MuffliatoConfig")
        super().__init__(model, topology, shards, config, validation=validation)
        self.config: MuffliatoConfig = config

    def _round_body(self, round_index: int) -> None:
        # The perturbed local step is float64 and the gossip cascade mixes
        # it between two float64 fleet scratches; only the last step writes
        # (rounded) into state.  Inactive rows are exactly zero in the
        # perturbed gradients and have identity mixing rows, so they ride
        # through the step and gossip unchanged.
        gamma = self.config.learning_rate
        source: Optional[np.ndarray] = None  # the previous gossip step's output

        def produce(start: int, stop: int):
            if source is not None:
                return (source[start:stop],)
            perturbed = self._block_perturbed_gradients(start, stop)
            return (self.state[start:stop] - gamma * perturbed,)

        serial = self._stacked is None
        if not self.gossip_now(round_index):
            # Off-interval round: the local step stands alone.
            self._gossip_blocks(
                "gossip_0",
                produce,
                (self.state,),
                np.float64,
                communicate=False,
                serial=serial,
            )
            return
        steps = self.config.gossip_steps
        for gossip_round in range(steps):
            target = (
                self.state
                if gossip_round == steps - 1
                else self._round_scratch(f"muffliato.{gossip_round % 2}", np.float64)
            )
            self._gossip_blocks(
                f"gossip_{gossip_round}",
                produce,
                (target,),
                np.float64,
                serial=serial and source is None,
            )
            source = target
