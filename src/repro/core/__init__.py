"""Core package: the PDSL algorithm and the shared decentralized-algorithm base.

* :class:`DecentralizedAlgorithm` — shared infrastructure (per-agent parameter
  vectors, counter-based batch and DP-noise streams, the message-passing
  network, gossip averaging, evaluation helpers) used by PDSL and every
  baseline;
* :class:`PDSL` — Algorithm 1 of the paper;
* :class:`PDSLConfig` and friends — experiment configuration dataclasses;
* :func:`validation_characteristic` — the Shapley characteristic function of
  eq. 16 (validation accuracy of the averaged candidate models).
"""

from repro.core.config import (
    AlgorithmConfig,
    CGAConfig,
    MuffliatoConfig,
    NetFleetConfig,
    PDSLConfig,
)
from repro.core.base import AgentRows, DecentralizedAlgorithm
from repro.core.characteristic import validation_characteristic, make_update_characteristic
from repro.core.pdsl import PDSL

__all__ = [
    "AlgorithmConfig",
    "PDSLConfig",
    "MuffliatoConfig",
    "CGAConfig",
    "NetFleetConfig",
    "AgentRows",
    "DecentralizedAlgorithm",
    "validation_characteristic",
    "make_update_characteristic",
    "PDSL",
]
