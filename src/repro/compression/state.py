"""Per-agent compression state: error-feedback residuals and sparsifier streams.

One :class:`CompressionState` lives on each algorithm instance (when a lossy
codec is configured) and owns everything compression adds to the resumable
state: a residual buffer per agent per gossip *channel* (a channel is one
logical payload stream, e.g. ``"model"`` or the two halves ``"mix.0"`` /
``"mix.1"`` of a tuple message) and, for codecs that sample coordinates, one
dedicated random generator per agent.

The generators are derived from ``(seed, 0xC0DEC, agent)`` — independent of
the positional ``child_seeds`` array in
:class:`~repro.core.base.DecentralizedAlgorithm`, whose layout is
load-bearing for bit-identity of existing runs.

Error feedback implements the standard memory scheme: the transmitted value
is ``C(x + e)`` and the new residual is ``e' = (x + e) - C(x + e)``, so the
sum of everything ever transmitted plus the current residual telescopes to
the sum of everything ever offered — compression introduces no systematic
drift.

The round pipeline calls :meth:`compress_block` on each row block of the
fleet matrix; :meth:`compress_rows` is the whole-fleet form, and the two
are bit-identical per agent.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.compression.codecs import Codec

__all__ = ["CompressionState"]


class CompressionState:
    """Residual buffers and sparsifier RNG streams for one algorithm instance."""

    def __init__(
        self,
        codec: Codec,
        num_agents: int,
        dimension: int,
        error_feedback: bool = True,
        seed: int = 0,
    ) -> None:
        if num_agents < 1 or dimension < 1:
            raise ValueError("num_agents and dimension must be positive")
        self.codec = codec
        self.num_agents = int(num_agents)
        self.dimension = int(dimension)
        self.error_feedback = bool(error_feedback) and not codec.is_identity
        # Residuals are created lazily per channel: algorithms differ in how
        # many payload streams they gossip (one for DMSGD, two for PDSL).
        self._residuals: Dict[str, np.ndarray] = {}
        self.rngs: Optional[List[np.random.Generator]] = (
            [
                np.random.default_rng([int(seed), 0xC0DEC, agent])
                for agent in range(self.num_agents)
            ]
            if codec.uses_rng
            else None
        )

    # ------------------------------------------------------------------
    # Compression kernels
    # ------------------------------------------------------------------
    def _residual_for(self, channel: str) -> Optional[np.ndarray]:
        if not self.error_feedback:
            return None
        residual = self._residuals.get(channel)
        if residual is None:
            residual = np.zeros((self.num_agents, self.dimension), dtype=np.float64)
            self._residuals[channel] = residual
        return residual

    def ensure_channel(self, channel: str) -> None:
        """Eagerly create the channel's residual buffer (normally lazy).

        The blocked round pipeline calls this before dispatching blocks to
        a parallel scheduler: lazy creation from concurrent blocks would
        race, with one block's residual updates landing in a buffer that is
        immediately discarded.
        """
        self._residual_for(channel)

    def compress_rows(
        self,
        channel: str,
        matrix: np.ndarray,
        active_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decoded fleet matrix after compressing every (active) agent's row.

        Inactive rows pass through untouched: they transmit nothing, so
        their residuals stay put and their sparsifier streams are not
        consumed.
        """
        return self.compress_block(channel, matrix, 0, self.num_agents, active_mask)

    def compress_block(
        self,
        channel: str,
        block: np.ndarray,
        start: int,
        stop: int,
        active_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compress the rows of agents ``start..stop`` (one row block of the round).

        Residuals and sparsifier streams are addressed by absolute agent
        index, so processing disjoint blocks in any order (including
        concurrently, after :meth:`ensure_channel`) is bit-identical to one
        :meth:`compress_rows` call over the whole fleet.
        Returns the decoded ``(stop - start, d)`` block (float64).
        """
        block = np.asarray(block, dtype=np.float64)
        residual = self._residual_for(channel)
        sub_mask = None if active_mask is None else active_mask[start:stop]
        if sub_mask is None or bool(sub_mask.all()):
            work = block + residual[start:stop] if residual is not None else block
            rngs = None if self.rngs is None else self.rngs[start:stop]
            decoded = self.codec.decode_rows(work, rngs)
            if residual is not None:
                residual[start:stop] = work - decoded
            return decoded
        active = np.flatnonzero(sub_mask)
        out = block.copy()
        if active.size == 0:
            return out
        work = block[active]
        if residual is not None:
            work = work + residual[start:stop][active]
        rngs = (
            None
            if self.rngs is None
            else [self.rngs[start + int(i)] for i in active]
        )
        decoded = self.codec.decode_rows(work, rngs)
        out[active] = decoded
        if residual is not None:
            residual[start + active] = work - decoded
        return out

    def residual(self, channel: str) -> Optional[np.ndarray]:
        """The channel's ``(num_agents, dimension)`` residual buffer (or ``None``)."""
        return self._residuals.get(channel)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Resumable compression state: residuals per channel, stream positions."""
        return {
            "codec": self.codec.name,
            "error_feedback": self.error_feedback,
            "residuals": {
                channel: buffer.copy() for channel, buffer in self._residuals.items()
            },
            "rng_states": (
                None
                if self.rngs is None
                else [rng.bit_generator.state for rng in self.rngs]
            ),
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        if payload["codec"] != self.codec.name:
            raise ValueError(
                f"checkpoint compression state was written by codec "
                f"{payload['codec']!r}, cannot restore into {self.codec.name!r}"
            )
        self._residuals = {}
        for channel, buffer in payload["residuals"].items():
            buffer = np.asarray(buffer, dtype=np.float64)
            if buffer.shape != (self.num_agents, self.dimension):
                raise ValueError(
                    f"residual buffer for channel {channel!r} has shape "
                    f"{buffer.shape}, expected ({self.num_agents}, {self.dimension})"
                )
            self._residuals[channel] = buffer.copy()
        rng_states = payload["rng_states"]
        if rng_states is not None:
            if self.rngs is None:
                raise ValueError(
                    "checkpoint carries sparsifier rng streams but this codec "
                    "draws no randomness"
                )
            for rng, state in zip(self.rngs, rng_states):
                rng.bit_generator.state = state
