"""Per-agent compression state: error-feedback residuals.

One :class:`CompressionState` lives on each algorithm instance (when a lossy
codec is configured) and owns everything compression adds to the resumable
state: a residual buffer per agent per gossip *channel* (a channel is one
logical payload stream, e.g. ``"model"`` or the two halves ``"mix.0"`` /
``"mix.1"`` of a tuple message).

The random-k sparsifier holds no generator state: agent ``i``'s kept
coordinates on ``channel`` in round ``t`` are chosen by the words of the
run's ``"codec"`` stream at ``(t, crc32(channel), i)``
(:class:`~repro.core.streams.FleetStreams`).  Every channel is encoded at
most once per round per agent, so each encoding has its own address, and
the selection does not depend on the row blocking or on what a checkpoint
holds.

Error feedback implements the standard memory scheme: the transmitted value
is ``C(x + e)`` and the new residual is ``e' = (x + e) - C(x + e)``, so the
sum of everything ever transmitted plus the current residual telescopes to
the sum of everything ever offered — compression introduces no systematic
drift.

The round pipeline calls :meth:`compress_block` on each row block of the
fleet matrix; any row blocking is bit-identical per agent to one call over
the whole fleet.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.compression.codecs import Codec, RandomKCodec

if TYPE_CHECKING:  # pragma: no cover - repro.core imports this module
    from repro.core.streams import FleetStreams

__all__ = ["CompressionState"]


class CompressionState:
    """Residual buffers of one algorithm instance, plus its sparsifier stream.

    ``streams`` is the run's :class:`~repro.core.streams.FleetStreams`; only
    the random-k codec reads it, and requires it.
    """

    def __init__(
        self,
        codec: Codec,
        num_agents: int,
        dimension: int,
        error_feedback: bool = True,
        streams: Optional["FleetStreams"] = None,
    ) -> None:
        if num_agents < 1 or dimension < 1:
            raise ValueError("num_agents and dimension must be positive")
        if isinstance(codec, RandomKCodec) and streams is None:
            raise ValueError(
                "the randomk codec draws its coordinates from the run's "
                "FleetStreams: pass streams="
            )
        self.codec = codec
        self.num_agents = int(num_agents)
        self.dimension = int(dimension)
        self.error_feedback = bool(error_feedback) and not codec.is_identity
        self.streams = streams
        # Residuals are created lazily per channel: algorithms differ in how
        # many payload streams they gossip (one for DMSGD, two for PDSL).
        self._residuals: Dict[str, np.ndarray] = {}

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

    def _decode(
        self, channel: str, work: np.ndarray, agents: np.ndarray, step: int
    ) -> np.ndarray:
        """``work`` (one row per entry of ``agents``) through the codec."""
        if not isinstance(self.codec, RandomKCodec):
            return self.codec.decode_rows(work)
        words = self.streams.row_words(
            "codec",
            step,
            agents,
            np.zeros(agents.size, dtype=np.int64),
            self.dimension,
            lane=zlib.crc32(channel.encode()),
        )
        return self.codec.decode_rows(work, words)

    def compress_block(
        self,
        channel: str,
        block: np.ndarray,
        start: int,
        stop: int,
        active_mask: Optional[np.ndarray] = None,
        step: int = 0,
    ) -> np.ndarray:
        """Compress the rows of agents ``start..stop`` (one row block of round ``step``).

        Residuals and sparsifier draws are addressed by absolute agent
        index, so processing disjoint blocks in any order (including
        concurrently, after :meth:`ensure_channel`) is bit-identical to one
        call over the whole fleet.  Inactive rows (``active_mask`` false)
        pass through untouched: they transmit nothing, so their residuals
        stay put and they draw nothing.  Returns the decoded
        ``(stop - start, d)`` block (float64).
        """
        block = np.asarray(block, dtype=np.float64)
        residual = self._residual_for(channel)
        sub_mask = None if active_mask is None else active_mask[start:stop]
        if sub_mask is None or bool(sub_mask.all()):
            work = block + residual[start:stop] if residual is not None else block
            decoded = self._decode(channel, work, np.arange(start, stop), step)
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
        decoded = self._decode(channel, work, start + active, step)
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
        """Resumable compression state: the codec's identity and the residuals."""
        return {
            "codec": self.codec.describe(),
            "error_feedback": self.error_feedback,
            "residuals": {
                channel: buffer.copy() for channel, buffer in self._residuals.items()
            },
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`state_dict`.

        The codec (with its parameters, e.g. top-k's ``k``) and the error
        feedback setting must match the ones that wrote the payload.
        """
        if payload["codec"] != self.codec.describe():
            raise ValueError(
                f"checkpoint compression state was written by codec "
                f"{payload['codec']!r}, cannot restore into {self.codec.describe()!r}"
            )
        if bool(payload["error_feedback"]) != self.error_feedback:
            raise ValueError(
                f"checkpoint compression state was written with "
                f"error_feedback={bool(payload['error_feedback'])}, cannot "
                f"restore into error_feedback={self.error_feedback}"
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
