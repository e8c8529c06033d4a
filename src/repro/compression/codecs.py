"""Gossip payload codecs: quantisation and sparsification.

A :class:`Codec` models lossy compression of the vectors agents gossip.  The
simulation keeps everything in float64 end to end — what a codec returns is
the *decoded* value, i.e. exactly what the receiver would reconstruct after
the encode/transmit/decode round trip — while :meth:`Codec.wire_cost`
reports what the encoded message would have cost on a real wire.  This keeps
the numerics faithful (every consumer mixes the reconstructed values) and lets
:class:`~repro.simulation.network.Network` account compressed byte traffic
without ever materialising byte buffers.

Codecs operate row-wise on ``(M, dimension)`` matrices: every operation is
per-row/elementwise, so compressing one agent's vector through a
single-row matrix is bit-identical to compressing it as one row of the
whole fleet, or of any row block.

Four lossy codecs are provided, mirroring the standard communication-
efficient-SGD toolbox (and Bagua's low-precision decentralized algorithm):

* :class:`FP16Codec` — round to IEEE half precision (2 bytes/coordinate);
* :class:`Int8Codec` — symmetric per-row int8 quantisation with one float64
  scale per message (1 byte/coordinate + 8 bytes);
* :class:`TopKCodec` — keep the ``k`` largest-magnitude coordinates
  (value + int32 index, 12 bytes per kept coordinate);
* :class:`RandomKCodec` — keep ``k`` uniformly random coordinates (unbiased
  up to scaling; same wire format as top-k), chosen by raw random words the
  caller supplies (:class:`~repro.compression.state.CompressionState` reads
  them from the run's ``"codec"`` stream).

:class:`IdentityCodec` is the no-op reference: same object back, dense
float64 wire cost.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "Codec",
    "IdentityCodec",
    "FP16Codec",
    "Int8Codec",
    "TopKCodec",
    "RandomKCodec",
    "make_codec",
]

#: Wire cost of one kept coordinate in the sparse codecs: a float64 value
#: plus an int32 index.
_SPARSE_BYTES_PER_COORD = 12


def _trim_ties(keep: np.ndarray, key: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """``keep`` cut to ``k`` coordinates per row by dropping ties at ``kth``.

    ``keep`` holds every coordinate of a row that ranks at or above the row's
    ``k``-th ranked ``key`` value ``kth``, so a row keeps more than ``k`` only
    when several coordinates tie at ``kth``.  On those rows (and only those:
    the pass stays small) the surplus ties are dropped from the highest
    index down, which keeps the lowest-index ties.  ``keep`` is updated in
    place and returned.
    """
    surplus = np.count_nonzero(keep, axis=1) - k
    over = np.flatnonzero(surplus > 0)
    if over.size:
        ties = key[over] == kth[over]
        rank = np.cumsum(ties, axis=1)
        keep_ties = rank[:, -1:] - surplus[over, None]
        keep[over] &= ~(ties & (rank > keep_ties))
    return keep


class Codec:
    """Base class: decode-after-round-trip semantics plus wire accounting."""

    #: Codec identifier (one of :data:`repro.compression.config.CODEC_NAMES`).
    name: str = ""
    #: True only for :class:`IdentityCodec` (engines skip compression state).
    is_identity: bool = False

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        """``(values_per_message, bytes_per_message)`` for one ``dimension``-vector."""
        raise NotImplementedError

    def decode_rows(self, work: np.ndarray) -> np.ndarray:
        """Reconstructed value of each row after the encode/decode round trip.

        ``work`` is ``(M, dimension)``.  Every operation is per-row, so
        single-row and whole-fleet calls are bit-identical.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class IdentityCodec(Codec):
    """No compression: dense float64 on the wire, values pass through."""

    name = "identity"
    is_identity = True

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        return int(dimension), 8 * int(dimension)

    def decode_rows(self, work):
        return work


class FP16Codec(Codec):
    """Round every coordinate to IEEE half precision (2 bytes each)."""

    name = "fp16"

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        return int(dimension), 2 * int(dimension)

    def decode_rows(self, work):
        work = np.asarray(work, dtype=np.float64)
        return work.astype(np.float16).astype(np.float64)


class Int8Codec(Codec):
    """Symmetric per-row int8 quantisation with one float64 scale per message.

    Each row is scaled so its largest magnitude maps to 127, rounded to the
    nearest integer level and rescaled; an all-zero row stays exactly zero.
    Values that are exact multiples of the scale (including the row maximum
    itself) round-trip exactly.
    """

    name = "int8"

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        # One int8 per coordinate plus the float64 scale.
        return int(dimension), int(dimension) + 8

    def decode_rows(self, work):
        work = np.asarray(work, dtype=np.float64)
        scale = np.max(np.abs(work), axis=1, keepdims=True) / 127.0
        safe = np.where(scale > 0.0, scale, 1.0)
        levels = np.clip(np.rint(work / safe), -127.0, 127.0)
        return np.where(scale > 0.0, levels * safe, 0.0)


class TopKCodec(Codec):
    """Keep each row's ``k`` largest-magnitude coordinates, zero the rest.

    The selection is deterministic, and equal to a stable sort of ``-|x|``
    cut after ``k`` entries:

    * ties at the ``k``-th largest magnitude go to the lowest indices;
    * NaN ranks below every magnitude, so a NaN coordinate is kept only when
      fewer than ``k`` coordinates of its row are not NaN (lowest-index NaNs
      first).

    It runs as a selection, not a sort: one ``np.partition`` finds each
    row's ``k``-th largest magnitude, every coordinate at or above it is
    kept, and only rows with surplus ties at it take a tie pass.  Kept
    coordinates are exact copies (signed zeros and NaN payloads included);
    dropped ones are ``+0.0``.  Wire format: ``k`` (value, index) pairs.
    """

    name = "topk"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be a positive coordinate count")
        self.k = int(k)

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        k = min(self.k, int(dimension))
        return k, _SPARSE_BYTES_PER_COORD * k

    def decode_rows(self, work):
        work = np.asarray(work, dtype=np.float64)
        if self.k >= work.shape[1]:
            return work.copy()
        mag = np.abs(work)
        mag[np.isnan(mag)] = -1.0  # NaN ranks below every magnitude
        cut = work.shape[1] - self.k
        # Copied out so the partitioned matrix is freed before the output exists.
        kth = np.partition(mag, cut, axis=1)[:, cut : cut + 1].copy()
        keep = _trim_ties(mag >= kth, mag, kth, self.k)
        return np.where(keep, work, 0.0)

    def describe(self) -> str:
        return f"topk(k={self.k})"


class RandomKCodec(Codec):
    """Keep ``k`` uniformly random coordinates per row, zero the rest.

    Row ``r`` keeps the ``k`` coordinates whose entries of ``words[r]`` (one
    raw 64-bit random word per coordinate) are smallest: the ranks of
    independent uniform keys are a uniformly random permutation, so the kept
    set is a uniformly random ``k``-subset, and a pure function of the row's
    own words.  It runs top-k's selection and tie pass: a duplicate word at
    the ``k``-th smallest goes to the lowest index, a case in which
    ``np.argpartition``'s pick is unspecified; on rows whose words are
    distinct the kept set is the ``k`` smallest words either way.  Same wire
    format as top-k.
    """

    name = "randomk"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be a positive coordinate count")
        self.k = int(k)

    def wire_cost(self, dimension: int) -> Tuple[int, int]:
        k = min(self.k, int(dimension))
        return k, _SPARSE_BYTES_PER_COORD * k

    def decode_rows(self, work, words: Optional[np.ndarray] = None):
        work = np.asarray(work, dtype=np.float64)
        if words is None or np.shape(words) != work.shape:
            raise ValueError(
                f"randomk needs one random word per coordinate: got words of "
                f"shape {None if words is None else np.shape(words)} for rows "
                f"of shape {work.shape}"
            )
        if self.k >= work.shape[1]:
            return work.copy()
        kth = np.partition(words, self.k - 1, axis=1)[:, self.k - 1 : self.k].copy()
        keep = _trim_ties(words <= kth, words, kth, self.k)
        return np.where(keep, work, 0.0)

    def describe(self) -> str:
        return f"randomk(k={self.k})"


def make_codec(config, dimension: int) -> Codec:
    """Instantiate the codec a :class:`~repro.compression.config.CompressionConfig` names.

    The sparsifying codecs resolve ``k=None`` to one tenth of the model
    dimension (at least 1) and reject ``k`` larger than the dimension —
    a "sparse" message bigger than the dense one is a configuration error.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    name = config.codec
    if name == "identity":
        return IdentityCodec()
    if name == "fp16":
        return FP16Codec()
    if name == "int8":
        return Int8Codec()
    if name in ("topk", "randomk"):
        k = config.k if config.k is not None else max(1, int(dimension) // 10)
        if k > dimension:
            raise ValueError(
                f"k={k} exceeds the model dimension {dimension}; a sparse "
                f"message larger than the dense vector is a configuration error"
            )
        return TopKCodec(k) if name == "topk" else RandomKCodec(k)
    raise ValueError(f"unknown codec {name!r}")
