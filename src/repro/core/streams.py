"""Keyed counter-based random streams for a whole fleet (Philox4x64-10).

Every random draw of a run — mini-batch indices, DP noise, the per-agent
generators of algorithm-level randomness (PDSL's Shapley permutations), the
fault-injection message drops, the evaluation subsample and the random-k
sparsifier's coordinates — is a pure function of an *address* rather than
the position of a sequential generator (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11):

* the **key** (two 64-bit words) is derived from ``(seed, purpose)``, one
  key per entry of :data:`PURPOSES`: ``"batch"`` (mini-batch indices),
  ``"noise"`` (DP noise), ``"agent"`` (algorithm-level generators),
  ``"drop"`` (message drops), ``"eval"`` (the fixed subsample
  ``average_train_loss`` evaluates) and ``"codec"`` (random-k's kept
  coordinates).  New purposes are appended, never inserted, because a
  purpose's index is its spawn key;
* the **counter** (four 64-bit words) is ``[block, step, slot, lane]``:
  ``step`` is the round (or, in async mode, the agent's own local-step
  count; always 0 for ``"eval"``), ``slot`` the agent's draw index within
  that step (for the ``"agent"`` purpose: the agent itself; for
  ``"drop"``: the sender; 0 for ``"eval"`` and ``"codec"``), ``lane`` is 0
  except for ``"drop"`` and ``"codec"``, where it is the CRC-32 of the
  message tag or gossip channel, and ``block`` the index of a 4-word output
  block inside the ``(step, slot, lane)`` stream.

Inside one ``(purpose, step, slot)`` stream each row owns a fixed word
range ``[row * width, (row + 1) * width)`` (``width = d + d % 2`` for noise,
the batch size for batch draws, the sample cap for the evaluation
subsample, ``d`` for random-k) — so drawing rows ``[s, e)`` returns
exactly the slice of the one-shot ``[0, N)`` draw, and rows that draw
nothing (inactive agents) leave every other row's words unchanged.  A
NumPy ``Philox`` set to ``counter=[b, ...]`` is the generator advanced by
``b`` blocks, so a whole contiguous run of rows is a single ``random_raw``
call, and one bit generator, re-seeked by assigning its state, serves every
run of a :meth:`FleetStreams.row_words` call.

Gaussian noise is made from raw words with Box–Muller (53-bit uniforms,
exactly ``width = d + d % 2`` words per row), not the ziggurat, whose
rejection loop would make a row's word count data-dependent.  Draws are
bit-identical on one host; the transcendental functions Box–Muller uses
may round differently in the last place on another CPU or NumPy build.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

import numpy as np

__all__ = ["PURPOSES", "FleetStreams", "box_muller"]

#: Stream purposes, in key-derivation order (the index is the spawn key).
PURPOSES: Tuple[str, ...] = ("batch", "noise", "agent", "drop", "eval", "codec")

#: Rows whose word ranges are closer than this are drawn by one
#: ``random_raw`` call, discarding the gap: building a bit generator costs
#: about as much as generating this many words.
_MAX_GAP_WORDS = 1024

_WORDS_PER_BLOCK = 4
_UNIT = 2.0**-53


def box_muller(words: np.ndarray, dimension: int) -> np.ndarray:
    """Standard normals from a ``(rows, width)`` array of raw 64-bit words.

    ``width`` must be even: the first half of each row gives the radii
    ``r = sqrt(-2 ln u1)`` (``u1`` in ``(0, 1]``), the second half the
    angles ``2 pi u2`` (``u2`` in ``[0, 1)``), and the row's
    ``dimension <= width`` normals are ``r cos`` then ``r sin``, truncated.
    Cosine and sine come from ``t = tan(pi u2)`` by the half-angle
    identities ``cos = (1 - t^2) / (1 + t^2)``, ``sin = 2t / (1 + t^2)``:
    the same values to rounding, at a fraction of the cost of two trig calls.
    """
    half = words.shape[1] // 2
    radius = np.log(((words[:, :half] >> 11) + 1) * _UNIT)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    tangent = np.tan((words[:, half:] >> 11) * (np.pi * _UNIT))
    squared = tangent * tangent
    radius /= 1.0 + squared
    out = np.empty((words.shape[0], 2 * half), dtype=np.float64)
    np.subtract(1.0, squared, out=out[:, :half])
    out[:, :half] *= radius
    np.multiply(tangent, 2.0, out=out[:, half:])
    out[:, half:] *= radius
    return out[:, :dimension]


class FleetStreams:
    """The keyed Philox streams of one run, addressed by ``(step, slot, row)``.

    Holds nothing but the seed and the per-purpose keys: the position of
    every stream is implied by the address a caller draws at, so a run's
    random state is fully described by ``(seed, rounds_completed)``.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._keys: Dict[str, np.ndarray] = {
            purpose: np.random.SeedSequence(self.seed, spawn_key=(index,))
            .generate_state(2, np.uint64)
            for index, purpose in enumerate(PURPOSES)
        }

    def words(
        self,
        purpose: str,
        step: int,
        slot: int,
        start: int,
        count: int,
        lane: int = 0,
    ) -> np.ndarray:
        """Raw words ``[start, start + count)`` of one ``(purpose, step, slot, lane)`` stream."""
        block, skip = divmod(int(start), _WORDS_PER_BLOCK)
        bits = np.random.Philox(
            key=self._keys[purpose], counter=[block, int(step), int(slot), int(lane)]
        )
        return bits.random_raw(skip + int(count))[skip:]

    def row_words(
        self,
        purpose: str,
        step: int,
        rows: np.ndarray,
        slots: np.ndarray,
        width: int,
        lane: int = 0,
    ) -> np.ndarray:
        """``(len(rows), width)`` raw words, row ``k`` at ``(step, slots[k], rows[k])``.

        Row ``r`` of a ``(purpose, step, slot)`` stream is its words
        ``[r * width, (r + 1) * width)``.  Each ``(row, slot)`` pair must
        appear at most once.  Rows of one slot closer than
        ``_MAX_GAP_WORDS`` share one generator call (the gap is drawn and
        discarded), so a row block making its first draw of the round is a
        single call.
        """
        rows = np.asarray(rows, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        out = np.empty((rows.size, width), dtype=np.uint64)
        if rows.size == 0:
            return out
        # One sort groups the rows by slot, ascending within a slot; a run
        # ends where the slot changes or the next row is too far away.
        order = np.lexsort((rows, slots))
        ordered, ordered_slots = rows[order], slots[order]
        cuts = np.flatnonzero(
            (np.diff(ordered_slots) != 0)
            | ((np.diff(ordered) - 1) * width > _MAX_GAP_WORDS)
        ) + 1
        bounds = [0, *cuts.tolist(), order.size]
        row_list, slot_list = ordered.tolist(), ordered_slots.tolist()
        # One bit generator, seeked to each run by assigning its state: a
        # counter and an empty output buffer are what Philox(key, counter=...)
        # starts from, without a construction (which also seeds an unused
        # SeedSequence from the OS) per run.  It stays local to the call:
        # block workers share the streams across threads.
        key = self._keys[purpose]
        bits = np.random.Philox(key=key)
        pieces = []
        for begin, stop in zip(bounds[:-1], bounds[1:]):
            low, high = row_list[begin], row_list[stop - 1] + 1
            block, skip = divmod(low * width, _WORDS_PER_BLOCK)
            counter = [block, int(step), slot_list[begin], int(lane)]
            bits.state = {
                "bit_generator": "Philox",
                "state": {"counter": np.array(counter, dtype=np.uint64), "key": key},
                "buffer": np.zeros(_WORDS_PER_BLOCK, dtype=np.uint64),
                "buffer_pos": _WORDS_PER_BLOCK,
                "has_uint32": 0,
                "uinteger": 0,
            }
            count = (high - low) * width
            words = bits.random_raw(skip + count)[skip:].reshape(high - low, width)
            if high - low != stop - begin:
                words = words[ordered[begin:stop] - low]
            pieces.append(words)
        out[order] = np.concatenate(pieces)
        return out

    def normal_rows(
        self, step: int, rows: np.ndarray, slots: np.ndarray, dimension: int
    ) -> np.ndarray:
        """``(len(rows), dimension)`` standard normals (addressed as in :meth:`row_words`)."""
        width = dimension + dimension % 2
        return box_muller(self.row_words("noise", step, rows, slots, width), dimension)

    def edge_uniforms(
        self, step: int, tag: str, senders: np.ndarray, recipients: np.ndarray
    ) -> np.ndarray:
        """A uniform in ``[0, 1)`` per directed message ``senders[k] -> recipients[k]``.

        Message ``s -> r`` of ``tag`` at ``step`` reads word ``r`` of the
        ``("drop", step, s)`` stream in the tag's lane, so whether it is
        dropped depends on nothing but that address: not on the block
        schedule, not on the other messages of the round, and not on
        anything a checkpoint would have to hold.
        """
        lane = zlib.crc32(tag.encode())
        words = self.row_words("drop", step, recipients, senders, 1, lane)
        return (words[:, 0] >> 11) * _UNIT

    def generator(self, purpose: str, step: int, slot: int) -> np.random.Generator:
        """A sequential generator over the whole ``(purpose, step, slot)`` stream."""
        return np.random.Generator(
            np.random.Philox(key=self._keys[purpose], counter=[0, int(step), int(slot), 0])
        )
