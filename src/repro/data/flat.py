"""Per-agent local datasets as one concatenated store, and index-based batches.

:class:`FlatShards` keeps every agent's shard as a segment of one
concatenated ``(inputs, labels)`` pair, delimited by per-agent ``starts``
and ``sizes`` (``starts`` is the CSR ``indptr`` when no two agents share a
shard object), so a whole row block of agents is sampled and gathered with a handful of
array operations instead of one Python call per agent.

:class:`FleetBatches` is what a fleet-level draw returns: one row of sample
indices per agent.  It behaves like the list of ``(inputs, labels)`` pairs
the per-agent engines index (``batches[i]``, ``None`` for an agent that drew
nothing), and :meth:`FleetBatches.groups` hands the stacked gradient engine
rectangular ``(M, B, ...)`` tensors grouped by batch length.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["FlatShards", "FleetBatches"]

Batch = Tuple[np.ndarray, np.ndarray]

_UNIT = 2.0**-53

#: Positions one shuffle chunk materialises (``rows * max(n_i, batch)``).
_SHUFFLE_ELEMENTS = 1 << 22


class FlatShards:
    """The agents' local datasets concatenated, with per-agent segment bounds.

    Agent ``i``'s samples are rows ``starts[i]:starts[i] + sizes[i]`` of
    ``inputs`` / ``labels``.  Agents handed the same shard object share one
    stored copy (a fleet built from one shared dataset stores it once).
    """

    def __init__(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self.inputs = inputs
        self.labels = labels
        self.starts = np.asarray(starts, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)

    @classmethod
    def from_datasets(cls, shards: Sequence[Dataset]) -> "FlatShards":
        """Concatenate the distinct shard objects of ``shards`` in first-use order."""
        offsets: Dict[int, int] = {}
        unique: List[Dataset] = []
        starts = np.empty(len(shards), dtype=np.int64)
        stored = 0
        for agent, shard in enumerate(shards):
            offset = offsets.get(id(shard))
            if offset is None:
                offset = offsets[id(shard)] = stored
                unique.append(shard)
                stored += len(shard)
            starts[agent] = offset
        return cls(
            np.concatenate([shard.inputs for shard in unique]),
            np.concatenate([shard.labels for shard in unique]),
            starts,
            np.array([len(shard) for shard in shards], dtype=np.int64),
        )

    def sample(
        self, words: np.ndarray, agents: np.ndarray, batch_size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform batches without replacement, one per agent in ``agents``.

        ``words`` is ``(len(agents), batch_size)`` raw random words, one row
        per agent.  Row ``k`` runs the first ``min(batch_size, n_k)`` steps
        of a Fisher–Yates shuffle of the agent's ``n_k`` samples, step ``j``
        swapping position ``j`` with ``j + floor(u_j (n_k - j))``, so the
        batch is a uniformly random subset in uniformly random order, and a
        pure function of the agent's own words.  Returns ``(index, sizes)``:
        global sample indices (only the first ``sizes[k]`` entries of row
        ``k`` are meaningful) and the batch lengths.
        """
        agents = np.asarray(agents, dtype=np.intp)
        lengths = self.sizes[agents]
        sizes = np.minimum(lengths, batch_size)
        steps = np.arange(batch_size)
        remaining = np.maximum(lengths[:, None] - steps, 1)
        targets = steps + ((words >> 11) * _UNIT * remaining).astype(np.int64)
        targets = np.minimum(targets, lengths[:, None] - 1)
        # Steps past an agent's batch length swap a position with itself.
        targets = np.where(steps < sizes[:, None], targets, steps)
        # Shuffle materialised position rows.  Agents are bucketed by the
        # power of two covering max(n_i, batch_size), so a row is at most
        # twice the agent's own label array and one large shard does not
        # widen every other agent's row; each bucket runs in chunks of
        # about _SHUFFLE_ELEMENTS positions.
        buckets = np.ceil(np.log2(np.maximum(lengths, batch_size))).astype(np.int64)
        local = np.empty((agents.size, batch_size), dtype=np.int64)
        for bucket in np.unique(buckets):
            members = np.flatnonzero(buckets == bucket)
            chunk = max(1, _SHUFFLE_ELEMENTS >> int(bucket))
            for low in range(0, members.size, chunk):
                part = members[low : low + chunk]
                local[part] = _shuffle_prefix(targets[part], 1 << int(bucket))
        index = local + self.starts[agents][:, None]
        index[steps >= sizes[:, None]] = 0
        return index, sizes


def _shuffle_prefix(targets: np.ndarray, width: int) -> np.ndarray:
    """Fisher–Yates prefix on ``(rows, width)`` identity position rows.

    Row ``k`` swaps position ``j`` with ``targets[k, j]`` for every step
    ``j``; returns the first ``targets.shape[1]`` positions.
    """
    count, steps = targets.shape
    rows = np.arange(count)
    shuffled = np.tile(np.arange(width, dtype=np.int64), (count, 1))
    for step in range(steps):
        target = targets[:, step]
        swapped = shuffled[:, step].copy()
        shuffled[:, step] = shuffled[rows, target]
        shuffled[rows, target] = swapped
    return shuffled[:, :steps]


class FleetBatches:
    """Mini-batches of a row-aligned list of agents, as indices into :class:`FlatShards`.

    Row ``k``'s batch is samples ``index[k, :sizes[k]]``; ``sizes[k] == 0``
    marks an agent that drew nothing this round (inactive) and reads back
    as ``None``.
    """

    __slots__ = ("shards", "index", "sizes")

    def __init__(self, shards: FlatShards, index: np.ndarray, sizes: np.ndarray) -> None:
        self.shards = shards
        self.index = index
        self.sizes = sizes

    @classmethod
    def empty(cls, shards: FlatShards, rows: int, batch_size: int) -> "FleetBatches":
        """``rows`` rows that drew nothing (to be filled block by block)."""
        return cls(
            shards,
            np.zeros((rows, batch_size), dtype=np.int64),
            np.zeros(rows, dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.sizes.shape[0])

    def __getitem__(self, row: int) -> Optional[Batch]:
        size = int(self.sizes[row])
        if size == 0:
            return None
        index = self.index[row, :size]
        return self.shards.inputs[index], self.shards.labels[index]

    def __iter__(self) -> Iterator[Optional[Batch]]:
        return (self[row] for row in range(len(self)))

    def take(self, rows: Union[Sequence[int], np.ndarray]) -> "FleetBatches":
        """The batches of ``rows`` (e.g. one row per directed edge's evaluator)."""
        rows = np.asarray(rows, dtype=np.intp)
        return FleetBatches(self.shards, self.index[rows], self.sizes[rows])

    def groups(self) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(rows, inputs, labels)`` per batch length, rows ascending.

        ``inputs`` is ``(len(rows), length, ...)`` and ``labels``
        ``(len(rows), length)``; rows that drew nothing are skipped.  There
        are at most ``batch_size`` groups.  Samples are gathered with
        ``np.take(..., axis=0)``, which copies the same rows as fancy
        indexing but faster.
        """
        for length in np.unique(self.sizes):
            if length == 0:
                continue
            rows = np.flatnonzero(self.sizes == length)
            index = self.index[rows, :length]
            yield (
                rows,
                np.take(self.shards.inputs, index, axis=0),
                np.take(self.shards.labels, index, axis=0),
            )
