"""The Shapley characteristic function used by PDSL (eqs. 15–17).

After agent ``i`` receives the perturbed cross-gradients ``g_hat_{j,i}`` from
its neighbours, it forms one candidate model update per neighbour,

    ``x_{i,j} = x_i^{t-1} - gamma * g_hat_{j,i}``            (eq. 15)

and scores a coalition ``M' ⊆ M_i`` by the validation performance of the
*average* of the corresponding candidate models,

    ``v(M'; Q) = (1/|Q|) * sum_{xi in Q} J(xi; mean_{j in M'} x_{i,j})``  (eqs. 16–17)

where ``J`` is per-sample accuracy.  :func:`make_update_characteristic` builds
this callable for one agent and one round; it is then handed to the Shapley
machinery in :mod:`repro.game`.  :func:`coalition_values` scores the planned
coalitions of many such games at once, in stacked passes, with the same
results.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.dataset import Dataset
from repro.game.shapley import coalition_members
from repro.nn.batched import StackedSequential
from repro.nn.model import Model

__all__ = [
    "validation_characteristic",
    "validation_batch",
    "make_update_characteristic",
    "coalition_values",
]

#: Bytes of coalition-mean models :func:`coalition_values` holds before it
#: scores them, so its memory does not grow with the number of games.
_COALITION_CHUNK_BYTES = 8 << 20

#: One game for :func:`coalition_values`: its ``(Z, d)`` candidate models,
#: the coalition bitmasks to score and its ``(inputs, labels)`` validation batch.
Game = Tuple[np.ndarray, Sequence[int], Tuple[np.ndarray, np.ndarray]]


def validation_characteristic(
    model: Model,
    params: np.ndarray,
    validation_inputs: np.ndarray,
    validation_labels: np.ndarray,
    metric: str = "accuracy",
) -> float:
    """Score one parameter vector on the validation data.

    ``metric="accuracy"`` is the paper's choice (eq. 16); ``metric="neg_loss"``
    returns the negative cross-entropy loss, a smoother signal used by an
    ablation (it distinguishes candidate models even when they all predict
    the same labels).
    """
    if metric == "accuracy":
        return model.accuracy(validation_inputs, validation_labels, params=params)
    if metric == "neg_loss":
        return -model.evaluate_loss(validation_inputs, validation_labels, params=params)
    raise ValueError("metric must be 'accuracy' or 'neg_loss'")


def validation_batch(
    validation: Dataset,
    validation_batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(inputs, labels)`` one agent's game is scored on in one round.

    With ``validation_batch_size`` smaller than ``Q``, one uniform subsample
    of that size is drawn from ``rng`` (so every coalition of the game sees
    the same data, keeping the game well defined); otherwise ``Q``'s own
    arrays are returned and nothing is drawn.
    """
    if len(validation) == 0:
        raise ValueError("validation dataset must be non-empty")
    if validation_batch_size is not None and validation_batch_size < len(validation):
        if rng is None:
            raise ValueError("rng is required when subsampling the validation set")
        subsample = validation.sample(validation_batch_size, rng)
        return subsample.inputs, subsample.labels
    return validation.inputs, validation.labels


def make_update_characteristic(
    model: Model,
    candidate_updates: Mapping[Hashable, np.ndarray],
    validation: Dataset,
    metric: str = "accuracy",
    validation_batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Callable[[Tuple[Hashable, ...]], float]:
    """Build the characteristic function ``v(M'; Q)`` for one agent and round.

    Parameters
    ----------
    candidate_updates:
        ``{j: x_{i,j}}`` — the per-neighbour candidate models of eq. 15.
    validation:
        The shared validation dataset ``Q``.
    validation_batch_size:
        If given, the validation data is one subsample of ``Q`` of this
        size, drawn here from ``rng`` by :func:`validation_batch` and used
        for every evaluation.
    """
    if len(candidate_updates) == 0:
        raise ValueError("candidate_updates must contain at least one neighbour")
    inputs, labels = validation_batch(validation, validation_batch_size, rng)

    updates: Dict[Hashable, np.ndarray] = {
        k: np.asarray(v, dtype=np.float64) for k, v in candidate_updates.items()
    }

    def characteristic(coalition: Tuple[Hashable, ...]) -> float:
        members = [m for m in coalition if m in updates]
        if not members:
            return 0.0
        averaged = np.mean(np.stack([updates[m] for m in members], axis=0), axis=0)
        return validation_characteristic(model, averaged, inputs, labels, metric=metric)

    return characteristic


def coalition_values(
    model: Model,
    games: Iterable[Game],
    metric: str = "accuracy",
    stacked: Optional[StackedSequential] = None,
) -> Iterator[np.ndarray]:
    """``v(M'; Q)`` of every listed coalition of many games (eqs. 16–17).

    Game ``g`` is ``(candidates, masks, (inputs, labels))``: bit ``k`` of a
    mask selects row ``k`` of ``candidates``.  Yields one array per game, in
    game order, entry ``m`` the value of ``masks[m]``, bit-identical to what
    :func:`make_update_characteristic` returns for that coalition when its
    players are the candidate rows in order.

    Each game's coalitions are grouped by size and averaged as
    ``candidates[members].mean(axis=1)``, the same sums as the
    characteristic's ``np.mean(np.stack(...), axis=0)``.  The means are
    scored in passes of about :data:`_COALITION_CHUNK_BYTES`; consecutive
    games on the same validation arrays (the shared ``Q``) share passes.
    With ``stacked`` an accuracy pass runs through
    :meth:`~repro.nn.batched.StackedSequential.accuracies`; ``neg_loss``, or
    a model the stacked engine cannot run (``stacked`` is ``None``), takes
    one :func:`validation_characteristic` call per row.  ``games`` is
    consumed one game at a time and a game's values are yielded once its
    last pass is scored, so memory holds the pass buffer and the few games
    it spans, not all games.
    """
    if metric not in ("accuracy", "neg_loss"):
        raise ValueError("metric must be 'accuracy' or 'neg_loss'")
    return _stream_coalition_values(model, games, metric, stacked)


def _stream_coalition_values(
    model: Model,
    games: Iterable[Game],
    metric: str,
    stacked: Optional[StackedSequential],
) -> Iterator[np.ndarray]:
    """The generator behind :func:`coalition_values`."""
    # Games not yet yielded, from index ``yielded`` on.
    values: Dict[int, np.ndarray] = {}
    yielded = 0
    # Means waiting to be scored, and the (game, positions, row) each
    # block of them belongs to.
    buffer: Optional[np.ndarray] = None
    owners: List[Tuple[int, List[int], int]] = []
    filled = 0
    batch: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def flush() -> None:
        nonlocal filled
        if filled:
            scores = _score_rows(model, stacked, metric, buffer[:filled], *batch)
            for game, positions, row in owners:
                values[game][positions] = scores[row : row + len(positions)]
        owners.clear()
        filled = 0

    def complete(upto: int) -> Iterator[np.ndarray]:
        """Yield the games before ``upto`` (or before the first unscored one)."""
        nonlocal yielded
        if owners:
            upto = min(upto, owners[0][0])
        while yielded < upto:
            yield values.pop(yielded)
            yielded += 1

    for game, (candidates, masks, game_batch) in enumerate(games):
        if batch is None or game_batch[0] is not batch[0] or game_batch[1] is not batch[1]:
            flush()
            batch = game_batch
        if buffer is None:
            rows = max(1, _COALITION_CHUNK_BYTES // (8 * candidates.shape[1]))
            buffer = np.empty((rows, candidates.shape[1]))
        values[game] = np.empty(len(masks), dtype=np.float64)
        by_size: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for position, mask in enumerate(masks):
            members = coalition_members(mask)
            positions, rows = by_size.setdefault(len(members), ([], []))
            positions.append(position)
            rows.append(members)
        for size, (positions, rows) in by_size.items():
            index = np.asarray(rows, dtype=np.intp)
            start = 0
            while start < len(positions):
                # At most len(buffer) / size coalitions at a time also bound
                # the (count, size, d) gather.
                count = min(
                    len(positions) - start,
                    max(1, len(buffer) // size),
                    len(buffer) - filled,
                )
                np.mean(
                    candidates[index[start : start + count]],
                    axis=1,
                    out=buffer[filled : filled + count],
                )
                owners.append((game, positions[start : start + count], filled))
                filled += count
                start += count
                if filled == len(buffer):
                    flush()
        yield from complete(game + 1)
    flush()
    yield from complete(yielded + len(values))


def _score_rows(
    model: Model,
    stacked: Optional[StackedSequential],
    metric: str,
    rows: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """:func:`validation_characteristic` of every row of ``rows``."""
    if stacked is not None and metric == "accuracy":
        return stacked.accuracies(rows, inputs, labels)
    return np.array(
        [validation_characteristic(model, row, inputs, labels, metric) for row in rows],
        dtype=np.float64,
    )
