"""Exact and Monte-Carlo Shapley values, normalisation and aggregation weights.

These implement eqs. 7/8 (exact), Algorithm 2 (permutation-sampling Monte
Carlo), eq. 19 (min–max normalisation) and eq. 20 (the aggregation weights
``pi_{ij}`` combining normalised Shapley values with the mixing weights).

Both estimators run in three steps.  :func:`plan_shapley` fixes the
coalitions to evaluate, as Python-int bitmasks over player positions (bit
``k`` is ``players[k]``; no width limit).  The caller evaluates them, in
plan order.  :func:`reduce_shapley` turns those values into per-player
estimates.  :func:`exact_shapley` and :func:`monte_carlo_shapley` evaluate
through a memoised :class:`~repro.game.cooperative.CooperativeGame`; PDSL
plans every agent's game of a round first and scores all their coalitions
in stacked passes (:mod:`repro.core.pdsl`).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.game.cooperative import CooperativeGame

__all__ = [
    "ShapleyPlan",
    "plan_shapley",
    "reduce_shapley",
    "coalition_members",
    "exact_shapley",
    "monte_carlo_shapley",
    "normalize_shapley",
    "shapley_aggregation_weights",
]

Player = Hashable


class ShapleyPlan(NamedTuple):
    """The coalitions one Shapley computation evaluates, and how to reduce them.

    ``masks`` lists each coalition once, in evaluation order.  For the
    exact value it is every non-empty coalition, the lazy
    ``range(1, 2^Z)``.  For
    Monte Carlo it is each unique coalition in first-encounter order, and
    ``orders`` holds the ``(R, Z)`` sampled permutations; ``slots[r, p]``
    is the index in ``masks`` of the coalition of permutation ``r``'s first
    ``p + 1`` players.
    """

    num_players: int
    masks: Sequence[int]
    orders: Optional[np.ndarray] = None
    slots: Optional[np.ndarray] = None


def coalition_members(mask: int) -> List[int]:
    """Player positions in a coalition bitmask, ascending."""
    members = []
    position = 0
    while mask:
        if mask & 1:
            members.append(position)
        mask >>= 1
        position += 1
    return members


def plan_shapley(
    num_players: int,
    num_permutations: int,
    rng: Optional[np.random.Generator] = None,
) -> ShapleyPlan:
    """The coalitions of an exact (``num_permutations=0``) or Monte-Carlo game.

    Monte Carlo draws all ``R`` permutations up front from ``rng``, one
    ``rng.permutation`` each, and grows each permutation's coalition one
    player at a time.  A coalition joins the plan the first time it is
    met; that is the evaluation order of the plain per-permutation walk,
    which asks for ``v(predecessors | {player})`` and then
    ``v(predecessors)``, the previous position's coalition.  So a
    characteristic that consumes its own RNG sees the same stream.  The
    exact plan lists all ``2^Z - 1`` non-empty coalitions and draws nothing.
    """
    if num_permutations < 0:
        raise ValueError("num_permutations must be non-negative")
    if num_permutations == 0:
        return ShapleyPlan(num_players, range(1, 1 << num_players))
    orders = np.stack(
        [rng.permutation(num_players) for _ in range(num_permutations)], axis=0
    )
    index: Dict[int, int] = {}
    slots = np.empty(orders.shape, dtype=np.intp)
    for r, order in enumerate(orders.tolist()):
        mask = 0
        for position, k in enumerate(order):
            mask |= 1 << k
            slots[r, position] = index.setdefault(mask, len(index))
    return ShapleyPlan(num_players, list(index), orders, slots)


def reduce_shapley(plan: ShapleyPlan, values: Sequence[float]) -> np.ndarray:
    """Per-player Shapley estimates from the values of ``plan.masks``.

    Monte Carlo: marginal ``(r, p)`` is ``v`` of the permutation's first
    ``p + 1`` players minus ``v`` of its first ``p`` (``v(empty) = 0``).
    The ``(R, Z)`` marginals are divided by ``R`` and reduced with one
    ``np.add.at`` in permutation order, bit-identical to accumulating
    ``marginal / R`` walk by walk.  Exact: eq. 8, summed per player over
    subset sizes and then ``itertools.combinations`` of the other players.
    """
    n = plan.num_players
    if plan.orders is None:
        by_mask = [0.0, *(float(v) for v in values)]
        return np.array([_exact_total(n, k, by_mask) for k in range(n)])
    prefix = np.asarray(values, dtype=np.float64)[plan.slots]
    marginals = prefix.copy()
    marginals[:, 1:] -= prefix[:, :-1]
    marginals /= plan.orders.shape[0]
    totals = np.zeros(n, dtype=np.float64)
    np.add.at(totals, plan.orders.reshape(-1), marginals.reshape(-1))
    return totals


def _exact_total(n: int, k: int, by_mask: List[float]) -> float:
    """Eq. 8 for player ``k``, from ``by_mask[mask] = v(mask)``.

    ``phi_k = sum_{Z' subseteq Z \\ {k}}  [ Z * C(Z-1, |Z'|) ]^{-1}
              ( v(Z' ∪ {k}) - v(Z') )``
    """
    bit = 1 << k
    others = [1 << j for j in range(n) if j != k]
    total = 0.0
    for size in range(n):
        coefficient = 1.0 / (n * math.comb(n - 1, size))
        for subset in itertools.combinations(others, size):
            mask = sum(subset)
            total += coefficient * (by_mask[mask | bit] - by_mask[mask])
    return total


def _solve(game: CooperativeGame, plan: ShapleyPlan) -> Dict[Player, float]:
    """Evaluate ``plan`` through the memoised game, in plan order, and reduce it."""
    players = list(game.players)
    values = [
        game.value([players[k] for k in coalition_members(mask)]) for mask in plan.masks
    ]
    totals = reduce_shapley(plan, values)
    return {players[k]: float(totals[k]) for k in range(len(players))}


def exact_shapley(game: CooperativeGame) -> Dict[Player, float]:
    """Exact Shapley values via the subset formulation (eq. 8).

    Complexity is ``O(2^Z)`` characteristic evaluations, so this is intended
    for the small neighbourhoods of the decentralized setting and for testing
    the Monte-Carlo estimator.
    """
    return _solve(game, plan_shapley(game.num_players, 0))


def monte_carlo_shapley(
    game: CooperativeGame,
    num_permutations: int,
    rng: np.random.Generator,
) -> Dict[Player, float]:
    """Permutation-sampling Shapley estimator (Algorithm 2 / Castro et al. 2009).

    For each of ``R = num_permutations`` random permutations ``phi_r`` of the
    player set, every player's marginal contribution with respect to its
    predecessors in ``phi_r`` is accumulated and divided by ``R``.  The
    estimator is unbiased and its cost is ``O(R * Z)`` characteristic
    evaluations, fewer when permutations share coalitions.  The coalitions
    are planned by :func:`plan_shapley`, evaluated in first-encounter order
    and reduced by :func:`reduce_shapley`, so both the characteristic's call
    order and the result are bit-identical to the per-permutation walk.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    return _solve(game, plan_shapley(game.num_players, num_permutations, rng))


def _monte_carlo_shapley_sequential(
    game: CooperativeGame,
    num_permutations: int,
    rng: np.random.Generator,
) -> Dict[Player, float]:
    """Reference per-permutation walk, the oracle :func:`monte_carlo_shapley` is tested against."""
    players = list(game.players)
    estimates = {p: 0.0 for p in players}
    for _ in range(num_permutations):
        order = [players[i] for i in rng.permutation(len(players))]
        predecessors: list[Player] = []
        for player in order:
            marginal = game.value(set(predecessors) | {player}) - game.value(predecessors)
            estimates[player] += marginal / num_permutations
            predecessors.append(player)
    return estimates


def normalize_shapley(values: Mapping[Player, float]) -> Dict[Player, float]:
    """Min–max normalisation of Shapley values (eq. 19).

    ``phi_hat_j = (phi_j - min_k phi_k) / (max_k phi_k - min_k phi_k)``.

    When all values are (numerically) equal, the paper's formula is 0/0; we
    follow the natural convention of returning all ones, which makes the
    downstream aggregation weights collapse to the plain mixing weights.
    """
    if not values:
        raise ValueError("cannot normalise an empty Shapley value mapping")
    keys = list(values.keys())
    raw = np.asarray([float(values[k]) for k in keys], dtype=np.float64)
    lo, hi = float(raw.min()), float(raw.max())
    spread = hi - lo
    if spread <= 1e-12:
        return {k: 1.0 for k in keys}
    normalised = (raw - lo) / spread
    return {k: float(v) for k, v in zip(keys, normalised)}


def shapley_aggregation_weights(
    normalized_values: Mapping[Player, float],
    mixing_weights: Mapping[Player, float],
    floor: float = 1e-12,
) -> Dict[Player, float]:
    """Aggregation weights ``pi_{ij}`` of eq. 20.

    ``pi_{ij} = phi_hat_{ij} / ( omega_{ij} * sum_k phi_hat_{ik} )``

    Parameters
    ----------
    normalized_values:
        Normalised Shapley values ``phi_hat_{ij}`` keyed by neighbour.
    mixing_weights:
        Mixing weights ``omega_{ij}`` keyed by neighbour (all positive).
    floor:
        Tiny value added to the Shapley sum to avoid division by zero when
        every normalised value is zero (cannot happen after
        :func:`normalize_shapley`, which maps the max to 1, but callers may
        pass raw values).
    """
    keys = list(normalized_values.keys())
    if set(keys) != set(mixing_weights.keys()):
        raise ValueError("normalized_values and mixing_weights must share the same keys")
    total = float(sum(normalized_values[k] for k in keys))
    total = max(total, floor)
    weights: Dict[Player, float] = {}
    for k in keys:
        omega = float(mixing_weights[k])
        if omega <= 0:
            raise ValueError(f"mixing weight for player {k!r} must be positive")
        weights[k] = float(normalized_values[k]) / (omega * total)
    return weights
