"""Exact and Monte-Carlo Shapley values, normalisation and aggregation weights.

These implement eqs. 7/8 (exact), Algorithm 2 (permutation-sampling Monte
Carlo), eq. 19 (min–max normalisation) and eq. 20 (the aggregation weights
``pi_{ij}`` combining normalised Shapley values with the mixing weights).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Mapping

import numpy as np

from repro.game.cooperative import CooperativeGame

__all__ = [
    "exact_shapley",
    "monte_carlo_shapley",
    "normalize_shapley",
    "shapley_aggregation_weights",
]

Player = Hashable


def exact_shapley(game: CooperativeGame) -> Dict[Player, float]:
    """Exact Shapley values via the subset formulation (eq. 8).

    ``phi_i = sum_{Z' subseteq Z \\ {i}}  [ Z * C(Z-1, |Z'|) ]^{-1}
              ( v(Z' ∪ {i}) - v(Z') )``

    Complexity is ``O(2^Z)`` characteristic evaluations, so this is intended
    for the small neighbourhoods of the decentralized setting and for testing
    the Monte-Carlo estimator.
    """
    players = game.players
    z = game.num_players
    values: Dict[Player, float] = {}
    for player in players:
        others = [p for p in players if p != player]
        total = 0.0
        for subset_size in range(0, len(others) + 1):
            coefficient = 1.0 / (z * math.comb(z - 1, subset_size))
            for subset in itertools.combinations(others, subset_size):
                marginal = game.value(set(subset) | {player}) - game.value(subset)
                total += coefficient * marginal
        values[player] = total
    return values


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
    evaluations (amortised further by the game's memoisation).

    All ``R`` permutations are sampled up front (one ``rng.permutation``
    draw each).  Each permutation grows its coalition as a Python-int
    bitmask, which has no width limit, so any player count takes this walk.
    The first time a coalition is met it is evaluated through the memoised
    game.  That is the call order of the plain per-permutation walk, which
    asks for ``v(predecessors | {player})`` and then ``v(predecessors)``, a
    repeat of the previous position's coalition; so a characteristic that
    consumes its own RNG (validation-batch subsampling) sees the same
    stream.  The ``(R, Z)`` marginals are divided by ``R`` and reduced into
    per-player estimates with one ``np.add.at`` in permutation order, so the
    result is bit-identical to that walk as well.
    """
    if num_permutations <= 0:
        raise ValueError("num_permutations must be positive")
    players = list(game.players)
    n = len(players)
    orders = np.stack([rng.permutation(n) for _ in range(num_permutations)], axis=0)
    values: Dict[int, float] = {}
    marginals = np.empty(orders.shape, dtype=np.float64)
    for r, order in enumerate(orders.tolist()):
        # v(predecessors) is the previous position's v(with player): v(empty)
        # = 0 at the start, so only v(with player) can be a first encounter.
        mask, previous = 0, 0.0
        for position, k in enumerate(order):
            mask |= 1 << k
            if mask not in values:
                values[mask] = game.value([players[j] for j in order[: position + 1]])
            marginals[r, position] = values[mask] - previous
            previous = values[mask]
    marginals /= num_permutations
    totals = np.zeros(n, dtype=np.float64)
    np.add.at(totals, orders.reshape(-1), marginals.reshape(-1))
    return {players[k]: float(totals[k]) for k in range(n)}


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
