"""Cooperative-game substrate: characteristic functions and Shapley values.

Implements Sec. III-C of the paper:

* :class:`CooperativeGame` — a set of players and a characteristic function
  ``v : 2^Z -> R`` with ``v(emptyset) = 0``, every evaluation memoised;
* :func:`exact_shapley` — the exact Shapley value via the subset form (eq. 8);
* :func:`monte_carlo_shapley` — the permutation-sampling estimator of
  Algorithm 2 (Castro et al. 2009), one bitmask walk for any player count;
* :func:`normalize_shapley` — min–max normalisation (eq. 19);
* axiom checkers (efficiency/balance, symmetry, dummy/zero-element,
  additivity) used by the property-based tests.
"""

from repro.game.cooperative import CooperativeGame
from repro.game.shapley import (
    exact_shapley,
    monte_carlo_shapley,
    normalize_shapley,
    shapley_aggregation_weights,
)
from repro.game.axioms import (
    check_additivity,
    check_dummy_player,
    check_efficiency,
    check_symmetry,
)

__all__ = [
    "CooperativeGame",
    "exact_shapley",
    "monte_carlo_shapley",
    "normalize_shapley",
    "shapley_aggregation_weights",
    "check_efficiency",
    "check_symmetry",
    "check_dummy_player",
    "check_additivity",
]
