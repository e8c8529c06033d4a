"""Tests for the cooperative-game abstraction."""

import pytest

from repro.game.cooperative import CooperativeGame


def additive_value(coalition):
    """Each player i contributes i+1 regardless of partners."""
    return float(sum(p + 1 for p in coalition))


class TestCooperativeGame:
    def test_empty_coalition_is_zero(self):
        game = CooperativeGame([0, 1, 2], additive_value)
        assert game.value([]) == 0.0

    def test_value_of_grand_coalition(self):
        game = CooperativeGame([0, 1, 2], additive_value)
        assert game.grand_coalition_value() == 6.0

    def test_value_order_invariant(self):
        game = CooperativeGame([0, 1, 2], additive_value)
        assert game.value([2, 0]) == game.value([0, 2])

    def test_marginal_contribution(self):
        game = CooperativeGame([0, 1, 2], additive_value)
        assert game.marginal_contribution(2, [0, 1]) == 3.0

    def test_marginal_contribution_player_already_in_coalition(self):
        game = CooperativeGame([0, 1], additive_value)
        with pytest.raises(ValueError):
            game.marginal_contribution(0, [0, 1])

    def test_unknown_player_rejected(self):
        game = CooperativeGame([0, 1], additive_value)
        with pytest.raises(ValueError):
            game.value([0, 5])

    def test_caching_avoids_reevaluation(self):
        calls = []

        def tracked(coalition):
            calls.append(coalition)
            return float(len(coalition))

        game = CooperativeGame([0, 1, 2], tracked)
        game.value([0, 1])
        game.value([1, 0])
        game.value([0, 1])
        assert len(calls) == 1
        assert game.num_evaluations == 1

    def test_requires_at_least_one_player(self):
        with pytest.raises(ValueError):
            CooperativeGame([], additive_value)

    def test_requires_distinct_players(self):
        with pytest.raises(ValueError):
            CooperativeGame([0, 0, 1], additive_value)

    def test_hashable_non_integer_players(self):
        game = CooperativeGame(["a", "b"], lambda c: float(len(c)))
        assert game.value(["a", "b"]) == 2.0
