"""Tests for exact / Monte-Carlo Shapley values, normalisation and weights (eqs. 18-20)."""

import itertools
import math

import numpy as np
import pytest

from repro.game.cooperative import CooperativeGame
from repro.game.shapley import (
    _monte_carlo_shapley_sequential,
    coalition_members,
    exact_shapley,
    monte_carlo_shapley,
    normalize_shapley,
    plan_shapley,
    reduce_shapley,
    shapley_aggregation_weights,
)


def additive_game(players, contributions):
    lookup = dict(zip(players, contributions))
    return CooperativeGame(players, lambda c: float(sum(lookup[p] for p in c)))


def glove_game():
    """Classic 3-player glove game: player 0 has a left glove, players 1,2 right gloves."""

    def value(coalition):
        left = 1 if 0 in coalition else 0
        right = sum(1 for p in coalition if p in (1, 2))
        return float(min(left, right))

    return CooperativeGame([0, 1, 2], value)


class TestExactShapley:
    def test_additive_game_gives_contributions(self):
        game = additive_game([0, 1, 2], [1.0, 2.0, 3.0])
        phi = exact_shapley(game)
        np.testing.assert_allclose([phi[0], phi[1], phi[2]], [1.0, 2.0, 3.0])

    def test_glove_game_known_values(self):
        phi = exact_shapley(glove_game())
        np.testing.assert_allclose(phi[0], 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(phi[1], 1.0 / 6.0, atol=1e-12)
        np.testing.assert_allclose(phi[2], 1.0 / 6.0, atol=1e-12)

    def test_efficiency(self):
        game = glove_game()
        phi = exact_shapley(game)
        np.testing.assert_allclose(sum(phi.values()), game.grand_coalition_value(), atol=1e-12)

    def test_single_player_game(self):
        game = CooperativeGame([7], lambda c: 5.0 if c else 0.0)
        phi = exact_shapley(game)
        assert phi[7] == 5.0

    def test_dummy_player_gets_zero(self):
        def value(coalition):
            return 1.0 if 0 in coalition else 0.0

        game = CooperativeGame([0, 1], value)
        phi = exact_shapley(game)
        np.testing.assert_allclose(phi[1], 0.0, atol=1e-12)

    def test_symmetric_players_equal(self):
        def value(coalition):
            return float(len(coalition) >= 2)

        game = CooperativeGame([0, 1, 2], value)
        phi = exact_shapley(game)
        assert abs(phi[0] - phi[1]) < 1e-12
        assert abs(phi[1] - phi[2]) < 1e-12


class TestMonteCarloShapley:
    def test_unbiased_for_additive_game(self):
        game = additive_game([0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
        phi = monte_carlo_shapley(game, 50, np.random.default_rng(0))
        # additive games: every permutation gives the exact marginal, so MC is exact
        np.testing.assert_allclose([phi[i] for i in range(4)], [1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_converges_to_exact(self):
        game = glove_game()
        exact = exact_shapley(game)
        estimate = monte_carlo_shapley(game, 3000, np.random.default_rng(1))
        for player in (0, 1, 2):
            assert abs(estimate[player] - exact[player]) < 0.05

    def test_efficiency_holds_per_sample(self):
        # permutation sampling preserves efficiency exactly for any R
        game = glove_game()
        phi = monte_carlo_shapley(game, 7, np.random.default_rng(2))
        np.testing.assert_allclose(sum(phi.values()), game.grand_coalition_value(), atol=1e-12)

    def test_deterministic_given_rng(self):
        game = glove_game()
        a = monte_carlo_shapley(game, 10, np.random.default_rng(5))
        b = monte_carlo_shapley(game, 10, np.random.default_rng(5))
        assert a == b

    def test_invalid_permutation_count(self):
        with pytest.raises(ValueError):
            monte_carlo_shapley(glove_game(), 0, np.random.default_rng(0))


def synergy_game(num_players):
    """Superadditive pairwise synergies (non-trivial Shapley values) on any player count."""
    bonus = {frozenset({0, 1}): 1.5, frozenset({2, 3}): 0.75, frozenset({1, 4}): 0.5}

    def value(coalition):
        members = set(coalition)
        total = float(sum(0.2 * (p + 1) for p in members))
        for pair, extra in bonus.items():
            if pair <= members:
                total += extra
        return total

    return CooperativeGame(list(range(num_players)), value)


# 63 and 64 straddle one uint64 word; 70 and 128 need more than one.
PLAYER_COUNTS = (1, 5, 63, 64, 70, 128)


class TestShapleyPlan:
    """Plan, evaluate in plan order, reduce: the walk both estimators share."""

    def test_coalition_members_are_the_set_bits_ascending(self):
        assert coalition_members(0) == []
        assert coalition_members(0b1011) == [0, 1, 3]
        assert coalition_members(1 << 100 | 1 << 64 | 2) == [1, 64, 100]

    @pytest.mark.parametrize("num_players", [1, 3, 6])
    def test_exact_plan_lists_every_nonempty_coalition_and_draws_nothing(self, num_players):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        plan = plan_shapley(num_players, 0, rng)
        assert list(plan.masks) == list(range(1, 1 << num_players))
        assert plan.orders is None and plan.slots is None
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("num_players", [1, 5, 70])
    def test_monte_carlo_plan_lists_unique_prefixes_in_first_encounter_order(self, num_players):
        plan = plan_shapley(num_players, 6, np.random.default_rng(2))
        expected = []
        for r, order in enumerate(plan.orders.tolist()):
            mask = 0
            for position, k in enumerate(order):
                mask |= 1 << k
                if mask not in expected:
                    expected.append(mask)
                assert plan.masks[plan.slots[r, position]] == mask
        assert plan.masks == expected

    def test_plan_consumes_one_permutation_per_sample(self):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        plan = plan_shapley(7, 3, rng)
        np.testing.assert_array_equal(plan.orders, [twin.permutation(7) for _ in range(3)])
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("num_permutations", [0, 1, 9])
    def test_reduce_of_planned_values_equals_the_game_estimators(self, num_permutations):
        game = synergy_game(6)
        plan = plan_shapley(6, num_permutations, np.random.default_rng(5))
        values = [game.value(coalition_members(mask)) for mask in plan.masks]
        totals = reduce_shapley(plan, values)
        if num_permutations == 0:
            expected = exact_shapley(synergy_game(6))
        else:
            expected = monte_carlo_shapley(
                synergy_game(6), num_permutations, np.random.default_rng(5)
            )
        assert {k: float(totals[k]) for k in range(6)} == expected

    def test_negative_permutation_count_rejected(self):
        with pytest.raises(ValueError):
            plan_shapley(3, -1, np.random.default_rng(0))

    def test_exact_value_is_bitwise_the_per_player_subset_walk(self):
        # eq. 8 summed per player, over subset sizes and then combinations
        # of the other players: the accumulation order the reduction keeps.
        rng = np.random.default_rng(6)
        table = {}

        def value(coalition):
            key = frozenset(coalition)
            if key not in table:
                table[key] = float(rng.normal()) if key else 0.0
            return table[key]

        players = list(range(7))
        walked = {}
        for player in players:
            others = [p for p in players if p != player]
            total = 0.0
            for size in range(len(players)):
                coefficient = 1.0 / (len(players) * math.comb(len(players) - 1, size))
                for subset in itertools.combinations(others, size):
                    total += coefficient * (value(set(subset) | {player}) - value(subset))
            walked[player] = total
        assert exact_shapley(CooperativeGame(players, value)) == walked


class TestMonteCarloOracle:
    """The single walk must match the per-permutation oracle and eq. 18."""

    @pytest.mark.parametrize("num_players", PLAYER_COUNTS)
    def test_bitwise_identical_to_sequential_walk(self, num_players):
        # Same seed, same permutation stream, same marginal accumulation
        # order: the bitmask bookkeeping must not change a single bit.
        permutations = 16 if num_players <= 5 else 3
        for seed in (0, 1, 42):
            walked = monte_carlo_shapley(
                synergy_game(num_players), permutations, np.random.default_rng(seed)
            )
            sequential = _monte_carlo_shapley_sequential(
                synergy_game(num_players), permutations, np.random.default_rng(seed)
            )
            assert walked == sequential

    def test_seeded_agreement_with_exact_on_five_players(self):
        game = synergy_game(5)
        exact = exact_shapley(game)
        estimate = monte_carlo_shapley(game, 5000, np.random.default_rng(11))
        for player in range(5):
            assert estimate[player] == pytest.approx(exact[player], abs=0.03)
        # Efficiency is preserved exactly by permutation sampling.
        np.testing.assert_allclose(
            sum(estimate.values()), game.grand_coalition_value(), atol=1e-9
        )

    @pytest.mark.parametrize("num_players", PLAYER_COUNTS)
    def test_characteristic_call_order_matches_sequential(self, num_players):
        # The characteristic may consume its own RNG (validation-batch
        # subsampling), so the walk must issue evaluations for unique
        # coalitions in the same first-encounter order.
        def record_calls(log):
            def value(coalition):
                log.append(tuple(coalition))
                return float(len(coalition))

            return value

        players = [f"p{k}" for k in range(num_players)]
        calls_walk, calls_seq = [], []
        monte_carlo_shapley(
            CooperativeGame(players, record_calls(calls_walk)),
            6,
            np.random.default_rng(3),
        )
        _monte_carlo_shapley_sequential(
            CooperativeGame(players, record_calls(calls_seq)),
            6,
            np.random.default_rng(3),
        )
        assert calls_walk == calls_seq

    def test_hashable_player_labels(self):
        game = additive_game(["alpha", "beta", ("tuple", 1)], [1.0, 2.0, 3.0])
        phi = monte_carlo_shapley(game, 20, np.random.default_rng(0))
        np.testing.assert_allclose(
            [phi["alpha"], phi["beta"], phi[("tuple", 1)]], [1.0, 2.0, 3.0], atol=1e-12
        )

    def test_single_player(self):
        game = CooperativeGame([9], lambda c: 2.5 if c else 0.0)
        phi = monte_carlo_shapley(game, 3, np.random.default_rng(0))
        assert phi[9] == pytest.approx(2.5)


class TestNormalization:
    def test_min_maps_to_zero_max_to_one(self):
        normalized = normalize_shapley({0: 1.0, 1: 3.0, 2: 2.0})
        assert normalized[0] == 0.0
        assert normalized[1] == 1.0
        assert 0.0 < normalized[2] < 1.0

    def test_equal_values_map_to_ones(self):
        normalized = normalize_shapley({0: 0.5, 1: 0.5})
        assert normalized == {0: 1.0, 1: 1.0}

    def test_negative_values_supported(self):
        normalized = normalize_shapley({0: -2.0, 1: 0.0, 2: 2.0})
        np.testing.assert_allclose([normalized[0], normalized[1], normalized[2]], [0.0, 0.5, 1.0])

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            normalize_shapley({})


class TestAggregationWeights:
    def test_formula(self):
        normalized = {0: 1.0, 1: 0.5}
        mixing = {0: 0.5, 1: 0.25}
        weights = shapley_aggregation_weights(normalized, mixing)
        # pi_j = phi_hat_j / (omega_j * sum_k phi_hat_k); sum = 1.5
        np.testing.assert_allclose(weights[0], 1.0 / (0.5 * 1.5))
        np.testing.assert_allclose(weights[1], 0.5 / (0.25 * 1.5))

    def test_zero_shapley_gives_zero_weight(self):
        weights = shapley_aggregation_weights({0: 0.0, 1: 1.0}, {0: 0.5, 1: 0.5})
        assert weights[0] == 0.0
        assert weights[1] > 0.0

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shapley_aggregation_weights({0: 1.0}, {1: 0.5})

    def test_nonpositive_mixing_weight_rejected(self):
        with pytest.raises(ValueError):
            shapley_aggregation_weights({0: 1.0}, {0: 0.0})

    def test_all_zero_shapley_values_do_not_crash(self):
        weights = shapley_aggregation_weights({0: 0.0, 1: 0.0}, {0: 0.5, 1: 0.5})
        assert weights[0] == 0.0 and weights[1] == 0.0
