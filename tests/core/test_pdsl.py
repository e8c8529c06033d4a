"""Tests for the PDSL algorithm (Algorithm 1)."""

import itertools

import numpy as np
import pytest

from repro.bench.reference import reference_round
from repro.core.characteristic import make_update_characteristic
from repro.core.config import AlgorithmConfig, PDSLConfig
from repro.core.pdsl import MAX_EXACT_SHAPLEY_PLAYERS, PDSL
from repro.data.partition import partition_dirichlet, partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.game.cooperative import CooperativeGame
from repro.game.shapley import (
    _monte_carlo_shapley_sequential,
    monte_carlo_shapley,
    normalize_shapley,
    shapley_aggregation_weights,
)
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.model import Sequential
from repro.nn.zoo import make_linear_classifier
from repro.simulation.network import Network
from repro.topology.graphs import fully_connected_graph, ring_graph
from repro.topology.schedule import DynamicTopologySchedule


def build_pdsl(
    num_agents=4, sigma=0.0, topology=None, seed=0, num_samples=400, model=None, **config_kwargs
):
    data = make_classification_dataset(num_samples, num_features=8, num_classes=4, cluster_std=0.6, seed=seed)
    topology = topology or fully_connected_graph(num_agents)
    rng = np.random.default_rng(seed)
    shards = partition_dirichlet(data, topology.num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    validation = data.sample(80, rng)
    model = model or make_linear_classifier(8, 4, seed=seed)
    defaults = dict(
        learning_rate=0.1,
        momentum=0.5,
        sigma=sigma,
        clip_threshold=1.0,
        batch_size=16,
        seed=seed,
        shapley_permutations=2,
    )
    defaults.update(config_kwargs)
    config = PDSLConfig(**defaults)
    return PDSL(model, topology, shards, config, validation=validation), data


class TestConstruction:
    def test_requires_validation_set(self):
        algorithm, data = build_pdsl()
        model = make_linear_classifier(8, 4, seed=0)
        with pytest.raises(ValueError):
            PDSL(model, algorithm.topology, algorithm.shards, algorithm.config, validation=None)

    def test_requires_pdsl_config(self):
        algorithm, data = build_pdsl()
        base_config = AlgorithmConfig(sigma=0.0, batch_size=16)
        model = make_linear_classifier(8, 4, seed=0)
        with pytest.raises(TypeError):
            PDSL(model, algorithm.topology, algorithm.shards, base_config, validation=data)

    def test_exact_shapley_on_a_24_clique_fails_at_build_time(self):
        with pytest.raises(ValueError, match=r"24 players.*shapley_permutations > 0"):
            build_pdsl(
                topology=fully_connected_graph(24), num_samples=800, shapley_permutations=0
            )

    def test_exact_shapley_limit_is_inclusive_and_monte_carlo_has_none(self):
        clique = MAX_EXACT_SHAPLEY_PLAYERS
        build_pdsl(topology=fully_connected_graph(clique), num_samples=800, shapley_permutations=0)
        build_pdsl(topology=fully_connected_graph(24), num_samples=800, shapley_permutations=2)


class TestOneRound:
    def test_parameters_change_after_round(self):
        algorithm, _ = build_pdsl()
        before = algorithm.state.copy()
        algorithm.run_round()
        for old, new in zip(before, algorithm.state):
            assert not np.allclose(old, new)

    def test_momentum_buffers_updated(self):
        algorithm, _ = build_pdsl()
        algorithm.run_round()
        assert any(np.linalg.norm(m) > 0 for m in algorithm.momentum_state)

    def test_shapley_values_recorded_for_every_neighbor(self):
        algorithm, _ = build_pdsl(num_agents=4)
        algorithm.run_round()
        for agent in range(4):
            neighbors = set(algorithm.topology.neighbors(agent, include_self=True))
            assert set(algorithm.last_shapley[agent].keys()) == neighbors
            assert set(algorithm.last_weights[agent].keys()) == neighbors

    def test_aggregation_weights_non_negative(self):
        algorithm, _ = build_pdsl()
        algorithm.run_round()
        for weights in algorithm.last_weights:
            assert all(w >= 0 for w in weights.values())

    def test_messages_flow_through_network(self):
        algorithm, _ = build_pdsl(num_agents=4)
        algorithm.run_round()
        summary = algorithm.network.traffic_summary()
        # each agent broadcasts its model to 3 neighbours, sends 3 cross-gradients
        # and broadcasts its provisional state to 3 neighbours: 4 * 9 = 36 messages
        assert summary["messages_sent"] == 36
        assert summary["messages_dropped"] == 0
        assert set(summary["traffic_by_tag"]) == {"model", "cross_grad", "mix"}

    def test_round_leaves_only_counters_on_the_network(self):
        algorithm, _ = build_pdsl(num_agents=4)
        algorithm.run_round()
        network = algorithm.network
        assert set(network.state_dict()) == {"round", *network.traffic_summary()}

    def test_exact_shapley_mode(self):
        algorithm, _ = build_pdsl(num_agents=3, shapley_permutations=0)
        algorithm.run_round()
        assert algorithm.rounds_completed == 1

    def test_neg_loss_characteristic_mode(self):
        algorithm, _ = build_pdsl(num_agents=3, characteristic_metric="neg_loss")
        algorithm.run_round()
        assert algorithm.rounds_completed == 1

    def test_validation_subsampling_mode(self):
        algorithm, _ = build_pdsl(num_agents=3, validation_batch_size=20)
        algorithm.run_round()
        assert algorithm.rounds_completed == 1


    def test_65_player_games_match_the_sequential_oracle(self, monkeypatch):
        # Every agent of a 65-agent clique plays a 65-player game, one
        # player more than a uint64 coalition mask holds.  The replay plays
        # each game through the per-permutation oracle.
        algorithm = build_pdsl(topology=fully_connected_graph(65), sigma=0.05, num_samples=4000)[0]
        oracle_calls = []

        def oracle(game, num_permutations, rng):
            oracle_calls.append(game.num_players)
            return _monte_carlo_shapley_sequential(game, num_permutations, rng)

        replay_phase_three(algorithm, monkeypatch, estimator=oracle)
        assert oracle_calls == [65] * 65


def dynamic_clique():
    return DynamicTopologySchedule(
        fully_connected_graph(6), churn_rate=0.25, rejoin_rate=0.5, straggler_fraction=0.2, seed=3
    )


REFERENCE_GRID = list(
    itertools.product(
        [4, 0],  # shapley_permutations (0: exact)
        [None, 32],  # validation_batch_size
        ["accuracy", "neg_loss"],  # characteristic_metric
        ["static", "dynamic"],  # topology
        [None, 2],  # block_rows
    )
)


def assert_matches_reference(make_algorithm, rounds=2, exact_diagnostics=True):
    """``rounds`` pipeline rounds against as many :func:`reference_round` calls."""
    pipeline, reference = make_algorithm(), make_algorithm()
    for _ in range(rounds):
        pipeline.run_round()
        reference_round(reference)
        np.testing.assert_allclose(pipeline.state, reference.state, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            pipeline.momentum_state, reference.momentum_state, rtol=1e-9, atol=1e-12
        )
        if exact_diagnostics:
            assert pipeline.last_shapley == reference.last_shapley
            assert pipeline.last_weights == reference.last_weights
        for name in ("last_shapley", "last_weights"):
            for ours, theirs in zip(getattr(pipeline, name), getattr(reference, name)):
                assert ours.keys() == theirs.keys()
                for j in ours:
                    assert ours[j] == pytest.approx(theirs[j], rel=1e-9, abs=1e-12)
    assert pipeline.network.traffic_summary() == reference.network.traffic_summary()


class TestPlannedPhaseThree:
    """Phase 3 planned for the round and scored in bulk equals the per-agent games."""

    @pytest.mark.parametrize(
        "permutations,batch_size,metric,topology,block_rows",
        REFERENCE_GRID,
        ids=["-".join(map(str, cell)) for cell in REFERENCE_GRID],
    )
    def test_matches_the_reference_round(
        self, permutations, batch_size, metric, topology, block_rows
    ):
        def make():
            return build_pdsl(
                topology=fully_connected_graph(6) if topology == "static" else dynamic_clique(),
                sigma=0.1,
                shapley_permutations=permutations,
                validation_batch_size=batch_size,
                characteristic_metric=metric,
                block_rows=block_rows,
            )[0]

        # Accuracies are counts, so last-bit differences between the
        # reference's scalar gradients and clipping and the pipeline's
        # stacked ones cannot move them; losses can.
        assert_matches_reference(make, exact_diagnostics=metric == "accuracy")

    def test_dropout_model_takes_the_per_row_scorer(self, monkeypatch):
        # Dropout masks come from one shared generator, consumed in the
        # pipeline's gradient order, which the reference does not follow;
        # phase 3 draws no masks, so it is compared on the round's own
        # gradients.
        rng = np.random.default_rng(0)
        model = Sequential(
            [Dense(8, 16, rng), ReLU(), Dropout(0.5, np.random.default_rng(1)), Dense(16, 4, rng)]
        )
        algorithm = build_pdsl(topology=ring_graph(5), sigma=0.1, model=model)[0]
        assert algorithm._stacked is None
        for _ in range(2):
            assert replay_phase_three(algorithm, monkeypatch) == 0

    def test_lossy_round_plays_each_agent_s_game_over_what_arrived(self, monkeypatch):
        algorithm = build_pdsl(num_agents=6, sigma=0.1, shapley_permutations=3)[0]
        algorithm.network = Network(6, drop_probability=0.4)
        partial = replay_phase_three(algorithm, monkeypatch)
        assert algorithm.network.messages_dropped > 0
        assert partial > 0, "some agent must have lost a cross-gradient"


def replay_phase_three(algorithm, monkeypatch, estimator=monte_carlo_shapley):
    """Run one round, then replay its phase 3 one agent at a time.

    Each agent's game is played on the round's own perturbed gradients
    through ``make_update_characteristic``, a ``CooperativeGame`` and
    ``estimator`` (a Monte-Carlo Shapley estimator), and must equal the
    planned round bit for bit: Shapley values, weights and aggregated
    gradient.  Returns how many agents aggregated fewer gradients than their
    closed neighbourhood.
    """
    captured = {}
    planned = type(algorithm)._shapley_aggregate

    def spy(self, own, cross, pair_rows):
        captured.update(own=own.copy(), cross=cross.copy(), pair_rows=dict(pair_rows))
        captured.update(state=self.state.copy())
        captured["aggregated"] = planned(self, own, cross, pair_rows)
        return captured["aggregated"]

    monkeypatch.setattr(type(algorithm), "_shapley_aggregate", spy)
    algorithm.run_round()
    monkeypatch.undo()
    config, topology = algorithm.config, algorithm.topology
    pair_rows = captured["pair_rows"]
    partial = 0
    for agent in algorithm.active_agents:
        neighbours = topology.neighbors(agent, include_self=False)
        returned = {
            j: captured["cross"][pair_rows[(j, agent)]]
            for j in neighbours
            if (j, agent) in pair_rows
        }
        returned[agent] = captured["own"][agent]
        partial += len(returned) <= len(neighbours)
        candidates = {
            j: captured["state"][agent] - config.learning_rate * g for j, g in returned.items()
        }
        rng = algorithm.agent_rng(agent)
        characteristic = make_update_characteristic(
            algorithm.model,
            candidates,
            algorithm.validation,
            metric=config.characteristic_metric,
            validation_batch_size=config.validation_batch_size,
            rng=rng,
        )
        game = CooperativeGame(list(candidates), characteristic)
        shapley = estimator(game, config.shapley_permutations, rng)
        mixing = {j: topology.weight(agent, j) for j in returned}
        weights = shapley_aggregation_weights(normalize_shapley(shapley), mixing)
        expected = np.zeros(algorithm.dimension)
        for j, g in returned.items():
            expected += weights[j] * g
        assert algorithm.last_shapley[agent] == shapley
        assert algorithm.last_weights[agent] == weights
        np.testing.assert_array_equal(captured["aggregated"][agent], expected)
    return partial


class TestLearningBehaviour:
    def test_noise_free_training_reduces_loss(self):
        algorithm, _ = build_pdsl(sigma=0.0)
        initial = algorithm.average_train_loss()
        for _ in range(15):
            algorithm.run_round()
        assert algorithm.average_train_loss() < initial

    def test_gossip_keeps_agents_close(self):
        algorithm, _ = build_pdsl(sigma=0.0)
        for _ in range(10):
            algorithm.run_round()
        # On a fully connected topology the gossip step enforces exact consensus.
        assert algorithm.consensus() < 1e-10

    def test_ring_topology_trains(self):
        algorithm, _ = build_pdsl(sigma=0.0, topology=ring_graph(5))
        initial = algorithm.average_train_loss()
        for _ in range(15):
            algorithm.run_round()
        assert algorithm.average_train_loss() < initial

    def test_determinism_given_seed(self):
        a, _ = build_pdsl(sigma=0.1, seed=3)
        b, _ = build_pdsl(sigma=0.1, seed=3)
        for _ in range(3):
            a.run_round()
            b.run_round()
        np.testing.assert_array_equal(a.state, b.state)

    def test_different_seeds_differ(self):
        a, _ = build_pdsl(sigma=0.1, seed=3)
        b, _ = build_pdsl(sigma=0.1, seed=4)
        a.run_round()
        b.run_round()
        assert not np.allclose(a.state[0], b.state[0])

    def test_dp_noise_slows_but_does_not_break_training(self):
        noisy, _ = build_pdsl(sigma=0.05)
        clean, _ = build_pdsl(sigma=0.0)
        for _ in range(10):
            noisy.run_round()
            clean.run_round()
        assert clean.average_train_loss() <= noisy.average_train_loss() + 0.25
