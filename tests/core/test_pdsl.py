"""Tests for the PDSL algorithm (Algorithm 1)."""

import numpy as np
import pytest

import repro.core.pdsl as pdsl_module
from repro.core.config import AlgorithmConfig, PDSLConfig
from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet, partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.game.shapley import _monte_carlo_shapley_sequential
from repro.nn.zoo import make_linear_classifier
from repro.topology.graphs import fully_connected_graph, ring_graph


def build_pdsl(num_agents=4, sigma=0.0, topology=None, seed=0, num_samples=400, **config_kwargs):
    data = make_classification_dataset(num_samples, num_features=8, num_classes=4, cluster_std=0.6, seed=seed)
    topology = topology or fully_connected_graph(num_agents)
    rng = np.random.default_rng(seed)
    shards = partition_dirichlet(data, topology.num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    validation = data.sample(80, rng)
    model = make_linear_classifier(8, 4, seed=seed)
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


class TestOneRound:
    def test_parameters_change_after_round(self):
        algorithm, _ = build_pdsl()
        before = [p.copy() for p in algorithm.params]
        algorithm.run_round()
        for old, new in zip(before, algorithm.params):
            assert not np.allclose(old, new)

    def test_momentum_buffers_updated(self):
        algorithm, _ = build_pdsl()
        algorithm.run_round()
        assert any(np.linalg.norm(m) > 0 for m in algorithm.momenta)

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
        # player more than a uint64 coalition mask holds.
        def one_round():
            algorithm, _ = build_pdsl(
                topology=fully_connected_graph(65), sigma=0.05, num_samples=4000
            )
            algorithm.run_round()
            return algorithm

        walked = one_round()
        oracle_calls = []

        def oracle(game, num_permutations, rng):
            oracle_calls.append(game.num_players)
            return _monte_carlo_shapley_sequential(game, num_permutations, rng)

        monkeypatch.setattr(pdsl_module, "monte_carlo_shapley", oracle)
        reference = one_round()
        assert oracle_calls == [65] * 65
        np.testing.assert_array_equal(walked.state, reference.state)
        assert walked.last_shapley == reference.last_shapley
        assert walked.last_weights == reference.last_weights


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
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a, _ = build_pdsl(sigma=0.1, seed=3)
        b, _ = build_pdsl(sigma=0.1, seed=4)
        a.run_round()
        b.run_round()
        assert not np.allclose(a.params[0], b.params[0])

    def test_dp_noise_slows_but_does_not_break_training(self):
        noisy, _ = build_pdsl(sigma=0.05)
        clean, _ = build_pdsl(sigma=0.0)
        for _ in range(10):
            noisy.run_round()
            clean.run_round()
        assert clean.average_train_loss() <= noisy.average_train_loss() + 0.25
