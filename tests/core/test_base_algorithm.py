"""Tests for the shared DecentralizedAlgorithm infrastructure."""

import numpy as np
import pytest

from repro.core.base import DecentralizedAlgorithm
from repro.core.config import AlgorithmConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.topology.graphs import fully_connected_graph, ring_graph


class NoOpAlgorithm(DecentralizedAlgorithm):
    """An algorithm that does nothing per round (for testing shared machinery)."""

    name = "noop"

    def step(self, round_index: int) -> None:  # pragma: no cover - trivially empty
        pass


@pytest.fixture
def components():
    data = make_classification_dataset(200, num_features=6, num_classes=4, seed=0)
    topology = fully_connected_graph(4)
    shards = partition_iid(data, 4, np.random.default_rng(0)).shards
    model = make_linear_classifier(6, 4, seed=0)
    config = AlgorithmConfig(learning_rate=0.1, sigma=0.5, clip_threshold=1.0, batch_size=16, seed=3)
    return model, topology, shards, config, data


class TestConstruction:
    def test_all_agents_start_from_same_model(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        for params in algorithm.params[1:]:
            np.testing.assert_array_equal(params, algorithm.params[0])

    def test_momenta_start_at_zero(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        for momentum in algorithm.momenta:
            assert np.all(momentum == 0.0)

    def test_shard_count_mismatch_rejected(self, components):
        model, topology, shards, config, _ = components
        with pytest.raises(ValueError):
            NoOpAlgorithm(model, topology, shards[:-1], config)

    def test_empty_shard_rejected(self, components):
        from repro.data.dataset import Dataset

        model, topology, shards, config, _ = components
        bad = list(shards)
        bad[2] = Dataset(np.zeros((0, 6)), np.zeros(0))
        with pytest.raises(ValueError):
            NoOpAlgorithm(model, topology, bad, config)

    def test_sigma_resolved_from_config(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(epsilon=0.5, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        np.testing.assert_allclose(algorithm.sigma, config.resolve_sigma())


class TestGradientHelpers:
    def test_local_gradient_matches_model(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batch = (shards[0].inputs[:8], shards[0].labels[:8])
        grad = algorithm.local_gradient(0, algorithm.params[0], batch)
        _, expected = model.loss_and_gradient(batch[0], batch[1], params=algorithm.params[0])
        np.testing.assert_allclose(grad, expected)

    def test_privatize_clips_norm_without_noise(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(sigma=0.0, clip_threshold=0.5, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        big = np.full(algorithm.dimension, 10.0)
        out = algorithm.privatize(0, big)
        np.testing.assert_allclose(np.linalg.norm(out), 0.5)

    def test_privatize_adds_noise(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        v = np.zeros(algorithm.dimension)
        assert not np.allclose(algorithm.privatize(0, v), 0.0)

    def test_different_agents_have_independent_noise(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        v = np.zeros(algorithm.dimension)
        assert not np.allclose(algorithm.privatize(0, v), algorithm.privatize(1, v))

    def test_draw_batches_one_per_agent(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        assert len(batches) == 4
        for x, y in batches:
            assert x.shape[0] == y.shape[0] <= 16


class TestGossipAndEvaluation:
    def test_gossip_average_preserves_mean(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=algorithm.dimension) for _ in range(4)]
        mixed = algorithm.gossip_average(vectors)
        np.testing.assert_allclose(
            np.mean(mixed, axis=0), np.mean(vectors, axis=0), atol=1e-12
        )

    def test_gossip_average_reduces_consensus_distance(self, components):
        from repro.simulation.metrics import consensus_distance

        model, _, shards, config, _ = components
        topology = ring_graph(4)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(1)
        vectors = [rng.normal(size=algorithm.dimension) for _ in range(4)]
        mixed = algorithm.gossip_average(vectors)
        assert consensus_distance(mixed) < consensus_distance(vectors)

    def test_average_parameters_is_mean(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        algorithm.params = [np.full(algorithm.dimension, float(i)) for i in range(4)]
        np.testing.assert_allclose(algorithm.average_parameters(), 1.5)

    def test_consensus_zero_initially(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        assert algorithm.consensus() == 0.0

    def test_train_loss_and_accuracy_bounds(self, components):
        model, topology, shards, config, data = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        loss = algorithm.average_train_loss()
        assert loss > 0.0
        acc_mean = algorithm.test_accuracy(data, mode="mean_agent")
        acc_avg = algorithm.test_accuracy(data, mode="average_model")
        assert 0.0 <= acc_mean <= 1.0
        assert 0.0 <= acc_avg <= 1.0
        with pytest.raises(ValueError):
            algorithm.test_accuracy(data, mode="best")

    def test_accuracy_modes_agree_when_params_identical(self, components):
        model, topology, shards, config, data = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        assert algorithm.test_accuracy(data, "mean_agent") == pytest.approx(
            algorithm.test_accuracy(data, "average_model")
        )


class TestPrivacyAccounting:
    def test_accountant_records_rounds_with_epsilon(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(epsilon=0.5, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        for _ in range(5):
            algorithm.run_round()
        assert algorithm.accountant.num_events == 5
        eps, delta = algorithm.privacy_spent()
        assert eps > 0 and delta > 0

    def test_no_accounting_when_sigma_zero(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(sigma=0.0, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        algorithm.run_round()
        assert algorithm.accountant.num_events == 0

    def test_rounds_completed_counter(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        for _ in range(3):
            algorithm.run_round()
        assert algorithm.rounds_completed == 3
        assert algorithm.network.current_round == 3


class TestMixingMatrixValidation:
    def test_mutated_mixing_matrix_rejected_at_construction(self, components):
        model, topology, shards, config, _ = components
        topology.mixing_matrix[0, 1] += 0.5  # breaks double stochasticity
        with pytest.raises(ValueError, match="mixing matrix"):
            NoOpAlgorithm(model, topology, shards, config)

    def test_asymmetric_mixing_matrix_rejected_at_construction(self, components):
        model, topology, shards, config, _ = components
        topology.mixing_matrix[0, 1] += 0.1
        topology.mixing_matrix[0, 0] -= 0.1  # rows still sum to 1, not symmetric
        with pytest.raises(ValueError, match="mixing matrix"):
            NoOpAlgorithm(model, topology, shards, config)


class TestFleetStateMatrix:
    def test_state_matrix_shape_and_row_views(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        assert algorithm.state.shape == (4, algorithm.dimension)
        # params[i] is a live view into the state matrix.
        algorithm.params[1] = np.full(algorithm.dimension, 7.0)
        np.testing.assert_array_equal(algorithm.state[1], 7.0)

    def test_params_setter_validates_shape(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        with pytest.raises(ValueError):
            algorithm.params = [np.zeros(algorithm.dimension)] * 3
        with pytest.raises(ValueError):
            algorithm.params = [np.zeros(algorithm.dimension + 1)] * 4

    def test_agent_parameters_returns_copies(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        copies = algorithm.agent_parameters()
        copies[0][:] = 123.0
        assert not np.any(algorithm.state[0] == 123.0)

    def test_momenta_item_assignment_hits_matrix(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        algorithm.momenta[2] = np.ones(algorithm.dimension)
        np.testing.assert_array_equal(algorithm.momentum_state[2], 1.0)


class TestVectorizedHelpers:
    def test_privatize_rows_matches_per_agent_privatize(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(learning_rate=0.1, sigma=0.5, clip_threshold=1.0, batch_size=16, seed=3)
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        rows = np.random.default_rng(0).normal(size=(4, a.dimension)) * 3.0
        vectorized = a.privatize_rows(rows)
        looped = np.stack([b.privatize(i, rows[i]) for i in range(4)], axis=0)
        np.testing.assert_allclose(vectorized, looped, rtol=1e-12, atol=1e-12)

    def test_privatize_rows_with_repeated_owners_advances_stream(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(learning_rate=0.1, sigma=0.5, clip_threshold=1.0, batch_size=16, seed=3)
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        rows = np.zeros((3, a.dimension))
        vectorized = a.privatize_rows(rows, agents=[1, 1, 2])
        first = b.privatize(1, rows[0])
        second = b.privatize(1, rows[1])
        third = b.privatize(2, rows[2])
        np.testing.assert_allclose(vectorized, np.stack([first, second, third]), atol=1e-12)

    def test_privatize_rows_rejects_owner_count_mismatch(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rows = np.zeros((3, algorithm.dimension))
        with pytest.raises(ValueError, match="owner agents"):
            algorithm.privatize_rows(rows)  # default owners expect 4 rows
        with pytest.raises(ValueError, match="owner agents"):
            algorithm.privatize_rows(rows, agents=[0, 1])

    def test_fleet_cross_gradients_match_pairwise_local_gradients(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(sigma=0.0, clip_threshold=100.0, batch_size=16, seed=3)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        cross, pair_rows = algorithm.fleet_cross_gradients(batches)
        assert set(pair_rows) == set(algorithm.topology.directed_pairs())
        for (i, j), row in pair_rows.items():
            expected = algorithm.local_gradient(i, algorithm.state[j], batches[i])
            np.testing.assert_allclose(cross[row], expected, rtol=1e-10, atol=1e-12)

    def test_fleet_gradients_matches_local_gradient(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        fleet = algorithm.fleet_gradients(algorithm.state, batches)
        for agent in range(4):
            expected = algorithm.local_gradient(agent, algorithm.state[agent], batches[agent])
            np.testing.assert_allclose(fleet[agent], expected, rtol=1e-10, atol=1e-12)

    def test_fleet_gradients_handles_ragged_batches(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        # Truncate one batch so its row leaves the full-length stack.
        batches.sizes[2] = 5
        fleet = algorithm.fleet_gradients(algorithm.state, batches)
        for agent in range(4):
            expected = algorithm.local_gradient(agent, algorithm.state[agent], batches[agent])
            np.testing.assert_allclose(fleet[agent], expected, rtol=1e-10, atol=1e-12)

    def test_mix_rows_matches_gossip_average(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(4, algorithm.dimension))
        mixed = algorithm.mix_rows(matrix)
        expected = algorithm.gossip_average([matrix[i] for i in range(4)])
        np.testing.assert_allclose(mixed, np.stack(expected), atol=1e-12)

    def test_record_fleet_exchange_accounts_directed_edges(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        algorithm.record_fleet_exchange("model", algorithm.dimension)
        summary = algorithm.network.traffic_summary()
        expected_messages = algorithm.topology.num_directed_edges
        assert summary["messages_sent"] == expected_messages
        assert summary["floats_sent"] == expected_messages * algorithm.dimension

    def test_average_train_loss_stacked_matches_per_agent_reference(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        # Spread the agents so per-agent losses genuinely differ.
        rng = np.random.default_rng(9)
        algorithm.state += rng.normal(scale=0.3, size=algorithm.state.shape)
        assert algorithm._stacked is not None  # linear model: stacked path active
        stacked = algorithm.average_train_loss(max_samples_per_agent=16)
        reference = []
        for agent in range(algorithm.num_agents):
            shard = algorithm.shards[agent]
            if len(shard) > 16:
                sub_rng = np.random.default_rng(
                    (config.seed * 1_000_003 + agent) % (2**63 - 1)
                )
                shard = shard.sample(16, sub_rng)
            reference.append(
                model.evaluate_loss(shard.inputs, shard.labels, params=algorithm.state[agent])
            )
        assert stacked == pytest.approx(float(np.mean(reference)), rel=1e-12)

    def test_average_train_loss_subsample_rng_is_stable(self, components):
        # The per-agent evaluation subsample must not depend on training
        # progress or backend: two fresh algorithms at the same state report
        # the same loss.
        model, topology, shards, config, _ = components
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        a.draw_batches()  # advancing training streams must not perturb evaluation
        assert a.average_train_loss(max_samples_per_agent=8) == b.average_train_loss(
            max_samples_per_agent=8
        )

    def test_mix_rows_dispatches_to_configured_operator(self, components):
        model, _, shards, _, _ = components
        topology = ring_graph(4)
        rows = np.random.default_rng(2).normal(size=(4, model.num_params))
        outputs = {}
        for mixing_backend in ("dense", "sparse"):
            config = AlgorithmConfig(
                sigma=0.0, batch_size=16, mixing_backend=mixing_backend
            )
            algorithm = NoOpAlgorithm(model, topology, shards, config)
            assert algorithm.mixing.format == (
                "csr" if mixing_backend == "sparse" else "dense"
            )
            outputs[mixing_backend] = algorithm.mix_rows(rows)
        np.testing.assert_array_equal(outputs["dense"], outputs["sparse"])
