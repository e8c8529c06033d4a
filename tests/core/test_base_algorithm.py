"""Tests for the shared DecentralizedAlgorithm infrastructure."""

import numpy as np
import pytest

from repro.baselines import DPNetFleet
from repro.core.base import DecentralizedAlgorithm
from repro.core.config import AlgorithmConfig, NetFleetConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.topology.graphs import fully_connected_graph, ring_graph


def scalar_gradient(model, params, batch):
    """The model's own (unstacked) gradient at ``params`` on ``batch``."""
    return model.loss_and_gradient(batch[0], batch[1], params=params)[1]


class NoOpAlgorithm(DecentralizedAlgorithm):
    """An algorithm that does nothing per round (for testing shared machinery)."""

    name = "noop"

    def step(self, round_index: int) -> None:  # pragma: no cover - trivially empty
        pass


@pytest.fixture
def shards_for_six():
    data = make_classification_dataset(60, num_features=6, num_classes=4, seed=0)
    shards = partition_iid(data, 6, np.random.default_rng(0)).shards
    return make_linear_classifier(6, 4, seed=0), shards


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
        for params in algorithm.state[1:]:
            np.testing.assert_array_equal(params, algorithm.state[0])

    def test_momenta_start_at_zero(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        for momentum in algorithm.momentum_state:
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
    def test_one_row_gradient_matches_model(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm._draw_rows(0, 1)
        grad = algorithm.fleet_gradients(algorithm.state[:1], batches)[0]
        np.testing.assert_allclose(grad, scalar_gradient(model, algorithm.state[0], batches[0]))

    def test_privatize_clips_norm_without_noise(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(sigma=0.0, clip_threshold=0.5, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        big = np.full((1, algorithm.dimension), 10.0)
        out = algorithm.privatize_rows(big, agents=[0])
        np.testing.assert_allclose(np.linalg.norm(out), 0.5)

    def test_privatize_adds_noise(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        v = np.zeros((1, algorithm.dimension))
        assert not np.allclose(algorithm.privatize_rows(v, agents=[0]), 0.0)

    def test_different_agents_have_independent_noise(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        v = np.zeros((1, algorithm.dimension))
        assert not np.allclose(
            algorithm.privatize_rows(v, agents=[0]), algorithm.privatize_rows(v, agents=[1])
        )

    def test_step_address_draws_slot_zero_of_that_step(self, components):
        # Async mode noises an agent's local step at its own step count.
        model, topology, shards, config, _ = components
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        v = np.zeros((1, a.dimension))
        first = a.privatize_rows(v, agents=[2], step=5)
        np.testing.assert_array_equal(a.privatize_rows(v, agents=[2], step=5), first)
        b._draw_step = 5
        np.testing.assert_array_equal(b.privatize_rows(v, agents=[2]), first)

    def test_draw_batches_one_per_agent(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        assert len(batches) == 4
        for x, y in batches:
            assert x.shape[0] == y.shape[0] <= 16


class TestGossipAndEvaluation:
    def test_mix_rows_preserves_mean(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(4, algorithm.dimension))
        mixed = algorithm.mix_rows(vectors)
        np.testing.assert_allclose(
            np.mean(mixed, axis=0), np.mean(vectors, axis=0), atol=1e-12
        )

    def test_mix_rows_reduces_consensus_distance(self, components):
        from repro.simulation.metrics import consensus_distance

        model, _, shards, config, _ = components
        topology = ring_graph(4)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(4, algorithm.dimension))
        mixed = algorithm.mix_rows(vectors)
        assert consensus_distance(mixed) < consensus_distance(vectors)

    def test_average_parameters_is_mean(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        algorithm.state = [np.full(algorithm.dimension, float(i)) for i in range(4)]
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


FLEET_MATRICES = ["state", "momentum_state", "tracking_state", "previous_gradient_state"]


class TestFleetStateMatrix:
    def test_state_matrix_shape_and_row_views(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        assert algorithm.state.shape == (4, algorithm.dimension)
        algorithm.state[1] = np.full(algorithm.dimension, 7.0)
        np.testing.assert_array_equal(algorithm.state[1], 7.0)

    def test_state_setter_validates_shape(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        with pytest.raises(ValueError):
            algorithm.state = [np.zeros(algorithm.dimension)] * 3
        with pytest.raises(ValueError):
            algorithm.state = [np.zeros(algorithm.dimension + 1)] * 4

    @pytest.mark.parametrize("name", FLEET_MATRICES)
    @pytest.mark.parametrize("storage", ["ram", "memmap"])
    def test_assignment_copies_into_the_matrix(self, components, storage, name):
        model, topology, shards, _, _ = components
        config = NetFleetConfig(sigma=0.5, batch_size=16, block_rows=3, storage=storage)
        algorithm = DPNetFleet(model, topology, shards, config)
        matrix = getattr(algorithm, name)
        source = np.random.default_rng(4).normal(size=matrix.shape)
        setattr(algorithm, name, source)
        assert getattr(algorithm, name) is matrix
        expected = source.copy()
        source[:] = 0.0
        np.testing.assert_array_equal(getattr(algorithm, name), expected)
        d = algorithm.dimension
        for shape in [(3, d), (4, d + 1), (2, 2)]:
            with pytest.raises(ValueError, match="shape"):
                setattr(algorithm, name, np.zeros(shape))
        np.testing.assert_array_equal(getattr(algorithm, name), expected)
        algorithm.close()

    def test_assignment_casts_into_the_state_dtype(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(
            model, topology, shards, config.with_updates(dtype="float32")
        )
        value = np.random.default_rng(5).normal(size=algorithm.state.shape)
        algorithm.state = value
        assert algorithm.state.dtype == np.float32
        np.testing.assert_array_equal(algorithm.state, value.astype(np.float32))

    @pytest.mark.parametrize("storage", ["ram", "memmap"])
    def test_overlapping_source_is_copied_first(self, components, storage):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(
            model, topology, shards, config.with_updates(block_rows=1, storage=storage)
        )
        algorithm.state = np.random.default_rng(6).normal(size=algorithm.state.shape)
        reversed_rows = algorithm.state[::-1].copy()
        algorithm.state = algorithm.state[::-1]
        np.testing.assert_array_equal(algorithm.state, reversed_rows)


class TestVectorizedHelpers:
    def test_privatize_rows_matches_one_row_calls(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(learning_rate=0.1, sigma=0.5, clip_threshold=1.0, batch_size=16, seed=3)
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        rows = np.random.default_rng(0).normal(size=(4, a.dimension)) * 3.0
        vectorized = a.privatize_rows(rows)
        looped = np.concatenate(
            [b.privatize_rows(rows[i : i + 1], agents=[i]) for i in range(4)], axis=0
        )
        np.testing.assert_allclose(vectorized, looped, rtol=1e-12, atol=1e-12)

    def test_privatize_rows_with_repeated_owners_advances_stream(self, components):
        model, topology, shards, _, _ = components
        config = AlgorithmConfig(learning_rate=0.1, sigma=0.5, clip_threshold=1.0, batch_size=16, seed=3)
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        rows = np.zeros((3, a.dimension))
        vectorized = a.privatize_rows(rows, agents=[1, 1, 2])
        first = b.privatize_rows(rows[:1], agents=[1])
        second = b.privatize_rows(rows[1:2], agents=[1])
        third = b.privatize_rows(rows[2:], agents=[2])
        np.testing.assert_allclose(
            vectorized, np.concatenate([first, second, third]), atol=1e-12
        )

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
            expected = scalar_gradient(model, algorithm.state[j], batches[i])
            np.testing.assert_allclose(cross[row], expected, rtol=1e-10, atol=1e-12)

    def test_fleet_gradients_matches_local_gradient(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        fleet = algorithm.fleet_gradients(algorithm.state, batches)
        for agent in range(4):
            expected = scalar_gradient(model, algorithm.state[agent], batches[agent])
            np.testing.assert_allclose(fleet[agent], expected, rtol=1e-10, atol=1e-12)

    def test_fleet_gradients_handles_ragged_batches(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        batches = algorithm.draw_batches()
        # Truncate one batch so its row leaves the full-length stack.
        batches.sizes[2] = 5
        fleet = algorithm.fleet_gradients(algorithm.state, batches)
        for agent in range(4):
            expected = scalar_gradient(model, algorithm.state[agent], batches[agent])
            np.testing.assert_allclose(fleet[agent], expected, rtol=1e-10, atol=1e-12)

    def test_mix_rows_matches_weighted_neighbour_average(self, components):
        model, topology, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(4, algorithm.dimension))
        mixed = algorithm.mix_rows(matrix)
        for agent in range(4):
            expected = sum(
                topology.weight(agent, j) * matrix[j]
                for j in topology.neighbors(agent, include_self=True)
            )
            np.testing.assert_allclose(mixed[agent], expected, atol=1e-12)

    def test_mix_rows_writes_into_out(self, components):
        model, _, shards, config, _ = components
        algorithm = NoOpAlgorithm(model, ring_graph(4), shards, config)
        matrix = np.random.default_rng(6).normal(size=(4, algorithm.dimension))
        out = np.empty_like(matrix)
        assert algorithm.mix_rows(matrix, out=out) is out
        np.testing.assert_array_equal(out, algorithm.mix_rows(matrix))

    def test_mix_rows_rejects_aliased_output(self, shards_for_six):
        # A read-only view does not protect the input from writes through
        # ``out``: blocked mixing would read rows already overwritten.
        model, shards = shards_for_six
        config = AlgorithmConfig(sigma=0.0, batch_size=4, block_rows=2)
        algorithm = NoOpAlgorithm(model, ring_graph(6), shards, config)
        state = np.random.default_rng(7).normal(size=(6, algorithm.dimension))
        source = state.view()
        source.flags.writeable = False
        with pytest.raises(ValueError, match="overlap"):
            algorithm.mix_rows(source, out=state)
        with pytest.raises(ValueError, match="overlap"):
            algorithm.mix_rows(state, out=state)
        with pytest.raises(ValueError, match="overlap"):
            algorithm.mix_rows(state[:, :], out=state)

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
        flat = algorithm.flat_shards
        reference = []
        for agent in range(algorithm.num_agents):
            shard = algorithm.shards[agent]
            inputs, labels = shard.inputs, shard.labels
            if len(shard) > 16:
                # One agent's draw at the fixed "eval" address (0, 0, agent).
                words = algorithm.streams.row_words("eval", 0, [agent], [0], 16)
                index = flat.sample(words, [agent], 16)[0][0]
                local = index - flat.starts[agent]
                assert len(set(local)) == 16 and local.min() >= 0
                assert local.max() < len(shard)
                inputs, labels = flat.inputs[index], flat.labels[index]
            reference.append(
                model.evaluate_loss(inputs, labels, params=algorithm.state[agent])
            )
        assert stacked == pytest.approx(float(np.mean(reference)), rel=1e-12)

    def test_average_train_loss_subsample_rng_is_stable(self, components):
        # The per-agent evaluation subsample must not depend on training
        # progress: two fresh algorithms at the same state report
        # the same loss.
        model, topology, shards, config, _ = components
        a = NoOpAlgorithm(model, topology, shards, config)
        b = NoOpAlgorithm(model, topology, shards, config)
        a.draw_batches()  # advancing training streams must not perturb evaluation
        assert a.average_train_loss(max_samples_per_agent=8) == b.average_train_loss(
            max_samples_per_agent=8
        )

    def test_mix_rows_dispatches_to_the_topology_operator(self, components):
        model, _, shards, _, _ = components
        topology = ring_graph(4)
        rows = np.random.default_rng(2).normal(size=(4, model.num_params))
        config = AlgorithmConfig(sigma=0.0, batch_size=16)
        algorithm = NoOpAlgorithm(model, topology, shards, config)
        assert algorithm.mixing is topology.mixing_operator()
        np.testing.assert_array_equal(
            algorithm.mix_rows(rows),
            np.einsum("ij,jk->ik", topology.mixing_matrix.toarray(), rows),
        )
