"""Tests shared across all baseline algorithms plus baseline-specific behaviour."""

import numpy as np
import pytest

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, DPSGDNonPrivate, Muffliato
from repro.baselines.dp_cga import min_norm_combination
from repro.core.config import AlgorithmConfig, CGAConfig, MuffliatoConfig, NetFleetConfig
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.topology.graphs import fully_connected_graph, ring_graph


def build_components(num_agents=4, seed=0):
    data = make_classification_dataset(400, num_features=8, num_classes=4, cluster_std=0.6, seed=seed)
    topology = fully_connected_graph(num_agents)
    rng = np.random.default_rng(seed)
    shards = partition_dirichlet(data, num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    model = make_linear_classifier(8, 4, seed=seed)
    return model, topology, shards, data


def make_baseline(name, model, topology, shards, sigma=0.0, seed=0):
    base = dict(learning_rate=0.1, sigma=sigma, clip_threshold=1.0, batch_size=16, seed=seed)
    if name == "DP-DPSGD":
        return DPDPSGD(model, topology, shards, AlgorithmConfig(momentum=0.0, **base))
    if name == "D-PSGD":
        return DPSGDNonPrivate(model, topology, shards, AlgorithmConfig(momentum=0.0, **base))
    if name == "DMSGD":
        return DMSGD(model, topology, shards, AlgorithmConfig(momentum=0.5, **base))
    if name == "MUFFLIATO":
        return Muffliato(model, topology, shards, MuffliatoConfig(momentum=0.0, gossip_steps=2, **base))
    if name == "DP-CGA":
        return DPCGA(model, topology, shards, CGAConfig(momentum=0.5, **base))
    if name == "DP-NET-FLEET":
        return DPNetFleet(model, topology, shards, NetFleetConfig(momentum=0.0, local_steps=2, **base))
    raise ValueError(name)


ALL_BASELINES = ["DP-DPSGD", "D-PSGD", "DMSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET"]


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_parameters_change_after_one_round(name):
    model, topology, shards, _ = build_components()
    algorithm = make_baseline(name, model, topology, shards)
    before = algorithm.state.copy()
    algorithm.run_round()
    assert any(not np.allclose(b, a) for b, a in zip(before, algorithm.state))


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_noise_free_training_reduces_loss(name):
    model, topology, shards, _ = build_components()
    algorithm = make_baseline(name, model, topology, shards, sigma=0.0)
    initial = algorithm.average_train_loss()
    for _ in range(15):
        algorithm.run_round()
    assert algorithm.average_train_loss() < initial


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_deterministic_given_seed(name):
    model1, topology, shards, _ = build_components(seed=2)
    model2 = make_linear_classifier(8, 4, seed=2)
    a = make_baseline(name, model1, topology, shards, sigma=0.1, seed=5)
    b = make_baseline(name, model2, topology, shards, sigma=0.1, seed=5)
    for _ in range(3):
        a.run_round()
        b.run_round()
    np.testing.assert_array_equal(a.state, b.state)


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_round_leaves_only_counters_on_the_network(name):
    model, topology, shards, _ = build_components()
    algorithm = make_baseline(name, model, topology, shards)
    algorithm.run_round()
    network = algorithm.network
    assert network.messages_sent > 0
    assert network.messages_dropped == 0
    # Nothing is in flight between rounds: the network state is its counters.
    assert set(network.state_dict()) == {"round", *network.traffic_summary()}


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_works_on_ring_topology(name):
    model, _, _, data = build_components()
    topology = ring_graph(5)
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(data, 5, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    algorithm = make_baseline(name, model, topology, shards, sigma=0.0)
    for _ in range(3):
        algorithm.run_round()
    assert algorithm.rounds_completed == 3


class TestConfigTypeEnforcement:
    def test_muffliato_requires_its_config(self):
        model, topology, shards, _ = build_components()
        with pytest.raises(TypeError):
            Muffliato(model, topology, shards, AlgorithmConfig(sigma=0.0, batch_size=8))

    def test_cga_requires_its_config(self):
        model, topology, shards, _ = build_components()
        with pytest.raises(TypeError):
            DPCGA(model, topology, shards, AlgorithmConfig(sigma=0.0, batch_size=8))

    def test_netfleet_requires_its_config(self):
        model, topology, shards, _ = build_components()
        with pytest.raises(TypeError):
            DPNetFleet(model, topology, shards, AlgorithmConfig(sigma=0.0, batch_size=8))


class TestMuffliatoSpecifics:
    def test_more_gossip_steps_tightens_consensus_on_ring(self):
        _, _, _, data = build_components()
        topology = ring_graph(6)
        rng = np.random.default_rng(0)
        shards = partition_dirichlet(data, 6, alpha=0.5, rng=rng, min_samples_per_agent=8).shards

        def consensus_after(gossip_steps):
            model = make_linear_classifier(8, 4, seed=0)
            config = MuffliatoConfig(
                learning_rate=0.1, sigma=0.2, clip_threshold=1.0, batch_size=16,
                seed=0, momentum=0.0, gossip_steps=gossip_steps,
            )
            algorithm = Muffliato(model, topology, shards, config)
            for _ in range(5):
                algorithm.run_round()
            return algorithm.consensus()

        assert consensus_after(4) < consensus_after(1)


class TestCGASpecifics:
    def test_min_norm_weights_on_simplex(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=20) for _ in range(5)]
        lam = min_norm_combination(grads)
        assert np.all(lam >= -1e-9)
        np.testing.assert_allclose(lam.sum(), 1.0, atol=1e-8)

    def test_min_norm_single_gradient(self):
        lam = min_norm_combination([np.ones(4)])
        np.testing.assert_array_equal(lam, [1.0])

    def test_min_norm_prefers_small_gradient(self):
        small = np.zeros(10)
        large = np.full(10, 5.0)
        lam = min_norm_combination([large, small])
        assert lam[1] > 0.9

    def test_min_norm_empty_rejected(self):
        with pytest.raises(ValueError):
            min_norm_combination([])

    def test_min_norm_opposed_gradients_cancel(self):
        g = np.array([1.0, 0.0])
        lam = min_norm_combination([g, -g])
        combined = lam[0] * g + lam[1] * (-g)
        assert np.linalg.norm(combined) < 1e-6


class TestNetFleetSpecifics:
    def test_tracking_variables_initialised_on_first_round(self):
        model, topology, shards, _ = build_components()
        algorithm = make_baseline("DP-NET-FLEET", model, topology, shards)
        assert np.all(algorithm.tracking_state == 0)
        algorithm.run_round()
        assert np.linalg.norm(algorithm.tracking_state, axis=1).min() > 0

    def test_local_steps_respected(self):
        model, topology, shards, _ = build_components()
        config = NetFleetConfig(
            learning_rate=0.1, sigma=0.0, clip_threshold=1.0, batch_size=16, seed=0, local_steps=3
        )
        algorithm = DPNetFleet(model, topology, shards, config)
        algorithm.run_round()
        assert algorithm.rounds_completed == 1
