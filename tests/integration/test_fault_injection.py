"""Integration tests under message loss (fault injection).

The paper assumes reliable synchronous communication; these tests document
how the implementation behaves when that assumption is relaxed, using the
Network's drop-probability hook.  PDSL and the baselines must stay
numerically stable (no NaNs, no crashes) and still make progress under
moderate message loss, because every aggregation step only uses the
messages actually received.
"""

import numpy as np
import pytest

from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.simulation.network import Network
from repro.topology.graphs import fully_connected_graph

from tests.conftest import _small_fleet_algorithms

NAMES = ["DP-DPSGD", "DMSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET", "PDSL"]


def build(name, drop_probability, seed=0):
    cls, config_cls, extra = _small_fleet_algorithms()[name]
    config = config_cls(
        learning_rate=0.1, sigma=0.0, batch_size=16, seed=seed, **extra
    )
    data = make_classification_dataset(400, num_features=8, num_classes=4, cluster_std=0.6, seed=seed)
    topology = fully_connected_graph(5)
    rng = np.random.default_rng(seed)
    shards = partition_dirichlet(data, 5, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    validation = data.sample(60, rng)
    model = make_linear_classifier(8, 4, seed=seed)
    if cls is PDSL:
        algorithm = PDSL(model, topology, shards, config, validation=validation)
    else:
        algorithm = cls(model, topology, shards, config)
    # swap in a lossy network
    algorithm.network = Network(5, drop_probability=drop_probability)
    return algorithm


@pytest.mark.parametrize("name", NAMES)
class TestUnderMessageLoss:
    def test_runs_and_stays_finite_with_heavy_loss(self, name):
        algorithm = build(name, drop_probability=0.4)
        for _ in range(5):
            algorithm.run_round()
        assert np.isfinite(algorithm.state).all()
        assert algorithm.network.messages_dropped > 0

    def test_still_learns_with_mild_loss(self, name):
        algorithm = build(name, drop_probability=0.1)
        initial = algorithm.average_train_loss()
        for _ in range(12):
            algorithm.run_round()
        assert algorithm.average_train_loss() < initial

    def test_zero_drop_probability_equivalent_to_reliable_network(self, name):
        reliable = build(name, drop_probability=0.0, seed=2)
        reliable.network = Network(5)
        lossless = build(name, drop_probability=0.0, seed=2)
        for _ in range(3):
            reliable.run_round()
            lossless.run_round()
        np.testing.assert_array_equal(reliable.state, lossless.state)


class TestPDSLUnderMessageLoss:
    def test_aggregation_weights_only_cover_received_neighbors(self):
        algorithm = build("PDSL", drop_probability=0.5)
        algorithm.run_round()
        incomplete = 0
        for agent in range(5):
            received = set(algorithm.last_weights[agent].keys())
            neighbors = set(algorithm.topology.neighbors(agent, include_self=True))
            assert agent in received
            assert received <= neighbors
            incomplete += received != neighbors
        assert incomplete > 0
