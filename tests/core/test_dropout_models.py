"""Models with Dropout on the round pipeline, for every algorithm.

A Dropout layer draws its masks from one generator shared by every forward
pass, so the trajectory depends on the order gradients are evaluated in.
Such models have no stacked path: every stage that evaluates them runs its
rows one scalar pass at a time, serially, in agent (and, for
cross-gradients, pair) order — the same order under any row-block size and
worker count.  A fixed seed therefore gives one trajectory.
"""

import numpy as np
import pytest

from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.model import Sequential
from repro.topology.graphs import ring_graph

from tests.conftest import _small_fleet_algorithms

NAMES = ["DP-DPSGD", "DMSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET", "PDSL"]
ROUNDS = 3


def dropout_mlp(rate=0.5, dropout_seed=1):
    rng = np.random.default_rng(0)
    return Sequential(
        [Dense(8, 16, rng), ReLU(), Dropout(rate, np.random.default_rng(dropout_seed)), Dense(16, 4, rng)]
    )


def run(name, rate=0.5, dropout_seed=1, **config):
    cls, config_cls, extra = _small_fleet_algorithms()[name]
    data = make_classification_dataset(300, num_features=8, num_classes=4, cluster_std=0.6, seed=1)
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(data, 5, alpha=0.5, rng=rng, min_samples_per_agent=8).shards
    validation = data.sample(40, rng)
    settings = dict(learning_rate=0.1, sigma=0.1, batch_size=8, seed=7)
    algorithm_config = config_cls(**{**settings, **extra, **config})
    model = dropout_mlp(rate, dropout_seed)
    if cls is PDSL:
        algorithm = cls(model, ring_graph(5), shards, algorithm_config, validation=validation)
    else:
        algorithm = cls(model, ring_graph(5), shards, algorithm_config)
    assert algorithm._stacked is None
    for _ in range(ROUNDS):
        algorithm.run_round()
    state = (np.array(algorithm.state), np.array(algorithm.momentum_state))
    algorithm.close()
    return state


@pytest.fixture(scope="module")
def baselines():
    return {name: run(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
class TestDropoutOnThePipeline:
    def test_deterministic_per_seed(self, name, baselines):
        state, momentum = run(name)
        np.testing.assert_array_equal(state, baselines[name][0])
        np.testing.assert_array_equal(momentum, baselines[name][1])
        assert np.isfinite(state).all()

    @pytest.mark.parametrize("block_rows", [None, 2])
    @pytest.mark.parametrize("block_workers", [1, 2])
    def test_bit_identical_across_blocks_and_workers(
        self, name, block_rows, block_workers, baselines
    ):
        state, momentum = run(name, block_rows=block_rows, block_workers=block_workers)
        np.testing.assert_array_equal(state, baselines[name][0])
        np.testing.assert_array_equal(momentum, baselines[name][1])

    def test_dropout_masks_shape_the_trajectory(self, name, baselines):
        other_masks, _ = run(name, dropout_seed=5)
        no_dropout, _ = run(name, rate=0.0)
        assert not np.array_equal(no_dropout, baselines[name][0])
        assert not np.array_equal(other_masks, baselines[name][0])
