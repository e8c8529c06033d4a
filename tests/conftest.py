"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier, make_mlp
from repro.topology.graphs import fully_connected_graph, ring_graph

#: Constructor table for :func:`make_small_fleet`: name -> (class, config
#: class, extra config kwargs).  The same six algorithms every equivalence
#: suite covers, with the hyper-parameters the engine-equivalence tests use.
SMALL_FLEET_ALGORITHMS = None  # populated lazily to keep conftest import light


def _small_fleet_algorithms():
    global SMALL_FLEET_ALGORITHMS
    if SMALL_FLEET_ALGORITHMS is None:
        from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, Muffliato
        from repro.core.config import (
            AlgorithmConfig,
            CGAConfig,
            MuffliatoConfig,
            NetFleetConfig,
            PDSLConfig,
        )
        from repro.core.pdsl import PDSL

        SMALL_FLEET_ALGORITHMS = {
            "DP-DPSGD": (DPDPSGD, AlgorithmConfig, {}),
            "DMSGD": (DMSGD, AlgorithmConfig, {"momentum": 0.5}),
            "MUFFLIATO": (Muffliato, MuffliatoConfig, {"gossip_steps": 2}),
            "DP-CGA": (DPCGA, CGAConfig, {"momentum": 0.5}),
            "DP-NET-FLEET": (DPNetFleet, NetFleetConfig, {"local_steps": 2}),
            "PDSL": (PDSL, PDSLConfig, {"momentum": 0.5, "shapley_permutations": 2}),
        }
    return SMALL_FLEET_ALGORITHMS


@pytest.fixture
def make_small_fleet():
    """Factory for a small, fully constructed algorithm fleet.

    Returns ``fn(name, topology=None, **config_overrides) -> (algorithm,
    test_dataset)`` — the ring/MLP-style setup the equivalence suites share
    (Gaussian-cluster data, Dirichlet partition, linear model, seed-pinned
    config), without each suite re-copying the boilerplate.  ``topology``
    accepts a :class:`Topology`, a :class:`TopologySchedule`, or ``None``
    (a 5-agent ring).  ``model`` is ``"linear"``, ``"mlp"`` or a model
    instance for 8 features and 4 classes.  Identical arguments build
    identically-seeded fleets, so two calls produce bit-identical
    trajectories.
    """
    from repro.core.pdsl import PDSL
    from repro.data.partition import partition_dirichlet

    def build(name, topology=None, model="linear", **config_overrides):
        cls, config_cls, extra = _small_fleet_algorithms()[name]
        if topology is None:
            topology = ring_graph(5)
        num_agents = topology.num_agents
        data = make_classification_dataset(
            400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
        )
        rng = np.random.default_rng(1)
        shards = partition_dirichlet(
            data, num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8
        ).shards
        validation = data.sample(60, rng)
        test = data.sample(80, np.random.default_rng(2))
        if not isinstance(model, str):
            net = model
        elif model == "linear":
            net = make_linear_classifier(8, 4, seed=0)
        else:
            net = make_mlp(8, 4, hidden_sizes=(8,), seed=0)
        defaults = dict(
            learning_rate=0.1,
            sigma=0.1,
            clip_threshold=1.0,
            batch_size=16,
            seed=7,
        )
        config = config_cls(**{**defaults, **extra, **config_overrides})
        if cls is PDSL:
            algorithm = cls(net, topology, shards, config, validation=validation)
        else:
            algorithm = cls(net, topology, shards, config)
        return algorithm, test

    return build


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset() -> Dataset:
    """A small, easy Gaussian-cluster classification dataset (4 classes, 12 features)."""
    return make_classification_dataset(
        num_samples=240,
        num_features=12,
        num_classes=4,
        cluster_std=0.8,
        class_separation=4.0,
        seed=3,
    )


@pytest.fixture
def tiny_dataset() -> Dataset:
    """An even smaller dataset for expensive (per-round) algorithm tests."""
    return make_classification_dataset(
        num_samples=120,
        num_features=8,
        num_classes=3,
        cluster_std=0.7,
        class_separation=4.0,
        seed=5,
    )


@pytest.fixture
def linear_model(small_dataset: Dataset):
    """A linear classifier matched to ``small_dataset``."""
    return make_linear_classifier(small_dataset.input_shape[0], small_dataset.num_classes, seed=0)


@pytest.fixture
def tiny_model(tiny_dataset: Dataset):
    """A linear classifier matched to ``tiny_dataset``."""
    return make_linear_classifier(tiny_dataset.input_shape[0], tiny_dataset.num_classes, seed=0)


@pytest.fixture
def mlp_model(small_dataset: Dataset):
    """A small MLP matched to ``small_dataset``."""
    return make_mlp(small_dataset.input_shape[0], small_dataset.num_classes, hidden_sizes=(16,), seed=0)


@pytest.fixture
def full_topology_4():
    """Fully connected topology on 4 agents."""
    return fully_connected_graph(4)


@pytest.fixture
def ring_topology_5():
    """Ring topology on 5 agents."""
    return ring_graph(5)
