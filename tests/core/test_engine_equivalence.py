"""Round-pipeline equivalence: the per-agent reference, schedules, codecs.

The blocked pipeline must compute Algorithm 1 faithfully.  For DP-DPSGD and
PDSL, :func:`repro.bench.reference.reference_round` runs the same rounds one
agent at a time — one scalar ``loss_and_gradient`` per gradient, a weighted
neighbourhood sum per gossip — reading the same keyed streams, so the two
produce the same ``TrainingHistory`` up to floating-point associativity of
the re-ordered sums.  Every algorithm's traffic must match one message per
directed channel per exchange.
"""

import numpy as np
import pytest

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, Muffliato
from repro.bench.reference import reference_round
from repro.core.config import (
    AlgorithmConfig,
    CGAConfig,
    MuffliatoConfig,
    NetFleetConfig,
    PDSLConfig,
)
from repro.core.pdsl import PDSL
from repro.data.partition import partition_dirichlet
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier, make_mlp
from repro.simulation.network import Network
from repro.simulation.runner import EvaluationConfig, run_decentralized
from repro.topology.graphs import (
    bipartite_graph,
    fully_connected_graph,
    ring_graph,
    torus_graph,
)

NUM_AGENTS = 5
ROUNDS = 3

ALGORITHMS = {
    "DP-DPSGD": (DPDPSGD, AlgorithmConfig, {}),
    "DMSGD": (DMSGD, AlgorithmConfig, {"momentum": 0.5}),
    "MUFFLIATO": (Muffliato, MuffliatoConfig, {"gossip_steps": 2}),
    "DP-CGA": (DPCGA, CGAConfig, {"momentum": 0.5}),
    "DP-NET-FLEET": (DPNetFleet, NetFleetConfig, {"local_steps": 2}),
    "PDSL": (PDSL, PDSLConfig, {"momentum": 0.5, "shapley_permutations": 2}),
}

#: The algorithms :func:`reference_round` implements.
REFERENCE = ["DP-DPSGD", "PDSL"]

#: Floats per message of every exchange a communication round performs,
#: as multiples of the model dimension.
EXCHANGES = {
    "DP-DPSGD": {"model": 1},
    "DMSGD": {"model": 1},
    "MUFFLIATO": {"gossip_0": 1, "gossip_1": 1},
    "DP-CGA": {"model": 1, "cross_grad": 1, "mix": 1},
    "DP-NET-FLEET": {"state": 2},
    "PDSL": {"model": 1, "cross_grad": 1, "mix": 2},
}

TOPOLOGIES = {
    "ring": lambda: ring_graph(NUM_AGENTS),
    "full": lambda: fully_connected_graph(NUM_AGENTS),
    "bipartite": lambda: bipartite_graph(NUM_AGENTS),
}


def build_algorithm(
    name,
    topology_name=None,
    sigma=0.1,
    model="linear",
    topology_factory=None,
    compression=None,
    **config_overrides,
):
    cls, config_cls, extra = ALGORITHMS[name]
    topology = (topology_factory or TOPOLOGIES[topology_name])()
    data = make_classification_dataset(
        400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
    )
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(
        data, topology.num_agents, alpha=0.5, rng=rng, min_samples_per_agent=8
    ).shards
    validation = data.sample(60, rng)
    test = data.sample(80, np.random.default_rng(2))
    if model == "linear":
        net = make_linear_classifier(8, 4, seed=0)
    else:
        net = make_mlp(8, 4, hidden_sizes=(8,), seed=0)
    config = config_cls(
        learning_rate=0.1,
        sigma=sigma,
        clip_threshold=1.0,
        batch_size=16,
        seed=7,
        compression=compression,
        **{**extra, **config_overrides},
    )
    if cls is PDSL:
        algorithm = cls(net, topology, shards, config, validation=validation)
    else:
        algorithm = cls(net, topology, shards, config)
    return algorithm, test


def run_history(name, topology_name, reference=False, **kwargs):
    """``ROUNDS`` evaluated rounds on the pipeline, or on the per-agent reference."""
    algorithm, test = build_algorithm(name, topology_name, **kwargs)
    if reference:
        algorithm.run_round = lambda: reference_round(algorithm)
    history = run_decentralized(
        algorithm,
        num_rounds=ROUNDS,
        evaluation=EvaluationConfig(eval_every=1, test_data=test),
    )
    return algorithm, history


def assert_histories_equivalent(history_a, history_b):
    assert len(history_a) == len(history_b)
    for rec_a, rec_b in zip(history_a.records, history_b.records):
        assert rec_a.round == rec_b.round
        assert rec_a.average_train_loss == pytest.approx(
            rec_b.average_train_loss, rel=1e-9, abs=1e-12
        )
        assert rec_a.test_accuracy == pytest.approx(rec_b.test_accuracy, abs=1e-12)
        assert rec_a.consensus == pytest.approx(rec_b.consensus, rel=1e-6, abs=1e-12)
    assert history_a.final_test_accuracy == pytest.approx(
        history_b.final_test_accuracy, abs=1e-12
    )


def assert_matches_reference(name, topology_name, **kwargs):
    ref_alg, ref_history = run_history(name, topology_name, reference=True, **kwargs)
    alg, history = run_history(name, topology_name, **kwargs)
    assert_histories_equivalent(ref_history, history)
    np.testing.assert_allclose(ref_alg.state, alg.state, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        ref_alg.momentum_state, alg.momentum_state, rtol=1e-9, atol=1e-12
    )
    assert ref_alg.accountant.events == alg.accountant.events
    return ref_alg, alg


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("algorithm_name", REFERENCE)
class TestReferenceEquivalence:
    def test_identical_training_history(self, algorithm_name, topology_name):
        ref_alg, alg = assert_matches_reference(algorithm_name, topology_name)
        if algorithm_name == "PDSL":
            for ref_weights, weights in zip(ref_alg.last_weights, alg.last_weights):
                assert ref_weights.keys() == weights.keys()
                for j in weights:
                    assert ref_weights[j] == pytest.approx(weights[j], rel=1e-9, abs=1e-12)

    def test_identical_traffic_accounting(self, algorithm_name, topology_name):
        ref_alg, _ = run_history(algorithm_name, topology_name, reference=True)
        alg, _ = run_history(algorithm_name, topology_name)
        assert ref_alg.network.traffic_summary() == alg.network.traffic_summary()


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestPipelineGrid:
    def test_deterministic_per_seed(self, algorithm_name, topology_name):
        a, history_a = run_history(algorithm_name, topology_name)
        b, history_b = run_history(algorithm_name, topology_name)
        assert_histories_identical(history_a, history_b)
        np.testing.assert_array_equal(a.state, b.state)
        np.testing.assert_array_equal(a.momentum_state, b.momentum_state)

    def test_one_message_per_channel_per_exchange(self, algorithm_name, topology_name):
        algorithm, _ = run_history(algorithm_name, topology_name)
        edges = algorithm.topology.num_directed_edges
        dimension = algorithm.dimension
        expected = {
            tag: ROUNDS * edges * multiple * dimension
            for tag, multiple in EXCHANGES[algorithm_name].items()
        }
        traffic = algorithm.network.traffic_summary()
        assert traffic["traffic_by_tag"] == expected
        assert traffic["messages_sent"] == ROUNDS * edges * len(expected)
        assert traffic["bytes_sent"] == 8 * traffic["floats_sent"]
        assert traffic["messages_dropped"] == 0


class TestReferenceVariants:
    """Extra reference coverage beyond the main grid."""

    @pytest.mark.parametrize("algorithm_name", REFERENCE)
    def test_mlp_stacked_path_matches_reference(self, algorithm_name):
        assert_matches_reference(algorithm_name, "ring", model="mlp")

    def test_noise_free_trajectories_match(self):
        assert_matches_reference("DP-DPSGD", "full", sigma=0.0)

    @pytest.mark.parametrize("algorithm_name", REFERENCE)
    def test_torus_matches_reference(self, algorithm_name):
        ref_alg, alg = assert_matches_reference(
            algorithm_name, None, topology_factory=lambda: torus_graph(3)
        )
        assert ref_alg.network.traffic_summary() == alg.network.traffic_summary()

    @pytest.mark.parametrize("algorithm_name", REFERENCE)
    def test_communication_interval_matches_reference(self, algorithm_name):
        ref_alg, alg = assert_matches_reference(
            algorithm_name, "ring", compression={"communication_interval": 2}
        )
        assert ref_alg.network.traffic_summary() == alg.network.traffic_summary()

    def test_pipeline_is_deterministic(self):
        a, history_a = run_history("PDSL", "ring")
        b, history_b = run_history("PDSL", "ring")
        np.testing.assert_array_equal(a.state, b.state)
        assert history_a.losses == history_b.losses

    def test_reference_rejects_what_it_does_not_model(self):
        algorithm, _ = build_algorithm("DP-DPSGD", "ring", compression={"codec": "int8"})
        with pytest.raises(ValueError, match="codecs"):
            reference_round(algorithm)
        algorithm, _ = build_algorithm("DP-DPSGD", "ring")
        algorithm.network = Network(NUM_AGENTS, drop_probability=0.5)
        with pytest.raises(ValueError, match="drops"):
            reference_round(algorithm)
        algorithm, _ = build_algorithm("DMSGD", "ring")
        with pytest.raises(TypeError, match="DMSGD"):
            reference_round(algorithm)


def assert_histories_identical(history_a, history_b):
    """Exact (bitwise) equality of every recorded quantity."""
    assert len(history_a) == len(history_b)
    for rec_a, rec_b in zip(history_a.records, history_b.records):
        assert rec_a.round == rec_b.round
        assert rec_a.average_train_loss == rec_b.average_train_loss
        assert rec_a.test_accuracy == rec_b.test_accuracy
        assert rec_a.consensus == rec_b.consensus
    assert history_a.final_test_accuracy == history_b.final_test_accuracy


class TestScheduleEquivalence:
    """Topology schedules: static wrapping is free, dynamics match the reference."""

    @pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
    def test_static_schedule_is_bit_identical(self, algorithm_name):
        from repro.topology.schedule import StaticSchedule

        plain_alg, plain_history = run_history(algorithm_name, "ring")
        wrapped_alg, wrapped_history = run_history(
            algorithm_name,
            None,
            topology_factory=lambda: StaticSchedule(ring_graph(NUM_AGENTS)),
        )
        assert_histories_identical(plain_history, wrapped_history)
        np.testing.assert_array_equal(plain_alg.state, wrapped_alg.state)
        np.testing.assert_array_equal(
            plain_alg.momentum_state, wrapped_alg.momentum_state
        )
        assert (
            plain_alg.network.traffic_summary()
            == wrapped_alg.network.traffic_summary()
        )

    @staticmethod
    def dynamic_schedule():
        from repro.topology.schedule import DynamicTopologySchedule

        return DynamicTopologySchedule(
            ring_graph(6),
            rewire_every=2,
            churn_rate=0.25,
            rejoin_rate=0.5,
            straggler_fraction=0.2,
            edge_failure_rate=0.1,
            seed=3,
        )

    @pytest.mark.parametrize("algorithm_name", REFERENCE)
    def test_dynamic_schedule_matches_reference(self, algorithm_name):
        """Churn + rewiring + stragglers: the pipeline stays RNG-stream equal."""
        ref_alg, alg = assert_matches_reference(
            algorithm_name, None, topology_factory=self.dynamic_schedule
        )
        ref_traffic = ref_alg.network.traffic_summary()
        traffic = alg.network.traffic_summary()
        assert ref_traffic["messages_sent"] == traffic["messages_sent"]
        assert ref_traffic["floats_sent"] == traffic["floats_sent"]

    def test_dynamic_run_records_events_and_masks(self):
        algorithm, history = run_history(
            "DMSGD", None, topology_factory=self.dynamic_schedule
        )
        events = [e for record in history.records for e in record.topology_events]
        assert events, "a dynamic schedule must surface events in the history"
        kinds = {e["kind"] for e in events}
        assert "rewire" in kinds
        assert {record.active_agents for record in history.records} != {6}
        assert history.metadata["dynamics"]["churn_rate"] == 0.25

    def test_inactive_agents_are_frozen_for_the_round(self):
        from repro.topology.schedule import churn_schedule

        schedule = churn_schedule(ring_graph(6), churn_rate=0.5, rejoin_rate=0.3, seed=1)
        algorithm, _ = build_algorithm("DMSGD", topology_factory=lambda: schedule)
        for round_index in range(4):
            before = algorithm.state.copy()
            momentum_before = algorithm.momentum_state.copy()
            algorithm.run_round()
            inactive = ~schedule.active_mask_at(round_index)
            np.testing.assert_array_equal(
                algorithm.state[inactive], before[inactive]
            )
            np.testing.assert_array_equal(
                algorithm.momentum_state[inactive], momentum_before[inactive]
            )


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestIdentityCodecBitIdentity:
    """``compression={"codec": "identity"}`` must be a no-op, bit for bit.

    The compressed-gossip plumbing routes every exchanged payload through
    :meth:`compress_gossip_rows` even when the codec is the identity; these
    regression cells pin the whole uncompressed trajectory — history, final
    state, and traffic counters — for every algorithm, under static and
    dynamic topologies.
    """

    def test_static_topology_bit_identical(self, algorithm_name):
        plain_alg, plain_history = run_history(algorithm_name, "ring")
        codec_alg, codec_history = run_history(
            algorithm_name, "ring", compression={"codec": "identity"}
        )
        assert codec_alg.codec.is_identity
        assert_histories_identical(plain_history, codec_history)
        np.testing.assert_array_equal(plain_alg.state, codec_alg.state)
        np.testing.assert_array_equal(
            plain_alg.momentum_state, codec_alg.momentum_state
        )
        assert (
            plain_alg.network.traffic_summary() == codec_alg.network.traffic_summary()
        )

    def test_dynamic_topology_bit_identical(self, algorithm_name):
        factory = TestScheduleEquivalence.dynamic_schedule
        plain_alg, plain_history = run_history(
            algorithm_name, None, topology_factory=factory
        )
        codec_alg, codec_history = run_history(
            algorithm_name,
            None,
            topology_factory=factory,
            compression={"codec": "identity"},
        )
        assert_histories_identical(plain_history, codec_history)
        np.testing.assert_array_equal(plain_alg.state, codec_alg.state)
        assert (
            plain_alg.network.traffic_summary() == codec_alg.network.traffic_summary()
        )


class TestLargerFleets:
    def test_fleet_of_80_runs_end_to_end(self):
        from repro.data.partition import partition_iid

        topology = ring_graph(80)
        data = make_classification_dataset(640, num_features=8, num_classes=4, seed=0)
        shards = partition_iid(data, 80, np.random.default_rng(0)).shards
        config = AlgorithmConfig(sigma=0.1, batch_size=8)
        algorithm = DPDPSGD(make_linear_classifier(8, 4, seed=0), topology, shards, config)
        history = run_decentralized(algorithm, num_rounds=2)
        assert len(history) >= 1
        assert np.isfinite(algorithm.state).all()
