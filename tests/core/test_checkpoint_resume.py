"""Checkpoint/resume bit-identity for every algorithm on both engines.

The contract under test: interrupting a run at any round boundary, persisting
``state_dict()`` (through a real on-disk checkpoint), rebuilding the
algorithm from scratch and restoring the state must continue the trajectory
**bit for bit** — the resumed run's fleet matrices, random streams, traffic
counters and :class:`TrainingHistory` all equal the uninterrupted run's.
That property is what makes the experiment orchestrator's resume path safe:
a killed sweep loses wall-clock time, never determinism.
"""

import numpy as np
import pytest

from repro.baselines import DMSGD, DPCGA, DPDPSGD, DPNetFleet, Muffliato
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
from repro.nn.zoo import make_linear_classifier
from repro.simulation.checkpoint import latest_checkpoint
from repro.simulation.metrics import histories_equal
from repro.simulation.runner import EvaluationConfig, RunSession, run_decentralized
from repro.topology.graphs import ring_graph
from repro.topology.schedule import DynamicTopologySchedule

NUM_AGENTS = 5
ROUNDS = 4
HALF = ROUNDS // 2

ALGORITHMS = {
    "DP-DPSGD": (DPDPSGD, AlgorithmConfig, {}),
    "DMSGD": (DMSGD, AlgorithmConfig, {"momentum": 0.5}),
    "MUFFLIATO": (Muffliato, MuffliatoConfig, {"gossip_steps": 2}),
    "DP-CGA": (DPCGA, CGAConfig, {"momentum": 0.5}),
    "DP-NET-FLEET": (DPNetFleet, NetFleetConfig, {"local_steps": 2}),
    "PDSL": (PDSL, PDSLConfig, {"momentum": 0.5, "shapley_permutations": 2}),
}

BACKENDS = ("loop", "vectorized")


def build_algorithm(name, backend, dynamic=False, compression=None):
    """A small but complete instance (noise on, momentum on where supported)."""
    cls, config_cls, extra = ALGORITHMS[name]
    topology = ring_graph(NUM_AGENTS)
    if dynamic:
        topology = DynamicTopologySchedule(
            ring_graph(NUM_AGENTS),
            rewire_every=2,
            straggler_fraction=0.2,
            seed=3,
        )
    data = make_classification_dataset(
        300, num_features=6, num_classes=3, cluster_std=0.7, seed=1
    )
    rng = np.random.default_rng(1)
    shards = partition_dirichlet(
        data, NUM_AGENTS, alpha=0.5, rng=rng, min_samples_per_agent=8
    ).shards
    validation = data.sample(40, rng)
    test = data.sample(60, np.random.default_rng(2))
    model = make_linear_classifier(6, 3, seed=0)
    config = config_cls(
        learning_rate=0.1,
        sigma=0.1,
        clip_threshold=1.0,
        batch_size=8,
        seed=7,
        backend=backend,
        compression=compression,
        **extra,
    )
    if cls is PDSL:
        algorithm = cls(model, topology, shards, config, validation=validation)
    else:
        algorithm = cls(model, topology, shards, config)
    return algorithm, test


def assert_same_resumable_state(a, b):
    """Every field state_dict() captures must match exactly between runs."""
    assert np.array_equal(a.state, b.state)
    assert np.array_equal(a.momentum_state, b.momentum_state)
    assert a.rounds_completed == b.rounds_completed
    assert a.accountant.events == b.accountant.events
    assert a.network.messages_sent == b.network.messages_sent
    assert a.network.floats_sent == b.network.floats_sent
    # The stream position is (seed, rounds_completed): both runs draw the
    # same next batch and noise.
    assert a.streams.seed == b.streams.seed
    np.testing.assert_array_equal(a.draw_batches().index, b.draw_batches().index)
    np.testing.assert_array_equal(
        a.privatize(0, np.zeros(a.dimension)), b.privatize(0, np.zeros(b.dimension))
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_resume_bit_identical(name, backend, tmp_path):
    """T rounds straight == checkpoint at T/2 + resume, for every field."""
    straight, test = build_algorithm(name, backend)
    evaluation = EvaluationConfig(eval_every=1, test_data=test)
    history_straight = run_decentralized(straight, ROUNDS, evaluation=evaluation)

    interrupted, test_b = build_algorithm(name, backend)
    first_half = RunSession(
        interrupted,
        ROUNDS,
        evaluation=EvaluationConfig(eval_every=1, test_data=test_b),
        checkpoint_every=HALF,
        checkpoint_dir=tmp_path,
    )
    first_half.run(max_rounds=HALF)
    checkpoint = latest_checkpoint(tmp_path)
    assert checkpoint is not None

    resumed, test_c = build_algorithm(name, backend)
    second_half = RunSession.resume(
        resumed,
        checkpoint,
        evaluation=EvaluationConfig(eval_every=1, test_data=test_c),
    )
    assert second_half.rounds_done == HALF
    history_resumed = second_half.run()

    assert histories_equal(history_straight, history_resumed)
    assert_same_resumable_state(straight, resumed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_bit_identical_under_dynamic_schedule(backend, tmp_path):
    """Resume restores the schedule position too (rewiring + stragglers)."""
    straight, test = build_algorithm("DMSGD", backend, dynamic=True)
    history_straight = run_decentralized(
        straight, ROUNDS, evaluation=EvaluationConfig(test_data=test)
    )
    assert history_straight.event_counts(), "dynamics produced no events"

    interrupted, test_b = build_algorithm("DMSGD", backend, dynamic=True)
    session = RunSession(
        interrupted,
        ROUNDS,
        evaluation=EvaluationConfig(test_data=test_b),
        checkpoint_every=1,
        checkpoint_dir=tmp_path,
    )
    session.run(max_rounds=HALF)

    resumed, test_c = build_algorithm("DMSGD", backend, dynamic=True)
    history_resumed = RunSession.resume(
        resumed,
        latest_checkpoint(tmp_path),
        evaluation=EvaluationConfig(test_data=test_c),
    ).run()

    assert histories_equal(history_straight, history_resumed)
    assert_same_resumable_state(straight, resumed)


COMPRESSED = {
    "codec": "topk",
    "k": 2,
    "communication_interval": 2,
    "error_feedback": True,
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_bit_identical_under_compression(backend, tmp_path):
    """Residual buffers and the interval position ride through checkpoints.

    Top-k with error feedback and a communication interval of 2: the resume
    must restore the per-channel residuals (else the error memory restarts
    from zero and the trajectory drifts) and the interval phase (else the
    resumed run gossips on the wrong rounds).  HALF = 2 lands the
    checkpoint exactly on an off-interval round, so both are exercised.
    """
    straight, test = build_algorithm("DMSGD", backend, compression=COMPRESSED)
    evaluation = EvaluationConfig(eval_every=1, test_data=test)
    history_straight = run_decentralized(straight, ROUNDS, evaluation=evaluation)

    interrupted, test_b = build_algorithm("DMSGD", backend, compression=COMPRESSED)
    session = RunSession(
        interrupted,
        ROUNDS,
        evaluation=EvaluationConfig(eval_every=1, test_data=test_b),
        checkpoint_every=HALF,
        checkpoint_dir=tmp_path,
    )
    session.run(max_rounds=HALF)

    resumed, test_c = build_algorithm("DMSGD", backend, compression=COMPRESSED)
    history_resumed = RunSession.resume(
        resumed,
        latest_checkpoint(tmp_path),
        evaluation=EvaluationConfig(eval_every=1, test_data=test_c),
    ).run()

    assert histories_equal(history_straight, history_resumed)
    assert_same_resumable_state(straight, resumed)
    assert straight.network.bytes_sent == resumed.network.bytes_sent
    straight_res = straight._compression_state._residuals
    resumed_res = resumed._compression_state._residuals
    assert sorted(straight_res) == sorted(resumed_res)
    for channel in straight_res:
        assert np.array_equal(straight_res[channel], resumed_res[channel])
        assert np.any(straight_res[channel] != 0.0), "top-k left no residual?"


def test_resume_restores_sparsifier_rng_streams():
    """random-k's per-agent coordinate streams continue bit-exactly."""
    straight, _ = build_algorithm("DMSGD", "vectorized", compression={"codec": "randomk", "k": 2})
    for _ in range(ROUNDS):
        straight.run_round()

    other, _ = build_algorithm("DMSGD", "vectorized", compression={"codec": "randomk", "k": 2})
    for _ in range(HALF):
        other.run_round()
    payload = other.state_dict()

    resumed, _ = build_algorithm("DMSGD", "vectorized", compression={"codec": "randomk", "k": 2})
    resumed.load_state_dict(payload)
    for _ in range(ROUNDS - HALF):
        resumed.run_round()
    assert np.array_equal(straight.state, resumed.state)
    for rng_a, rng_b in zip(
        straight._compression_state.rngs, resumed._compression_state.rngs
    ):
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_load_state_dict_rejects_compression_mismatch():
    compressed, _ = build_algorithm("DMSGD", "vectorized", compression=COMPRESSED)
    compressed.run_round()
    plain, _ = build_algorithm("DMSGD", "vectorized")
    with pytest.raises(ValueError, match="compression"):
        plain.load_state_dict(compressed.state_dict())
    with pytest.raises(ValueError, match="compression"):
        fresh, _ = build_algorithm("DMSGD", "vectorized", compression=COMPRESSED)
        fresh.load_state_dict(plain.state_dict())
    other_codec, _ = build_algorithm("DMSGD", "vectorized", compression={"codec": "int8"})
    with pytest.raises(ValueError, match="codec"):
        other_codec.load_state_dict(compressed.state_dict())


def test_resume_preserves_netfleet_tracking_state(tmp_path):
    """The gradient-tracking matrices ride through _extra_state exactly."""
    straight, _ = build_algorithm("DP-NET-FLEET", "vectorized")
    for _ in range(ROUNDS):
        straight.run_round()

    other, _ = build_algorithm("DP-NET-FLEET", "vectorized")
    for _ in range(HALF):
        other.run_round()
    payload = other.state_dict()

    resumed, _ = build_algorithm("DP-NET-FLEET", "vectorized")
    resumed.load_state_dict(payload)
    assert resumed._initialized
    for _ in range(ROUNDS - HALF):
        resumed.run_round()
    assert np.array_equal(straight.tracking_state, resumed.tracking_state)
    assert np.array_equal(
        straight.previous_gradient_state, resumed.previous_gradient_state
    )


def test_resume_preserves_pdsl_diagnostics():
    """last_shapley / last_weights survive a round-trip unchanged."""
    original, _ = build_algorithm("PDSL", "vectorized")
    for _ in range(2):
        original.run_round()
    payload = original.state_dict()
    restored, _ = build_algorithm("PDSL", "vectorized")
    restored.load_state_dict(payload)
    assert restored.last_shapley == original.last_shapley
    assert restored.last_weights == original.last_weights


def test_state_dict_is_a_snapshot():
    """Later training must not mutate a previously captured state."""
    algorithm, _ = build_algorithm("DMSGD", "vectorized")
    algorithm.run_round()
    payload = algorithm.state_dict()
    frozen = payload["state"].copy()
    algorithm.run_round()
    assert np.array_equal(payload["state"], frozen)


def test_load_state_dict_rejects_wrong_algorithm():
    donor, _ = build_algorithm("DMSGD", "vectorized")
    recipient, _ = build_algorithm("DP-DPSGD", "vectorized")
    with pytest.raises(ValueError, match="written by algorithm"):
        recipient.load_state_dict(donor.state_dict())


def test_load_state_dict_rejects_wrong_shape():
    donor, _ = build_algorithm("DMSGD", "vectorized")
    payload = donor.state_dict()
    payload["num_agents"] = NUM_AGENTS + 1
    recipient, _ = build_algorithm("DMSGD", "vectorized")
    with pytest.raises(ValueError, match="fleet shape"):
        recipient.load_state_dict(payload)


def test_load_state_dict_rejects_unknown_format():
    donor, _ = build_algorithm("DMSGD", "vectorized")
    payload = donor.state_dict()
    payload["state_format"] = 999
    recipient, _ = build_algorithm("DMSGD", "vectorized")
    with pytest.raises(ValueError, match="state format"):
        recipient.load_state_dict(payload)


def test_state_dict_holds_no_per_agent_generator_states():
    algorithm, _ = build_algorithm("PDSL", "vectorized")
    algorithm.run_round()
    payload = algorithm.state_dict()
    assert payload["state_format"] == 3
    for key in ("sampler_states", "mechanism_rng_states", "agent_rng_states", "rng_state"):
        assert key not in payload
    assert payload["stream_seed"] == algorithm.config.seed


def test_load_state_dict_rejects_format_2_naming_both_formats():
    donor, _ = build_algorithm("DMSGD", "vectorized")
    payload = donor.state_dict()
    payload["state_format"] = 2
    recipient, _ = build_algorithm("DMSGD", "vectorized")
    with pytest.raises(ValueError, match=r"format 2 .*format 3"):
        recipient.load_state_dict(payload)


def test_load_state_dict_rejects_other_stream_seed():
    donor, _ = build_algorithm("DMSGD", "vectorized")
    payload = donor.state_dict()
    payload["stream_seed"] = donor.streams.seed + 1
    recipient, _ = build_algorithm("DMSGD", "vectorized")
    with pytest.raises(ValueError, match="stream seed"):
        recipient.load_state_dict(payload)
