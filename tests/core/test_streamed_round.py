"""The streamed round pipeline: bit-identity, parallel blocks, checkpoints.

The blocked/streamed execution of a full round (``block_rows`` set, with or
without ``storage="memmap"`` and ``block_workers > 1``) is a pure memory
optimisation: every batch and noise draw is addressed by (round, slot,
agent) in counter-based streams, every kernel is row-wise, and parallel
blocks touch disjoint rows — so the resulting trajectory must equal the historic one-shot
path **bit for bit**, for every algorithm, on both engines.  These tests pin
that contract, plus the scheduler's lifecycle and cross-mode checkpointing
(a run started streamed resumes in-RAM and vice versa).
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
from repro.sharding import RoundScheduler
from repro.simulation.runner import RunSession
from repro.topology.graphs import ring_graph

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


def build_algorithm(name, backend="vectorized", **config_overrides):
    cls, config_cls, extra = ALGORITHMS[name]
    topology = ring_graph(NUM_AGENTS)
    data = make_classification_dataset(
        400, num_features=8, num_classes=4, cluster_std=0.6, seed=1
    )
    shards = partition_dirichlet(
        data, NUM_AGENTS, alpha=0.5, rng=np.random.default_rng(1),
        min_samples_per_agent=8,
    ).shards
    validation = data.sample(60, np.random.default_rng(1))
    net = make_linear_classifier(8, 4, seed=0)
    config = config_cls(
        learning_rate=0.1,
        sigma=0.1,
        clip_threshold=1.0,
        batch_size=16,
        seed=7,
        backend=backend,
        **{**extra, **config_overrides},
    )
    if cls is PDSL:
        return cls(net, topology, shards, config, validation=validation)
    return cls(net, topology, shards, config)


def run_rounds(name, rounds=ROUNDS, **config_overrides):
    algorithm = build_algorithm(name, **config_overrides)
    for round_index in range(rounds):
        algorithm.step(round_index)
    state = np.array(algorithm.state)
    momentum = np.array(algorithm.momentum_state)
    algorithm.close()
    return state, momentum


@pytest.fixture(scope="module")
def oneshot_baselines():
    """One-shot vectorized trajectories, computed once per algorithm."""
    return {name: run_rounds(name) for name in ALGORITHMS}


class TestStreamedBitIdentity:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("block_rows", [1, 2, 7, NUM_AGENTS])
    @pytest.mark.parametrize("block_workers", [1, 4])
    @pytest.mark.parametrize("storage", ["ram", "memmap"])
    def test_streamed_matches_oneshot(
        self, name, block_rows, block_workers, storage, oneshot_baselines
    ):
        state, momentum = run_rounds(
            name, block_rows=block_rows, block_workers=block_workers, storage=storage
        )
        np.testing.assert_array_equal(state, oneshot_baselines[name][0])
        np.testing.assert_array_equal(momentum, oneshot_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_parallel_blocks_match_serial(self, name, oneshot_baselines):
        state, momentum = run_rounds(name, block_rows=2, block_workers=4)
        np.testing.assert_array_equal(state, oneshot_baselines[name][0])
        np.testing.assert_array_equal(momentum, oneshot_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_memmap_storage_matches_oneshot(self, name, oneshot_baselines):
        state, momentum = run_rounds(
            name, block_rows=2, storage="memmap", block_workers=4
        )
        np.testing.assert_array_equal(state, oneshot_baselines[name][0])
        np.testing.assert_array_equal(momentum, oneshot_baselines[name][1])

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_loop_engine_blocked_matches_loop_oneshot(self, name):
        base_state, base_momentum = run_rounds(name, backend="loop")
        state, momentum = run_rounds(
            name, backend="loop", block_rows=2, storage="memmap"
        )
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_loop_engine_matches_streamed(self, name):
        loop_state, loop_momentum = run_rounds(name, backend="loop")
        state, momentum = run_rounds(name, block_rows=2, storage="memmap")
        np.testing.assert_allclose(state, loop_state, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(momentum, loop_momentum, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize(
        "compression",
        [
            {"codec": "topk", "k": 5, "communication_interval": 2},
            {"codec": "fp16"},
        ],
        ids=["topk-interval", "fp16"],
    )
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_compressed_gossip_streams_identically(self, name, compression):
        base_state, base_momentum = run_rounds(name, compression=compression)
        state, momentum = run_rounds(
            name,
            compression=compression,
            block_rows=2,
            storage="memmap",
            block_workers=4,
        )
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)

    @pytest.mark.parametrize("name", ["DP-DPSGD", "MUFFLIATO", "PDSL"])
    def test_float32_state_streams_identically(self, name):
        base_state, base_momentum = run_rounds(name, dtype="float32")
        state, momentum = run_rounds(name, dtype="float32", block_rows=2)
        np.testing.assert_array_equal(state, base_state)
        np.testing.assert_array_equal(momentum, base_momentum)
        assert state.dtype == np.float32


class TestCrossModeCheckpoint:
    @pytest.mark.parametrize("name", ["DP-DPSGD", "DP-NET-FLEET", "PDSL"])
    @pytest.mark.parametrize(
        "save_kwargs,resume_kwargs",
        [
            ({"block_rows": 2, "storage": "memmap"}, {}),
            ({}, {"block_rows": 2, "storage": "memmap"}),
        ],
        ids=["streamed-to-ram", "ram-to-streamed"],
    )
    def test_resume_across_modes_is_bit_identical(
        self, tmp_path, name, save_kwargs, resume_kwargs
    ):
        reference = build_algorithm(name)
        RunSession(reference, num_rounds=4).run()
        expected = np.array(reference.state)
        reference.close()

        first = build_algorithm(name, **save_kwargs)
        session = RunSession(
            first,
            num_rounds=4,
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            out_of_core=True,
        )
        session.run(max_rounds=2)
        checkpoint = session.checkpoint()
        first.close()

        second = build_algorithm(name, **resume_kwargs)
        RunSession.resume(second, checkpoint, out_of_core=True).run()
        np.testing.assert_array_equal(np.array(second.state), expected)
        second.close()


class TestRoundScheduler:
    def test_serial_runs_inline(self):
        with RoundScheduler(1) as scheduler:
            assert not scheduler.parallel
            results = scheduler.map(lambda a, b: (a, b), [(0, 2), (2, 5)])
        assert results == [(0, 2), (2, 5)]

    def test_parallel_preserves_block_order(self):
        with RoundScheduler(4) as scheduler:
            assert scheduler.parallel
            blocks = [(i, i + 1) for i in range(32)]
            results = scheduler.map(lambda a, b: a * 10 + b, blocks)
        assert results == [a * 10 + b for a, b in blocks]

    def test_serial_flag_forces_inline_execution(self):
        import threading

        seen = []
        with RoundScheduler(4) as scheduler:
            scheduler.map(
                lambda a, b: seen.append(threading.current_thread().name),
                [(0, 1), (1, 2)],
                serial=True,
            )
        assert all(name == threading.main_thread().name for name in seen)

    def test_worker_error_propagates(self):
        def boom(start, stop):
            if start == 1:
                raise RuntimeError("block failed")
            return start

        with RoundScheduler(4) as scheduler:
            with pytest.raises(RuntimeError, match="block failed"):
                scheduler.map(boom, [(0, 1), (1, 2), (2, 3)])

    def test_close_is_idempotent(self):
        scheduler = RoundScheduler(2)
        scheduler.map(lambda a, b: a, [(0, 1)])
        scheduler.close()
        scheduler.close()


class TestAgentRng:
    def test_same_round_and_agent_rebuild_the_same_stream(self):
        algorithm = build_algorithm("PDSL")
        first = algorithm.agent_rng(2).normal(size=4)
        np.testing.assert_array_equal(algorithm.agent_rng(2).normal(size=4), first)

    def test_streams_differ_across_agents_and_rounds(self):
        algorithm = build_algorithm("PDSL")
        draws = {
            (step, agent): algorithm.agent_rng(agent, step=step).integers(2**62)
            for step in range(2)
            for agent in range(3)
        }
        assert len(set(draws.values())) == len(draws)
        # Without a step, the generator belongs to the round being executed.
        algorithm.step(1)
        assert algorithm.agent_rng(2).integers(2**62) == draws[(1, 2)]

    def test_independent_of_batch_and_noise_draws(self):
        a = build_algorithm("PDSL")
        b = build_algorithm("PDSL")
        a.draw_batches()
        a.privatize(1, np.zeros(a.dimension))
        np.testing.assert_array_equal(
            a.agent_rng(1).normal(size=4), b.agent_rng(1).normal(size=4)
        )


def test_construction_creates_no_per_agent_generators():
    """Building a 4096-agent fleet creates O(1) generators, not 3N."""
    import gc

    from repro.data.dataset import Dataset

    num_agents = 4096
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(4 * num_agents, 3))
    labels = rng.integers(0, 2, size=4 * num_agents)
    shards = [
        Dataset(inputs[4 * i : 4 * i + 4], labels[4 * i : 4 * i + 4])
        for i in range(num_agents)
    ]
    topology = ring_graph(num_agents)
    model = make_linear_classifier(3, 2, seed=0)

    def live_generators():
        gc.collect()
        return sum(
            isinstance(obj, (np.random.Generator, np.random.BitGenerator))
            for obj in gc.get_objects()
        )

    before = live_generators()
    algorithm = DPDPSGD(model, topology, shards, AlgorithmConfig(sigma=0.5, batch_size=4))
    assert live_generators() - before <= 4
    algorithm.run_round()
    assert live_generators() - before <= 4
