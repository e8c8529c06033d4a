"""Message drops (fault injection) on the round pipeline, for every algorithm.

Swapping in ``Network(n, drop_probability=p)`` makes every message of every
exchange independently lost with probability ``p``.  Whether a message is
dropped is a pure function of ``(seed, round, tag, sender, recipient)`` in
the algorithm's keyed streams: a dropped gossip message ``j -> i`` zeroes
``w_ij`` for that exchange (the diagonal stays), a cross-gradient is only
computed — and only draws noise — when the model it needs arrived, and
``messages_dropped`` counts the masked messages.  So lossy runs keep every
contract loss-free runs have: bit-identity across row blocks and workers,
and bit-identical checkpoint/resume with no random state in the checkpoint.
"""

import numpy as np
import pytest

from repro.simulation.network import Network
from repro.simulation.runner import EvaluationConfig, RunSession, run_decentralized

from tests.core.test_engine_equivalence import ALGORITHMS, build_algorithm

NUM_AGENTS = 5
ROUNDS = 4


def lossy(algorithm, drop_probability):
    algorithm.network = Network(algorithm.num_agents, drop_probability=drop_probability)
    return algorithm


def run_lossy(name, drop_probability=0.3, rounds=ROUNDS, **config):
    algorithm, _ = build_algorithm(name, "full", **config)
    lossy(algorithm, drop_probability)
    for _ in range(rounds):
        algorithm.run_round()
    return algorithm


def snapshot(algorithm):
    return (
        np.array(algorithm.state),
        np.array(algorithm.momentum_state),
        algorithm.network.traffic_summary(),
    )


def assert_same_snapshot(a, b):
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]


@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
class TestLossyRounds:
    def test_drops_are_counted_and_the_run_stays_sane(self, algorithm_name):
        algorithm, test = build_algorithm(algorithm_name, "ring")
        lossy(algorithm, drop_probability=0.3)
        history = run_decentralized(
            algorithm,
            num_rounds=2,
            evaluation=EvaluationConfig(eval_every=1, test_data=test),
        )
        assert algorithm.network.messages_sent > 0
        assert algorithm.network.messages_dropped > 0
        assert np.isfinite(algorithm.state).all()
        assert len(history) == 2

    def test_fully_partitioned_network_still_completes_rounds(self, algorithm_name):
        # drop_probability = 1.0 (closed interval): every exchange is lost,
        # every agent is on its own, and the round loop must still make
        # progress without error.
        algorithm, _ = build_algorithm(algorithm_name, "ring")
        lossy(algorithm, drop_probability=1.0)
        run_decentralized(algorithm, num_rounds=2)
        assert algorithm.network.messages_dropped == algorithm.network.messages_sent
        assert algorithm.network.messages_sent > 0
        assert np.isfinite(algorithm.state).all()

    def test_drops_change_the_trajectory(self, algorithm_name):
        reliable = run_lossy(algorithm_name, drop_probability=0.0)
        unreliable = run_lossy(algorithm_name, drop_probability=0.3)
        assert reliable.network.messages_dropped == 0
        assert not np.array_equal(reliable.state, unreliable.state)

    @pytest.mark.parametrize("block_rows", [None, 2])
    @pytest.mark.parametrize("block_workers", [1, 2])
    def test_bit_identical_across_blocks_and_workers(
        self, algorithm_name, block_rows, block_workers
    ):
        baseline = run_lossy(algorithm_name)
        blocked = run_lossy(
            algorithm_name, block_rows=block_rows, block_workers=block_workers
        )
        assert_same_snapshot(snapshot(baseline), snapshot(blocked))
        if block_rows == 2:
            assert len(blocked._fleet_blocks()) == 3
        blocked.close()

    def test_checkpoint_resume_is_bit_identical(self, algorithm_name, tmp_path):
        straight = run_lossy(algorithm_name)

        first = lossy(build_algorithm(algorithm_name, "full")[0], 0.3)
        session = RunSession(first, ROUNDS, checkpoint_every=2, checkpoint_dir=tmp_path)
        session.run(max_rounds=2)
        checkpoint = session.checkpoint()
        payload = first.state_dict()
        assert set(payload["network"]) == {"round", *first.network.traffic_summary()}
        assert not any("rng" in key for key in payload)

        resumed = lossy(build_algorithm(algorithm_name, "full")[0], 0.3)
        RunSession.resume(resumed, checkpoint).run()
        assert resumed.network.messages_dropped > 0
        assert_same_snapshot(snapshot(straight), snapshot(resumed))


class TestDropMask:
    def test_mask_is_a_pure_function_of_the_message_address(self):
        algorithm, _ = build_algorithm("DMSGD", "full")
        lossy(algorithm, 0.5)
        senders = np.array([0, 0, 1, 3, 4])
        recipients = np.array([1, 2, 0, 2, 3])
        first = algorithm._delivered("model", senders, recipients)
        # Same address, any order and any subset: same verdicts.
        np.testing.assert_array_equal(
            algorithm._delivered("model", senders[::-1], recipients[::-1]), first[::-1]
        )
        np.testing.assert_array_equal(
            algorithm._delivered("model", senders[2:], recipients[2:]), first[2:]
        )
        uniforms = algorithm.streams.edge_uniforms(0, "model", senders, recipients)
        np.testing.assert_array_equal(first, uniforms >= 0.5)

    def test_tags_and_rounds_draw_independent_masks(self):
        algorithm, _ = build_algorithm("DMSGD", "full")
        senders, recipients = np.repeat(np.arange(50), 50), np.tile(np.arange(50), 50)
        streams = algorithm.streams
        model = streams.edge_uniforms(0, "model", senders, recipients)
        assert not np.array_equal(model, streams.edge_uniforms(0, "mix", senders, recipients))
        assert not np.array_equal(model, streams.edge_uniforms(1, "model", senders, recipients))
        assert 0.45 < float((model < 0.5).mean()) < 0.55

    def test_lossy_operator_zeroes_exactly_the_dropped_weights(self):
        algorithm, _ = build_algorithm("DMSGD", "full")
        lossy(algorithm, 0.4)
        base = algorithm.mixing.toarray()
        operator, dropped = algorithm._lossy_mixing("model")
        lossy_w = operator.toarray()
        recipients, senders = np.nonzero((base > 0) & ~np.eye(NUM_AGENTS, dtype=bool))
        arrived = algorithm._delivered("model", senders, recipients)
        assert dropped == int((~arrived).sum()) > 0
        np.testing.assert_array_equal(np.diag(lossy_w), np.diag(base))
        np.testing.assert_array_equal(
            lossy_w[recipients, senders], np.where(arrived, base[recipients, senders], 0.0)
        )
        # The round's own operator is left untouched.
        np.testing.assert_array_equal(algorithm.mixing.toarray(), base)

    def test_cross_gradients_skip_pairs_whose_model_was_dropped(self):
        algorithm, _ = build_algorithm("PDSL", "full")
        lossy(algorithm, 0.5)
        batches, _ = algorithm._local_perturbed_gradients()
        pairs = algorithm.topology.directed_pairs()
        evaluators, owners = np.array(pairs).T
        arrived = algorithm._delivered("model", owners, evaluators)
        _, pair_rows = algorithm.fleet_cross_gradients(batches)
        evaluated = [pair for pair, ok in zip(pairs, arrived) if ok]
        assert set(pair_rows) <= set(evaluated)
        # Each agent drew one noise row for its own gradient and one per
        # model that reached it — none for the dropped ones.
        expected = 1 + np.bincount(evaluators[arrived], minlength=NUM_AGENTS)
        np.testing.assert_array_equal(algorithm._noise_draws, expected)
        traffic = algorithm.network.traffic_summary()
        assert traffic["traffic_by_tag"]["cross_grad"] == len(evaluated) * algorithm.dimension
        lost_models = len(pairs) - len(evaluated)
        lost_replies = len(evaluated) - len(pair_rows)
        assert traffic["messages_dropped"] == lost_models + lost_replies


class TestLossFreeRounds:
    def test_zero_drop_probability_draws_nothing(self, monkeypatch):
        algorithm, _ = build_algorithm("PDSL", "ring")

        def forbidden(*args, **kwargs):
            raise AssertionError("a loss-free round must not draw drop masks")

        monkeypatch.setattr(algorithm.streams, "edge_uniforms", forbidden)
        algorithm.run_round()
        assert algorithm.network.messages_dropped == 0
