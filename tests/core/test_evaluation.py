"""Evaluation: ``average_train_loss`` and ``test_accuracy``.

Each agent is evaluated on its whole shard when it holds at most the sample
cap, else on a subsample drawn once from the ``"eval"`` stream at a
round-independent address.  Evaluation reads no training stream and writes
no state, so a run evaluated every round trains exactly like one evaluated
only at the end, and the loss does not depend on the row blocking, the
worker count or the storage.  The stacked test accuracy equals the
per-agent ``Model.accuracy`` loop exactly.
"""

import numpy as np
import pytest

from repro.nn.layers import Dense, Dropout, ReLU
from repro.nn.model import Sequential
from repro.simulation.runner import EvaluationConfig, RunSession

CAP = 64
ROUNDS = 3


def _run(make_small_fleet, name, evaluate_every_round, **config):
    algorithm, test = make_small_fleet(name, **config)
    if evaluate_every_round:
        session = RunSession(
            algorithm, ROUNDS, evaluation=EvaluationConfig(eval_every=1, test_data=test)
        )
        history = session.run()
        assert len(history.records) == ROUNDS
    else:
        for _ in range(ROUNDS):
            algorithm.run_round()
    return algorithm, test


def test_small_agents_use_their_whole_shard_and_large_agents_a_fixed_subsample(
    make_small_fleet,
):
    algorithm, _ = make_small_fleet("DMSGD")
    flat = algorithm.flat_shards
    assert (flat.sizes <= CAP).any() and (flat.sizes > CAP).any()
    batches = algorithm._evaluation_batches(CAP)
    for agent, shard in enumerate(algorithm.shards):
        inputs, labels = batches[agent]
        if len(shard) <= CAP:
            np.testing.assert_array_equal(inputs, shard.inputs)
            np.testing.assert_array_equal(labels, shard.labels)
        else:
            local = batches.index[agent, : batches.sizes[agent]] - flat.starts[agent]
            assert len(local) == CAP == len(set(local.tolist()))
            assert 0 <= local.min() and local.max() < len(shard)
    # Built once per cap, and the same whatever the run has drawn since.
    algorithm.run_round()
    assert algorithm._evaluation_batches(CAP) is batches
    fresh, _ = make_small_fleet("DMSGD")
    np.testing.assert_array_equal(fresh._evaluation_batches(CAP).index, batches.index)


def test_stacked_and_per_agent_losses_agree(make_small_fleet):
    algorithm, _ = make_small_fleet("DMSGD")
    algorithm.run_round()
    stacked = algorithm.average_train_loss(CAP)
    algorithm._stacked = None  # the path of models without stacked passes
    assert algorithm.average_train_loss(CAP) == pytest.approx(stacked, rel=1e-12)


@pytest.mark.parametrize(
    "name, compression",
    [("PDSL", None), ("DMSGD", {"codec": "randomk", "k": 5})],
    ids=["PDSL", "randomk-DMSGD"],
)
def test_evaluating_every_round_does_not_change_training(
    make_small_fleet, name, compression
):
    evaluated, test = _run(make_small_fleet, name, True, compression=compression)
    plain, _ = _run(make_small_fleet, name, False, compression=compression)
    np.testing.assert_array_equal(evaluated.state, plain.state)
    np.testing.assert_array_equal(evaluated.momentum_state, plain.momentum_state)
    assert evaluated.average_train_loss(CAP) == plain.average_train_loss(CAP)
    assert evaluated.test_accuracy(test) == plain.test_accuracy(test)


def _trained_loss(make_small_fleet, **config):
    algorithm, _ = _run(make_small_fleet, "DMSGD", False, **config)
    try:
        return algorithm.average_train_loss(CAP)
    finally:
        algorithm.close()


@pytest.mark.parametrize("storage", ["ram", "memmap"])
@pytest.mark.parametrize("block_workers", [1, 2])
@pytest.mark.parametrize("block_rows", [None, 2])
def test_loss_is_identical_across_blocks_workers_and_storage(
    make_small_fleet, block_rows, block_workers, storage
):
    loss = _trained_loss(
        make_small_fleet,
        block_rows=block_rows,
        block_workers=block_workers,
        storage=storage,
    )
    assert loss == _trained_loss(make_small_fleet)


def _per_agent_accuracies(algorithm, test):
    return np.array(
        [
            algorithm.model.accuracy(test.inputs, test.labels, params=row)
            for row in algorithm.state
        ]
    )


@pytest.mark.parametrize("storage", ["ram", "memmap"])
@pytest.mark.parametrize("block_rows", [None, 2])
def test_stacked_test_accuracy_equals_the_per_agent_loop(
    make_small_fleet, block_rows, storage
):
    algorithm, test = _run(
        make_small_fleet, "DMSGD", False, model="mlp", block_rows=block_rows, storage=storage
    )
    try:
        assert algorithm._stacked is not None
        # Spread the agents apart so a row mix-up would change the scores.
        noise = np.random.default_rng(3).normal(size=algorithm.state.shape)
        algorithm.state = algorithm.state + noise
        per_agent = _per_agent_accuracies(algorithm, test)
        np.testing.assert_array_equal(
            algorithm._stacked.accuracies(algorithm.state, test.inputs, test.labels),
            per_agent,
        )
        assert len(set(per_agent.tolist())) > 2
        assert algorithm.test_accuracy(test) == float(np.mean(per_agent))
    finally:
        algorithm.close()


def test_dropout_model_takes_the_per_agent_loop(make_small_fleet):
    rng = np.random.default_rng(0)
    model = Sequential(
        [Dense(8, 16, rng), ReLU(), Dropout(0.5, np.random.default_rng(1)), Dense(16, 4, rng)]
    )
    algorithm, test = _run(make_small_fleet, "DMSGD", False, model=model)
    assert algorithm._stacked is None
    assert algorithm.test_accuracy(test) == float(
        np.mean(_per_agent_accuracies(algorithm, test))
    )
