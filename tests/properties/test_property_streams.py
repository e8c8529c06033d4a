"""Properties of the counter-based fleet streams (hypothesis + fixed-seed statistics).

Every batch and noise draw is addressed by ``(seed, purpose, step, slot,
row)``, so:

* drawing rows ``[s, e)`` equals slicing the one-shot ``[0, N)`` draw;
* deactivating any set of agents leaves every other agent's draws unchanged;
* a batch never repeats a sample and stays inside its agent's segment;
* batch indices are uniform and the noise is standard normal (chi-square,
  mean, variance and Kolmogorov–Smirnov checks at fixed seeds);
* a run rebuilt from ``(seed, rounds_completed)`` alone draws the next round
  exactly like the uninterrupted one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.core.config import AlgorithmConfig
from repro.core.streams import FleetStreams
from repro.data.dataset import Dataset
from repro.data.flat import FlatShards

DIMENSION = 7
BATCH = 5


def _flat_shards(sizes):
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(np.sum(sizes))
    inputs = np.arange(total, dtype=np.float64)[:, None]
    return FlatShards(inputs, np.zeros(total, dtype=np.int64), starts, sizes)


def _batches(streams, shards, agents, step=0, slot=0, batch=BATCH):
    """The base class's batch draw: ``batch`` words per agent."""
    agents = np.asarray(agents, dtype=np.int64)
    slots = np.full(agents.size, slot)
    words = streams.row_words("batch", step, agents, slots, batch)
    return shards.sample(words, agents, batch)


SIZES = st.lists(st.integers(1, 12), min_size=1, max_size=24)


@st.composite
def fleet_and_block(draw):
    sizes = draw(SIZES)
    n = len(sizes)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    return sizes, start, stop


@given(case=fleet_and_block(), seed=st.integers(0, 2**32), step=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_block_draws_equal_slices_of_the_one_shot_draw(case, seed, step):
    sizes, start, stop = case
    streams = FleetStreams(seed)
    shards = _flat_shards(sizes)
    n = len(sizes)
    index, lengths = _batches(streams, shards, np.arange(n), step=step)
    block_index, block_lengths = _batches(
        streams, shards, np.arange(start, stop), step=step
    )
    np.testing.assert_array_equal(block_lengths, lengths[start:stop])
    for row in range(stop - start):
        size = block_lengths[row]
        np.testing.assert_array_equal(
            block_index[row, :size], index[start + row, :size]
        )
    noise = streams.normal_rows(step, np.arange(n), np.zeros(n), DIMENSION)
    block_noise = streams.normal_rows(
        step, np.arange(start, stop), np.zeros(stop - start), DIMENSION
    )
    np.testing.assert_array_equal(block_noise, noise[start:stop])


@given(
    sizes=SIZES,
    seed=st.integers(0, 2**32),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_inactive_agents_leave_other_draws_unchanged(sizes, seed, data):
    n = len(sizes)
    active = np.asarray(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    agents = np.flatnonzero(active)
    streams = FleetStreams(seed)
    shards = _flat_shards(sizes)
    index, lengths = _batches(streams, shards, np.arange(n))
    some_index, some_lengths = _batches(streams, shards, agents)
    np.testing.assert_array_equal(some_lengths, lengths[agents])
    for row, agent in enumerate(agents):
        size = some_lengths[row]
        np.testing.assert_array_equal(some_index[row, :size], index[agent, :size])
    slots = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    # A narrow row draws across small gaps; a row wider than the gap limit
    # makes every gap its own generator call.
    for dimension in (DIMENSION, 1501):
        noise = streams.normal_rows(2, np.arange(n), slots, dimension)
        np.testing.assert_array_equal(
            streams.normal_rows(2, agents, slots[agents], dimension), noise[agents]
        )


@given(sizes=SIZES, seed=st.integers(0, 2**32), batch=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_batches_are_distinct_samples_of_the_agents_own_segment(sizes, seed, batch):
    shards = _flat_shards(sizes)
    n = len(sizes)
    index, lengths = _batches(FleetStreams(seed), shards, np.arange(n), batch=batch)
    np.testing.assert_array_equal(lengths, np.minimum(sizes, batch))
    for agent in range(n):
        drawn = index[agent, : lengths[agent]]
        assert np.unique(drawn).size == drawn.size
        assert (drawn >= shards.starts[agent]).all()
        assert (drawn < shards.starts[agent] + shards.sizes[agent]).all()


def test_algorithm_draws_ignore_inactive_agents():
    from repro.baselines import DPDPSGD
    from repro.nn.zoo import make_linear_classifier
    from repro.topology.graphs import ring_graph

    rng = np.random.default_rng(0)
    shards = [
        Dataset(rng.normal(size=(9 + agent, 3)), rng.integers(0, 2, size=9 + agent))
        for agent in range(6)
    ]
    config = AlgorithmConfig(sigma=0.5, batch_size=4, seed=11)
    build = lambda: DPDPSGD(  # noqa: E731
        make_linear_classifier(3, 2, seed=0), ring_graph(6), shards, config
    )
    everyone, some = build(), build()
    mask = np.array([True, False, True, True, False, True])
    some.active_mask = mask
    some._all_active = False
    full_batches, part_batches = everyone.draw_batches(), some.draw_batches()
    rows = np.ones((6, everyone.dimension))
    full_noise = everyone.privatize_rows(rows)
    part_noise = some.privatize_rows(rows)
    for agent in range(6):
        if mask[agent]:
            np.testing.assert_array_equal(part_batches[agent][0], full_batches[agent][0])
            np.testing.assert_array_equal(part_noise[agent], full_noise[agent])
        else:
            assert part_batches[agent] is None


def test_batch_indices_are_uniform_chi_square():
    # 400 agents with 10 samples each, batch 3, at 25 steps: every sample's
    # selection count is ~Binomial(25, 0.3) and the pooled counts per
    # within-segment position must be uniform.
    sizes = [10] * 400
    shards = _flat_shards(sizes)
    streams = FleetStreams(12345)
    counts = np.zeros(10)
    for step in range(25):
        index, lengths = _batches(streams, shards, np.arange(400), step=step, batch=3)
        positions = index[:, :3] - shards.starts[:, None]
        counts += np.bincount(positions.ravel(), minlength=10)
    _, p_value = stats.chisquare(counts)
    assert p_value > 1e-3


def test_batch_order_is_uniform_chi_square():
    # The first batch slot of a 4-sample segment is each sample with
    # probability 1/4.
    shards = _flat_shards([4] * 2000)
    index, _ = _batches(FleetStreams(777), shards, np.arange(2000), batch=4)
    first = index[:, 0] - shards.starts
    _, p_value = stats.chisquare(np.bincount(first, minlength=4))
    assert p_value > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noise_is_standard_normal(seed):
    # 2000 rows x 51 coordinates (odd width: the sine branch is truncated).
    noise = FleetStreams(seed).normal_rows(3, np.arange(2000), np.zeros(2000), 51)
    sample = noise.ravel()
    standard_error = 1.0 / np.sqrt(sample.size)
    assert abs(sample.mean()) < 5 * standard_error
    assert abs(sample.var() - 1.0) < 5 * np.sqrt(2.0) * standard_error
    assert stats.kstest(sample, "norm").pvalue > 1e-3
    # Cosine and sine branches are each standard normal and uncorrelated.
    cosine, sine = noise[:, :25].ravel(), noise[:, 26:51].ravel()
    assert stats.kstest(cosine, "norm").pvalue > 1e-3
    assert stats.kstest(sine, "norm").pvalue > 1e-3
    assert abs(np.corrcoef(noise[:, 0], noise[:, 26])[0, 1]) < 5 / np.sqrt(2000)


@given(rounds=st.integers(0, 3), seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_run_rebuilt_from_seed_and_round_draws_the_next_round(rounds, seed):
    from repro.baselines import DMSGD
    from repro.nn.zoo import make_linear_classifier
    from repro.topology.graphs import ring_graph

    rng = np.random.default_rng(1)
    shards = [Dataset(rng.normal(size=(12, 3)), rng.integers(0, 2, size=12)) for _ in range(5)]
    config = AlgorithmConfig(sigma=0.3, batch_size=4, momentum=0.5, seed=seed)
    build = lambda: DMSGD(  # noqa: E731
        make_linear_classifier(3, 2, seed=0), ring_graph(5), shards, config
    )
    live = build()
    for _ in range(rounds):
        live.run_round()
    rebuilt = build()
    # Only the fleet matrices and the round count carry over: no RNG state.
    rebuilt.state = live.state.copy()
    rebuilt.momentum_state = live.momentum_state.copy()
    rebuilt.rounds_completed = live.rounds_completed
    live.run_round()
    rebuilt.run_round()
    np.testing.assert_array_equal(rebuilt.state, live.state)
    np.testing.assert_array_equal(rebuilt.momentum_state, live.momentum_state)



@given(sizes=SIZES, seed=st.integers(0, 2**32), batch=st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_shuffle_chunking_does_not_change_batches(sizes, seed, batch):
    import repro.data.flat as flat

    shards = _flat_shards(sizes)
    agents = np.arange(len(sizes))
    expected = _batches(FleetStreams(seed), shards, agents, batch=batch)
    budget = flat._SHUFFLE_ELEMENTS
    flat._SHUFFLE_ELEMENTS = 1  # one agent per chunk
    try:
        chunked = _batches(FleetStreams(seed), shards, agents, batch=batch)
    finally:
        flat._SHUFFLE_ELEMENTS = budget
    np.testing.assert_array_equal(chunked[1], expected[1])
    np.testing.assert_array_equal(chunked[0], expected[0])
