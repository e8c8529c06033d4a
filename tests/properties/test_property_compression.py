"""Property-based tests for the gossip compression stack (hypothesis).

The codec invariants the communication layer leans on:

* decode(encode(x)) error is bounded (per codec, with an explicit bound);
* error feedback telescopes: everything ever transmitted plus the current
  residual equals everything ever offered — zero systematic drift;
* top-k keeps exactly the k largest magnitudes and zeroes the rest, bitwise
  as a stable sort of ``-|x|`` would (ties to the lowest index, NaN last);
* int8 round-trips exactly on values that are representable levels;
* random-k keeps exactly k coordinates, a uniformly random subset that is a
  pure function of its ``"codec"`` stream address;
* encoding one-row blocks is bit-identical to encoding the whole fleet
  matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.compression.codecs import (
    FP16Codec,
    Int8Codec,
    RandomKCodec,
    TopKCodec,
    make_codec,
)
from repro.compression.config import CompressionConfig, validate_compression
from repro.compression.state import CompressionState
from repro.core.streams import FleetStreams


def _matrix(rows, dimension, seed, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=(rows, dimension))


def _words(rows, dimension, seed):
    """Raw random words, one per coordinate, as random-k consumes them."""
    return np.random.default_rng(seed).bit_generator.random_raw((rows, dimension))


def _fleet(state, matrix, step=0, active_mask=None):
    """``state``'s encoding of the whole fleet matrix in one block."""
    return state.compress_block("model", matrix, 0, len(matrix), active_mask, step=step)


# ---------------------------------------------------------------------------
# Round-trip error bounds
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 8),
    dimension=st.integers(1, 48),
    seed=st.integers(0, 10_000),
    scale=st.floats(1e-3, 1e3, allow_nan=False),
)
def test_fp16_roundtrip_error_is_half_precision_bounded(rows, dimension, seed, scale):
    work = _matrix(rows, dimension, seed, scale)
    decoded = FP16Codec().decode_rows(work)
    # Round-to-nearest half precision: relative error 2^-11 per element in
    # the normal range, absolute error 2^-25 (half the subnormal spacing)
    # below the smallest normal 2^-14.
    bound = np.maximum(np.abs(work) * 2.0**-10, 2.0**-24)
    assert (np.abs(decoded - work) <= bound).all()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 8),
    dimension=st.integers(1, 48),
    seed=st.integers(0, 10_000),
    scale=st.floats(1e-3, 1e3, allow_nan=False),
)
def test_int8_roundtrip_error_bounded_by_row_scale(rows, dimension, seed, scale):
    work = _matrix(rows, dimension, seed, scale)
    decoded = Int8Codec().decode_rows(work)
    # Rounding to the nearest of 255 levels: at most half a level per entry.
    level = np.max(np.abs(work), axis=1, keepdims=True) / 127.0
    assert (np.abs(decoded - work) <= 0.5 * level + 1e-12).all()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 8),
    dimension=st.integers(1, 48),
    k=st.integers(1, 48),
    seed=st.integers(0, 10_000),
)
def test_sparsifiers_are_contractions(rows, dimension, k, seed):
    work = _matrix(rows, dimension, seed)
    randomk = RandomKCodec(k).decode_rows(work, _words(rows, dimension, seed))
    for decoded in (TopKCodec(k).decode_rows(work), randomk):
        # Keeping a coordinate subset can only shrink the row norm, and the
        # kept coordinates are exact copies.
        assert (
            np.linalg.norm(decoded, axis=1) <= np.linalg.norm(work, axis=1) + 1e-12
        ).all()
        kept = decoded != 0.0
        np.testing.assert_array_equal(decoded[kept], work[kept])


# ---------------------------------------------------------------------------
# Error feedback telescopes to zero drift
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    codec_name=st.sampled_from(["fp16", "int8", "topk", "randomk"]),
    agents=st.integers(1, 6),
    dimension=st.integers(2, 32),
    rounds=st.integers(1, 10),
    seed=st.integers(0, 10_000),
)
def test_error_feedback_residuals_telescope(codec_name, agents, dimension, rounds, seed):
    codec = make_codec(CompressionConfig(codec=codec_name), dimension)
    state = CompressionState(
        codec, agents, dimension, error_feedback=True, streams=FleetStreams(seed)
    )
    rng = np.random.default_rng(seed)
    offered = np.zeros((agents, dimension))
    transmitted = np.zeros((agents, dimension))
    for step in range(rounds):
        matrix = rng.normal(size=(agents, dimension))
        offered += matrix
        transmitted += _fleet(state, matrix, step)
    residual = state.residual("model")
    # Sum of decoded transmissions + final residual == sum of inputs: the
    # compression error never accumulates into systematic drift.
    np.testing.assert_allclose(transmitted + residual, offered, rtol=1e-9, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    agents=st.integers(1, 5),
    dimension=st.integers(4, 24),
    seed=st.integers(0, 10_000),
)
def test_without_error_feedback_no_residual_is_kept(agents, dimension, seed):
    codec = make_codec(CompressionConfig(codec="topk", k=2), dimension)
    state = CompressionState(codec, agents, dimension, error_feedback=False)
    matrix = _matrix(agents, dimension, seed)
    decoded = _fleet(state, matrix)
    assert state.residual("model") is None
    np.testing.assert_array_equal(decoded, codec.decode_rows(matrix))


# ---------------------------------------------------------------------------
# Top-k keeps exactly the k largest magnitudes
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 8),
    dimension=st.integers(1, 48),
    k=st.integers(1, 48),
    seed=st.integers(0, 10_000),
)
def test_topk_preserves_the_k_largest_magnitudes(rows, dimension, k, seed):
    work = _matrix(rows, dimension, seed)
    decoded = TopKCodec(k).decode_rows(work)
    effective_k = min(k, dimension)
    for row in range(rows):
        kept = np.flatnonzero(decoded[row])
        # Gaussian draws are almost surely nonzero and tie-free.
        assert len(kept) == effective_k
        np.testing.assert_array_equal(decoded[row, kept], work[row, kept])
        dropped = np.setdiff1d(np.arange(dimension), kept)
        if len(dropped):
            assert np.abs(work[row, kept]).min() >= np.abs(work[row, dropped]).max()


def _sorted_topk(work, k):
    """Top-k by a full stable sort of ``-|x|``: the selection's oracle."""
    rows = np.arange(work.shape[0])[:, None]
    keep = np.argsort(-np.abs(work), axis=1, kind="stable")[:, :k]
    out = np.zeros_like(work)
    out[rows, keep] = work[rows, keep]
    return out


def _topk_rows(kind, rows, dimension, seed):
    rng = np.random.default_rng(seed)
    work = rng.normal(size=(rows, dimension))
    if kind == "tied":
        return np.round(2.0 * work) / 2.0
    if kind == "zero":
        return np.zeros((rows, dimension))
    if kind == "negative-zero":
        return np.full((rows, dimension), -0.0)
    if kind == "inf":
        work[rng.random(work.shape) < 0.2] = np.inf
        work[rng.random(work.shape) < 0.2] = -np.inf
    elif kind == "nan":
        work[rng.random(work.shape) < 0.1] = np.nan
    elif kind == "mostly-nan":
        work[rng.random(work.shape) < 0.9] = np.nan
    elif kind == "mixed":
        work = np.round(work)
        work[rng.random(work.shape) < 0.3] = -0.0
        work[rng.random(work.shape) < 0.2] = np.nan
    return work


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        ["random", "tied", "zero", "negative-zero", "inf", "nan", "mostly-nan", "mixed"]
    ),
    rows=st.integers(1, 8),
    dimension=st.integers(2, 48),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_topk_selection_is_bitwise_the_stable_sort(kind, rows, dimension, seed, data):
    k = data.draw(st.sampled_from([1, dimension - 1, dimension]))
    work = _topk_rows(kind, rows, dimension, seed)
    decoded = TopKCodec(k).decode_rows(work)
    np.testing.assert_array_equal(
        decoded.view(np.uint64), _sorted_topk(work, k).view(np.uint64)
    )


def test_topk_keeps_nan_only_when_too_few_coordinates_are_not_nan():
    work = np.array([[np.nan, 0.5, np.nan, -2.0, np.nan]])
    np.testing.assert_array_equal(
        TopKCodec(2).decode_rows(work), [[0.0, 0.5, 0.0, -2.0, 0.0]]
    )
    # Two coordinates are not NaN; the third slot goes to the lowest-index NaN.
    np.testing.assert_array_equal(
        TopKCodec(3).decode_rows(work), [[np.nan, 0.5, 0.0, -2.0, 0.0]]
    )


# ---------------------------------------------------------------------------
# Int8 is exact on representable values
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    dimension=st.integers(1, 32),
    seed=st.integers(0, 10_000),
    scale_exponent=st.integers(-20, 20),
)
def test_int8_roundtrips_exactly_on_representable_levels(
    rows, dimension, seed, scale_exponent
):
    # A power-of-two scale survives the codec's own scale reconstruction
    # (max|row| / 127) bit for bit; an arbitrary float scale need not —
    # fl(fl(127 * s) / 127) != s in general — so exactness is only promised
    # on levels of the *reconstructed* scale.
    scale = 2.0**scale_exponent
    rng = np.random.default_rng(seed)
    levels = rng.integers(-127, 128, size=(rows, dimension)).astype(np.float64)
    levels[:, 0] = 127.0  # pin the row maximum to a full-scale level
    work = levels * scale
    decoded = Int8Codec().decode_rows(work)
    np.testing.assert_array_equal(decoded, work)


def test_int8_zero_rows_stay_exactly_zero():
    work = np.zeros((3, 7))
    np.testing.assert_array_equal(Int8Codec().decode_rows(work), work)


# ---------------------------------------------------------------------------
# Random-k: exact sparsity, determinism, uniform selection from the stream
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 6),
    dimension=st.integers(2, 32),
    k=st.integers(1, 32),
    seed=st.integers(0, 10_000),
)
def test_randomk_keeps_exactly_k_coordinates_of_its_words(rows, dimension, k, seed):
    work = _matrix(rows, dimension, seed) + 10.0  # no zero entries
    codec = RandomKCodec(k)
    words = _words(rows, dimension, seed)
    first = codec.decode_rows(work, words)
    np.testing.assert_array_equal(first, codec.decode_rows(work, words.copy()))
    kept = first != 0.0
    assert (kept.sum(axis=1) == min(k, dimension)).all()
    np.testing.assert_array_equal(first[kept], work[kept])
    # The kept coordinates are the ones with the smallest words.
    if k < dimension:
        for row in range(rows):
            assert words[row, kept[row]].max() < words[row, ~kept[row]].min()


def test_randomk_duplicate_words_at_the_threshold_go_to_the_lowest_index():
    work = np.arange(1.0, 7.0)[None, :]
    # The two smallest words are distinct; three coordinates share the third.
    words = np.array([[9, 5, 2, 5, 1, 5]], dtype=np.uint64)
    np.testing.assert_array_equal(
        RandomKCodec(3).decode_rows(work, words), [[0.0, 2.0, 3.0, 0.0, 5.0, 0.0]]
    )
    np.testing.assert_array_equal(
        RandomKCodec(4).decode_rows(work, words), [[0.0, 2.0, 3.0, 4.0, 5.0, 0.0]]
    )


def test_randomk_requires_one_word_per_coordinate():
    codec = RandomKCodec(2)
    work = np.ones((3, 8))
    with pytest.raises(ValueError, match="one random word per coordinate"):
        codec.decode_rows(work)
    with pytest.raises(ValueError, match="one random word per coordinate"):
        codec.decode_rows(work, _words(2, 8, 0))


def test_randomk_state_requires_the_run_streams():
    with pytest.raises(ValueError, match="FleetStreams"):
        CompressionState(RandomKCodec(2), 3, 8)


def _randomk_state(agents, dimension, k, seed):
    return CompressionState(
        RandomKCodec(k),
        agents,
        dimension,
        error_feedback=False,
        streams=FleetStreams(seed),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomk_kept_coordinates_are_uniform_chi_square(seed):
    # 3000 agents keep k = 3 of d = 10 coordinates from the "codec" stream:
    # each coordinate is kept with probability 3/10, each pair with
    # probability 1/15, and the next round selects independently.
    agents, dimension, k = 3000, 10, 3
    state = _randomk_state(agents, dimension, k, seed)
    ones = np.ones((agents, dimension))
    kept = _fleet(state, ones, step=4) != 0.0
    assert (kept.sum(axis=1) == k).all()
    _, p_value = stats.chisquare(kept.sum(axis=0))
    assert p_value > 1e-3
    counts = kept.astype(np.int64)
    pairs = counts.T @ counts
    _, p_value = stats.chisquare(pairs[np.triu_indices(dimension, 1)])
    assert p_value > 1e-3
    later = _fleet(state, ones, step=5) != 0.0
    overlap = (kept & later).sum(axis=1)
    # Two independent 3-of-10 subsets share Hypergeometric(10, 3, 3) coordinates.
    expected = stats.hypergeom(dimension, k, k).pmf(np.arange(k + 1)) * agents
    _, p_value = stats.chisquare(np.bincount(overlap, minlength=k + 1), expected)
    assert p_value > 1e-3


@settings(max_examples=20, deadline=None)
@given(
    agents=st.integers(2, 8),
    dimension=st.integers(2, 16),
    seed=st.integers(0, 10_000),
    step=st.integers(0, 20),
    data=st.data(),
)
def test_randomk_selection_ignores_which_other_agents_transmit(
    agents, dimension, seed, step, data
):
    k = data.draw(st.integers(1, dimension))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=agents, max_size=agents)))
    matrix = _matrix(agents, dimension, seed) + 10.0
    everyone = _fleet(_randomk_state(agents, dimension, k, seed), matrix, step)
    some = _fleet(_randomk_state(agents, dimension, k, seed), matrix, step, mask)
    np.testing.assert_array_equal(some[mask], everyone[mask])
    np.testing.assert_array_equal(some[~mask], matrix[~mask])


def test_randomk_selection_depends_on_round_and_channel():
    agents, dimension, k = 64, 16, 4
    state = _randomk_state(agents, dimension, k, seed=3)
    ones = np.ones((agents, dimension))

    def kept(channel, step):
        block = state.compress_block(channel, ones, 0, agents, step=step)
        return block != 0.0

    np.testing.assert_array_equal(kept("model", 2), kept("model", 2))
    assert not np.array_equal(kept("model", 2), kept("model", 3))
    assert not np.array_equal(kept("mix.0", 2), kept("mix.1", 2))


# ---------------------------------------------------------------------------
# One-row blocks and the whole fleet matrix encode bit-identically
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    codec_name=st.sampled_from(["identity", "fp16", "int8", "topk", "randomk"]),
    agents=st.integers(1, 6),
    dimension=st.integers(2, 24),
    rounds=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_row_kernel_matches_matrix_kernel_bitwise(
    codec_name, agents, dimension, rounds, seed
):
    config = CompressionConfig(codec=codec_name)
    fleet = CompressionState(
        make_codec(config, dimension), agents, dimension, streams=FleetStreams(seed)
    )
    per_row = CompressionState(
        make_codec(config, dimension), agents, dimension, streams=FleetStreams(seed)
    )
    rng = np.random.default_rng(seed)
    for step in range(rounds):
        matrix = rng.normal(size=(agents, dimension))
        vectorized = _fleet(fleet, matrix, step)
        looped = np.concatenate(
            [
                per_row.compress_block(
                    "model", matrix[agent : agent + 1], agent, agent + 1, step=step
                )
                for agent in range(agents)
            ]
        )
        np.testing.assert_array_equal(vectorized, looped)
    if fleet.residual("model") is not None:
        np.testing.assert_array_equal(
            fleet.residual("model"), per_row.residual("model")
        )


@settings(max_examples=20, deadline=None)
@given(
    agents=st.integers(2, 6),
    dimension=st.integers(2, 24),
    seed=st.integers(0, 10_000),
)
def test_masked_rows_pass_through_untouched(agents, dimension, seed):
    config = CompressionConfig(codec="topk", k=1)
    state = CompressionState(make_codec(config, dimension), agents, dimension)
    matrix = _matrix(agents, dimension, seed)
    mask = np.zeros(agents, dtype=bool)
    mask[0] = True
    decoded = _fleet(state, matrix, active_mask=mask)
    np.testing.assert_array_equal(decoded[1:], matrix[1:])
    assert (state.residual("model")[1:] == 0.0).all()


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------
def test_compression_config_validation():
    assert CompressionConfig().is_identity
    assert validate_compression(None) is None
    validate_compression({"codec": "topk", "k": 3, "communication_interval": 2})
    with pytest.raises(ValueError, match="codec must be one of"):
        validate_compression({"codec": "gzip"})
    with pytest.raises(ValueError, match="unknown"):
        validate_compression({"codec": "topk", "sparsity": 3})
    with pytest.raises(ValueError, match="k"):
        CompressionConfig(codec="fp16", k=3)
    with pytest.raises(ValueError, match="k"):
        CompressionConfig(codec="topk", k=0)
    with pytest.raises(ValueError, match="communication_interval"):
        CompressionConfig(communication_interval=0)
    with pytest.raises(ValueError, match="peer_selection"):
        CompressionConfig(peer_selection="ring_allreduce")


def test_make_codec_rejects_oversized_k():
    with pytest.raises(ValueError, match="exceeds the model dimension"):
        make_codec(CompressionConfig(codec="topk", k=100), 10)
