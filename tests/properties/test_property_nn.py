"""Property-based tests for the neural-network substrate."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import losses
from repro.nn.losses import log_softmax, softmax_cross_entropy
from repro.nn.zoo import make_linear_classifier, make_mlp


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 16),
    features=st.integers(1, 20),
    classes=st.integers(2, 8),
    seed=st.integers(0, 1000),
)
def test_flat_params_roundtrip_is_identity(batch, features, classes, seed):
    model = make_mlp(features, classes, hidden_sizes=(5,), seed=seed)
    original = model.get_flat_params()
    model.set_flat_params(original)
    np.testing.assert_array_equal(model.get_flat_params(), original)


@settings(max_examples=40, deadline=None)
@given(
    features=st.integers(1, 20),
    classes=st.integers(2, 8),
    seed=st.integers(0, 1000),
    scale=st.floats(0.1, 10.0, allow_nan=False),
)
def test_set_arbitrary_vector_roundtrip(features, classes, seed, scale):
    model = make_linear_classifier(features, classes, seed=seed)
    rng = np.random.default_rng(seed)
    vector = rng.normal(scale=scale, size=model.num_params)
    model.set_flat_params(vector)
    np.testing.assert_allclose(model.get_flat_params(), vector)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 12),
    classes=st.integers(2, 10),
    seed=st.integers(0, 1000),
    logit_scale=st.floats(0.1, 50.0, allow_nan=False),
)
def test_cross_entropy_always_non_negative_and_finite(batch, classes, seed, logit_scale):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=logit_scale, size=(batch, classes))
    labels = rng.integers(0, classes, size=batch)
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss >= 0.0
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(2, 10),
    features=st.integers(2, 12),
    classes=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_gradient_is_zero_only_at_interpolation(batch, features, classes, seed):
    """A gradient step along the negative gradient never increases the loss (for small steps)."""
    rng = np.random.default_rng(seed)
    model = make_linear_classifier(features, classes, seed=seed)
    x = rng.normal(size=(batch, features))
    y = rng.integers(0, classes, size=batch)
    params = model.get_flat_params()
    loss_before, grad = model.loss_and_gradient(x, y, params=params)
    step = 1e-3 / max(1.0, np.linalg.norm(grad))
    loss_after = model.evaluate_loss(x, y, params=params - step * grad)
    assert loss_after <= loss_before + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(1, 10),
    features=st.integers(2, 12),
    classes=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_accuracy_always_in_unit_interval(batch, features, classes, seed):
    rng = np.random.default_rng(seed)
    model = make_mlp(features, classes, hidden_sizes=(6,), seed=seed)
    x = rng.normal(size=(batch, features))
    y = rng.integers(0, classes, size=batch)
    acc = model.accuracy(x, y)
    assert 0.0 <= acc <= 1.0


def formula_log_softmax(logits):
    """The two-line log-softmax that :func:`log_softmax` must reproduce bit for bit."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


#: Values whose order of reduction shows: signed zeros (the sign of a zero
#: row max), infinities and NaN (inf - inf), overflow (±1e308) and exp's
#: range limits.
SPECIAL_LOGITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 1.0, -1.0, 745.0, -745.0]
)

#: Every class count the column passes take (up to 20), the eight-lane
#: pairwise tree's widest single blocks (64, 128) and the first count past it.
CLASS_COUNTS = list(range(1, 21)) + [64, 128, 129]


def special_logits(rng, shape):
    """Gaussian logits salted with specials, all-equal rows and signed-zero maxima."""
    logits = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0, 1e3])
    rows = logits.reshape(-1, shape[-1])
    salt = rng.random(rows.shape) < 0.1
    rows[salt] = rng.choice(SPECIAL_LOGITS, size=int(salt.sum()))
    count = rows.shape[0]
    if count >= 4:
        # One row of one special value, one all-equal finite row and a row
        # whose maximum is a zero of either sign among negative values.
        picks = rng.choice(count, size=3, replace=False)
        rows[picks[0]] = rng.choice(SPECIAL_LOGITS)
        rows[picks[1]] = rng.normal()
        rows[picks[2]] = -np.abs(rows[picks[2]])
        rows[picks[2], rng.integers(0, shape[-1], size=2)] = [0.0, -0.0]
    return logits


def assert_same_bits(actual, expected):
    """Same shape and NaN positions, and every other value bit for bit (±0 too)."""
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(
        actual[~nan].view(np.int64), expected[~nan].view(np.int64)
    )


def all_columns():
    """Force the column passes for every class count they are exact for."""
    return mock.patch.multiple(
        losses, _COLUMN_CLASSES=128, _COLUMN_ROWS_PER_CLASS=0
    )


@pytest.mark.parametrize("forced", [False, True], ids=["default", "all-columns"])
@pytest.mark.parametrize("layout", ["1d", "2d", "3d"])
@pytest.mark.parametrize("classes", CLASS_COUNTS)
def test_log_softmax_equals_the_formula_bitwise(classes, layout, forced):
    # The 2-D input has 40 rows per class, so the default thresholds take
    # the column passes up to 20 classes; the 3-D one spans two row chunks.
    rng = np.random.default_rng(classes)
    shape = {
        "1d": (classes,),
        "2d": (40 * classes, classes),
        "3d": (3, 2 * losses._COLUMN_CHUNK_ELEMENTS // (3 * classes) + 1, classes),
    }[layout]
    logits = special_logits(rng, shape)
    with np.errstate(all="ignore"):
        expected = formula_log_softmax(logits)
        if forced:
            with all_columns():
                actual = log_softmax(logits)
        else:
            actual = log_softmax(logits)
    assert_same_bits(actual, expected)


@settings(max_examples=60, deadline=None)
@given(
    classes=st.sampled_from(CLASS_COUNTS),
    lead=st.lists(st.integers(0, 7), min_size=0, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_softmax_columns_equal_the_formula_on_any_layout(classes, lead, seed):
    logits = special_logits(np.random.default_rng(seed), tuple(lead) + (classes,))
    with np.errstate(all="ignore"):
        expected = formula_log_softmax(logits)
        with all_columns():
            actual = log_softmax(logits)
    assert_same_bits(actual, expected)


@pytest.mark.parametrize("classes", [4, 10, 20])
def test_log_softmax_of_non_contiguous_logits_equals_the_formula(classes):
    # NumPy may reduce a non-contiguous class axis in another order, so such
    # logits must take the formula, not the column passes.
    logits = special_logits(np.random.default_rng(classes), (classes, 40 * classes)).T
    for view in (logits, np.asfortranarray(logits[::2])):
        with np.errstate(all="ignore"):
            assert_same_bits(log_softmax(view), formula_log_softmax(view))
