"""Tests for the stacked multi-model engine (repro.nn.batched)."""

import numpy as np
import pytest

from repro.data.flat import FleetBatches
from repro.nn import batched
from repro.nn.batched import StackedSequential, supports_stacked
from repro.nn.layers import Dense, Dropout, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.losses import per_example_cross_entropy
from repro.nn.model import Sequential
from repro.nn.zoo import make_linear_classifier, make_mlp, make_mnist_cnn


def random_params(model, count, rng):
    base = model.get_flat_params()
    return np.stack(
        [base + 0.1 * rng.normal(size=base.shape) for _ in range(count)], axis=0
    )


class TestSupportsStacked:
    def test_linear_and_mlp_supported(self):
        assert supports_stacked(make_linear_classifier(6, 3))
        assert supports_stacked(make_mlp(6, 3, hidden_sizes=(8, 4)))

    def test_cnn_not_supported(self):
        assert not supports_stacked(make_mnist_cnn(num_classes=4, channels=(2, 4)))

    def test_dropout_not_supported(self):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(6, 3, rng), Dropout(0.5, rng)])
        assert not supports_stacked(model)

    def test_sequential_subclass_not_supported(self):
        # A subclass may override the loss; the stacked engine hard-codes
        # softmax cross-entropy, so only plain Sequential qualifies.
        class MSESequential(Sequential):
            pass

        rng = np.random.default_rng(0)
        assert not supports_stacked(MSESequential([Dense(6, 3, rng)]))

    def test_constructor_rejects_unsupported(self):
        with pytest.raises(ValueError):
            StackedSequential(make_mnist_cnn(num_classes=4, channels=(2, 4)))


class TestStackedGradients:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: make_linear_classifier(6, 3, seed=rng),
            lambda rng: make_mlp(6, 3, hidden_sizes=(8,), seed=rng),
            lambda rng: Sequential(
                [Dense(6, 8, rng), Tanh(), Dense(8, 5, rng), Sigmoid(), Dense(5, 3, rng)]
            ),
            lambda rng: Sequential([Flatten(), Dense(6, 3, rng)]),
        ],
    )
    def test_matches_per_model_loss_and_gradient(self, factory):
        rng = np.random.default_rng(0)
        model = factory(rng)
        engine = StackedSequential(model)
        m, batch = 7, 12
        params = random_params(model, m, rng)
        inputs = rng.normal(size=(m, batch, 6))
        labels = rng.integers(0, 3, size=(m, batch))
        losses, grads = engine.loss_and_gradients(params, inputs, labels)
        for k in range(m):
            expected_loss, expected_grad = model.loss_and_gradient(
                inputs[k], labels[k], params=params[k]
            )
            assert losses[k] == expected_loss
            np.testing.assert_array_equal(grads[k], expected_grad)

    def test_chunked_evaluation_matches_unchunked(self):
        rng = np.random.default_rng(3)
        model = make_mlp(6, 3, hidden_sizes=(8,), seed=0)
        full = StackedSequential(model)
        tiny_chunks = StackedSequential(model, max_chunk_elements=1)
        m, batch = 9, 4
        params = random_params(model, m, rng)
        inputs = rng.normal(size=(m, batch, 6))
        labels = rng.integers(0, 3, size=(m, batch))
        losses_a, grads_a = full.loss_and_gradients(params, inputs, labels)
        losses_b, grads_b = tiny_chunks.loss_and_gradients(params, inputs, labels)
        np.testing.assert_array_equal(losses_a, losses_b)
        np.testing.assert_array_equal(grads_a, grads_b)

    def test_relu_mask_uses_each_models_activation(self):
        # Two very different parameter vectors must produce different masks;
        # a buggy shared-mask implementation would make gradients agree.
        rng = np.random.default_rng(4)
        model = make_mlp(4, 2, hidden_sizes=(6,), seed=0)
        engine = StackedSequential(model)
        params = random_params(model, 2, rng)
        params[1] *= -3.0
        inputs = rng.normal(size=(2, 8, 4))
        labels = rng.integers(0, 2, size=(2, 8))
        _, grads = engine.loss_and_gradients(params, inputs, labels)
        assert not np.allclose(grads[0], grads[1])

    def test_shape_validation(self):
        model = make_linear_classifier(6, 3, seed=0)
        engine = StackedSequential(model)
        rng = np.random.default_rng(0)
        params = random_params(model, 3, rng)
        inputs = rng.normal(size=(3, 5, 6))
        labels = rng.integers(0, 3, size=(3, 5))
        with pytest.raises(ValueError):
            engine.loss_and_gradients(params[:, :-1], inputs, labels)
        with pytest.raises(ValueError):
            engine.loss_and_gradients(params, inputs[:2], labels)


class TestBitIdenticalToTheScalarModel:
    """Stacked losses and gradients equal ``Model.loss_and_gradient`` bit for bit.

    ``M * B = 576`` logit rows take :func:`~repro.nn.losses.log_softmax`'s
    column passes for every class count here (at least 32 rows per class).
    """

    @pytest.mark.parametrize("classes", [1, 2, 4, 10, 16])
    @pytest.mark.parametrize(
        "factory, shape",
        [
            (lambda rng, k: make_mlp(6, k, hidden_sizes=(8,), seed=rng), (6,)),
            (
                lambda rng, k: Sequential(
                    [Dense(6, 8, rng, use_bias=False), Tanh(), Dense(8, k, rng)]
                ),
                (6,),
            ),
            (
                lambda rng, k: Sequential(
                    [Flatten(), Dense(6, 5, rng), ReLU(), Dense(5, k, rng)]
                ),
                (2, 3),
            ),
        ],
        ids=["mlp", "bias-free-first-dense", "flatten-first"],
    )
    def test_losses_and_gradients(self, factory, shape, classes):
        rng = np.random.default_rng(classes)
        model = factory(rng, classes)
        engine = StackedSequential(model)
        m, batch = 9, 64
        params = random_params(model, m, rng)
        inputs = rng.normal(size=(m, batch) + shape)
        labels = rng.integers(0, classes, size=(m, batch))
        losses, grads = engine.loss_and_gradients(params, inputs, labels)
        forward_losses = engine.losses(params, inputs, labels)
        per_example = engine.per_example_losses(params, inputs, labels)
        for k in range(m):
            loss, grad = model.loss_and_gradient(inputs[k], labels[k], params=params[k])
            assert losses[k] == loss and forward_losses[k] == loss
            np.testing.assert_array_equal(grads[k].view(np.int64), grad.view(np.int64))
            model.set_flat_params(params[k])
            logits = model.forward(inputs[k])
            np.testing.assert_array_equal(
                per_example[k], per_example_cross_entropy(logits, labels[k])
            )
            assert per_example[k].mean() == loss

    def test_labels_out_of_range_raise(self):
        model = make_linear_classifier(6, 3, seed=0)
        rng = np.random.default_rng(0)
        params = random_params(model, 2, rng)
        inputs = rng.normal(size=(2, 4, 6))
        for bad in (3, -1):
            labels = np.zeros((2, 4), dtype=np.int64)
            labels[1, 2] = bad
            with pytest.raises(ValueError, match="out of range"):
                StackedSequential(model).loss_and_gradients(params, inputs, labels)

    @pytest.mark.parametrize(
        "sizes",
        [[16] * 12, [0, 3, 16, 16, 0, 5, 16, 16, 3, 16, 16, 16, 16, 16, 16, 0]],
        ids=["all-full", "ragged"],
    )
    def test_fleet_gradients_over_grouped_rows(self, make_small_fleet, sizes):
        # Rows of size 0 read back as zero gradients, short rows form their
        # own stacks, and the full rows' stack covers enough logit rows for
        # the column passes.
        algorithm, _ = make_small_fleet("DP-DPSGD", model="mlp")
        shards = algorithm.flat_shards
        rows = len(sizes)
        rng = np.random.default_rng(11)
        agents = np.arange(rows) % algorithm.num_agents
        index, _ = shards.sample(
            rng.integers(0, 2**63, size=(rows, 16), dtype=np.uint64), agents, 16
        )
        batches = FleetBatches(shards, index, np.array(sizes, dtype=np.int64))
        params = random_params(algorithm.model, rows, rng)
        grads = algorithm.fleet_gradients(params, batches)
        for k in range(rows):
            if sizes[k] == 0:
                assert batches[k] is None
                assert not grads[k].any()
                continue
            inputs, labels = batches[k]
            _, expected = algorithm.model.loss_and_gradient(inputs, labels, params=params[k])
            np.testing.assert_array_equal(grads[k].view(np.int64), expected.view(np.int64))


class TestStackedLosses:
    @pytest.mark.parametrize("hidden", [(), (8,)], ids=["linear", "mlp"])
    def test_forward_only_losses_match_the_fused_loss_and_the_scalar_model(self, hidden):
        rng = np.random.default_rng(5)
        model = make_mlp(6, 3, hidden_sizes=hidden, seed=0)
        engine = StackedSequential(model)
        m, batch = 6, 10
        params = random_params(model, m, rng)
        inputs = rng.normal(size=(m, batch, 6))
        labels = rng.integers(0, 3, size=(m, batch))
        losses = engine.losses(params, inputs, labels)
        fused, _ = engine.loss_and_gradients(params, inputs, labels)
        np.testing.assert_array_equal(losses, fused)
        np.testing.assert_array_equal(
            losses, engine.per_example_losses(params, inputs, labels).mean(axis=1)
        )
        for k in range(m):
            assert losses[k] == model.evaluate_loss(inputs[k], labels[k], params=params[k])


def scalar_accuracies(model, params, inputs, labels):
    return np.array([model.accuracy(inputs, labels, params=row) for row in params])


class TestStackedAccuracies:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: make_linear_classifier(6, 3, seed=rng),
            lambda rng: make_mlp(6, 3, hidden_sizes=(8,), seed=rng),
            lambda rng: Sequential(
                [Dense(6, 8, rng), Tanh(), Dense(8, 5, rng), Sigmoid(), Dense(5, 3, rng)]
            ),
        ],
    )
    def test_matches_per_model_accuracy(self, factory):
        rng = np.random.default_rng(6)
        model = factory(rng)
        params = random_params(model, 9, rng)
        inputs = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        np.testing.assert_array_equal(
            StackedSequential(model).accuracies(params, inputs, labels),
            scalar_accuracies(model, params, inputs, labels),
        )

    def test_logit_ties_and_nan_rows_resolve_like_argmax(self):
        # Integer-valued inputs and parameters give exactly tied logits; a
        # NaN parameter makes every logit of its row NaN in one class.
        rng = np.random.default_rng(7)
        model = make_linear_classifier(4, 3, seed=0)
        params = rng.integers(-1, 2, size=(8, model.num_params)).astype(np.float64)
        params[3, 0] = np.nan
        inputs = rng.integers(-1, 2, size=(60, 4)).astype(np.float64)
        labels = rng.integers(0, 3, size=60)
        logits = np.stack(
            [inputs @ row[:12].reshape(4, 3) + row[12:] for row in params]
        )
        top = np.nanmax(logits, axis=-1, keepdims=True)
        assert ((logits == top).sum(axis=-1) > 1).any()
        assert np.isnan(logits[3]).any()
        stacked = StackedSequential(model).accuracies(params, inputs, labels)
        np.testing.assert_array_equal(
            stacked, scalar_accuracies(model, params, inputs, labels)
        )

    def test_empty_test_set_scores_zero(self):
        model = make_mlp(6, 3, hidden_sizes=(8,), seed=0)
        params = random_params(model, 4, np.random.default_rng(8))
        inputs, labels = np.zeros((0, 6)), np.zeros(0, dtype=np.int64)
        assert model.accuracy(inputs, labels, params=params[0]) == 0.0
        np.testing.assert_array_equal(
            StackedSequential(model).accuracies(params, inputs, labels), np.zeros(4)
        )

    def test_flatten_first_model_scores_image_batches(self):
        rng = np.random.default_rng(9)
        model = Sequential([Flatten(), Dense(6, 5, rng), ReLU(), Dense(5, 3, rng)])
        params = random_params(model, 5, rng)
        inputs = rng.normal(size=(30, 2, 3))
        labels = rng.integers(0, 3, size=30)
        np.testing.assert_array_equal(
            StackedSequential(model).accuracies(params, inputs, labels),
            scalar_accuracies(model, params, inputs, labels),
        )

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        rng = np.random.default_rng(10)
        model = make_mlp(6, 3, hidden_sizes=(8,), seed=0)
        engine = StackedSequential(model)
        params = random_params(model, 7, rng)
        inputs = rng.normal(size=(25, 6))
        labels = rng.integers(0, 3, size=25)
        whole = engine.accuracies(params, inputs, labels)
        monkeypatch.setattr(batched, "_ACCURACY_CHUNK_BYTES", 1)
        np.testing.assert_array_equal(engine.accuracies(params, inputs, labels), whole)

    def test_shape_validation(self):
        model = make_linear_classifier(6, 3, seed=0)
        engine = StackedSequential(model)
        params = random_params(model, 3, np.random.default_rng(0))
        inputs, labels = np.zeros((5, 6)), np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError):
            engine.accuracies(params[:, :-1], inputs, labels)
        with pytest.raises(ValueError):
            engine.accuracies(params, inputs, labels[:4])
