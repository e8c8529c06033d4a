"""Tests for the PDSL characteristic function (eqs. 15-17)."""

import numpy as np
import pytest

from repro.core import characteristic as characteristic_module
from repro.core.characteristic import (
    coalition_values,
    make_update_characteristic,
    validation_batch,
    validation_characteristic,
)
from repro.data.synthetic import make_classification_dataset
from repro.game.shapley import coalition_members, plan_shapley
from repro.nn.batched import StackedSequential
from repro.nn.zoo import make_linear_classifier, make_mlp


@pytest.fixture
def setup():
    data = make_classification_dataset(200, num_features=6, num_classes=3, cluster_std=0.4, seed=0)
    model = make_linear_classifier(6, 3, seed=0)
    return data, model


class TestValidationCharacteristic:
    def test_accuracy_metric_in_unit_interval(self, setup):
        data, model = setup
        score = validation_characteristic(
            model, model.get_flat_params(), data.inputs, data.labels, metric="accuracy"
        )
        assert 0.0 <= score <= 1.0

    def test_neg_loss_metric_is_negative_loss(self, setup):
        data, model = setup
        score = validation_characteristic(
            model, model.get_flat_params(), data.inputs, data.labels, metric="neg_loss"
        )
        loss = model.evaluate_loss(data.inputs, data.labels)
        np.testing.assert_allclose(score, -loss)

    def test_unknown_metric_rejected(self, setup):
        data, model = setup
        with pytest.raises(ValueError):
            validation_characteristic(model, model.get_flat_params(), data.inputs, data.labels, metric="auc")

    def test_trained_params_score_higher(self, setup):
        data, model = setup
        params = model.get_flat_params()
        for _ in range(60):
            _, grad = model.loss_and_gradient(data.inputs, data.labels, params=params)
            params -= 0.5 * grad
        untrained = validation_characteristic(model, model.get_flat_params(), data.inputs, data.labels)
        trained = validation_characteristic(model, params, data.inputs, data.labels)
        assert trained > untrained


class TestUpdateCharacteristic:
    def test_empty_coalition_is_zero(self, setup):
        data, model = setup
        updates = {0: model.get_flat_params(), 1: model.get_flat_params() + 0.1}
        v = make_update_characteristic(model, updates, data)
        assert v(()) == 0.0

    def test_singleton_coalition_scores_that_update(self, setup):
        data, model = setup
        good_params = model.get_flat_params()
        for _ in range(80):
            _, grad = model.loss_and_gradient(data.inputs, data.labels, params=good_params)
            good_params -= 0.5 * grad
        bad_params = np.zeros_like(good_params)
        v = make_update_characteristic(model, {0: good_params, 1: bad_params}, data)
        assert v((0,)) > v((1,))

    def test_coalition_value_is_average_model_score(self, setup):
        data, model = setup
        a = model.get_flat_params()
        b = a + 1.0
        v = make_update_characteristic(model, {0: a, 1: b}, data)
        averaged = (a + b) / 2
        expected = validation_characteristic(model, averaged, data.inputs, data.labels)
        np.testing.assert_allclose(v((0, 1)), expected)

    def test_unknown_members_ignored(self, setup):
        data, model = setup
        v = make_update_characteristic(model, {0: model.get_flat_params()}, data)
        assert v((0, 99)) == v((0,))

    def test_subsampled_validation_stays_fixed_across_calls(self, setup):
        data, model = setup
        updates = {0: model.get_flat_params(), 1: model.get_flat_params() + 0.5}
        rng = np.random.default_rng(0)
        v = make_update_characteristic(model, updates, data, validation_batch_size=50, rng=rng)
        assert v((0,)) == v((0,))  # same subsample reused, so the game is well defined

    def test_subsample_requires_rng(self, setup):
        data, model = setup
        with pytest.raises(ValueError):
            make_update_characteristic(
                model, {0: model.get_flat_params()}, data, validation_batch_size=10, rng=None
            )

    def test_empty_updates_rejected(self, setup):
        data, model = setup
        with pytest.raises(ValueError):
            make_update_characteristic(model, {}, data)

    def test_empty_validation_rejected(self, setup):
        from repro.data.dataset import Dataset

        _, model = setup
        empty = Dataset(np.zeros((0, 6)), np.zeros(0))
        with pytest.raises(ValueError):
            make_update_characteristic(model, {0: model.get_flat_params()}, empty)


class TestValidationBatch:
    def test_whole_set_returns_q_itself_and_draws_nothing(self, setup):
        data, _ = setup
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for size in (None, len(data), len(data) + 5):
            inputs, labels = validation_batch(data, size, rng)
            assert inputs is data.inputs and labels is data.labels
        assert rng.bit_generator.state == before

    def test_subsample_is_the_characteristic_s_subsample(self, setup):
        data, _ = setup
        inputs, labels = validation_batch(data, 30, np.random.default_rng(3))
        expected = data.sample(30, np.random.default_rng(3))
        np.testing.assert_array_equal(inputs, expected.inputs)
        np.testing.assert_array_equal(labels, expected.labels)


def planned_games(model, data, num_games, subsample, metric):
    """``(candidates, masks, batch)`` games plus each game's characteristic."""
    rng = np.random.default_rng(0)
    base = model.get_flat_params()
    size = 40 if subsample else None
    games, characteristics = [], []
    for g in range(num_games):
        players = 2 + g % 5
        candidates = base + 0.5 * rng.normal(size=(players, base.size))
        batch = validation_batch(data, size, np.random.default_rng(200 + g))
        plan = plan_shapley(players, 3 if g % 2 else 0, np.random.default_rng(100 + g))
        games.append((candidates, plan.masks, batch))
        characteristics.append(
            make_update_characteristic(
                model,
                dict(enumerate(candidates)),
                data,
                metric=metric,
                validation_batch_size=size,
                rng=np.random.default_rng(200 + g),
            )
        )
    return games, characteristics


class TestCoalitionValues:
    """Stacked, planned scoring equals one characteristic call per coalition."""

    @pytest.mark.parametrize("metric", ["accuracy", "neg_loss"])
    @pytest.mark.parametrize("subsample", [False, True], ids=["shared", "own"])
    @pytest.mark.parametrize("engine", ["stacked", "per-row"])
    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_bitwise_equal_to_the_characteristic(
        self, setup, monkeypatch, metric, subsample, engine, chunk_bytes
    ):
        data, _ = setup
        model = make_mlp(6, 3, hidden_sizes=(8,), seed=0)
        if chunk_bytes is not None:
            monkeypatch.setattr(characteristic_module, "_COALITION_CHUNK_BYTES", chunk_bytes)
        games, characteristics = planned_games(model, data, 7, subsample, metric)
        stacked = StackedSequential(model) if engine == "stacked" else None
        values = list(coalition_values(model, iter(games), metric=metric, stacked=stacked))
        assert len(values) == len(games)
        for (_, masks, _), v, game_values in zip(games, characteristics, values):
            expected = [v(tuple(coalition_members(mask))) for mask in masks]
            np.testing.assert_array_equal(game_values, expected)

    def test_unknown_metric_rejected(self, setup):
        _, model = setup
        with pytest.raises(ValueError):
            coalition_values(model, [], metric="f1")
