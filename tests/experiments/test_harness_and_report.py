"""Tests for the experiment harness and report formatting."""

import numpy as np
import pytest

from repro.core.pdsl import PDSL
from repro.experiments.harness import (
    build_algorithm,
    build_experiment_components,
    run_comparison,
    run_single,
)
from repro.experiments.report import (
    accuracy_table_rows,
    format_accuracy_table,
    format_loss_curves,
    format_runtime_table,
    loss_curve_series,
    runtime_summary_rows,
)
from repro.experiments.specs import fast_spec
from repro.simulation.metrics import RoundRecord, TrainingHistory


@pytest.fixture(scope="module")
def components():
    spec = fast_spec(num_agents=4, epsilon=0.3, num_rounds=3)
    return build_experiment_components(spec)


class TestComponentConstruction:
    def test_partition_matches_agent_count(self, components):
        assert components.partition.num_agents == 4
        assert components.topology.num_agents == 4

    def test_splits_disjoint_sizes(self, components):
        spec = components.spec
        total = len(components.train) + len(components.validation) + len(components.test)
        assert total == spec.train_samples + spec.validation_samples + spec.test_samples
        assert len(components.validation) == spec.validation_samples
        assert len(components.test) == spec.test_samples

    def test_model_factory_produces_identical_models(self, components):
        a = components.model_factory()
        b = components.model_factory()
        np.testing.assert_array_equal(a.get_flat_params(), b.get_flat_params())

    def test_every_topology_name_supported(self):
        for topology in (
            "fully_connected",
            "ring",
            "bipartite",
            "star",
            "grid",
            "erdos_renyi",
            "random_regular",
            "small_world",
            "exponential",
        ):
            spec = fast_spec(num_agents=6, num_rounds=2).with_updates(topology=topology)
            comps = build_experiment_components(spec)
            assert comps.topology.num_agents == 6

    def test_square_and_power_of_two_topologies(self):
        torus = fast_spec(num_agents=9, num_rounds=2).with_updates(topology="torus")
        assert build_experiment_components(torus).topology.num_agents == 9
        cube = fast_spec(num_agents=8, num_rounds=2).with_updates(topology="hypercube")
        assert build_experiment_components(cube).topology.num_agents == 8
        with pytest.raises(ValueError, match="square"):
            build_experiment_components(
                fast_spec(num_agents=10).with_updates(topology="torus")
            )
        with pytest.raises(ValueError, match="power-of-two"):
            build_experiment_components(
                fast_spec(num_agents=10).with_updates(topology="hypercube")
            )

    def test_unknown_topology_rejected(self):
        from repro.experiments.harness import _make_topology

        with pytest.raises(ValueError, match="unknown topology"):
            fast_spec(num_agents=4).with_updates(topology="moebius")
        with pytest.raises(ValueError, match="unknown topology"):
            _make_topology("moebius", 4, seed=0)

    def test_image_dataset_flattened_for_dense_models(self):
        spec = fast_spec(num_agents=4, num_rounds=2).with_updates(
            dataset="mnist", train_samples=150, validation_samples=30, test_samples=40, num_classes=4
        )
        comps = build_experiment_components(spec)
        assert len(comps.train.input_shape) == 1


class TestBuildAlgorithm:
    def test_pdsl_gets_validation_set(self, components):
        algorithm = build_algorithm("PDSL", components)
        assert isinstance(algorithm, PDSL)
        assert algorithm.validation is not None

    @pytest.mark.parametrize(
        "name", ["PDSL", "DP-DPSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET", "DMSGD", "D-PSGD"]
    )
    def test_all_algorithms_constructible(self, components, name):
        algorithm = build_algorithm(name, components)
        assert algorithm.num_agents == 4

    def test_unknown_algorithm_rejected(self, components):
        with pytest.raises(ValueError):
            build_algorithm("FedAvg", components)

    def test_sigma_override(self, components):
        algorithm = build_algorithm("DP-DPSGD", components, sigma=0.0)
        assert algorithm.sigma == 0.0

    def test_non_private_reference_has_zero_sigma(self, components):
        algorithm = build_algorithm("D-PSGD", components)
        assert algorithm.sigma == 0.0


class TestRunSingleAndComparison:
    def test_run_single_history_length(self, components):
        history = run_single("DP-DPSGD", components)
        assert len(history) == components.spec.num_rounds
        assert history.final_test_accuracy is not None

    def test_run_comparison_returns_all_algorithms(self):
        spec = fast_spec(num_agents=4, num_rounds=2, algorithms=["PDSL", "DP-DPSGD"])
        results = run_comparison(spec)
        assert set(results) == {"PDSL", "DP-DPSGD"}
        for history in results.values():
            assert len(history) == 2

    def test_run_comparison_algorithm_override(self):
        spec = fast_spec(num_agents=4, num_rounds=2)
        results = run_comparison(spec, algorithms=["DP-DPSGD"])
        assert set(results) == {"DP-DPSGD"}


class TestReporting:
    def make_histories(self):
        histories = {}
        for name, losses in [("A", [2.0, 1.0]), ("B", [2.0, 1.5])]:
            history = TrainingHistory(algorithm=name)
            for t, loss in enumerate(losses, start=1):
                history.append(RoundRecord(round=t, average_train_loss=loss))
            history.final_test_accuracy = 0.5
            histories[name] = history
        return histories

    def test_loss_curve_series(self):
        series = loss_curve_series(self.make_histories())
        assert series["A"] == [(1, 2.0), (2, 1.0)]

    def test_format_loss_curves_contains_all_algorithms(self):
        text = format_loss_curves(self.make_histories(), title="demo")
        assert "demo" in text
        assert "A" in text and "B" in text
        assert "2.0000" in text

    def test_format_loss_curves_empty(self):
        assert "(no results)" in format_loss_curves({})

    def test_format_loss_curves_max_rows(self):
        histories = self.make_histories()
        text = format_loss_curves(histories, max_rows=1)
        assert len(text.splitlines()) <= 5

    def test_accuracy_table_rows_and_formatting(self):
        histories = self.make_histories()
        results = {("ring", 10): histories, ("ring", 20): histories}
        table = accuracy_table_rows(results, algorithms=["A", "B"])
        assert table["A"][("ring", 10)] == 0.5
        text = format_accuracy_table(table, caption="Table demo")
        assert "Table demo" in text
        assert "ring" in text
        assert "0.500" in text

    def test_accuracy_table_missing_algorithm_skipped(self):
        histories = self.make_histories()
        table = accuracy_table_rows({("ring", 10): histories}, algorithms=["A", "C"])
        assert table["C"] == {}


class TestDynamicsThroughTheHarness:
    """The declarative ``dynamics`` field, end to end through run_comparison."""

    @pytest.fixture(scope="class")
    def dynamic_results(self):
        spec = fast_spec(
            num_agents=6,
            topology="ring",
            num_rounds=6,
            algorithms=["PDSL", "DMSGD"],
            dynamics={"rewire_every": 2, "churn_rate": 0.15, "rejoin_rate": 0.5},
        )
        return run_comparison(spec)

    def test_components_build_a_shared_schedule(self):
        from repro.topology.schedule import DynamicTopologySchedule

        spec = fast_spec(num_agents=5, dynamics={"churn_rate": 0.1})
        components = build_experiment_components(spec)
        assert isinstance(components.schedule, DynamicTopologySchedule)
        algorithm = build_algorithm("DMSGD", components)
        assert algorithm.schedule is components.schedule

    def test_static_spec_builds_no_schedule(self, components):
        assert components.schedule is None
        algorithm = build_algorithm("DMSGD", components)
        assert algorithm.schedule.is_static

    def test_events_recorded_in_every_history(self, dynamic_results):
        for name, history in dynamic_results.items():
            assert history.topology_events, name
            assert "rewire" in history.event_counts()
            assert history.metadata["dynamics"]["rewire_every"] == 2

    def test_all_algorithms_see_the_same_dynamics(self, dynamic_results):
        event_lists = [h.topology_events for h in dynamic_results.values()]
        assert event_lists[0] == event_lists[1]

    def test_losses_stay_finite_under_dynamics(self, dynamic_results):
        for history in dynamic_results.values():
            assert np.isfinite(history.losses).all()

    def test_unknown_dynamics_keys_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown dynamics keys"):
            fast_spec(dynamics={"rewire_evry": 2})


class TestRuntimeReporting:
    def make_timed_history(self, name, seconds):
        history = TrainingHistory(algorithm=name, metadata={"rounds": 4})
        for round_index, loss in enumerate([1.0, 0.5], start=1):
            history.append(
                RoundRecord(
                    round=round_index,
                    average_train_loss=loss,
                    wall_clock_seconds=seconds,
                )
            )
        return history

    def test_runtime_summary_rows(self):
        histories = {"A": self.make_timed_history("A", 0.25)}
        rows = runtime_summary_rows(histories)
        assert rows["A"]["total_seconds"] == pytest.approx(0.5)
        assert rows["A"]["seconds_per_round"] == pytest.approx(0.125)

    def test_format_runtime_table_has_a_runtime_column(self):
        histories = {
            "A": self.make_timed_history("A", 0.25),
            "B": self.make_timed_history("B", 0.1),
        }
        table = format_runtime_table(histories)
        assert "runtime [s]" in table
        assert "s/round" in table
        for name in histories:
            assert name in table

    def test_run_comparison_populates_wall_clock(self):
        spec = fast_spec(num_agents=4, num_rounds=2, algorithms=["DMSGD"])
        histories = run_comparison(spec)
        history = histories["DMSGD"]
        assert history.total_wall_clock() > 0.0
        assert all(r.wall_clock_seconds is not None for r in history.records)
