"""Tests for the experiment specification factories."""

import pytest

from repro.core.config import AlgorithmConfig
from repro.experiments.specs import (
    ALGORITHM_NAMES,
    ExperimentSpec,
    cifar_like_spec,
    fast_spec,
    mnist_like_spec,
    paper_figure_spec,
    paper_table_spec,
)


class TestExperimentSpecValidation:
    def test_defaults_are_valid(self):
        spec = ExperimentSpec(name="x")
        assert spec.num_agents == 10

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", dataset="imagenet")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", model="transformer")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", algorithms=["PDSL", "FedAvg"])

    def test_too_few_agents_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", num_agents=1)

    def test_with_updates_returns_new_spec(self):
        spec = ExperimentSpec(name="x")
        updated = spec.with_updates(epsilon=0.9)
        assert updated.epsilon == 0.9
        assert spec.epsilon != 0.9


class TestFactories:
    def test_fast_spec_includes_all_paper_algorithms(self):
        spec = fast_spec()
        assert list(spec.algorithms) == list(ALGORITHM_NAMES)

    def test_mnist_fast_uses_paper_momentum(self):
        spec = mnist_like_spec()
        assert spec.momentum == 0.5

    def test_cifar_fast_uses_paper_momentum(self):
        spec = cifar_like_spec()
        assert spec.momentum == 0.7

    def test_mnist_paper_scale_uses_cnn_and_paper_hyperparams(self):
        spec = mnist_like_spec(scale="paper")
        assert spec.model == "mnist_cnn"
        assert spec.learning_rate == 0.001
        assert spec.batch_size == 250
        assert spec.num_rounds == 180

    def test_cifar_paper_scale_uses_cnn_and_paper_hyperparams(self):
        spec = cifar_like_spec(scale="paper")
        assert spec.model == "cifar_cnn"
        assert spec.learning_rate == 0.01
        assert spec.num_rounds == 200

    @pytest.mark.parametrize(
        "figure,expected_topology,expected_family",
        [
            (1, "fully_connected", "mnist"),
            (2, "bipartite", "mnist"),
            (3, "ring", "mnist"),
            (4, "fully_connected", "cifar"),
            (5, "bipartite", "cifar"),
            (6, "ring", "cifar"),
        ],
    )
    def test_paper_figure_specs(self, figure, expected_topology, expected_family):
        spec = paper_figure_spec(figure)
        assert spec.topology == expected_topology
        assert f"figure{figure}" in spec.name

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            paper_figure_spec(7)

    def test_figure_default_epsilon_is_largest_of_sweep(self):
        assert paper_figure_spec(1).epsilon == 0.3
        assert paper_figure_spec(4).epsilon == 1.0

    def test_paper_table_specs(self):
        spec1 = paper_table_spec(1, "ring", 10, 0.1)
        spec2 = paper_table_spec(2, "bipartite", 15, 0.7)
        assert spec1.topology == "ring" and spec1.num_agents == 10
        assert spec2.topology == "bipartite" and spec2.num_agents == 15
        with pytest.raises(ValueError):
            paper_table_spec(3, "ring", 10, 0.1)

    def test_custom_algorithm_subset(self):
        spec = fast_spec(algorithms=["PDSL", "DP-DPSGD"])
        assert list(spec.algorithms) == ["PDSL", "DP-DPSGD"]


class TestDynamicsField:
    def test_defaults_to_static(self):
        assert fast_spec().dynamics is None

    def test_valid_dynamics_accepted(self):
        spec = fast_spec(dynamics={"rewire_every": 50, "churn_rate": 0.01, "straggler_fraction": 0.1})
        assert spec.dynamics["rewire_every"] == 50

    def test_unknown_dynamics_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown dynamics keys"):
            fast_spec(dynamics={"rewire_interval": 50})

    def test_with_updates_carries_dynamics(self):
        spec = fast_spec().with_updates(dynamics={"churn_rate": 0.05})
        assert spec.dynamics == {"churn_rate": 0.05}

    def test_out_of_range_dynamics_values_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="churn_rate"):
            fast_spec(dynamics={"churn_rate": 2.0})

    def test_min_active_above_fleet_size_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="min_active"):
            fast_spec(num_agents=6, dynamics={"churn_rate": 0.1, "min_active": 10})


class TestScalingKnobs:
    def test_defaults(self):
        spec = fast_spec()
        assert spec.dtype == "float64"
        assert spec.block_rows is None
        assert spec.cluster_size is None

    def test_valid_knobs_accepted(self):
        spec = fast_spec(num_agents=8, topology="hierarchical").with_updates(
            dtype="mixed", block_rows=4096, cluster_size=4
        )
        assert spec.dtype == "mixed"
        assert spec.block_rows == 4096
        assert spec.cluster_size == 4

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            fast_spec().with_updates(dtype="bfloat16")

    def test_nonpositive_block_rows_rejected(self):
        with pytest.raises(ValueError, match="block_rows"):
            fast_spec().with_updates(block_rows=0)

    @pytest.mark.parametrize(
        "knob,value",
        [("dtype", "bfloat16"), ("block_rows", 0), ("block_workers", 0), ("storage", "cloud")],
    )
    def test_spec_and_config_reject_a_knob_alike(self, knob, value):
        with pytest.raises(ValueError, match=knob) as spec_error:
            fast_spec().with_updates(**{knob: value})
        with pytest.raises(ValueError) as config_error:
            AlgorithmConfig(sigma=1.0, **{knob: value})
        assert str(spec_error.value) == str(config_error.value)

    def test_cluster_size_requires_hierarchical_topology(self):
        with pytest.raises(ValueError, match="cluster_size"):
            fast_spec(topology="ring").with_updates(cluster_size=4)

    def test_knobs_survive_serialization(self):
        from repro.experiments.specs import spec_from_dict, spec_to_dict

        spec = fast_spec(num_agents=8, topology="hierarchical").with_updates(
            dtype="float32", block_rows=128, cluster_size=4
        )
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.dtype == "float32"
        assert restored.block_rows == 128
        assert restored.cluster_size == 4
        assert restored == spec


class TestTopologyRulesAtParseTime:
    """A spec that names an unbuildable topology fails when it is parsed."""

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology 'rign'"):
            ExperimentSpec(name="x", topology="rign")

    def test_unknown_topology_override_rejected_by_grid(self):
        from repro.experiments.specs import ExperimentGrid

        with pytest.raises(ValueError, match="override #0.*unknown topology"):
            ExperimentGrid(base=fast_spec(), overrides=[{"topology": "rign"}])

    @pytest.mark.parametrize(
        "topology, num_agents, cluster_size, message",
        [
            ("torus", 10, None, "square"),
            ("hypercube", 10, None, "power-of-two"),
            ("hierarchical", 6, 4, "divisor"),
            ("hierarchical", 9, None, "divisor"),
            ("ring", 2, None, "at least 3"),
        ],
    )
    def test_size_rules(self, topology, num_agents, cluster_size, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(
                name="x",
                topology=topology,
                num_agents=num_agents,
                cluster_size=cluster_size,
            )

    def test_valid_sizes_accepted(self):
        ExperimentSpec(name="x", topology="torus", num_agents=9)
        ExperimentSpec(name="x", topology="hypercube", num_agents=16)
        ExperimentSpec(name="x", topology="hierarchical", num_agents=8, cluster_size=4)

    def test_nonpositive_eval_every_rejected(self):
        with pytest.raises(ValueError, match="eval_every"):
            fast_spec().with_updates(eval_every=0)


class TestTimeModelField:
    def test_defaults_to_real_time(self):
        assert fast_spec().time_model is None

    def test_valid_time_model_accepted(self):
        spec = fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
            time_model={
                "traces": {"kind": "synthetic", "seed": 3},
                "async": True,
                "staleness_decay": 0.1,
            }
        )
        assert spec.time_model["async"] is True

    def test_uniform_shorthand_accepted(self):
        spec = fast_spec().with_updates(time_model={"traces": "uniform"})
        assert spec.time_model == {"traces": "uniform"}

    def test_unknown_time_model_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown time_model keys"):
            fast_spec().with_updates(time_model={"trace": "uniform"})

    def test_non_bool_async_rejected(self):
        with pytest.raises(ValueError, match="async"):
            fast_spec().with_updates(time_model={"async": 1})

    def test_negative_staleness_decay_rejected(self):
        with pytest.raises(ValueError, match="staleness_decay"):
            fast_spec().with_updates(time_model={"staleness_decay": -0.5})

    @pytest.mark.parametrize(
        "time_model, message",
        [
            ({"async": True, "staleness_decay": float("nan")}, "finite"),
            ({"async": True, "staleness_decay": float("inf")}, "finite"),
            ({"staleness_decay": 0.1}, "only in async mode"),
            ({"async": False, "staleness_decay": 2.0}, "only in async mode"),
        ],
    )
    def test_unusable_staleness_decay_rejected(self, time_model, message):
        with pytest.raises(ValueError, match=message):
            fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
                time_model=time_model
            )

    def test_async_with_default_algorithms_rejected_at_parse_time(self):
        # Async mode runs DMSGD's local step; the paper's algorithms would
        # run under a false label.
        with pytest.raises(ValueError, match="cannot run") as error:
            fast_spec(num_agents=6).with_updates(time_model={"async": True})
        for name in ("PDSL", "DP-CGA", "MUFFLIATO", "DP-NET-FLEET", "DP-DPSGD"):
            assert name in str(error.value)

    def test_explicit_trace_list_must_match_fleet_size(self):
        traces = [{"compute_seconds": 1.0}] * 3
        with pytest.raises(ValueError, match="3 explicit traces"):
            fast_spec(num_agents=6).with_updates(time_model={"traces": traces})

    def test_async_with_dynamics_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="static topology"):
            fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
                time_model={"async": True}, dynamics={"churn_rate": 0.1}
            )

    def test_async_with_lossy_codec_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="identity codec"):
            fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
                time_model={"async": True}, compression={"codec": "topk", "k": 4}
            )

    def test_async_with_communication_interval_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="communication_interval=1"):
            fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
                time_model={"async": True},
                compression={"codec": "identity", "communication_interval": 2},
            )

    def test_async_with_shift_one_peers_rejected_at_parse_time(self):
        with pytest.raises(ValueError, match="static topology"):
            fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
                time_model={"async": True}, compression={"peer_selection": "shift_one"}
            )

    def test_barrier_mode_accepts_what_async_mode_rejects(self):
        spec = fast_spec(num_agents=6).with_updates(
            time_model={"async": False},
            dynamics={"churn_rate": 0.1},
            compression={"codec": "topk", "k": 4, "communication_interval": 2},
        )
        assert spec.time_model == {"async": False}

    def test_time_model_survives_serialization(self):
        from repro.experiments.specs import spec_from_dict, spec_to_dict

        spec = fast_spec(num_agents=6, algorithms=["DMSGD"]).with_updates(
            time_model={"traces": {"kind": "synthetic", "seed": 3}, "async": True}
        )
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.time_model == spec.time_model
        assert restored == spec
