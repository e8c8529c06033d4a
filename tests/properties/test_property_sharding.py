"""Scaling-layer properties: blocked == one-shot bitwise, precision budgets.

Two guarantees anchor the million-agent scaling work:

* **bit-identity** — streaming a row-independent kernel over ``(block, d)``
  chunks must change *nothing*: ``mix_rows_blocked`` equals ``apply`` bit
  for bit (dense and CSR, any block size), block-by-block encoding equals
  the whole-fleet codec call, and an engine configured with ``block_rows``
  walks the exact trajectory of the default-sized blocks;
* **accuracy budget** — float32 / mixed-precision state is lossy by
  construction, so the divergence from the float64 trajectory is *pinned*:
  every algorithm must stay inside an explicit per-round budget, turning
  "roughly right" into a regression test.
"""

import numpy as np
import pytest

from repro.core.config import AlgorithmConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.topology.graphs import ring_graph, torus_graph


NUM_AGENTS = 16
ROUNDS = 3
#: Pinned empirically (~7e-8 observed after 3 rounds on this workload,
#: i.e. float32 rounding of O(1) parameters); an order of magnitude of slack
#: keeps the test robust to BLAS/platform variation while still catching a
#: kernel that silently degrades precision.
FLOAT32_BUDGET = 1e-5

ALGORITHMS = ["DP-DPSGD", "D-PSGD", "DMSGD", "MUFFLIATO", "DP-CGA", "DP-NET-FLEET"]


def _build(name: str, **config_kwargs):
    from repro.experiments.harness import build_algorithm, build_experiment_components
    from repro.experiments.specs import fast_spec

    spec = fast_spec(
        num_agents=NUM_AGENTS, topology="ring", num_rounds=ROUNDS, algorithms=[name]
    )
    for key, value in config_kwargs.items():
        spec = spec.with_updates(**{key: value})
    return build_algorithm(name, build_experiment_components(spec))


class TestBlockedMixingBitIdentity:
    """``mix_rows_blocked`` must equal ``apply`` bit for bit."""

    @pytest.mark.parametrize("block_rows", [1, 7, NUM_AGENTS, 3 * NUM_AGENTS])
    def test_ring(self, block_rows, rng):
        operator = ring_graph(NUM_AGENTS).mixing_operator()
        state = rng.normal(size=(NUM_AGENTS, 9))
        np.testing.assert_array_equal(
            operator.apply(state), operator.mix_rows_blocked(state, block_rows)
        )

    def test_torus_every_block_size(self, rng):
        operator = torus_graph(5).mixing_operator()
        state = rng.normal(size=(25, 4))
        expected = operator.apply(state)
        for block_rows in range(1, 26):
            np.testing.assert_array_equal(
                expected, operator.mix_rows_blocked(state, block_rows)
            )

    def test_out_buffer(self, rng):
        operator = ring_graph(12).mixing_operator()
        state = rng.normal(size=(12, 5))
        out = np.empty_like(state)
        result = operator.mix_rows_blocked(state, 5, out=out)
        assert result is out
        np.testing.assert_array_equal(out, operator.apply(state))

    def test_rejects_bad_block(self, rng):
        operator = ring_graph(8).mixing_operator()
        with pytest.raises(ValueError):
            operator.mix_rows_blocked(rng.normal(size=(8, 3)), 0)


class TestMixedPrecisionKernel:
    """``apply_mixed``: float32 in/out, float64 accumulation, blocked."""

    @pytest.mark.parametrize("block_rows", [None, 1, 7, NUM_AGENTS])
    def test_matches_float64_reference(self, block_rows, rng):
        operator = ring_graph(NUM_AGENTS).mixing_operator()
        state = rng.normal(size=(NUM_AGENTS, 9)).astype(np.float32)
        result = operator.apply_mixed(state, block_rows=block_rows)
        assert result.dtype == np.float32
        dense_w = operator.toarray()
        reference = (dense_w @ state.astype(np.float64)).astype(np.float32)
        np.testing.assert_allclose(result, reference, rtol=2e-6, atol=2e-7)

    def test_block_size_does_not_change_result(self, rng):
        operator = ring_graph(NUM_AGENTS).mixing_operator()
        state = rng.normal(size=(NUM_AGENTS, 6)).astype(np.float32)
        reference = operator.apply_mixed(state, block_rows=None)
        for block_rows in (1, 3, 5, NUM_AGENTS):
            np.testing.assert_array_equal(
                reference, operator.apply_mixed(state, block_rows=block_rows)
            )

    def test_float32_fast_path_dtype(self, rng):
        operator = ring_graph(NUM_AGENTS).mixing_operator()
        state = rng.normal(size=(NUM_AGENTS, 6)).astype(np.float32)
        assert operator.apply(state).dtype == np.float32


class TestBlockedCompressionBitIdentity:
    """Encoding a fleet block by block must equal the whole-fleet call per agent."""

    @staticmethod
    def _make_state(codec_kwargs):
        from repro.compression.codecs import make_codec
        from repro.compression.config import CompressionConfig
        from repro.compression.state import CompressionState

        from repro.core.streams import FleetStreams

        config = CompressionConfig(**codec_kwargs)
        return CompressionState(
            make_codec(config, 10), NUM_AGENTS, 10, streams=FleetStreams(5)
        )

    @staticmethod
    def _compress_blocked(state, matrix, block_rows, mask=None, step=0):
        """``compress_block`` looped over ``(block_rows, d)`` row blocks."""
        out = np.empty_like(matrix)
        for start in range(0, NUM_AGENTS, block_rows):
            stop = min(start + block_rows, NUM_AGENTS)
            out[start:stop] = state.compress_block(
                "model", matrix[start:stop], start, stop, mask, step=step
            )
        return out

    @pytest.mark.parametrize(
        "codec_kwargs",
        [{"codec": "topk", "k": 3}, {"codec": "int8"}, {"codec": "randomk", "k": 3}],
    )
    @pytest.mark.parametrize("block_rows", [1, 7, NUM_AGENTS])
    def test_full_fleet(self, codec_kwargs, block_rows, rng):
        matrix = rng.normal(size=(NUM_AGENTS, 10))
        one_shot = self._make_state(codec_kwargs)
        blocked = self._make_state(codec_kwargs)
        for step in range(3):  # residuals accumulate across calls
            expected = self._compress_blocked(one_shot, matrix, NUM_AGENTS, step=step)
            actual = self._compress_blocked(blocked, matrix, block_rows, step=step)
            np.testing.assert_array_equal(expected, actual)
        for channel in ("model",):
            res_a, res_b = one_shot.residual(channel), blocked.residual(channel)
            np.testing.assert_array_equal(res_a, res_b)

    def test_partial_mask(self, rng):
        matrix = rng.normal(size=(NUM_AGENTS, 10))
        mask = np.zeros(NUM_AGENTS, dtype=bool)
        mask[::3] = True
        one_shot = self._make_state({"codec": "topk", "k": 3})
        blocked = self._make_state({"codec": "topk", "k": 3})
        np.testing.assert_array_equal(
            self._compress_blocked(one_shot, matrix, NUM_AGENTS, mask),
            self._compress_blocked(blocked, matrix, 5, mask),
        )


class TestEngineBlockedBitIdentity:
    """An engine with ``block_rows`` set walks the default-block trajectory exactly."""

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_trajectories_identical(self, name):
        baseline = _build(name)
        blocked = _build(name, block_rows=5)
        for _ in range(ROUNDS):
            baseline.run_round()
            blocked.run_round()
        np.testing.assert_array_equal(baseline.state, blocked.state)
        np.testing.assert_array_equal(baseline.momentum_state, blocked.momentum_state)

    def test_compressed_trajectories_identical(self):
        from repro.experiments.harness import (
            build_algorithm,
            build_experiment_components,
        )
        from repro.experiments.specs import fast_spec

        base = fast_spec(
            num_agents=NUM_AGENTS,
            topology="ring",
            num_rounds=ROUNDS,
            algorithms=["DP-DPSGD"],
            compression={"codec": "topk", "k": 4},
        )
        baseline = build_algorithm("DP-DPSGD", build_experiment_components(base))
        blocked = build_algorithm(
            "DP-DPSGD",
            build_experiment_components(base.with_updates(block_rows=3)),
        )
        for _ in range(ROUNDS):
            baseline.run_round()
            blocked.run_round()
        np.testing.assert_array_equal(baseline.state, blocked.state)


class TestPrecisionAccuracyBudget:
    """float32 / mixed trajectories stay inside the pinned divergence budget."""

    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("dtype", ["float32", "mixed"])
    def test_divergence_budget(self, name, dtype):
        reference = _build(name)
        low = _build(name, dtype=dtype)
        for _ in range(ROUNDS):
            reference.run_round()
            low.run_round()
        assert low.state.dtype == np.float32
        divergence = float(
            np.max(np.abs(low.state.astype(np.float64) - reference.state))
        )
        assert divergence < FLOAT32_BUDGET, (
            f"{name} ({dtype}) diverged {divergence:.3e} from the float64 "
            f"trajectory after {ROUNDS} rounds (budget {FLOAT32_BUDGET:.0e})"
        )

    def test_float64_is_default_and_exact(self):
        config = AlgorithmConfig(
            learning_rate=0.05, sigma=0.5, clip_threshold=1.0, batch_size=4, seed=0
        )
        assert config.dtype == "float64"
        data = make_classification_dataset(
            num_samples=128, num_features=6, num_classes=3, cluster_std=1.0, seed=0
        )
        shards = partition_iid(data, 8, np.random.default_rng(0)).shards
        from repro.baselines import DPDPSGD

        a = DPDPSGD(make_linear_classifier(6, 3, seed=0), ring_graph(8), shards, config)
        assert a.state.dtype == np.float64

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(
                learning_rate=0.05,
                sigma=0.5,
                clip_threshold=1.0,
                batch_size=4,
                seed=0,
                dtype="float16",
            )
