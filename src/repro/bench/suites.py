"""The registered benchmark suites.

Each suite packages one hot path of the system behind the
:class:`~repro.bench.registry.Benchmark` lifecycle:

* ``engine/round`` — per-agent reference vs the round pipeline, seconds per
  DP-DPSGD round;
* ``engine/round-streamed`` — one full streamed round (blocked gradients,
  noise, codec, gossip; memmap state) across fleet sizes up to a million
  agents, memory-guarded, streamed-vs-default-block bit-identity asserted;
* ``gossip/sparse`` — dense einsum vs the CSR gossip kernel (bit-identity
  checked);
* ``gossip/compressed`` — dense vs top-k vs random-k vs int8 gossip wire
  bytes (identity-codec bit-identity and random-k == top-k bytes checked);
* ``gossip/scaling-sweep`` — gossip kernels (one-shot, blocked, float32,
  mixed-precision) across fleet sizes up to the
  machine's memory ceiling, with too-large points skipped via the shared
  memory guard;
* ``engine/async-round`` — the event-driven time model: event throughput
  and simulated-vs-real time ratio of barrier and async rounds on a
  heterogeneous trace fleet (unit-trace bit-identity checked);
* ``topology/dynamic-cache`` — schedule snapshot LRU vs naive rebuild;
* ``orchestrator/pool`` — process-pool grid vs serial (plus warm store);
* ``checkpoint/roundtrip`` — ``state_dict`` → save → load → restore;
* ``game/shapley-mc`` — the Monte-Carlo Shapley permutation walk on a
  neighbourhood-sized game;
* ``privacy/noise-rows`` — counter-based Gaussian noise rows for a fleet;
* ``attacks/inversion-fleet`` — fleet gradient inversion vs the sequential
  per-victim loop (bit-identity checked);
* ``attacks/membership`` — fleet membership-loss scoring vs per-row calls
  (bit-identity checked);
* ``eval/test-accuracy`` — stacked mean-agent test accuracy vs the
  per-agent ``Model.accuracy`` loop (per-agent equality checked).

Scales resolve from ``REPRO_BENCH_*`` environment knobs, so ``repro-bench``
and the floor test (``benchmarks/test_bench_floors.py``) share one
configuration; :data:`SMOKE_SCALE` is the reduced setting CI applies via
``repro-bench run --scale smoke``.  The floored speed comparisons expose their
sides as :class:`~repro.bench.registry.Case` objects and leave the timing to
the registry.  Suites embed their correctness checks (bit-identical kernels,
serial-vs-pooled history equality, cache bookkeeping): a benchmark that
silently compares different computations is worse than no benchmark.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import time
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bench.registry import Benchmark, Case, FloorSpec, benchmark
from repro.bench.timer import peak_rss_bytes

__all__ = [
    "SMOKE_SCALE",
    "apply_scale",
    "EngineRoundSuite",
    "StreamedRoundSuite",
    "AsyncRoundSuite",
    "SparseGossipSuite",
    "CompressedGossipSuite",
    "GossipScalingSweepSuite",
    "DynamicTopologyCacheSuite",
    "OrchestratorPoolSuite",
    "CheckpointRoundtripSuite",
    "MonteCarloShapleySuite",
    "NoiseRowsSuite",
    "FleetInversionSuite",
    "MembershipFleetSuite",
    "StackedEvalSuite",
]

#: Reduced-scale knob values for CI smoke runs: every suite executes every
#: code path in seconds, and every floor stays disarmed (the shared guard
#: sees the reduced scale).  Applied with :func:`apply_scale`.
SMOKE_SCALE: Dict[str, str] = {
    "REPRO_BENCH_ENGINE_AGENTS": "16,64",
    "REPRO_BENCH_ENGINE_ROUNDS": "1",
    "REPRO_BENCH_ROUND_AGENTS": "64,256",
    "REPRO_BENCH_ROUND_WORKERS": "2",
    "REPRO_BENCH_ROUND_BATCH": "8",
    "REPRO_BENCH_ASYNC_AGENTS": "128",
    "REPRO_BENCH_ASYNC_ROUNDS": "2",
    "REPRO_BENCH_SPARSE_AGENTS": "256",
    "REPRO_BENCH_SPARSE_ROUNDS": "1",
    "REPRO_BENCH_COMPRESS_AGENTS": "64",
    "REPRO_BENCH_COMPRESS_ROUNDS": "1",
    "REPRO_BENCH_DYNTOPO_AGENTS": "128",
    "REPRO_BENCH_DYNTOPO_ROUNDS": "20",
    "REPRO_BENCH_DYNTOPO_PERIOD": "5",
    "REPRO_BENCH_ORCH_JOBS": "4",
    "REPRO_BENCH_ORCH_ROUNDS": "8",
    "REPRO_BENCH_ORCH_AGENTS": "5",
    "REPRO_BENCH_CKPT_AGENTS": "16",
    "REPRO_BENCH_CKPT_ROUNDS": "2",
    "REPRO_BENCH_SHAPLEY_PLAYERS": "8",
    "REPRO_BENCH_SHAPLEY_PERMS": "50",
    "REPRO_BENCH_NOISE_AGENTS": "256",
    "REPRO_BENCH_NOISE_DIM": "32",
    "REPRO_BENCH_SWEEP_AGENTS": "64,256",
    "REPRO_BENCH_ATTACK_AGENTS": "16",
    "REPRO_BENCH_ATTACK_ITERS": "4",
    "REPRO_BENCH_ATTACK_BATCH": "4",
    "REPRO_BENCH_MEMBER_ROWS": "64",
    "REPRO_BENCH_MEMBER_SAMPLES": "16",
    "REPRO_BENCH_EVAL_AGENTS": "64,256",
}


def apply_scale(scale: Dict[str, str]) -> None:
    """Install scale knobs into the environment (explicit settings win)."""
    for key, value in scale.items():
        os.environ.setdefault(key, value)


def _env_ints(name: str, default: str) -> List[int]:
    raw = os.environ.get(name, default)
    return [int(part) for part in raw.split(",") if part.strip()]


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    return max(minimum, int(os.environ.get(name, default)))


def _calls(apply, *args, times: int):
    """A comparison side: ``times`` back-to-back calls, returning the last."""
    return lambda: [apply(*args) for _ in range(times)][-1]


def _timed(apply, *args, rounds: int = 1, warm: bool = True) -> float:
    """Best-effort seconds per call: one warm-up, then ``rounds`` timed calls."""
    if warm:
        apply(*args)
    started = time.perf_counter()
    for _ in range(rounds):
        apply(*args)
    return (time.perf_counter() - started) / rounds


# ---------------------------------------------------------------------------
# engine/round
# ---------------------------------------------------------------------------
@benchmark
class EngineRoundSuite(Benchmark):
    """Per-agent reference vs round pipeline: seconds per DP-DPSGD round.

    ``loop_s@N`` times :func:`repro.bench.reference.reference_round` (one
    agent at a time), ``vectorized_s@N`` the blocked pipeline's
    ``run_round``, and ``speedup@N`` is their ratio.  The two fleets advance
    in lock-step; every round checks that their states agree to round-off
    and that they sent the same number of messages.
    """

    name = "engine/round"
    description = "per-agent reference vs round pipeline, seconds per DP-DPSGD round"
    floor = FloorSpec(
        "speedup", 5.0, min_cpus=2, min_baseline_seconds=0.2, ratio=("loop", "vectorized")
    )
    default_repeats = 5
    FULL_SCALE_AGENTS = 256

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_ENGINE_AGENTS", "16,64,256")
        self.rounds = _env_int("REPRO_BENCH_ENGINE_ROUNDS", 2)

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "rounds": self.rounds}

    @staticmethod
    def build(num_agents: int):
        """One DP-DPSGD instance on the synthetic classification task."""
        from repro.baselines import DPDPSGD
        from repro.core.config import AlgorithmConfig
        from repro.data.partition import partition_iid
        from repro.data.synthetic import make_classification_dataset
        from repro.nn.zoo import make_linear_classifier
        from repro.topology.graphs import fully_connected_graph

        data = make_classification_dataset(
            num_samples=max(2048, 8 * num_agents),
            num_features=16,
            num_classes=4,
            cluster_std=1.0,
            seed=0,
        )
        shards = partition_iid(data, num_agents, np.random.default_rng(0)).shards
        topology = fully_connected_graph(num_agents)
        model = make_linear_classifier(16, 4, seed=0)
        config = AlgorithmConfig(
            learning_rate=0.05,
            sigma=0.5,
            clip_threshold=1.0,
            batch_size=8,
            seed=0,
        )
        return DPDPSGD(model, topology, shards, config)

    def cases(self) -> Iterator[Case]:
        from repro.bench.reference import reference_round

        for num_agents in self.agent_counts:
            reference, pipeline = self.build(num_agents), self.build(num_agents)
            sides = {
                "loop": _calls(reference_round, reference, times=self.rounds),
                "vectorized": _calls(pipeline.run_round, times=self.rounds),
            }
            check = partial(self.check_agree, reference, pipeline)
            yield Case(str(num_agents), sides, check, units=self.rounds)

    @staticmethod
    def check_agree(reference, pipeline, outputs: Dict[str, object]) -> None:
        """The comparison only means something while both run one algorithm."""
        np.testing.assert_allclose(reference.state, pipeline.state, rtol=1e-9, atol=1e-12)
        assert reference.network.messages_sent == pipeline.network.messages_sent

    def floor_context(self) -> Tuple[bool, str]:
        largest = max(self.agent_counts)
        return largest >= self.FULL_SCALE_AGENTS, str(largest)


# ---------------------------------------------------------------------------
# engine/async-round
# ---------------------------------------------------------------------------
@benchmark
class AsyncRoundSuite(Benchmark):
    """The event-driven time model's overhead and throughput.

    For ``N`` in ``REPRO_BENCH_ASYNC_AGENTS`` (default 4096) on a ring:

    * ``barrier_events_per_s@N`` / ``async_events_per_s@N`` — discrete
      events processed per real second in each mode;
    * ``sim_real_ratio@N`` — simulated seconds produced per real second of
      simulation (how much faster than reality the simulator runs on the
      heterogeneous trace fleet);
    * ``barrier_overhead@N`` — barrier-mode wall time over the bare
      synchronous round (the cost of simulating time at all).

    Correctness is embedded: before timing, small barrier runs on unit and
    synthetic traces are checked bit-identical to the bare synchronous round.
    """

    name = "engine/async-round"
    description = "event-driven time model: events/sec and simulated-vs-real ratio"
    default_repeats = 1
    default_warmup = False

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_ASYNC_AGENTS", "4096")
        self.rounds = _env_int("REPRO_BENCH_ASYNC_ROUNDS", 3)

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "rounds": self.rounds}

    @staticmethod
    def build(num_agents: int, wrap: str = "bare"):
        """A ring DP-DPSGD fleet, bare or barrier-wrapped; async-wrapped, the
        same fleet as DMSGD with zero momentum (async mode runs DMSGD only)."""
        from repro.baselines import DMSGD, DPDPSGD
        from repro.core.config import AlgorithmConfig
        from repro.data.partition import partition_iid
        from repro.data.synthetic import make_classification_dataset
        from repro.nn.zoo import make_linear_classifier
        from repro.simulation.events import (
            AsyncEngine,
            synthetic_traces,
            uniform_traces,
        )
        from repro.topology.graphs import ring_graph

        data = make_classification_dataset(
            num_samples=max(2048, 4 * num_agents),
            num_features=16,
            num_classes=4,
            cluster_std=1.0,
            seed=0,
        )
        shards = partition_iid(data, num_agents, np.random.default_rng(0)).shards
        model = make_linear_classifier(16, 4, seed=0)
        config = AlgorithmConfig(
            learning_rate=0.05,
            sigma=0.5,
            clip_threshold=1.0,
            batch_size=4,
            seed=0,
        )
        if wrap == "async":
            return AsyncEngine(
                DMSGD(model, ring_graph(num_agents), shards, config),
                traces=synthetic_traces(num_agents, seed=1),
                async_mode=True,
            )
        algorithm = DPDPSGD(model, ring_graph(num_agents), shards, config)
        if wrap == "bare":
            return algorithm
        if wrap == "barrier":
            return AsyncEngine(algorithm, traces=uniform_traces(num_agents))
        raise ValueError(f"unknown wrap mode {wrap!r}")

    def _check_bit_identity(self) -> None:
        """Barrier mode must reproduce the bare engine exactly, under any traces."""
        from repro.simulation.events import AsyncEngine, synthetic_traces, uniform_traces

        n = min(64, min(self.agent_counts))
        bare = self.build(n, "bare")
        wrapped = [
            AsyncEngine(self.build(n, "bare"), traces=traces)
            for traces in (uniform_traces(n), synthetic_traces(n, seed=1))
        ]
        for _ in range(2):
            for algorithm in (bare, *wrapped):
                algorithm.run_round()
        for engine in wrapped:
            np.testing.assert_array_equal(bare.state, engine.state)

    def run(self) -> Dict[str, float]:
        self._check_bit_identity()
        metrics: Dict[str, float] = {}
        for num_agents in self.agent_counts:
            bare_s = _timed(
                self.build(num_agents, "bare").run_round,
                rounds=self.rounds,
                warm=False,
            )
            barrier = self.build(num_agents, "barrier")
            barrier_s = _timed(barrier.run_round, rounds=self.rounds, warm=False)
            async_engine = self.build(num_agents, "async")
            started = time.perf_counter()
            for _ in range(self.rounds):
                async_engine.run_round()
            async_total = time.perf_counter() - started
            metrics[f"bare_s@{num_agents}"] = bare_s
            metrics[f"barrier_s@{num_agents}"] = barrier_s
            metrics[f"barrier_overhead@{num_agents}"] = (
                barrier_s / bare_s if bare_s > 0 else float("inf")
            )
            metrics[f"barrier_events_per_s@{num_agents}"] = (
                barrier.events_processed / (barrier_s * self.rounds)
                if barrier_s > 0
                else float("inf")
            )
            metrics[f"async_s@{num_agents}"] = async_total / self.rounds
            metrics[f"async_events_per_s@{num_agents}"] = (
                async_engine.events_processed / async_total
                if async_total > 0
                else float("inf")
            )
            metrics[f"sim_real_ratio@{num_agents}"] = (
                async_engine.simulated_time / async_total
                if async_total > 0
                else float("inf")
            )
            metrics[f"utilization@{num_agents}"] = async_engine.mean_utilization()
        largest = max(self.agent_counts)
        metrics["async_events_per_s"] = metrics[f"async_events_per_s@{largest}"]
        metrics["sim_real_ratio"] = metrics[f"sim_real_ratio@{largest}"]
        assert metrics["async_events_per_s"] > 0
        assert metrics["sim_real_ratio"] > 0
        return metrics


# ---------------------------------------------------------------------------
# engine/round-streamed
# ---------------------------------------------------------------------------
@benchmark
class StreamedRoundSuite(Benchmark):
    """A full streamed DP-DPSGD round across fleet sizes up to a million agents.

    Where ``gossip/scaling-sweep`` times the mixing kernel in isolation,
    this suite times one *complete* communication round — blocked batch
    drawing, stacked gradient passes, per-agent clip + Gaussian noise, codec
    and gossip — through the streamed pipeline (``block_rows`` +
    ``storage="memmap"``), on a ``ring_graph`` with one shared data shard and a
    small linear model so the per-agent work (batch draws and gathers,
    noise rows, gossip rows) dominates exactly as it does at fleet scale.

    Metrics per ``N`` in ``REPRO_BENCH_ROUND_AGENTS``:

    * ``round_s@N`` — seconds for one streamed serial round;
    * ``workersK_s@N`` — the same round with ``block_workers=K``
      (``REPRO_BENCH_ROUND_WORKERS``), numerically identical by
      construction;
    * ``oneshot_s@N`` — the in-RAM round at the default block size
      (``block_rows=None``, auto-sized to ~32 MiB, so one block at these
      sizes; the metric keeps its historical name), only at sizes where
      the bit-identity check runs (streamed vs default state asserted
      equal).

    Too-large points are skipped (never failed) through the shared memory
    guard, with reasons recorded in the artifact notes; ``max_agents``
    reports the ceiling actually reached.
    """

    name = "engine/round-streamed"
    description = "full streamed round (gradients+noise+gossip) across N, memory-guarded"
    default_repeats = 1
    default_warmup = False
    #: Streamed-vs-default bit-identity is asserted in-sweep up to this N
    #: (cheap); beyond it the property-test grid owns the guarantee.
    BIT_CHECK_MAX_AGENTS = 4096
    NUM_FEATURES = 4
    NUM_CLASSES = 2

    def __init__(self) -> None:
        self.agent_counts = _env_ints(
            "REPRO_BENCH_ROUND_AGENTS", "4096,65536,262144,1048576"
        )
        self.block_workers = _env_int("REPRO_BENCH_ROUND_WORKERS", 4, minimum=1)
        self.batch_size = _env_int("REPRO_BENCH_ROUND_BATCH", 16)
        self._sizes: List[int] = []
        self._notes: Dict[str, str] = {}
        self._dataset = None

    def params(self) -> Dict[str, object]:
        return {
            "agents": self.agent_counts,
            "block_workers": self.block_workers,
            "batch_size": self.batch_size,
        }

    def notes(self) -> Dict[str, str]:
        return dict(self._notes)

    def point_memory_bytes(self, num_agents: int) -> int:
        """Steady-state estimate for one sweep point.

        A conservative per-agent allowance covers the per-agent entries
        (the shard list, flat-shard bounds, the round's batch index rows,
        the network mailbox and the 3-entry CSR row); the memmap-backed
        fleet buffers (state, momentum, gradient and gossip scratch) stay
        resident as dirty page cache until writeback, so they count too.
        """
        dimension = (
            self.NUM_FEATURES * self.NUM_CLASSES + self.NUM_CLASSES
        )
        return num_agents * (3400 + 6 * dimension * 8) + (64 << 20)

    def setup(self) -> None:
        from repro.bench.guard import check_memory
        from repro.data.synthetic import make_classification_dataset

        self._sizes = []
        self._notes = {}
        for num_agents in self.agent_counts:
            decision = check_memory(self.point_memory_bytes(num_agents))
            if not decision.fits:
                self._notes[f"skip@{num_agents}"] = decision.reason
                continue
            self._sizes.append(num_agents)
        # One tiny shard shared by every agent: the suite measures the round
        # pipeline, not data loading, and a per-agent shard list at N = 10^6
        # would cost more memory than the fleet state itself.
        self._dataset = make_classification_dataset(
            num_samples=64,
            num_features=self.NUM_FEATURES,
            num_classes=self.NUM_CLASSES,
            cluster_std=1.0,
            seed=0,
        )

    def teardown(self) -> None:
        self._dataset = None

    def _build(self, num_agents: int, **overrides):
        from repro.baselines import DPDPSGD
        from repro.core.config import AlgorithmConfig
        from repro.nn.zoo import make_linear_classifier
        from repro.topology.graphs import ring_graph

        config = AlgorithmConfig(
            learning_rate=0.05,
            sigma=0.5,
            clip_threshold=1.0,
            batch_size=self.batch_size,
            seed=0,
            **overrides,
        )
        model = make_linear_classifier(self.NUM_FEATURES, self.NUM_CLASSES, seed=0)
        return DPDPSGD(
            model,
            ring_graph(num_agents),
            [self._dataset] * num_agents,
            config,
        )

    def _round_seconds(self, num_agents: int, **overrides) -> Tuple[float, np.ndarray]:
        algorithm = self._build(num_agents, **overrides)
        try:
            started = time.perf_counter()
            algorithm.run_round()
            elapsed = time.perf_counter() - started
            state = (
                np.array(algorithm.state)
                if num_agents <= self.BIT_CHECK_MAX_AGENTS
                else np.empty(0)
            )
        finally:
            close = getattr(algorithm, "close", None)
            if close is not None:
                close()
        return elapsed, state

    def run(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for num_agents in self._sizes:
            # ~4 blocks at small N (so the sweep exercises real block
            # boundaries), capped at 64k rows per block at fleet scale.
            streamed = dict(
                block_rows=min(65536, max(1, num_agents // 4)),
                storage="memmap",
            )
            seconds, state = self._round_seconds(num_agents, **streamed)
            metrics[f"round_s@{num_agents}"] = seconds
            if self.block_workers > 1:
                workers_s, workers_state = self._round_seconds(
                    num_agents, block_workers=self.block_workers, **streamed
                )
                metrics[f"workers{self.block_workers}_s@{num_agents}"] = workers_s
                if state.size:
                    np.testing.assert_array_equal(state, workers_state)
            if num_agents <= self.BIT_CHECK_MAX_AGENTS:
                oneshot_s, oneshot_state = self._round_seconds(num_agents)
                metrics[f"oneshot_s@{num_agents}"] = oneshot_s
                # The streamed round is bit-identical to the default-block
                # round — asserted in-sweep, every run.
                np.testing.assert_array_equal(state, oneshot_state)
        metrics["max_agents"] = float(max(self._sizes, default=0))
        peak = peak_rss_bytes()
        if peak is not None:
            metrics["peak_rss_bytes"] = float(peak)
        return metrics


# ---------------------------------------------------------------------------
# gossip/sparse
# ---------------------------------------------------------------------------
@benchmark
class SparseGossipSuite(Benchmark):
    """The CSR mixing kernel vs a dense sum-of-products over the same ``W``.

    The dense baseline is ``np.einsum`` over ``operator.toarray()`` — the
    sequential accumulation the CSR kernel is pinned to — and the two are
    asserted bit-identical every round; ``blas_s@label`` times the raw
    ``W @ X`` BLAS product for reference.
    """

    name = "gossip/sparse"
    description = "dense einsum vs CSR gossip kernel, seconds per W @ X apply"
    floor = FloorSpec(
        "speedup", 10.0, min_cpus=2, min_baseline_seconds=0.05, ratio=("dense", "csr")
    )
    default_repeats = 5
    FULL_SCALE_AGENTS = 4096

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_SPARSE_AGENTS", "1024,4096")
        self.rounds = _env_int("REPRO_BENCH_SPARSE_ROUNDS", 2)
        self.dimension = _env_int("REPRO_BENCH_SPARSE_DIM", 64)

    def params(self) -> Dict[str, object]:
        return {
            "agents": self.agent_counts,
            "rounds": self.rounds,
            "dimension": self.dimension,
        }

    @staticmethod
    def build_topologies(num_agents: int):
        """``(label, topology)`` for a ring and the nearest square torus."""
        from repro.topology.graphs import ring_graph, torus_graph

        side = max(3, int(round(math.sqrt(num_agents))))
        return [
            (f"ring/{num_agents}", ring_graph(num_agents)),
            (f"torus/{side * side}", torus_graph(side)),
        ]

    def cases(self) -> Iterator[Case]:
        for num_agents in self.agent_counts:
            for label, topology in self.build_topologies(num_agents):
                operator = topology.mixing_operator()
                dense_w = operator.toarray()
                state = np.random.default_rng(0).normal(
                    size=(topology.num_agents, self.dimension)
                )
                times = self.rounds
                sides = {
                    "dense": _calls(np.einsum, "ij,jk->ik", dense_w, state, times=times),
                    "csr": _calls(operator.apply, state, times=times),
                    "blas": _calls(np.matmul, dense_w, state, times=times),
                }
                check = partial(self.check_bitwise, {f"nnz@{label}": float(operator.nnz)})
                yield Case(label, sides, check, units=self.rounds)

    @staticmethod
    def check_bitwise(
        nnz: Dict[str, float], outputs: Dict[str, object]
    ) -> Dict[str, float]:
        """Both kernels must compute the same gossip step, bit for bit."""
        np.testing.assert_array_equal(outputs["dense"], outputs["csr"])
        return nnz

    def floor_context(self) -> Tuple[bool, str]:
        largest = max(self.agent_counts)
        return largest >= self.FULL_SCALE_AGENTS, f"ring/{largest}"


# ---------------------------------------------------------------------------
# gossip/compressed
# ---------------------------------------------------------------------------
@benchmark
class CompressedGossipSuite(Benchmark):
    """Dense vs compressed gossip: wire bytes and seconds per DP-DPSGD round.

    The headline metric is ``bytes_reduction`` — dense network bytes divided
    by top-k (``k = d // 10``) network bytes on a ring fleet — with int8
    quantization reported alongside.  Random-k (same ``k``) runs too and
    must put exactly top-k's bytes on the wire: both sparsifiers send ``k``
    (value, index) pairs per message.  The identity codec is also run and
    asserted bit-identical (states and byte counters) to the uncompressed
    path, so the compressed engine cannot silently diverge from the
    trajectory every other suite measures.
    """

    name = "gossip/compressed"
    description = "dense vs top-k/random-k vs int8 gossip, wire bytes per round"
    floor = FloorSpec(
        metric="bytes_reduction", minimum=4.0, min_cpus=1, min_baseline_seconds=0.0
    )
    default_repeats = 1
    default_warmup = False
    FULL_SCALE_AGENTS = 1024

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_COMPRESS_AGENTS", "1024")
        self.rounds = _env_int("REPRO_BENCH_COMPRESS_ROUNDS", 2)

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "rounds": self.rounds}

    @staticmethod
    def build(num_agents: int, compression: Optional[Dict[str, object]]):
        """One vectorized DP-DPSGD instance on a ring, optionally compressed."""
        from repro.baselines import DPDPSGD
        from repro.core.config import AlgorithmConfig
        from repro.data.partition import partition_iid
        from repro.data.synthetic import make_classification_dataset
        from repro.nn.zoo import make_linear_classifier
        from repro.topology.graphs import ring_graph

        data = make_classification_dataset(
            num_samples=max(2048, 8 * num_agents),
            num_features=16,
            num_classes=4,
            cluster_std=1.0,
            seed=0,
        )
        shards = partition_iid(data, num_agents, np.random.default_rng(0)).shards
        topology = ring_graph(num_agents)
        model = make_linear_classifier(16, 4, seed=0)
        config = AlgorithmConfig(
            learning_rate=0.05,
            sigma=0.5,
            clip_threshold=1.0,
            batch_size=8,
            seed=0,
            compression=compression,
        )
        return DPDPSGD(model, topology, shards, config)

    def _measure(self, num_agents: int, compression) -> Tuple[float, float]:
        """(seconds per round, network bytes per round) for one variant."""
        algorithm = self.build(num_agents, compression)
        seconds = _timed(algorithm.run_round, rounds=self.rounds, warm=False)
        total_rounds = self.rounds  # no warm-up call above
        return seconds, algorithm.network.bytes_sent / total_rounds

    def run(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for num_agents in self.agent_counts:
            # Identity codec must be bit-identical to the uncompressed path:
            # same trajectory, same float and byte counters.
            plain = self.build(num_agents, None)
            identity = self.build(num_agents, {"codec": "identity"})
            for _ in range(self.rounds):
                plain.run_round()
                identity.run_round()
            np.testing.assert_array_equal(plain.state, identity.state)
            assert plain.network.floats_sent == identity.network.floats_sent
            assert plain.network.bytes_sent == identity.network.bytes_sent

            dense_s, dense_b = self._measure(num_agents, None)
            topk_s, topk_b = self._measure(num_agents, {"codec": "topk"})
            randomk_s, randomk_b = self._measure(num_agents, {"codec": "randomk"})
            int8_s, int8_b = self._measure(num_agents, {"codec": "int8"})
            assert randomk_b == topk_b, (randomk_b, topk_b)
            metrics[f"dense_s@{num_agents}"] = dense_s
            metrics[f"topk_s@{num_agents}"] = topk_s
            metrics[f"randomk_s@{num_agents}"] = randomk_s
            metrics[f"int8_s@{num_agents}"] = int8_s
            metrics[f"dense_bytes@{num_agents}"] = dense_b
            metrics[f"topk_bytes@{num_agents}"] = topk_b
            metrics[f"randomk_bytes@{num_agents}"] = randomk_b
            metrics[f"int8_bytes@{num_agents}"] = int8_b
            metrics[f"bytes_reduction@{num_agents}"] = dense_b / topk_b
            metrics[f"bytes_reduction_int8@{num_agents}"] = dense_b / int8_b
        largest = max(self.agent_counts)
        metrics["bytes_reduction"] = metrics[f"bytes_reduction@{largest}"]
        metrics["bytes_reduction_int8"] = metrics[f"bytes_reduction_int8@{largest}"]
        return metrics

    def floor_context(self) -> Tuple[bool, str]:
        return max(self.agent_counts) >= self.FULL_SCALE_AGENTS, ""


# ---------------------------------------------------------------------------
# gossip/scaling-sweep
# ---------------------------------------------------------------------------
@benchmark
class GossipScalingSweepSuite(Benchmark):
    """Gossip kernels across fleet sizes, up to the machine's memory ceiling.

    For every ``N`` in ``REPRO_BENCH_SWEEP_AGENTS`` the suite times the
    kernels the million-agent scaling work added, on a ring fleet:

    * ``seconds@N`` — one-shot CSR ``W @ X``;
    * ``blocked_s@N`` — :meth:`MixingOperator.mix_rows_blocked` with the
      auto-sized row block (bit-identity vs one-shot asserted at N <= 4096);
    * ``f32_s@N`` / ``mixed_s@N`` — float32 state through the dtype-aware
      kernel and the mixed-precision (float64-accumulate) kernel.

    Points that would not fit in RAM are **skipped, not failed**, through
    the shared memory guard; each skip's reason is recorded in the
    artifact's ``notes`` (``"skip@262144": "needs ..."``), and
    ``max_agents`` reports the ceiling the sweep actually reached.
    """

    name = "gossip/scaling-sweep"
    description = "gossip kernels across N (blocked/f32/mixed), memory-guarded"
    default_repeats = 3
    #: Bit-identity of the blocked kernel is asserted up to this N (cheap);
    #: beyond it the property tests own the guarantee.
    BIT_CHECK_MAX_AGENTS = 4096

    def __init__(self) -> None:
        self.agent_counts = _env_ints(
            "REPRO_BENCH_SWEEP_AGENTS", "256,1024,4096,16384,65536,262144"
        )
        self.dimension = _env_int("REPRO_BENCH_SPARSE_DIM", 64)
        self._cases: List[Dict[str, object]] = []
        self._notes: Dict[str, str] = {}

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "dimension": self.dimension}

    def notes(self) -> Dict[str, str]:
        return dict(self._notes)

    def point_memory_bytes(self, num_agents: int) -> int:
        """Steady-state estimate for one sweep point.

        float64 state + transient output (16 B/coord), float32 state +
        output (8 B/coord), the mixed kernel's block accumulator (bounded),
        the ring CSR (~3 nonzeros/row) plus its cached float32 cast.
        """
        return num_agents * self.dimension * 24 + num_agents * 64

    def setup(self) -> None:
        # Graph/operator construction is not what this suite measures —
        # build once, outside the timed lifecycle, so repeats denoise the
        # apply timings instead of re-timing construction.  Each point is
        # memory-guarded here: too-large Ns are dropped with their reason
        # noted, never attempted.
        from repro.bench.guard import check_memory
        from repro.sharding import resolve_block_rows
        from repro.topology.graphs import ring_graph

        self._cases = []
        self._notes = {}
        for num_agents in self.agent_counts:
            decision = check_memory(self.point_memory_bytes(num_agents))
            if not decision.fits:
                self._notes[f"skip@{num_agents}"] = decision.reason
                continue
            operator = ring_graph(num_agents).mixing_operator()
            state = np.random.default_rng(0).normal(
                size=(num_agents, self.dimension)
            )
            block_rows = resolve_block_rows(num_agents, self.dimension)
            if num_agents <= self.BIT_CHECK_MAX_AGENTS:
                np.testing.assert_array_equal(
                    operator.apply(state),
                    operator.mix_rows_blocked(state, block_rows),
                )
            self._cases.append(
                {
                    "num_agents": num_agents,
                    "operator": operator,
                    "state": state,
                    "state_f32": state.astype(np.float32),
                    "block_rows": block_rows,
                }
            )

    def teardown(self) -> None:
        self._cases = []

    def run(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for case in self._cases:
            num_agents = case["num_agents"]
            operator = case["operator"]
            state = case["state"]
            state_f32 = case["state_f32"]
            block_rows = case["block_rows"]
            metrics[f"seconds@{num_agents}"] = _timed(operator.apply, state)
            metrics[f"blocked_s@{num_agents}"] = _timed(
                operator.mix_rows_blocked, state, block_rows
            )
            metrics[f"f32_s@{num_agents}"] = _timed(operator.apply, state_f32)
            metrics[f"mixed_s@{num_agents}"] = _timed(
                operator.apply_mixed, state_f32, block_rows
            )
            metrics[f"nnz@{num_agents}"] = float(operator.nnz)
            metrics[f"block_rows@{num_agents}"] = float(block_rows)
        metrics["max_agents"] = float(
            max((case["num_agents"] for case in self._cases), default=0)
        )
        return metrics


# ---------------------------------------------------------------------------
# topology/dynamic-cache
# ---------------------------------------------------------------------------
@benchmark
class DynamicTopologyCacheSuite(Benchmark):
    """Snapshot LRU vs naive rebuild: seconds per ``operator_at(t)``.

    Each timed call builds a fresh schedule and queries ``rounds`` rounds of
    it: the snapshot cache (``cached``), the cache defeated (``naive``) and
    the fully dynamic worst case, a fresh straggler mask every round
    (``allmiss``).  Every round checks the cache's bookkeeping.
    """

    name = "topology/dynamic-cache"
    description = "schedule snapshot LRU vs naive rebuild, seconds per round"
    floor = FloorSpec(
        "speedup", 5.0, min_cpus=2, min_baseline_seconds=0.05, ratio=("naive", "cached")
    )
    default_repeats = 5
    FULL_SCALE_AGENTS = 1024

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_DYNTOPO_AGENTS", "256,1024")
        self.rounds = _env_int("REPRO_BENCH_DYNTOPO_ROUNDS", 60, minimum=2)
        self.period = _env_int("REPRO_BENCH_DYNTOPO_PERIOD", 20)

    def params(self) -> Dict[str, object]:
        return {
            "agents": self.agent_counts,
            "rounds": self.rounds,
            "period": self.period,
        }

    @staticmethod
    def naive(base, rewire_every: int, seed: int):
        """A schedule with the snapshot cache defeated: rebuild every round."""
        from repro.topology.schedule import DynamicTopologySchedule

        class NaiveRebuildSchedule(DynamicTopologySchedule):
            def topology_at(self, round_index: int):
                return self._build(self._key_at(round_index))

        return NaiveRebuildSchedule(base, rewire_every=rewire_every, seed=seed)

    def sweep(self, make_schedule, **kwargs):
        """Build a fresh schedule and query each of its ``rounds`` rounds."""
        schedule = make_schedule(**kwargs)
        for t in range(self.rounds):
            schedule.operator_at(t)
        return schedule

    def cases(self) -> Iterator[Case]:
        from repro.topology.graphs import ring_graph
        from repro.topology.schedule import (
            periodic_rewiring_schedule,
            straggler_schedule,
        )

        for num_agents in self.agent_counts:
            base = ring_graph(num_agents)
            sweep = partial(self.sweep, base=base, seed=0)
            sides = {
                "cached": partial(
                    sweep, periodic_rewiring_schedule, rewire_every=self.period
                ),
                "naive": partial(sweep, self.naive, rewire_every=self.period),
                "allmiss": partial(sweep, straggler_schedule, straggler_fraction=0.1),
            }
            yield Case(str(num_agents), sides, self.check_cache, units=self.rounds)

    def check_cache(self, outputs: Dict[str, object]) -> None:
        # Epochs are visited contiguously, so the cache builds each distinct
        # graph exactly once: misses = ceil(rounds / period).
        info = outputs["cached"].cache_info()
        assert info["misses"] == -(-self.rounds // self.period)
        assert info["hits"] + info["misses"] == self.rounds

    def floor_context(self) -> Tuple[bool, str]:
        largest = max(self.agent_counts)
        return largest >= self.FULL_SCALE_AGENTS, str(largest)


# ---------------------------------------------------------------------------
# orchestrator/pool
# ---------------------------------------------------------------------------
@benchmark
class OrchestratorPoolSuite(Benchmark):
    """Serial vs pooled grid execution (identical histories asserted)."""

    name = "orchestrator/pool"
    description = "process-pool grid vs serial execution, plus the warm store"
    floor = FloorSpec(
        "speedup", 2.0, min_cpus=4, min_baseline_seconds=1.0, ratio=("serial", "pooled")
    )
    default_repeats = 5

    def __init__(self) -> None:
        self.jobs = _env_int("REPRO_BENCH_ORCH_JOBS", 8, minimum=2)
        self.rounds = _env_int("REPRO_BENCH_ORCH_ROUNDS", 150)
        self.agents = _env_int("REPRO_BENCH_ORCH_AGENTS", 12, minimum=2)
        self.workers = _env_int("REPRO_BENCH_ORCH_WORKERS", 4, minimum=2)
        self._root: Optional[str] = None

    def params(self) -> Dict[str, object]:
        # Deliberately excludes the host CPU count: params are the
        # *comparability key* for `repro-bench compare` and the host is
        # already recorded in the artifact's `host` block — keying on CPUs
        # would exempt this suite from the gate across machines.
        return {
            "jobs": self.jobs,
            "rounds": self.rounds,
            "agents": self.agents,
            "workers": self.workers,
        }

    def build_grid(self):
        """2 algorithms x (jobs/2) seeds: the paper's comparison shape."""
        from repro.experiments.specs import ExperimentGrid, fast_spec

        algorithms = ["DMSGD", "DP-DPSGD"]
        seeds = list(range(7, 7 + self.jobs // len(algorithms)))
        base = fast_spec(
            num_agents=self.agents,
            num_rounds=self.rounds,
            algorithms=algorithms,
        )
        # Strided evaluation keeps the benchmark training-bound rather than
        # evaluation-bound, like a real sweep.
        base = base.with_updates(eval_every=max(1, self.rounds // 3))
        return ExperimentGrid(base=base, algorithms=algorithms, seeds=seeds)

    def setup(self) -> None:
        self._root = tempfile.mkdtemp(prefix="repro-bench-orch-")

    def teardown(self) -> None:
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    def cases(self) -> Iterator[Case]:
        from pathlib import Path

        from repro.experiments.orchestrator import run_grid

        assert self._root is not None, "setup() must run first"
        root = Path(self._root)
        stores = itertools.count()

        def fresh(workers: int):
            """The grid into a new store, so every call trains every cell."""
            return run_grid(self.build_grid(), root / f"run-{next(stores)}", workers)

        # The cached side's warm-up call trains into its store; every timed
        # call after it is served from there.
        sides = {
            "serial": partial(fresh, 1),
            "pooled": partial(fresh, self.workers),
            "cached": lambda: run_grid(self.build_grid(), root / "warm", workers=1),
        }
        yield Case("", sides, self.check_histories)

    def check_histories(self, outputs: Dict[str, object]) -> None:
        """Worker placement must not change any cell, and the warm pass must
        serve the identical stored histories without training."""
        from repro.simulation.metrics import histories_equal

        serial, pooled, cached = outputs["serial"], outputs["pooled"], outputs["cached"]
        assert [r.status for r in serial] == ["done"] * self.jobs
        assert [r.status for r in pooled] == ["done"] * self.jobs
        assert [r.status for r in cached] == ["cached"] * self.jobs
        for a, b, c in zip(serial, pooled, cached):
            assert histories_equal(a.history, b.history)
            assert histories_equal(a.history, c.history)


# ---------------------------------------------------------------------------
# checkpoint/roundtrip
# ---------------------------------------------------------------------------
@benchmark
class CheckpointRoundtripSuite(Benchmark):
    """``state_dict`` → ``save_checkpoint`` → ``load_checkpoint`` → restore."""

    name = "checkpoint/roundtrip"
    description = "checkpoint save/load round-trip of a trained fleet"
    default_repeats = 3

    def __init__(self) -> None:
        self.agents = _env_int("REPRO_BENCH_CKPT_AGENTS", 64, minimum=2)
        self.trained_rounds = _env_int("REPRO_BENCH_CKPT_ROUNDS", 2)
        self._algorithm = None
        self._dir: Optional[str] = None

    def params(self) -> Dict[str, object]:
        return {"agents": self.agents, "trained_rounds": self.trained_rounds}

    def setup(self) -> None:
        self._algorithm = EngineRoundSuite.build(self.agents)
        for _ in range(self.trained_rounds):
            self._algorithm.run_round()
        self._dir = tempfile.mkdtemp(prefix="repro-bench-ckpt-")

    def teardown(self) -> None:
        self._algorithm = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def run(self) -> Dict[str, float]:
        import os as _os

        from repro.simulation.checkpoint import load_checkpoint, save_checkpoint

        assert self._algorithm is not None and self._dir is not None
        path = _os.path.join(self._dir, "round_000002.ckpt")

        started = time.perf_counter()
        state = self._algorithm.state_dict()
        save_checkpoint(path, {"algorithm_state": state})
        save_s = time.perf_counter() - started

        started = time.perf_counter()
        payload = load_checkpoint(path)
        self._algorithm.load_state_dict(payload["algorithm_state"])
        load_s = time.perf_counter() - started

        return {
            "save_s": save_s,
            "load_s": load_s,
            "roundtrip_s": save_s + load_s,
            "checkpoint_bytes": float(_os.path.getsize(path)),
        }


# ---------------------------------------------------------------------------
# game/shapley-mc
# ---------------------------------------------------------------------------
@benchmark
class MonteCarloShapleySuite(Benchmark):
    """Permutation-sampling Shapley on the neighbourhood-sized games PDSL plays.

    Times :func:`~repro.game.shapley.monte_carlo_shapley` on a
    ``REPRO_BENCH_SHAPLEY_PLAYERS``-player game with a cheap superadditive
    characteristic, so the walk's bookkeeping, not the characteristic,
    dominates, and reports how many unique coalitions it evaluated.
    """

    name = "game/shapley-mc"
    description = "Monte-Carlo Shapley: the permutation walk on a small game"
    default_repeats = 3

    def __init__(self) -> None:
        self.players = _env_int("REPRO_BENCH_SHAPLEY_PLAYERS", 12, minimum=2)
        self.permutations = _env_int("REPRO_BENCH_SHAPLEY_PERMS", 200)
        self._weights: Optional[np.ndarray] = None

    def params(self) -> Dict[str, object]:
        return {"players": self.players, "permutations": self.permutations}

    def setup(self) -> None:
        self._weights = np.random.default_rng(3).normal(size=self.players) ** 2

    def run(self) -> Dict[str, float]:
        from repro.game.cooperative import CooperativeGame
        from repro.game.shapley import monte_carlo_shapley

        weights = self._weights
        assert weights is not None

        def characteristic(coalition) -> float:
            members = np.fromiter(coalition, dtype=np.int64)
            linear = float(weights[members].sum())
            return linear + 0.01 * len(members) ** 2  # superadditive interaction

        # A fresh game per call: memoisation must not carry across repeats,
        # or the repeated timings would measure the cache, not the estimator.
        game = CooperativeGame(list(range(self.players)), characteristic)
        monte_carlo_shapley(game, self.permutations, np.random.default_rng(0))
        return {
            "unique_coalitions": float(game.num_evaluations),
            "permutations": float(self.permutations),
        }


# ---------------------------------------------------------------------------
# privacy/noise-rows
# ---------------------------------------------------------------------------
@benchmark
class NoiseRowsSuite(Benchmark):
    """Row-wise clip + Gaussian noise at fleet width, as one round draws it.

    Times the counter-based noise draw of one row per agent
    (:meth:`~repro.core.streams.FleetStreams.normal_rows`, one Philox call
    plus Box–Muller for the whole block) added to a clipped stack.
    """

    name = "privacy/noise-rows"
    description = "batched Gaussian noise rows (the per-round privatize path)"
    default_repeats = 3

    def __init__(self) -> None:
        self.agents = _env_int("REPRO_BENCH_NOISE_AGENTS", 4096, minimum=2)
        self.dimension = _env_int("REPRO_BENCH_NOISE_DIM", 64)
        self._matrix: Optional[np.ndarray] = None

    def params(self) -> Dict[str, object]:
        return {"agents": self.agents, "dimension": self.dimension}

    def setup(self) -> None:
        from repro.privacy.mechanisms import clip_rows_by_l2_norm

        matrix = np.random.default_rng(0).normal(size=(self.agents, self.dimension))
        self._matrix = clip_rows_by_l2_norm(matrix, 1.0)

    def run(self) -> Dict[str, float]:
        from repro.core.streams import FleetStreams

        clipped = self._matrix
        assert clipped is not None
        streams = FleetStreams(0)
        agents = np.arange(self.agents)
        started = time.perf_counter()
        clipped + 0.5 * streams.normal_rows(
            0, agents, np.zeros(self.agents, dtype=np.int64), self.dimension
        )
        batched_s = time.perf_counter() - started
        return {
            "batched_s": batched_s,
            "rows_per_second": (
                self.agents / batched_s if batched_s > 0 else float("inf")
            ),
        }


# ---------------------------------------------------------------------------
# attacks/inversion-fleet
# ---------------------------------------------------------------------------
@benchmark
class FleetInversionSuite(Benchmark):
    """Fleet gradient inversion vs the sequential per-victim loop.

    One :class:`~repro.attacks.FleetInversionAttack` run reconstructs all
    ``N`` victims through stacked ``(N, B, ...)`` evaluations — one model
    pass per SPSA probe instead of ``N``.  The sequential baseline is the
    exact per-victim loop a pre-fleet analysis campaign would run:
    ``GradientInversionAttack.run`` per victim, seeded from the same
    :func:`~repro.attacks.inversion_stream` RNG streams.  Every round checks
    the two bit-identical (reconstructions, labels, matching losses), so the
    speedup can never come from computing something different.
    """

    name = "attacks/inversion-fleet"
    description = "fleet vs per-victim gradient inversion, seconds per attack"
    floor = FloorSpec(
        "speedup", 10.0, min_cpus=1, min_baseline_seconds=0.2, ratio=("sequential", "fleet")
    )
    default_repeats = 5
    FULL_SCALE_AGENTS = 256

    def __init__(self) -> None:
        self.agents = _env_int("REPRO_BENCH_ATTACK_AGENTS", 256, minimum=2)
        self.iterations = _env_int("REPRO_BENCH_ATTACK_ITERS", 25)
        self.batch = _env_int("REPRO_BENCH_ATTACK_BATCH", 4)

    def params(self) -> Dict[str, object]:
        return {
            "agents": self.agents,
            "iterations": self.iterations,
            "batch": self.batch,
        }

    @staticmethod
    def build_model():
        from repro.nn.zoo import make_linear_classifier

        return make_linear_classifier(16, 4, seed=0)

    def cases(self) -> Iterator[Case]:
        from repro.attacks import (
            FleetInversionAttack,
            GradientInversionAttack,
            inversion_stream,
        )
        from repro.nn.batched import StackedSequential

        model = self.build_model()
        rng = np.random.default_rng(0)
        params = rng.normal(size=model.num_params)
        inputs = rng.normal(size=(self.agents, self.batch, 16))
        labels = rng.integers(0, 4, size=(self.agents, self.batch))
        _, observed = StackedSequential(model).loss_and_gradients(
            np.broadcast_to(params, (self.agents, model.num_params)),
            inputs,
            labels,
        )
        seed = 1
        fleet = FleetInversionAttack(
            model, num_classes=4, iterations=self.iterations, seed=seed
        )

        def sequential():
            return [
                GradientInversionAttack(
                    model,
                    num_classes=4,
                    iterations=self.iterations,
                    rng=inversion_stream(seed, victim),
                ).run(observed[victim], params, self.batch, (16,))
                for victim in range(self.agents)
            ]

        def check_bitwise(outputs: Dict[str, object]) -> Dict[str, float]:
            batched = outputs["fleet"]
            for victim, single in enumerate(outputs["sequential"]):
                np.testing.assert_array_equal(
                    batched.reconstructed_inputs[victim], single.reconstructed_inputs
                )
                np.testing.assert_array_equal(
                    batched.inferred_labels[victim], single.inferred_labels
                )
                assert float(batched.matching_losses[victim]) == single.matching_loss
            return {
                "mean_matching_loss": float(batched.matching_losses.mean()),
                "mean_reconstruction_error": float(
                    batched.errors_against(inputs).mean()
                ),
            }

        sides = {
            "sequential": sequential,
            "fleet": partial(fleet.run, observed, params, self.batch, (16,)),
        }
        yield Case("", sides, check_bitwise)

    def floor_context(self) -> Tuple[bool, str]:
        return self.agents >= self.FULL_SCALE_AGENTS, ""


# ---------------------------------------------------------------------------
# attacks/membership
# ---------------------------------------------------------------------------
@benchmark
class MembershipFleetSuite(Benchmark):
    """Fleet membership-loss scoring vs per-row ``per_sample_losses`` calls.

    The fleet path scores every (agent, checkpoint) parameter row's
    per-example losses on both populations in two stacked passes
    (:func:`~repro.attacks.membership_losses_fleet`); the baseline loops
    :func:`~repro.attacks.per_sample_losses` over rows with a shared stacked
    engine.  Every round checks the two bit-identical.  This comparison
    is compute-bound rather than overhead-bound, so its speedup is modest
    next to ``attacks/inversion-fleet`` — the floor reflects that.
    """

    name = "attacks/membership"
    description = "fleet vs per-row membership loss scoring, seconds per sweep"
    floor = FloorSpec(
        "speedup", 2.0, min_cpus=1, min_baseline_seconds=0.02, ratio=("sequential", "fleet")
    )
    default_repeats = 5
    FULL_SCALE_ROWS = 1024

    def __init__(self) -> None:
        self.rows = _env_int("REPRO_BENCH_MEMBER_ROWS", 1024, minimum=2)
        self.samples = _env_int("REPRO_BENCH_MEMBER_SAMPLES", 32, minimum=4)

    def params(self) -> Dict[str, object]:
        return {"rows": self.rows, "samples": self.samples}

    def cases(self) -> Iterator[Case]:
        from repro.attacks import (
            membership_inference_fleet,
            membership_losses_fleet,
            per_sample_losses,
        )
        from repro.data.dataset import Dataset
        from repro.nn.batched import StackedSequential

        model = FleetInversionSuite.build_model()
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(self.rows, model.num_params))
        populations = (
            Dataset(
                rng.normal(size=(self.samples, 16)),
                rng.integers(0, 4, size=self.samples),
            ),
            Dataset(
                rng.normal(size=(self.samples, 16)) + 0.5,
                rng.integers(0, 4, size=self.samples),
            ),
        )
        engine = StackedSequential(model)

        def fleet():
            return [membership_losses_fleet(model, rows, data) for data in populations]

        def sequential():
            return [
                np.stack(
                    [per_sample_losses(model, row, data, engine=engine) for row in rows]
                )
                for data in populations
            ]

        result = membership_inference_fleet(model, rows, *populations)
        advantage = {"mean_advantage": float(result.mean_advantage)}

        def check_bitwise(outputs: Dict[str, object]) -> Dict[str, float]:
            for fleet_losses, loop in zip(outputs["fleet"], outputs["sequential"]):
                np.testing.assert_array_equal(fleet_losses, loop)
            return advantage

        yield Case("", {"sequential": sequential, "fleet": fleet}, check_bitwise)

    def floor_context(self) -> Tuple[bool, str]:
        return self.rows >= self.FULL_SCALE_ROWS, ""


# ---------------------------------------------------------------------------
# eval/test-accuracy
# ---------------------------------------------------------------------------
@benchmark
class StackedEvalSuite(Benchmark):
    """Stacked mean-agent test accuracy vs the per-agent ``accuracy`` loop.

    ``loop_s@N`` times one ``Model.accuracy`` call per agent on a shared
    512-row test set, ``stacked_s@N`` the algorithm's
    ``test_accuracy(mode="mean_agent")``, which scores the fleet through
    :meth:`~repro.nn.batched.StackedSequential.accuracies`; ``speedup@N``
    is their ratio.  The fleet is DP-DPSGD on a ring with a ``linear`` model
    on 16 features and 4 classes (d = 68), its rows spread apart by random
    offsets so every agent scores differently.  Every round checks that the
    stacked per-agent accuracies, and their mean, equal the loop's exactly.
    """

    name = "eval/test-accuracy"
    description = "stacked vs per-agent mean-agent test accuracy, seconds per evaluation"
    floor = FloorSpec(
        "speedup", 2.0, min_cpus=2, min_baseline_seconds=0.2, ratio=("loop", "stacked")
    )
    default_repeats = 5
    FULL_SCALE_AGENTS = 16384
    TEST_ROWS = 512

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_EVAL_AGENTS", "1024,4096,16384")

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "test_rows": self.TEST_ROWS}

    @classmethod
    def build(cls, num_agents: int):
        """``(algorithm, test_data)`` for one fleet size."""
        from repro.baselines import DPDPSGD
        from repro.core.config import AlgorithmConfig
        from repro.data.partition import partition_iid
        from repro.data.synthetic import make_classification_dataset
        from repro.nn.zoo import make_linear_classifier
        from repro.topology.graphs import ring_graph

        data = make_classification_dataset(
            num_samples=4 * num_agents + cls.TEST_ROWS,
            num_features=16,
            num_classes=4,
            cluster_std=1.0,
            seed=0,
        )
        rng = np.random.default_rng(0)
        test = data.sample(cls.TEST_ROWS, rng)
        shards = partition_iid(data, num_agents, rng).shards
        config = AlgorithmConfig(learning_rate=0.05, sigma=0.5, batch_size=4, seed=0)
        algorithm = DPDPSGD(
            make_linear_classifier(16, 4, seed=0), ring_graph(num_agents), shards, config
        )
        algorithm.state = algorithm.state + rng.normal(size=algorithm.state.shape)
        return algorithm, test

    def cases(self) -> Iterator[Case]:
        from repro.nn.batched import StackedSequential

        for num_agents in self.agent_counts:
            algorithm, test = self.build(num_agents)
            per_agent = StackedSequential(algorithm.model).accuracies(
                algorithm.state, test.inputs, test.labels
            )
            sides = {
                "loop": partial(self.loop_accuracies, algorithm, test),
                "stacked": partial(algorithm.test_accuracy, test),
            }
            check = partial(self.check_equal, str(num_agents), per_agent)
            yield Case(str(num_agents), sides, check)

    @staticmethod
    def loop_accuracies(algorithm, test) -> np.ndarray:
        """One ``Model.accuracy`` call per agent."""
        return np.array(
            [
                algorithm.model.accuracy(test.inputs, test.labels, params=row)
                for row in algorithm.state
            ]
        )

    @staticmethod
    def check_equal(
        label: str, per_agent: np.ndarray, outputs: Dict[str, object]
    ) -> Dict[str, float]:
        np.testing.assert_array_equal(per_agent, outputs["loop"])
        loop_accuracy = float(np.mean(outputs["loop"]))
        assert outputs["stacked"] == loop_accuracy, (outputs["stacked"], loop_accuracy)
        return {
            f"loop_accuracy@{label}": loop_accuracy,
            f"stacked_accuracy@{label}": outputs["stacked"],
        }

    def floor_context(self) -> Tuple[bool, str]:
        largest = max(self.agent_counts)
        return largest >= self.FULL_SCALE_AGENTS, str(largest)
