"""The registered benchmark suites.

Each suite packages one hot path of the system behind the
:class:`~repro.bench.registry.Benchmark` lifecycle:

* ``engine/round`` — loop vs vectorized engine, seconds per DP-DPSGD round;
* ``engine/round-streamed`` — one full streamed round (blocked gradients,
  noise, codec, gossip; memmap state) across fleet sizes up to a million
  agents, memory-guarded, streamed-vs-one-shot bit-identity asserted;
* ``gossip/sparse`` — dense vs CSR gossip kernels (bit-identity checked);
* ``gossip/compressed`` — dense vs top-k vs int8 gossip wire bytes
  (identity-codec bit-identity checked);
* ``gossip/scaling-sweep`` — gossip kernels (one-shot, blocked, float32,
  mixed-precision, hierarchical two-level) across fleet sizes up to the
  machine's memory ceiling, with too-large points skipped via the shared
  memory guard;
* ``engine/async-round`` — the event-driven time model: event throughput
  and simulated-vs-real time ratio of barrier and async rounds on a
  heterogeneous trace fleet (unit-trace bit-identity checked);
* ``topology/dynamic-cache`` — schedule snapshot LRU vs naive rebuild;
* ``orchestrator/pool`` — process-pool grid vs serial (plus warm store);
* ``checkpoint/roundtrip`` — ``state_dict`` → save → load → restore;
* ``game/shapley-mc`` — the vectorized Monte-Carlo Shapley estimator plus
  the fleet-scale prefix walk (axiom-checked in-sweep);
* ``privacy/noise-rows`` — counter-based Gaussian noise rows for a fleet;
* ``attacks/inversion-fleet`` — fleet gradient inversion vs the sequential
  per-victim loop (bit-identity checked);
* ``attacks/membership`` — fleet membership-loss scoring vs per-row calls
  (bit-identity checked).

Scales resolve from the same ``REPRO_BENCH_*`` environment knobs the pytest
wrappers under ``benchmarks/`` have always used, so one configuration drives
both surfaces; :data:`SMOKE_SCALE` is the reduced setting CI applies via
``repro-bench run --scale smoke``.  Suites embed their correctness checks
(bit-identical kernels, serial-vs-pooled history equality, cache
bookkeeping): a benchmark that silently compares different computations is
worse than no benchmark.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.registry import Benchmark, FloorSpec, benchmark
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
    "REPRO_BENCH_SHAPLEY_FLEET": "256",
    "REPRO_BENCH_SHAPLEY_FLEET_PERMS": "1",
    "REPRO_BENCH_NOISE_AGENTS": "256",
    "REPRO_BENCH_NOISE_DIM": "32",
    "REPRO_BENCH_SWEEP_AGENTS": "64,256",
    "REPRO_BENCH_ATTACK_AGENTS": "16",
    "REPRO_BENCH_ATTACK_ITERS": "4",
    "REPRO_BENCH_ATTACK_BATCH": "4",
    "REPRO_BENCH_MEMBER_ROWS": "64",
    "REPRO_BENCH_MEMBER_SAMPLES": "16",
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
    """Loop vs vectorized engine: seconds per DP-DPSGD communication round."""

    name = "engine/round"
    description = "loop vs vectorized engine, seconds per DP-DPSGD round"
    floor = FloorSpec(
        metric="speedup", minimum=5.0, min_cpus=2, min_baseline_seconds=0.2
    )
    default_repeats = 1
    default_warmup = False
    FULL_SCALE_AGENTS = 256

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_ENGINE_AGENTS", "16,64,256")
        self.rounds = _env_int("REPRO_BENCH_ENGINE_ROUNDS", 2)

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "rounds": self.rounds}

    @staticmethod
    def build(num_agents: int, backend: str):
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
            backend=backend,
        )
        return DPDPSGD(model, topology, shards, config)

    def run(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for num_agents in self.agent_counts:
            loop_s = _timed(
                self.build(num_agents, "loop").run_round, rounds=self.rounds
            )
            vec_s = _timed(
                self.build(num_agents, "vectorized").run_round, rounds=self.rounds
            )
            metrics[f"loop_s@{num_agents}"] = loop_s
            metrics[f"vectorized_s@{num_agents}"] = vec_s
            metrics[f"speedup@{num_agents}"] = loop_s / vec_s
        largest = max(self.agent_counts)
        metrics["speedup"] = metrics[f"speedup@{largest}"]
        return metrics

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        largest = max(self.agent_counts)
        baseline = metrics.get(f"loop_s@{largest}")
        total = None if baseline is None else baseline * self.rounds
        return largest >= self.FULL_SCALE_AGENTS, total


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

    Correctness is embedded: before timing, a small unit-trace barrier run
    is checked bit-identical to the bare vectorized engine.
    """

    name = "engine/async-round"
    description = "event-driven time model: events/sec and simulated-vs-real ratio"
    default_repeats = 1
    default_warmup = False
    FULL_SCALE_AGENTS = 4096

    def __init__(self) -> None:
        self.agent_counts = _env_ints("REPRO_BENCH_ASYNC_AGENTS", "4096")
        self.rounds = _env_int("REPRO_BENCH_ASYNC_ROUNDS", 3)

    def params(self) -> Dict[str, object]:
        return {"agents": self.agent_counts, "rounds": self.rounds}

    @staticmethod
    def build(num_agents: int, wrap: str = "bare"):
        """A ring DP-DPSGD fleet: bare, barrier-wrapped, or async-wrapped."""
        from repro.baselines import DPDPSGD
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
            backend="vectorized",
        )
        algorithm = DPDPSGD(model, ring_graph(num_agents), shards, config)
        if wrap == "bare":
            return algorithm
        if wrap == "barrier":
            return AsyncEngine(algorithm, traces=uniform_traces(num_agents))
        if wrap == "async":
            return AsyncEngine(
                algorithm,
                traces=synthetic_traces(num_agents, seed=1),
                async_mode=True,
            )
        raise ValueError(f"unknown wrap mode {wrap!r}")

    def _check_bit_identity(self) -> None:
        """Unit-trace barrier mode must reproduce the bare engine exactly."""
        check_agents = min(64, min(self.agent_counts))
        bare = self.build(check_agents, "bare")
        wrapped = self.build(check_agents, "barrier")
        for _ in range(2):
            bare.run_round()
            wrapped.run_round()
        np.testing.assert_array_equal(bare.state, wrapped.state)

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
        return metrics

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        largest = max(self.agent_counts)
        return largest >= self.FULL_SCALE_AGENTS, metrics.get(f"async_s@{largest}")


# ---------------------------------------------------------------------------
# engine/round-streamed
# ---------------------------------------------------------------------------
def _csr_ring_topology(num_agents: int):
    """A Metropolis-weighted ring built directly as CSR, no networkx.

    ``networkx`` graph construction is O(N) Python objects — at a million
    agents that alone dwarfs the round being measured.  Every entry of the
    ring's Metropolis–Hastings matrix is 1/3 (uniform degree 2), so the CSR
    arrays can be written down directly; the graph object only has to answer
    ``number_of_nodes()`` for :class:`~repro.topology.graphs.Topology`
    (connectivity validation is skipped via ``require_connected=False`` —
    a ring is connected by construction).
    """
    import scipy.sparse as sp

    from repro.topology.graphs import Topology

    if num_agents < 3:
        raise ValueError("a ring needs at least 3 agents")

    class _RingNodes:
        def __init__(self, n: int) -> None:
            self._n = n

        def number_of_nodes(self) -> int:
            return self._n

    n = num_agents
    agents = np.arange(n, dtype=np.int64)
    indices = np.empty(3 * n, dtype=np.int64)
    indices[0::3] = (agents - 1) % n
    indices[1::3] = agents
    indices[2::3] = (agents + 1) % n
    indptr = 3 * np.arange(n + 1, dtype=np.int64)
    data = np.full(3 * n, 1.0 / 3.0)
    matrix = sp.csr_array((data, indices, indptr), shape=(n, n))
    return Topology(
        _RingNodes(n), matrix, name=f"ring-{n}", require_connected=False
    )


@benchmark
class StreamedRoundSuite(Benchmark):
    """A full streamed DP-DPSGD round across fleet sizes up to a million agents.

    Where ``gossip/scaling-sweep`` times the mixing kernel in isolation,
    this suite times one *complete* communication round — blocked batch
    drawing, stacked gradient passes, per-agent clip + Gaussian noise, codec
    and gossip — through the streamed pipeline (``block_rows`` +
    ``storage="memmap"``), on a CSR ring with one shared data shard and a
    small linear model so the per-agent work (batch draws and gathers,
    noise rows, gossip rows) dominates exactly as it does at fleet scale.

    Metrics per ``N`` in ``REPRO_BENCH_ROUND_AGENTS``:

    * ``round_s@N`` — seconds for one streamed serial round;
    * ``workersK_s@N`` — the same round with ``block_workers=K``
      (``REPRO_BENCH_ROUND_WORKERS``), numerically identical by
      construction;
    * ``oneshot_s@N`` — the in-RAM one-shot round, only at sizes where the
      bit-identity check runs (streamed vs one-shot state asserted equal).

    Too-large points are skipped (never failed) through the shared memory
    guard, with reasons recorded in the artifact notes; ``max_agents``
    reports the ceiling actually reached.
    """

    name = "engine/round-streamed"
    description = "full streamed round (gradients+noise+gossip) across N, memory-guarded"
    default_repeats = 1
    default_warmup = False
    #: Streamed-vs-one-shot bit-identity is asserted in-sweep up to this N
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

        config = AlgorithmConfig(
            learning_rate=0.05,
            sigma=0.5,
            clip_threshold=1.0,
            batch_size=self.batch_size,
            seed=0,
            backend="vectorized",
            **overrides,
        )
        model = make_linear_classifier(self.NUM_FEATURES, self.NUM_CLASSES, seed=0)
        return DPDPSGD(
            model,
            _csr_ring_topology(num_agents),
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
                # The streamed round is bit-identical to the historic
                # one-shot path — asserted in-sweep, every run.
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
    """Dense vs CSR mixing kernels (bit-identity asserted every run)."""

    name = "gossip/sparse"
    description = "dense vs CSR gossip kernels, seconds per W @ X apply"
    floor = FloorSpec(
        metric="speedup", minimum=10.0, min_cpus=2, min_baseline_seconds=0.05
    )
    default_repeats = 1
    default_warmup = False
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
    def topology_labels(num_agents: int) -> List[str]:
        """Metric-key labels for one agent count — string math, no graphs built."""
        side = max(3, int(round(math.sqrt(num_agents))))
        return [f"ring/{num_agents}", f"torus/{side * side}"]

    @staticmethod
    def build_topologies(num_agents: int):
        from repro.topology.graphs import ring_graph, torus_graph

        ring_label, torus_label = SparseGossipSuite.topology_labels(num_agents)
        side = max(3, int(round(math.sqrt(num_agents))))
        return [
            (ring_label, ring_graph(num_agents)),
            (torus_label, torus_graph(side)),
        ]

    def run(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for num_agents in self.agent_counts:
            for label, topology in self.build_topologies(num_agents):
                dense_op = topology.mixing_operator("dense")
                csr_op = topology.mixing_operator("csr")
                dense_w = dense_op.toarray()
                rng = np.random.default_rng(0)
                state = rng.normal(size=(topology.num_agents, self.dimension))
                # The comparison is only meaningful while both kernels compute
                # the same gossip step, bit for bit.
                np.testing.assert_array_equal(
                    dense_op.apply(state), csr_op.apply(state)
                )
                dense_s = _timed(dense_op.apply, state, rounds=self.rounds)
                csr_s = _timed(csr_op.apply, state, rounds=self.rounds)
                blas_s = _timed(lambda x: dense_w @ x, state, rounds=self.rounds)
                metrics[f"nnz@{label}"] = float(csr_op.nnz)
                metrics[f"dense_s@{label}"] = dense_s
                metrics[f"blas_s@{label}"] = blas_s
                metrics[f"csr_s@{label}"] = csr_s
                metrics[f"speedup@{label}"] = dense_s / csr_s
        largest = max(self.agent_counts)
        metrics["speedup"] = metrics[f"speedup@ring/{largest}"]
        return metrics

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        largest = max(self.agent_counts)
        baseline = metrics.get(f"dense_s@ring/{largest}")
        total = None if baseline is None else baseline * self.rounds
        return largest >= self.FULL_SCALE_AGENTS, total


# ---------------------------------------------------------------------------
# gossip/compressed
# ---------------------------------------------------------------------------
@benchmark
class CompressedGossipSuite(Benchmark):
    """Dense vs compressed gossip: wire bytes and seconds per DP-DPSGD round.

    The headline metric is ``bytes_reduction`` — dense network bytes divided
    by top-k (``k = d // 10``) network bytes on a ring fleet — with int8
    quantization reported alongside.  The identity codec is also run and
    asserted bit-identical (states and byte counters) to the uncompressed
    path, so the compressed engine cannot silently diverge from the
    trajectory every other suite measures.
    """

    name = "gossip/compressed"
    description = "dense vs top-k vs int8 gossip, wire bytes per round"
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
            backend="vectorized",
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
            int8_s, int8_b = self._measure(num_agents, {"codec": "int8"})
            metrics[f"dense_s@{num_agents}"] = dense_s
            metrics[f"topk_s@{num_agents}"] = topk_s
            metrics[f"int8_s@{num_agents}"] = int8_s
            metrics[f"dense_bytes@{num_agents}"] = dense_b
            metrics[f"topk_bytes@{num_agents}"] = topk_b
            metrics[f"int8_bytes@{num_agents}"] = int8_b
            metrics[f"bytes_reduction@{num_agents}"] = dense_b / topk_b
            metrics[f"bytes_reduction_int8@{num_agents}"] = dense_b / int8_b
        largest = max(self.agent_counts)
        metrics["bytes_reduction"] = metrics[f"bytes_reduction@{largest}"]
        metrics["bytes_reduction_int8"] = metrics[f"bytes_reduction_int8@{largest}"]
        return metrics

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        largest = max(self.agent_counts)
        baseline = metrics.get(f"dense_s@{largest}")
        total = None if baseline is None else baseline * self.rounds
        return largest >= self.FULL_SCALE_AGENTS, total


# ---------------------------------------------------------------------------
# gossip/scaling-sweep
# ---------------------------------------------------------------------------
@benchmark
class GossipScalingSweepSuite(Benchmark):
    """Gossip kernels across fleet sizes, up to the machine's memory ceiling.

    For every ``N`` in ``REPRO_BENCH_SWEEP_AGENTS`` the suite times the
    kernels the million-agent scaling work added, on a ring fleet:

    * ``seconds@N`` — one-shot auto-backend ``W @ X`` (the historic path);
    * ``blocked_s@N`` — :meth:`MixingOperator.mix_rows_blocked` with the
      auto-sized row block (bit-identity vs one-shot asserted at N <= 4096);
    * ``f32_s@N`` / ``mixed_s@N`` — float32 state through the dtype-aware
      kernel and the mixed-precision (float64-accumulate) kernel;
    * ``two_level_s@N`` — the factored hierarchical operator
      (:class:`~repro.topology.hierarchical.TwoLevelMixingOperator`), which
      never materialises the blown-up matrix.

    Points that would not fit in RAM are **skipped, not failed**, through
    the shared memory guard; each skip's reason is recorded in the
    artifact's ``notes`` (``"skip@262144": "needs ..."``), and
    ``max_agents`` reports the ceiling the sweep actually reached.
    """

    name = "gossip/scaling-sweep"
    description = "gossip kernels across N (blocked/f32/mixed/two-level), memory-guarded"
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
        import networkx as nx

        from repro.bench.guard import check_memory
        from repro.sharding import resolve_block_rows
        from repro.topology.graphs import ring_graph
        from repro.topology.hierarchical import (
            TwoLevelMixingOperator,
            default_cluster_size,
        )
        from repro.topology.mixing import metropolis_hastings_weights

        self._cases = []
        self._notes = {}
        for num_agents in self.agent_counts:
            decision = check_memory(self.point_memory_bytes(num_agents))
            if not decision.fits:
                self._notes[f"skip@{num_agents}"] = decision.reason
                continue
            operator = ring_graph(num_agents).mixing_operator()  # auto format
            state = np.random.default_rng(0).normal(
                size=(num_agents, self.dimension)
            )
            block_rows = resolve_block_rows(num_agents, self.dimension)
            two_level = None
            if num_agents >= 4:
                cluster_size = default_cluster_size(num_agents)
                num_clusters = num_agents // cluster_size
                if num_clusters >= 3:
                    cluster_w = metropolis_hastings_weights(
                        nx.cycle_graph(num_clusters), sparse=True
                    )
                    two_level = TwoLevelMixingOperator(cluster_w, cluster_size)
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
                    "two_level": two_level,
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
            if case["two_level"] is not None:
                metrics[f"two_level_s@{num_agents}"] = _timed(
                    case["two_level"].apply, state
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
    """Snapshot LRU vs naive rebuild: seconds per ``operator_at(t)``."""

    name = "topology/dynamic-cache"
    description = "schedule snapshot LRU vs naive rebuild, seconds per round"
    floor = FloorSpec(
        metric="speedup", minimum=5.0, min_cpus=2, min_baseline_seconds=0.05
    )
    default_repeats = 1
    default_warmup = False
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

    @staticmethod
    def _seconds_per_round(schedule, rounds: int) -> float:
        started = time.perf_counter()
        for t in range(rounds):
            schedule.operator_at(t)
        return (time.perf_counter() - started) / rounds

    def run(self) -> Dict[str, float]:
        from repro.topology.graphs import ring_graph
        from repro.topology.schedule import (
            periodic_rewiring_schedule,
            straggler_schedule,
        )

        metrics: Dict[str, float] = {}
        for num_agents in self.agent_counts:
            base = ring_graph(num_agents)
            cached = periodic_rewiring_schedule(
                base, rewire_every=self.period, seed=0
            )
            naive = self.naive(base, rewire_every=self.period, seed=0)
            worst = straggler_schedule(base, straggler_fraction=0.1, seed=0)
            # Prime allocators and the scipy/networkx code paths on a
            # throwaway schedule so neither measured variant pays cold-start
            # costs for the other.
            self._seconds_per_round(
                self.naive(base, rewire_every=1, seed=99), min(self.rounds, 5)
            )
            cached_s = self._seconds_per_round(cached, self.rounds)
            naive_s = self._seconds_per_round(naive, self.rounds)
            worst_s = self._seconds_per_round(worst, self.rounds)
            # Epochs are visited contiguously, so the cache builds each
            # distinct graph exactly once: misses = ceil(rounds / period).
            info = cached.cache_info()
            assert info["misses"] == -(-self.rounds // self.period)
            assert info["hits"] + info["misses"] == self.rounds
            metrics[f"cached_s@{num_agents}"] = cached_s
            metrics[f"naive_s@{num_agents}"] = naive_s
            metrics[f"allmiss_s@{num_agents}"] = worst_s
            metrics[f"speedup@{num_agents}"] = naive_s / cached_s
        largest = max(self.agent_counts)
        metrics["speedup"] = metrics[f"speedup@{largest}"]
        return metrics

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        largest = max(self.agent_counts)
        baseline = metrics.get(f"naive_s@{largest}")
        total = None if baseline is None else baseline * self.rounds
        return largest >= self.FULL_SCALE_AGENTS, total


# ---------------------------------------------------------------------------
# orchestrator/pool
# ---------------------------------------------------------------------------
@benchmark
class OrchestratorPoolSuite(Benchmark):
    """Serial vs pooled grid execution (identical histories asserted)."""

    name = "orchestrator/pool"
    description = "process-pool grid vs serial execution, plus the warm store"
    floor = FloorSpec(
        metric="speedup", minimum=2.0, min_cpus=4, min_baseline_seconds=1.0
    )
    default_repeats = 1
    default_warmup = False

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

    def run(self) -> Dict[str, float]:
        from pathlib import Path

        from repro.experiments.orchestrator import run_grid
        from repro.simulation.metrics import histories_equal

        assert self._root is not None, "setup() must run first"
        root = Path(self._root)
        # Fresh stores every call so repeats never hit a warm directory.
        for stale in root.iterdir():
            shutil.rmtree(stale, ignore_errors=True)

        started = time.perf_counter()
        serial = run_grid(self.build_grid(), root / "serial", workers=1)
        serial_s = time.perf_counter() - started

        started = time.perf_counter()
        pooled = run_grid(self.build_grid(), root / "pooled", workers=self.workers)
        pooled_s = time.perf_counter() - started

        started = time.perf_counter()
        cached = run_grid(self.build_grid(), root / "serial", workers=1)
        cached_s = time.perf_counter() - started

        # Correctness before speed: worker placement must not change any
        # cell, and the warm pass must serve the identical stored histories.
        assert [r.status for r in serial] == ["done"] * self.jobs
        assert [r.status for r in pooled] == ["done"] * self.jobs
        assert [r.status for r in cached] == ["cached"] * self.jobs
        for a, b in zip(serial, pooled):
            assert histories_equal(a.history, b.history)
        for a, b in zip(serial, cached):
            assert histories_equal(a.history, b.history)
        assert cached_s < serial_s, "cached pass should skip all training"

        return {
            "serial_s": serial_s,
            "pooled_s": pooled_s,
            "cached_s": cached_s,
            "speedup": serial_s / pooled_s if pooled_s > 0 else float("inf"),
        }

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        return True, metrics.get("serial_s")


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
        self._algorithm = EngineRoundSuite.build(self.agents, "vectorized")
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
    """Permutation-sampling Shapley: the small-game estimator and the fleet walk.

    Two regimes share the suite: the neighbourhood-sized games PDSL plays
    every round (``REPRO_BENCH_SHAPLEY_PLAYERS`` players through
    :func:`~repro.game.shapley.monte_carlo_shapley`), and fleet-scale player
    counts (``REPRO_BENCH_SHAPLEY_FLEET``) through the prefix-walk
    :func:`~repro.game.shapley.monte_carlo_shapley_fleet`, which drops the
    coalition canonicalisation/memoisation bookkeeping that dominates once
    every prefix is unique.  The fleet estimator is cross-validated in-sweep:
    exact stream agreement with the generic estimator at a small N, and at
    the largest N the efficiency axiom (the estimates telescope to
    ``v(grand) - v(empty)`` exactly per permutation) plus per-player
    exactness on an additive game.
    """

    name = "game/shapley-mc"
    description = "Monte-Carlo Shapley: small games and the fleet prefix walk"
    default_repeats = 3
    #: Exact-agreement cross-check between the two estimators runs at this
    #: player count (the generic estimator's sequential walk is O(N^3) with
    #: set hashing, so fleet sizes are out of its reach by construction).
    CROSS_CHECK_PLAYERS = 128

    def __init__(self) -> None:
        self.players = _env_int("REPRO_BENCH_SHAPLEY_PLAYERS", 12, minimum=2)
        self.permutations = _env_int("REPRO_BENCH_SHAPLEY_PERMS", 200)
        self.fleet_players = _env_ints("REPRO_BENCH_SHAPLEY_FLEET", "4096,16384")
        self.fleet_permutations = _env_int("REPRO_BENCH_SHAPLEY_FLEET_PERMS", 2)
        self._weights: Optional[np.ndarray] = None
        self._notes: Dict[str, str] = {}

    def params(self) -> Dict[str, object]:
        return {
            "players": self.players,
            "permutations": self.permutations,
            "fleet_players": self.fleet_players,
            "fleet_permutations": self.fleet_permutations,
        }

    def notes(self) -> Dict[str, str]:
        return dict(self._notes)

    def setup(self) -> None:
        self._weights = np.random.default_rng(3).normal(size=self.players) ** 2
        self._notes = {}

    @staticmethod
    def _fleet_characteristic(weights: np.ndarray):
        def characteristic(members) -> float:
            members = np.asarray(members, dtype=np.int64)
            return float(weights[members].sum()) + 0.01 * len(members) ** 2

        return characteristic

    def run(self) -> Dict[str, float]:
        from repro.bench.guard import check_memory
        from repro.game.cooperative import CooperativeGame
        from repro.game.shapley import monte_carlo_shapley, monte_carlo_shapley_fleet

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
        metrics: Dict[str, float] = {
            "unique_coalitions": float(game.num_evaluations),
            "permutations": float(self.permutations),
        }

        # Cross-check: both estimators consume one rng.permutation per round,
        # so on the same seed they must agree to float round-off.
        cross_n = self.CROSS_CHECK_PLAYERS
        cross_w = np.random.default_rng(3).normal(size=cross_n) ** 2
        fleet_char = self._fleet_characteristic(cross_w)
        cross_game = CooperativeGame(
            list(range(cross_n)),
            lambda coalition: fleet_char(np.fromiter(coalition, dtype=np.int64)),
        )
        generic = monte_carlo_shapley(cross_game, 2, np.random.default_rng(5))
        walked = monte_carlo_shapley_fleet(
            fleet_char, cross_n, 2, np.random.default_rng(5)
        )
        np.testing.assert_allclose(
            np.asarray([generic[i] for i in range(cross_n)]),
            walked,
            rtol=1e-12,
            atol=1e-12,
        )

        ran_sizes: List[int] = []
        for num_players in self.fleet_players:
            # O(N) memory but O(N^2) characteristic work per permutation —
            # the guard keeps absurd sizes out on small machines.
            decision = check_memory(num_players * 64 + (16 << 20))
            if not decision.fits:
                self._notes[f"skip@{num_players}"] = decision.reason
                continue
            fleet_w = np.random.default_rng(3).normal(size=num_players) ** 2
            fleet_char = self._fleet_characteristic(fleet_w)
            started = time.perf_counter()
            estimates = monte_carlo_shapley_fleet(
                fleet_char,
                num_players,
                self.fleet_permutations,
                np.random.default_rng(5),
            )
            metrics[f"fleet_s@{num_players}"] = time.perf_counter() - started
            ran_sizes.append(num_players)
        if ran_sizes:
            # Axioms at the largest N that ran.  Efficiency: prefix marginals
            # telescope, so the estimate total equals the grand-coalition
            # value exactly.  Additivity/dummy: on a purely additive game
            # every marginal is the player's own weight, so per-player
            # estimates are exact (zero-weight players get exactly zero).
            largest = max(ran_sizes)
            fleet_w = np.random.default_rng(3).normal(size=largest) ** 2
            fleet_char = self._fleet_characteristic(fleet_w)
            estimates = monte_carlo_shapley_fleet(
                fleet_char, largest, 1, np.random.default_rng(5)
            )
            grand = fleet_char(np.arange(largest))
            np.testing.assert_allclose(estimates.sum(), grand, rtol=1e-9, atol=1e-9)
            additive = monte_carlo_shapley_fleet(
                lambda members: float(
                    fleet_w[np.asarray(members, dtype=np.int64)].sum()
                ),
                largest,
                1,
                np.random.default_rng(7),
            )
            # Each marginal is the difference of two prefix sums of ~N
            # weights, so its float error scales with eps * sum(|w|), not
            # with the (possibly tiny) weight itself — the absolute
            # tolerance must carry that factor.
            np.testing.assert_allclose(
                additive, fleet_w, rtol=1e-9, atol=1e-12 * max(1.0, fleet_w.sum())
            )
        metrics["fleet_max_players"] = float(max(ran_sizes, default=0))
        return metrics


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
    :func:`~repro.attacks.inversion_stream` RNG streams.  Both timed runs
    are asserted bit-identical (reconstructions, labels, matching losses),
    so the speedup can never come from computing something different.
    """

    name = "attacks/inversion-fleet"
    description = "fleet vs per-victim gradient inversion, seconds per attack"
    floor = FloorSpec(
        metric="speedup", minimum=10.0, min_cpus=1, min_baseline_seconds=0.2
    )
    default_repeats = 1
    default_warmup = False
    FULL_SCALE_AGENTS = 256

    def __init__(self) -> None:
        self.agents = _env_int("REPRO_BENCH_ATTACK_AGENTS", 256, minimum=2)
        self.iterations = _env_int("REPRO_BENCH_ATTACK_ITERS", 25)
        self.batch = _env_int("REPRO_BENCH_ATTACK_BATCH", 4)
        self._observed: Optional[np.ndarray] = None
        self._params: Optional[np.ndarray] = None
        self._inputs: Optional[np.ndarray] = None

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

    def setup(self) -> None:
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
        self._observed = observed
        self._params = params
        self._inputs = inputs

    def teardown(self) -> None:
        self._observed = None
        self._params = None
        self._inputs = None

    def run(self) -> Dict[str, float]:
        from repro.attacks import (
            FleetInversionAttack,
            GradientInversionAttack,
            inversion_stream,
        )

        observed, params = self._observed, self._params
        assert observed is not None and params is not None
        model = self.build_model()
        seed = 1

        fleet = FleetInversionAttack(
            model, num_classes=4, iterations=self.iterations, seed=seed
        )
        started = time.perf_counter()
        batched = fleet.run(observed, params, self.batch, (16,))
        fleet_s = time.perf_counter() - started

        started = time.perf_counter()
        sequential = [
            GradientInversionAttack(
                model,
                num_classes=4,
                iterations=self.iterations,
                rng=inversion_stream(seed, victim),
            ).run(observed[victim], params, self.batch, (16,))
            for victim in range(self.agents)
        ]
        sequential_s = time.perf_counter() - started

        # The comparison is only meaningful while the fleet run *is* the
        # per-victim loop, bit for bit.
        for victim, single in enumerate(sequential):
            np.testing.assert_array_equal(
                batched.reconstructed_inputs[victim], single.reconstructed_inputs
            )
            np.testing.assert_array_equal(
                batched.inferred_labels[victim], single.inferred_labels
            )
            assert float(batched.matching_losses[victim]) == single.matching_loss

        inputs = self._inputs
        assert inputs is not None
        errors = batched.errors_against(inputs)
        return {
            "sequential_s": sequential_s,
            "fleet_s": fleet_s,
            "speedup": sequential_s / fleet_s if fleet_s > 0 else float("inf"),
            "mean_matching_loss": float(batched.matching_losses.mean()),
            "mean_reconstruction_error": float(errors.mean()),
        }

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        return self.agents >= self.FULL_SCALE_AGENTS, metrics.get("sequential_s")


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
    engine.  Both timed paths are asserted bit-identical.  This comparison
    is compute-bound rather than overhead-bound, so its speedup is modest
    next to ``attacks/inversion-fleet`` — the floor reflects that.
    """

    name = "attacks/membership"
    description = "fleet vs per-row membership loss scoring, seconds per sweep"
    floor = FloorSpec(
        metric="speedup", minimum=2.0, min_cpus=1, min_baseline_seconds=0.02
    )
    default_repeats = 3
    FULL_SCALE_ROWS = 1024

    def __init__(self) -> None:
        self.rows = _env_int("REPRO_BENCH_MEMBER_ROWS", 1024, minimum=2)
        self.samples = _env_int("REPRO_BENCH_MEMBER_SAMPLES", 32, minimum=4)
        self._rows: Optional[np.ndarray] = None
        self._members = None
        self._non_members = None

    def params(self) -> Dict[str, object]:
        return {"rows": self.rows, "samples": self.samples}

    def setup(self) -> None:
        from repro.data.dataset import Dataset

        model = FleetInversionSuite.build_model()
        rng = np.random.default_rng(0)
        self._rows = rng.normal(size=(self.rows, model.num_params))
        self._members = Dataset(
            rng.normal(size=(self.samples, 16)),
            rng.integers(0, 4, size=self.samples),
        )
        self._non_members = Dataset(
            rng.normal(size=(self.samples, 16)) + 0.5,
            rng.integers(0, 4, size=self.samples),
        )

    def teardown(self) -> None:
        self._rows = None
        self._members = None
        self._non_members = None

    def run(self) -> Dict[str, float]:
        from repro.attacks import (
            membership_inference_fleet,
            membership_losses_fleet,
            per_sample_losses,
        )
        from repro.nn.batched import StackedSequential

        rows, members, non_members = self._rows, self._members, self._non_members
        assert rows is not None and members is not None and non_members is not None
        model = FleetInversionSuite.build_model()

        started = time.perf_counter()
        fleet_member = membership_losses_fleet(model, rows, members)
        fleet_non = membership_losses_fleet(model, rows, non_members)
        fleet_s = time.perf_counter() - started

        engine = StackedSequential(model)
        started = time.perf_counter()
        seq_member = np.stack(
            [
                per_sample_losses(model, row, members, engine=engine)
                for row in rows
            ]
        )
        seq_non = np.stack(
            [
                per_sample_losses(model, row, non_members, engine=engine)
                for row in rows
            ]
        )
        sequential_s = time.perf_counter() - started

        np.testing.assert_array_equal(fleet_member, seq_member)
        np.testing.assert_array_equal(fleet_non, seq_non)

        result = membership_inference_fleet(model, rows, members, non_members)
        return {
            "sequential_s": sequential_s,
            "fleet_s": fleet_s,
            "speedup": sequential_s / fleet_s if fleet_s > 0 else float("inf"),
            "mean_advantage": float(result.mean_advantage),
        }

    def floor_context(self, metrics: Dict[str, float]) -> Tuple[bool, Optional[float]]:
        return self.rows >= self.FULL_SCALE_ROWS, metrics.get("sequential_s")
