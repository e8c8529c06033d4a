"""Shared infrastructure for decentralized learning algorithms.

:class:`DecentralizedAlgorithm` owns everything PDSL and the baselines have in
common: the fleet's parameters as one ``(num_agents, dimension)`` state
matrix (every row initialised to the same point ``x^[0]``), the fleet's
counter-based batch and DP-noise streams, the message-passing
:class:`~repro.simulation.network.Network`, gossip averaging with the
topology's mixing matrix, and the evaluation helpers used by the experiment
runner (average training loss, test accuracy, consensus distance).

The communication topology is consulted *per round*: a
:class:`~repro.topology.schedule.TopologySchedule` (or a bare
:class:`~repro.topology.graphs.Topology`, wrapped in a bit-identical static
schedule) provides each round's graph, mixing operator and active-agent
mask through :meth:`DecentralizedAlgorithm._begin_round` — agents that sit
a round out (churn, stragglers) draw no randomness and keep frozen rows.

Every round runs as one pipeline over ``(block_rows, d)`` row blocks of the
fleet (one block unless the fleet outgrows ``block_rows``, by default
~32 MiB): gradients are evaluated with stacked forward/backward passes
where the model allows it (:meth:`fleet_gradients`), clipping + Gaussian
noise are applied row-wise (:meth:`privatize_rows`), and the gossip step is
``W @ X`` (:meth:`mix_rows`, dispatched through the topology's
:class:`~repro.topology.mixing.MixingOperator`, O(nnz d) over CSR
storage).  Each exchange is accounted on the
:class:`~repro.simulation.network.Network` as one message per directed
channel.  Under fault injection (``network.drop_probability > 0``) a
dropped message ``j -> i`` zeroes ``w_ij`` in that exchange's mixing
operator, and a cross-gradient is computed only if the model it needs
arrived.

Randomness comes from keyed counter-based streams
(:class:`~repro.core.streams.FleetStreams`): an agent's ``k``-th batch or
noise draw of round ``t`` is a pure function of ``(seed, t, k, agent)``, and
whether a message is dropped is a pure function of ``(seed, t, tag,
sender, recipient)`` (random-k's kept coordinates: of ``(seed, t, channel,
agent)``; the evaluation subsample: of ``(seed, agent)``), so any row
blocking, any worker count and any set of inactive agents see the same
draws, and a fleet-wide draw is one vectorized call per row block.  The
local datasets are stored once, concatenated
(:class:`~repro.data.flat.FlatShards`), so batches are index rows into one
array.  :mod:`repro.bench.reference` runs DP-DPSGD and PDSL one agent at a
time from the same streams, as the oracle the pipeline is tested against.

Subclasses implement :meth:`_round_body`, one communication round for all
agents; :meth:`step` pulls the round's topology and runs it.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compression.codecs import make_codec
from repro.compression.config import CompressionConfig
from repro.compression.state import CompressionState
from repro.core.config import AlgorithmConfig
from repro.core.streams import FleetStreams
from repro.data.dataset import Dataset
from repro.data.flat import FlatShards, FleetBatches
from repro.nn.batched import StackedSequential, supports_stacked
from repro.nn.model import Model
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import clip_rows_by_l2_norm
from repro.sharding import RoundScheduler, resolve_block_rows, row_blocks
from repro.simulation.metrics import consensus_distance
from repro.simulation.network import Network
from repro.topology.graphs import Topology
from repro.topology.mixing import MixingOperator, validate_mixing_matrix
from repro.topology.schedule import (
    ShiftOneSchedule,
    StaticSchedule,
    TopologyEvent,
    TopologySchedule,
)

__all__ = ["DecentralizedAlgorithm"]


class DecentralizedAlgorithm:
    """Base class for synchronous round-based decentralized learning algorithms.

    Parameters
    ----------
    model:
        A template model; its initial parameters become every agent's
        ``x^[0]`` and its forward/backward passes are reused for all gradient
        evaluations (agents are distinguished purely by their parameter
        vectors, exactly as the paper treats them as points in ``R^d``).
    topology:
        Communication graph with doubly stochastic mixing matrix ``W``, or a
        :class:`~repro.topology.schedule.TopologySchedule` providing one
        graph per round (time-varying topologies, churn, stragglers).  A
        bare ``Topology`` is wrapped in a
        :class:`~repro.topology.schedule.StaticSchedule`, which reproduces
        the fixed-graph behaviour bit for bit.  The base matrix is
        re-validated here (symmetry, double stochasticity) so a topology
        whose matrix was mutated after construction fails fast with a clear
        error instead of deep inside the first gossip step.
    shards:
        One local dataset per agent (e.g. from
        :func:`repro.data.partition.partition_dirichlet`).
    config:
        Optimisation / DP hyper-parameters and the round pipeline's
        precision, storage and block knobs.
    validation:
        Optional shared validation set ``Q``; required by PDSL, unused by the
        baselines.
    """

    name: str = "decentralized"

    #: Logical payload streams in one gossip message (2 for algorithms that
    #: transmit ``(momentum, model)`` or ``(model, tracking)`` pairs).  The
    #: event-driven timing layer sizes simulated transfers with
    #: ``gossip_wire_cost(num_gossip_channels)``, so overriding this keeps
    #: simulated wire time consistent with the bytes the round accounts.
    num_gossip_channels: int = 1

    #: Whether async mode's event step (a momentum-SGD local step, then
    #: mixing on arrival) *is* this algorithm.  Only DMSGD sets it.
    async_capable: bool = False

    def __init__(
        self,
        model: Model,
        topology: Union[Topology, TopologySchedule],
        shards: Sequence[Dataset],
        config: AlgorithmConfig,
        validation: Optional[Dataset] = None,
    ) -> None:
        if isinstance(topology, TopologySchedule):
            self.schedule: TopologySchedule = topology
            topology = self.schedule.base
        else:
            self.schedule = StaticSchedule(topology)
        # Gossip compression: resolve the config once (None means the
        # bit-identical identity defaults) and, for shift_one peer
        # selection, replace the schedule with the rotating matching.
        self.compression_config: CompressionConfig = (
            getattr(config, "compression", None) or CompressionConfig()
        )
        if self.compression_config.peer_selection == "shift_one":
            if not self.schedule.is_static:
                raise ValueError(
                    "peer_selection='shift_one' replaces the topology with a "
                    "rotating matching and cannot be combined with a dynamic "
                    "topology schedule"
                )
            self.schedule = ShiftOneSchedule(topology)
        if len(shards) != topology.num_agents:
            raise ValueError(
                f"got {len(shards)} data shards for {topology.num_agents} agents"
            )
        for agent, shard in enumerate(shards):
            if len(shard) == 0:
                raise ValueError(f"agent {agent} received an empty local dataset")
        try:
            validate_mixing_matrix(topology.mixing_matrix)
        except ValueError as error:
            raise ValueError(
                f"topology {topology.name!r} has an invalid mixing matrix: {error}"
            ) from error
        # The gossip operator: W in CSR storage.
        self.mixing = topology.mixing_operator()
        self.model = model
        self.topology = topology
        self.shards = list(shards)
        self.config = config
        self.validation = validation
        self.num_agents = topology.num_agents
        self.dimension = model.num_params
        self.sigma = config.resolve_sigma()
        # Precision and sharding knobs.  ``_dtype`` is the single source of
        # truth for the fleet-state element type (every state matrix and
        # every state assignment funnel through it, see :meth:`_store`);
        # ``_grad_dtype`` is its counterpart for gradient/loss buffers, which
        # stay double precision in every mode because the model kernels are
        # float64.
        self._precision: str = getattr(config, "dtype", "float64")
        self._dtype: np.dtype = np.dtype(
            np.float64 if self._precision == "float64" else np.float32
        )
        self._grad_dtype: np.dtype = np.dtype(np.float64)
        # Blocked-round plumbing.  ``_block_rows`` is the row-block size
        # every stage of the round pipeline uses (the explicit
        # ``block_rows`` when set, else a ~32 MiB default); ``_scheduler``
        # runs independent row blocks of one stage, serially
        # (``block_workers=1``) or on a thread pool; ``_storage`` backs every
        # fleet matrix (:meth:`_alloc_fleet_matrix`); ``_scratch`` holds the
        # handful of reusable fleet-shaped working buffers the round writes
        # block by block.
        self._storage: str = getattr(config, "storage", "ram")
        self._block_workers: int = max(1, int(getattr(config, "block_workers", 1)))
        self._scheduler = RoundScheduler(self._block_workers)
        self._block_rows: int = resolve_block_rows(
            topology.num_agents, model.num_params, getattr(config, "block_rows", None)
        )
        self._scratch: Dict[str, np.ndarray] = {}
        # Every draw of the run is addressed by (step, slot, agent) in its
        # keyed streams; ``_draw_step`` is the step being executed and the
        # two counters hold each agent's batch and noise draws so far in it
        # (the slot of its next draw), reset at the start of every round.
        self.streams = FleetStreams(config.seed)
        self.flat_shards = FlatShards.from_datasets(self.shards)
        self._draw_step = 0
        self._batch_draws = np.zeros(self.num_agents, dtype=np.int64)
        self._noise_draws = np.zeros(self.num_agents, dtype=np.int64)
        # average_train_loss's per-agent samples, one set per sample cap.
        self._evaluation_sets: Dict[int, FleetBatches] = {}
        # The codec compresses gossip payloads; its per-agent error-feedback
        # residuals live in a CompressionState, and random-k reads its
        # coordinates from the "codec" stream.  The identity codec carries no
        # state at all, so the legacy path stays bit-identical (and pays
        # nothing).
        self.codec = make_codec(self.compression_config, self.dimension)
        self._compression_state: Optional[CompressionState] = (
            None
            if self.codec.is_identity
            else CompressionState(
                self.codec,
                self.num_agents,
                self.dimension,
                error_feedback=self.compression_config.error_feedback,
                streams=self.streams,
            )
        )

        # Per-round participation state, refreshed by :meth:`_begin_round`
        # from the schedule.  On a static schedule every agent is active in
        # every round and none of the masking paths are taken.
        self.active_mask: np.ndarray = np.ones(self.num_agents, dtype=bool)
        self.active_agents: List[int] = list(range(self.num_agents))
        self._all_active = True
        self.pending_events: List[TopologyEvent] = []
        self.network = Network(self.num_agents)
        self.accountant = PrivacyAccountant()

        initial = np.asarray(model.get_flat_params(), dtype=self._dtype)
        # Canonical fleet state: row i is agent i's parameter vector.  The
        # initial vector is cast *before* the block-by-block fill, so
        # low-precision modes never materialise a float64 fleet matrix and
        # no storage needs a whole-fleet temporary.
        self._state = self._alloc_fleet_matrix()
        for start, stop in self._fleet_blocks():
            self._state[start:stop] = initial
        self._momentum_state = self._alloc_fleet_matrix()
        # Models the stacked passes cannot evaluate (CNNs, Dropout) take one
        # scalar pass per row, and every stage that runs them is serial, so
        # a Dropout layer's shared RNG is consumed in agent (and pair) order
        # under any block size or worker count.
        self._stacked: Optional[StackedSequential] = (
            StackedSequential(model) if supports_stacked(model) else None
        )
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    # Fleet state accessors
    # ------------------------------------------------------------------
    @property
    def state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` fleet parameter matrix."""
        return self._state

    @state.setter
    def state(self, value: np.ndarray) -> None:
        self._store(self._state, value)

    @property
    def momentum_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` fleet momentum matrix."""
        return self._momentum_state

    @momentum_state.setter
    def momentum_state(self, value: np.ndarray) -> None:
        self._store(self._momentum_state, value)

    # ------------------------------------------------------------------
    # Round entry point
    # ------------------------------------------------------------------
    def step(self, round_index: int) -> None:
        """Execute one synchronous communication round for every agent."""
        self._begin_round(round_index)
        self._round_body(round_index)

    def _begin_round(self, round_index: int) -> None:
        """Address round ``round_index``'s draws and pull its topology from the schedule.

        Resets the per-round draw counters, swaps in the round's graph and
        :class:`~repro.topology.mixing.MixingOperator` (LRU-cached by the
        schedule), refreshes the active-agent mask (churned-out agents and
        this round's stragglers are masked out of every phase), and buffers
        the schedule's events for the runner to record.  On a static
        schedule only the draw counters change.
        """
        self._draw_step = int(round_index)
        self._batch_draws[:] = 0
        self._noise_draws[:] = 0
        if self.schedule.is_static:
            return
        topology = self.schedule.topology_at(round_index)
        if topology is not self.topology:
            self.topology = topology
            self.mixing = self.schedule.operator_at(round_index)
        mask = self.schedule.active_mask_at(round_index)
        self.active_mask = mask
        self._all_active = bool(mask.all())
        self.active_agents = [int(agent) for agent in np.flatnonzero(mask)]
        self.pending_events.extend(self.schedule.events_at(round_index))

    def consume_events(self) -> List[TopologyEvent]:
        """Drain the topology/churn events buffered since the last call."""
        events = self.pending_events
        self.pending_events = []
        return events

    def freeze_inactive_rows(
        self, updated: np.ndarray, current: np.ndarray, start: int = 0
    ) -> np.ndarray:
        """Keep inactive agents' rows at ``current``; active rows take ``updated``.

        Both arrays hold the rows of agents ``start..start+len(updated)``.
        The pipeline computes block-wide updates and then pins the rows of
        agents that sat the round out.  With every agent active this
        returns ``updated`` unchanged.
        """
        if self._all_active:
            return updated
        mask = self.active_mask[start : start + len(updated), None]
        return np.where(mask, updated, current)

    # ------------------------------------------------------------------
    # Blocked round pipeline
    # ------------------------------------------------------------------
    # Every round executes as a pipeline over disjoint ``(block_rows, d)``
    # row blocks: each block draws its agents' batches, evaluates gradients
    # with the stacked passes, applies clip+noise, updates momentum/state
    # and stages its gossip payload — never materialising more than a
    # handful of block-sized transients plus the reusable fleet-shaped
    # scratch buffers.  Every batch and noise draw is addressed by (round,
    # slot, agent), every drop by (round, tag, sender, recipient) and every
    # random-k selection by (round, channel, agent), and every kernel is
    # row-wise (or row-blocked with unchanged accumulation order), so the
    # trajectory does not depend on the block size — including under a
    # parallel ``RoundScheduler``, because blocks own disjoint rows.  At the
    # default block size most fleets are a single block.

    def _fleet_blocks(self) -> List[Tuple[int, int]]:
        """The round's ``(start, stop)`` row blocks over the whole fleet."""
        return list(row_blocks(self.num_agents, self._block_rows))

    def _alloc_fleet_matrix(self, dtype: Optional[np.dtype] = None) -> np.ndarray:
        """A zeroed ``(num_agents, dimension)`` matrix on the configured storage.

        Under ``storage="memmap"`` the matrix is a memory-mapped ``.npy``
        file in the temporary directory, unlinked as soon as it is mapped:
        the mapping lives as long as the array, and no file outlives the
        process, even one that crashes.  Otherwise it is an ordinary zeros
        array.
        """
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        shape = (self.num_agents, self.dimension)
        if self._storage == "ram":
            return np.zeros(shape, dtype=dtype)
        descriptor, path = tempfile.mkstemp(prefix=".fleet.", suffix=".npy")
        os.close(descriptor)
        try:
            return np.lib.format.open_memmap(path, mode="w+", dtype=dtype, shape=shape)
        finally:
            os.unlink(path)

    def _store(self, matrix: np.ndarray, value: np.ndarray) -> None:
        """Write ``value`` into the fleet matrix ``matrix`` in place.

        The one write rule of every fleet matrix: the shape must match,
        values are cast into the matrix's dtype (an update computed in
        float64 is rounded into float32 state here), rows are copied block
        by block (no whole-fleet temporary, whatever the storage), and a
        source that overlaps the matrix is copied first.  The matrix never
        aliases ``value``.
        """
        value = np.asarray(value)
        if value.shape != matrix.shape:
            raise ValueError(
                f"fleet matrix must have shape {matrix.shape}, got {value.shape}"
            )
        if np.may_share_memory(value, matrix):
            value = value.copy()
        for start, stop in self._fleet_blocks():
            matrix[start:stop] = value[start:stop]

    def _round_scratch(self, name: str, dtype: np.dtype = np.float64) -> np.ndarray:
        """A reusable fleet-shaped working buffer for the blocked round.

        Scratches are keyed by ``(name, dtype)`` and persist across rounds,
        so the pipeline's steady-state allocation rate is zero.  Contents
        are unspecified between rounds: every stage fully overwrites the
        blocks it reads back.
        """
        dtype = np.dtype(dtype)
        key = f"{name}.{dtype.name}"
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = self._alloc_fleet_matrix(dtype)
            self._scratch[key] = scratch
        return scratch

    def _block_perturbed_gradients(
        self,
        start: int,
        stop: int,
        param_rows: Optional[np.ndarray] = None,
        batches_out: Optional[FleetBatches] = None,
    ) -> np.ndarray:
        """Draw, evaluate and privatize one row block's local gradients.

        Agents ``start..stop`` draw their round batch (inactive agents draw
        nothing and contribute zero rows), gradients are evaluated at
        ``param_rows`` (default: the corresponding state rows) with the
        stacked passes, and clip+noise draws each row's noise at its own
        agent's address.  ``batches_out`` (a fleet-length
        :class:`~repro.data.flat.FleetBatches`) receives the block's batches.
        """
        batches = self._draw_rows(start, stop)
        if batches_out is not None:
            batches_out.index[start:stop] = batches.index
            batches_out.sizes[start:stop] = batches.sizes
        rows = self.state[start:stop] if param_rows is None else param_rows
        gradients = self.fleet_gradients(rows, batches)
        return self.privatize_rows(gradients, agents=np.arange(start, stop))

    def _local_perturbed_gradients(self) -> Tuple[FleetBatches, np.ndarray]:
        """Every agent's perturbed local gradient, block by block.

        Returns the drawn batches (kept for algorithms that re-evaluate at
        neighbour models, e.g. cross-gradients) and a fleet-shaped float64
        scratch holding each agent's clipped-and-noised local gradient.
        """
        batches = FleetBatches.empty(
            self.flat_shards, self.num_agents, self.config.batch_size
        )
        out = self._round_scratch("own_perturbed", np.float64)

        def run(start: int, stop: int) -> None:
            out[start:stop] = self._block_perturbed_gradients(
                start, stop, batches_out=batches
            )

        self._scheduler.map(run, self._fleet_blocks(), serial=self._stacked is None)
        return batches, out

    def _momentum_rows(
        self, start: int, stop: int, direction: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Heavy-ball step of rows ``start..stop`` along ``direction``.

        Returns ``(m_hat, x_hat)`` with ``m_hat = alpha * m + direction``
        (rounded into the state dtype) and ``x_hat = x - gamma * m_hat``;
        inactive agents' rows stay at their current momentum and model.
        """
        momentum = self.momentum_state[start:stop]
        state = self.state[start:stop]
        momentum_hat = self.freeze_inactive_rows(
            self.config.momentum * momentum + direction, momentum, start
        ).astype(self._dtype, copy=False)
        params_hat = self.freeze_inactive_rows(
            state - self.config.learning_rate * momentum_hat, state, start
        )
        return momentum_hat, params_hat

    def _prepare_gossip_channels(self, *channels: str) -> None:
        """Eagerly create the codec's per-channel residual buffers.

        The buffers are otherwise created lazily on first use, which would
        race when parallel blocks hit a fresh channel simultaneously.
        """
        if self._compression_state is None:
            return
        for channel in channels:
            self._compression_state.ensure_channel(channel)

    def _gossip_blocks(
        self,
        tag: str,
        produce: Callable[[int, int], Tuple[np.ndarray, ...]],
        targets: Sequence[np.ndarray],
        dtype: np.dtype,
        communicate: bool = True,
        serial: bool = False,
    ) -> None:
        """The round's last blocked stage: produce each block's payload, then gossip it.

        ``produce(start, stop)`` returns one ``dtype`` row block per matrix
        in ``targets``.  On a communication round every block is
        codec-encoded (channel ``tag``, or ``"{tag}.{k}"`` for the ``k``-th
        of several payloads, all carried by one message) into a fleet
        scratch, the exchange is accounted, and each target receives
        ``W @ payload`` (with this exchange's dropped messages removed from
        ``W``, see :meth:`_lossy_mixing`).  Otherwise the blocks are stored
        straight into the targets.  ``serial`` forces inline blocks (for
        producers that run the scalar model).
        """
        channels = [tag]
        if len(targets) > 1:
            channels = [f"{tag}.{k}" for k in range(len(targets))]
        if communicate:
            self._prepare_gossip_channels(*channels)
            # A lossy codec always emits float64; the identity codec passes
            # the payload through unchanged.
            payload_dtype = dtype if self._compression_state is None else np.float64
            staged = [
                self._round_scratch(f"gossip.{k}", payload_dtype)
                for k in range(len(targets))
            ]
        else:
            staged = list(targets)

        def run(start: int, stop: int) -> None:
            for channel, block, out in zip(channels, produce(start, stop), staged):
                if communicate:
                    block = self.compress_gossip_rows(channel, block, start)
                out[start:stop] = block

        self._scheduler.map(run, self._fleet_blocks(), serial=serial)
        if not communicate:
            return
        values, wire_bytes = self.gossip_wire_cost(len(targets))
        operator, dropped = self._lossy_mixing(tag)
        self.record_fleet_exchange(tag, values, wire_bytes, dropped=dropped)
        for payload, target in zip(staged, targets):
            self.mix_rows(payload, out=target, operator=operator)

    def _delivered(
        self,
        tag: str,
        senders: np.ndarray,
        recipients: np.ndarray,
        step: Optional[int] = None,
    ) -> np.ndarray:
        """Which messages ``senders[k] -> recipients[k]`` of ``tag`` arrive.

        Each is lost with the network's ``drop_probability``, decided by
        the ``"drop"`` stream at ``(step, tag, sender, recipient)``;
        ``step`` defaults to the current round (async mode passes the
        sender's local step).
        """
        step = self._draw_step if step is None else step
        uniforms = self.streams.edge_uniforms(step, tag, senders, recipients)
        return uniforms >= self.network.drop_probability

    def _lossy_mixing(self, tag: str) -> Tuple[MixingOperator, int]:
        """The round's mixing operator minus the ``tag`` exchange's dropped messages.

        A dropped message ``j -> i`` zeroes ``w_ij``; the diagonal stays, so
        each agent mixes its own payload with whatever reached it (its row
        then sums to less than one).  Returns the operator and the number
        of dropped messages; on a loss-free network, the round's operator
        and 0.
        """
        if self.network.drop_probability == 0.0:
            return self.mixing, 0
        matrix = self.mixing.matrix.copy()
        recipients = np.repeat(np.arange(self.num_agents), np.diff(matrix.indptr))
        senders, weights = matrix.indices, matrix.data
        channels = np.flatnonzero((weights > 0.0) & (senders != recipients))
        lost = channels[~self._delivered(tag, senders[channels], recipients[channels])]
        weights[lost] = 0.0
        return MixingOperator(matrix), int(lost.size)

    def close(self) -> None:
        """Release blocked-round resources: the worker pool and the round scratches.

        Idempotent.  Memmap-backed fleet matrices need no cleanup: their
        files are unlinked when they are mapped (:meth:`_alloc_fleet_matrix`).
        """
        self._scheduler.close()
        self._scratch.clear()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _round_body(self, round_index: int) -> None:
        """One round for every agent (must be overridden)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _round_body() or override step()"
        )

    def run_round(self) -> None:
        """Advance the network round counter and run :meth:`step` once."""
        self.network.advance_round()
        self.step(self.rounds_completed)
        if self.config.epsilon is not None and self.sigma > 0:
            self.accountant.record(self.config.epsilon, self.config.delta)
        self.rounds_completed += 1

    # ------------------------------------------------------------------
    # Gradient and gossip helpers
    # ------------------------------------------------------------------
    def fleet_gradients(
        self, param_rows: np.ndarray, batches: FleetBatches
    ) -> np.ndarray:
        """Row ``k``'s gradient at ``param_rows[k]`` evaluated on ``batches[k]``.

        Uses stacked forward/backward passes when the model supports them
        (linear classifiers and MLPs); rows are grouped by batch length so
        ragged batches (agents whose shard is smaller than the configured
        batch size) only exclude themselves from a stack, not the whole
        fleet.  Models without stacked support (CNNs) fall back to one
        :meth:`Model.loss_and_gradient` call per row.  ``param_rows`` may
        contain arbitrary rows (e.g. the neighbour models of every directed
        edge for cross-gradients), not just the fleet state; ``batches``
        holds one row per parameter row (see :meth:`draw_batches` and
        :meth:`~repro.data.flat.FleetBatches.take`).  A row that drew
        nothing (an inactive agent) contributes a zero row and no
        forward/backward pass.
        """
        param_rows = np.asarray(param_rows, dtype=self._grad_dtype)
        grads = np.zeros((len(batches), self.dimension), dtype=self._grad_dtype)
        if self._stacked is None:
            for k, batch in enumerate(batches):
                if batch is not None:
                    grads[k] = self.model.loss_and_gradient(
                        batch[0], batch[1], params=param_rows[k]
                    )[1]
            return grads
        for rows, inputs, labels in batches.groups():
            if len(rows) == grads.shape[0]:
                # One group covering every row (rows ascend, so in order —
                # the common case inside a round block): write gradients
                # straight into the output buffer, skipping the fancy-index
                # gather of param_rows and the scatter copy of the results.
                self._stacked.loss_and_gradients(
                    param_rows, inputs, labels, out=grads
                )
            else:
                _, group_grads = self._stacked.loss_and_gradients(
                    param_rows[rows], inputs, labels
                )
                grads[rows] = group_grads
        return grads

    def _claim_slots(self, counts: np.ndarray, agents: np.ndarray) -> np.ndarray:
        """Slot of each row's draw: its agent's draws so far this step, in row order.

        ``counts`` (one of the per-step draw counters) is advanced by each
        agent's number of rows, so an agent's ``k``-th draw of a step gets
        slot ``k`` however its draws are split across calls.
        """
        if agents.size == 0:
            return np.zeros(0, dtype=np.int64)
        order = np.argsort(agents, kind="stable")
        ordered = agents[order]
        first = np.ones(agents.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        positions = np.arange(agents.size)
        rank = np.empty(agents.size, dtype=np.int64)
        rank[order] = positions - np.maximum.accumulate(np.where(first, positions, 0))
        slots = counts[agents] + rank
        if first.all():
            counts[agents] += 1
        else:
            np.add.at(counts, agents, 1)
        return slots

    def _draw_rows(
        self, start: int, stop: int, step: Optional[int] = None
    ) -> FleetBatches:
        """Batches of agents ``start..stop`` (inactive agents draw nothing).

        ``step`` overrides the round address and draws at slot 0 (the async
        engine keys an agent's local steps by its own step count); otherwise
        every active agent draws its next slot of the current round.
        """
        agents = np.arange(start, stop)
        if not self._all_active:
            agents = agents[self.active_mask[start:stop]]
        if step is None:
            step = self._draw_step
            slots = self._claim_slots(self._batch_draws, agents)
        else:
            slots = np.zeros(agents.size, dtype=np.int64)
        batch_size = self.config.batch_size
        words = self.streams.row_words("batch", step, agents, slots, batch_size)
        batches = FleetBatches.empty(self.flat_shards, stop - start, batch_size)
        index, sizes = self.flat_shards.sample(words, agents, batch_size)
        batches.index[agents - start] = index
        batches.sizes[agents - start] = sizes
        return batches

    def _noise_rows(
        self, agents: np.ndarray, step: Optional[int] = None
    ) -> np.ndarray:
        """``N(0, sigma^2 I)`` rows, one per entry of ``agents`` (see :meth:`_draw_rows`)."""
        if step is None:
            step = self._draw_step
            slots = self._claim_slots(self._noise_draws, agents)
        else:
            slots = np.zeros(agents.size, dtype=np.int64)
        return self.sigma * self.streams.normal_rows(step, agents, slots, self.dimension)

    def privatize_rows(
        self,
        rows: np.ndarray,
        agents: Optional[Sequence[int]] = None,
        step: Optional[int] = None,
    ) -> np.ndarray:
        """Row-wise clip to ``C`` + ``N(0, sigma^2 I)`` noise (Algorithm 1 lines 3–4, 9–10).

        Parameters
        ----------
        rows:
            ``(M, dimension)`` stack of gradients to privatize.
        agents:
            The agent that owns (and therefore noises) each row; defaults to
            ``0..num_agents-1`` (one row per agent).  An agent's rows take
            its next noise slots of the round in row order.
        step:
            Draw every row's noise at slot 0 of this step instead (async
            mode keys an agent's local steps by its own step count; one
            row per agent).
        """
        clipped = clip_rows_by_l2_norm(np.asarray(rows), self.config.clip_threshold)
        owners = (
            np.arange(self.num_agents)
            if agents is None
            else np.asarray(agents, dtype=np.int64).reshape(-1)
        )
        if len(owners) != clipped.shape[0]:
            raise ValueError(
                f"got {clipped.shape[0]} gradient rows for {len(owners)} owner agents"
            )
        if self.sigma > 0.0:
            # Inactive owners contribute zero rows and draw no noise.
            if self._all_active:
                clipped += self._noise_rows(owners, step)
            else:
                live = np.flatnonzero(self.active_mask[owners])
                clipped[live] += self._noise_rows(owners[live], step)
        return clipped

    def fleet_cross_gradients(
        self, batches: FleetBatches
    ) -> Tuple[np.ndarray, Dict[Tuple[int, int], int]]:
        """Phases 1–2 exchanges: perturbed cross-gradients, plus a row index.

        Every agent ``j`` sends its model to each neighbour ``i`` (tag
        ``"model"``); ``i`` evaluates ``j``'s model on its own batch, clips
        and noises the result and sends it back (``"cross_grad"``).  Row
        ``pair_rows[(i, j)]`` holds that cross-gradient ``g_{i,j}`` (eq. 12)
        for every pair whose reply reached ``j``; under fault injection a
        pair whose model was dropped is never evaluated and draws no noise,
        and a dropped reply is evaluated but left out of ``pair_rows``.
        Both exchanges are accounted here.

        Pairs are grouped by evaluator with owners ascending, so each
        evaluator's noise slots follow its own-gradient slot — callers
        must privatize local gradients (one row per agent, agent order)
        *before* calling this.  The pair rows are evaluated in
        evaluator-aligned chunks of about ``block_rows`` rows (one chunk
        at the default size); each evaluator's rows stay inside one chunk
        in pair order, so it claims the same noise slots under any chunking
        and any block schedule.
        """
        pairs = self.topology.directed_pairs()
        lossy = self.network.drop_probability > 0.0
        lost_models = 0
        if lossy:
            evaluators, owners = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            arrived = self._delivered("model", owners, evaluators)
            lost_models = int(np.count_nonzero(~arrived))
            pairs = [pair for pair, ok in zip(pairs, arrived) if ok]
        self.record_fleet_exchange("model", self.dimension, dropped=lost_models)
        evaluators = [i for i, _ in pairs]
        owners = [j for _, j in pairs]
        cross_perturbed = np.empty((len(pairs), self.dimension), dtype=self._grad_dtype)

        def run_chunk(start: int, stop: int) -> None:
            chunk_evaluators = evaluators[start:stop]
            gradients = self.fleet_gradients(
                self.state[owners[start:stop]], batches.take(chunk_evaluators)
            )
            cross_perturbed[start:stop] = self.privatize_rows(
                gradients, agents=chunk_evaluators
            )

        self._scheduler.map(
            run_chunk, self._evaluator_chunks(evaluators), serial=self._stacked is None
        )
        pair_rows = {pair: row for row, pair in enumerate(pairs)}
        if not lossy:
            self.record_fleet_exchange("cross_grad", self.dimension)
            return cross_perturbed, pair_rows
        returned = self._delivered(
            "cross_grad", np.array(evaluators, dtype=np.int64), np.array(owners, dtype=np.int64)
        )
        self.record_fleet_exchange(
            "cross_grad",
            self.dimension,
            sent=len(pairs),
            dropped=int(np.count_nonzero(~returned)),
        )
        return cross_perturbed, {
            pair: row for pair, row in pair_rows.items() if returned[row]
        }

    def _evaluator_chunks(self, evaluators: Sequence[int]) -> List[Tuple[int, int]]:
        """Row chunks over the directed-pair list, cut at evaluator boundaries.

        Chunks hold at least :func:`~repro.sharding.resolve_block_rows` rows
        of the pair list (except the last) and never split one evaluator's
        rows across chunks, which is what keeps each evaluator's
        cross-gradient noise slots independent of the chunking, even when
        chunks run in parallel.
        """
        if not evaluators:
            return []
        chunk_rows = resolve_block_rows(
            len(evaluators), self.dimension, getattr(self.config, "block_rows", None)
        )
        chunks: List[Tuple[int, int]] = []
        start = 0
        for k in range(1, len(evaluators) + 1):
            if k == len(evaluators) or (
                evaluators[k] != evaluators[k - 1] and k - start >= chunk_rows
            ):
                chunks.append((start, k))
                start = k
        return chunks

    def mix_rows(
        self,
        matrix: np.ndarray,
        out: Optional[np.ndarray] = None,
        operator: Optional[MixingOperator] = None,
    ) -> np.ndarray:
        """One gossip step for all agents: ``x_i <- sum_j omega_{ij} x_j`` (eqs. 24–25).

        Dispatches to the round's :class:`~repro.topology.mixing.MixingOperator`
        (CSR, O(nnz d)).  The product is computed over ``(block_rows, d)`` output blocks
        through the block scheduler (bit-identical for any block size) and
        written into ``out`` — a fleet matrix (RAM or memmap) or a scratch —
        or a new array.  ``out`` must not overlap ``matrix``: the blocks
        read all of ``matrix`` while writing their rows.  In
        ``dtype="mixed"`` mode float32 input is mixed with float64
        accumulation per block.  ``operator`` replaces the round's
        operator (a lossy exchange's, see :meth:`_lossy_mixing`).
        """
        matrix = np.asarray(matrix)
        operator = self.mixing if operator is None else operator
        if out is not None and np.may_share_memory(matrix, out):
            raise ValueError("mix_rows output must not overlap its input")
        if self._precision == "mixed" and matrix.dtype == np.float32:
            return operator.apply_mixed(matrix, block_rows=self._block_rows, out=out)
        if out is None:
            dtype = np.float32 if matrix.dtype == np.float32 else np.float64
            out = np.empty(matrix.shape, dtype=dtype)
        self._scheduler.map(
            lambda start, stop: operator.mix_block(matrix, start, stop, out),
            self._fleet_blocks(),
        )
        return out

    def record_fleet_exchange(
        self,
        tag: str,
        floats_per_message: int,
        bytes_per_message: Optional[int] = None,
        sent: Optional[int] = None,
        dropped: int = 0,
    ) -> None:
        """Account one all-neighbour exchange of the round.

        One message per directed channel (or ``sent`` messages, when only
        some channels transmit), each carrying ``floats_per_message`` floats
        (and ``bytes_per_message`` wire bytes; dense float64 when omitted),
        ``dropped`` of them lost.  Hierarchical topologies
        (:class:`~repro.topology.hierarchical.HierarchicalTopology`) expose
        a ``directed_edge_split`` — a full, loss-free exchange on one is
        accounted under ``"{tag}.intra"`` (within-cluster channels, cheap
        local links) and ``"{tag}.inter"`` (cross-cluster channels, the
        expensive hops) separately, so bandwidth reports can price the two
        tiers differently; a lossy one goes under ``tag``.
        """
        split = getattr(self.topology, "directed_edge_split", None)
        if split is not None and sent is None and not dropped:
            intra_edges, inter_edges = split
            if intra_edges:
                self.network.record_bulk(
                    f"{tag}.intra", intra_edges, floats_per_message, bytes_per_message
                )
            if inter_edges:
                self.network.record_bulk(
                    f"{tag}.inter", inter_edges, floats_per_message, bytes_per_message
                )
            return
        if sent is None:
            sent = self.topology.num_directed_edges
        self.network.record_bulk(
            tag, sent, floats_per_message, bytes_per_message, dropped
        )

    # ------------------------------------------------------------------
    # Compressed gossip
    # ------------------------------------------------------------------
    def gossip_now(self, round_index: int) -> bool:
        """Whether round ``round_index`` is a communication round.

        With ``communication_interval = n``, agents gossip every ``n``-th
        round (rounds 0, n, 2n, ...) and take purely local steps in between.
        The interval position is ``rounds_completed % n``, so it rides
        through checkpoints with the round counter.
        """
        return round_index % self.compression_config.communication_interval == 0

    def gossip_wire_cost(self, num_channels: int = 1) -> Tuple[int, int]:
        """``(values, wire_bytes)`` one gossip message carries under the codec.

        ``num_channels`` counts the logical payload streams in the message
        (1 for a plain model vector, 2 for a ``(momentum, model)`` tuple).
        """
        values, wire_bytes = self.codec.wire_cost(self.dimension)
        return num_channels * values, num_channels * wire_bytes

    def compress_gossip_rows(
        self, channel: str, rows: np.ndarray, start: int = 0
    ) -> np.ndarray:
        """Decoded gossip payload of agents ``start..start+len(rows)``.

        Active rows go through the codec (updating their error-feedback
        residuals); inactive rows transmit nothing and pass through raw.
        With the identity codec the input is returned unchanged.  The gossip
        semantics are ``x_i <- sum_j w_ij C(x_j)``: every consumer, the
        sender included, mixes the decoded value.  Residuals and random-k
        draws are per agent (the draws addressed by the current round), so
        blocks may be encoded in any order; call
        :meth:`_prepare_gossip_channels` before encoding blocks in
        parallel.
        """
        if self._compression_state is None:
            return rows
        mask = None if self._all_active else self.active_mask
        return self._compression_state.compress_block(
            channel, rows, start, start + len(rows), mask, step=self._draw_step
        )

    def draw_batches(self) -> FleetBatches:
        """One fresh mini-batch per *active* agent for the current round.

        A single vectorized draw over the whole fleet, at the same
        addresses the round pipeline's per-block draws use.  Inactive agents
        (churned out or straggling) read back as ``None`` and claim no
        slot.
        """
        return self._draw_rows(0, self.num_agents)

    def agent_rng(self, agent: int, step: Optional[int] = None) -> np.random.Generator:
        """A generator for ``agent``'s algorithm-level randomness in one round.

        Built on demand at the ``("agent", step, agent)`` address (``step``
        defaults to the current round), e.g. for PDSL's Shapley permutations
        and validation batches, so it is independent of the batch and noise
        draws and needs no checkpoint state.  Each call restarts the same
        stream: build it once per round.
        """
        step = self._draw_step if step is None else step
        return self.streams.generator("agent", step, agent)

    # ------------------------------------------------------------------
    # State accessors and evaluation
    # ------------------------------------------------------------------
    def average_parameters(self) -> np.ndarray:
        """The network-average model ``x_bar`` used in the convergence analysis."""
        return self.state.mean(axis=0)

    def consensus(self) -> float:
        """Average squared distance of agent models from their mean (Lemma 6 quantity)."""
        return consensus_distance(self.state)

    def average_train_loss(self, max_samples_per_agent: int = 256) -> float:
        """Average of each agent's loss on (a sample of) its own local dataset.

        This is the quantity plotted in Figs. 1–6 of the paper ("average
        training loss").  Each agent is evaluated on the samples
        :meth:`_evaluation_batches` fixes for it, with the stacked forward
        passes grouped by sample count (as in :meth:`fleet_gradients`) when
        the model supports them, else one ``evaluate_loss`` call per agent.
        """
        batches = self._evaluation_batches(max_samples_per_agent)
        losses = np.empty(self.num_agents, dtype=self._grad_dtype)
        if self._stacked is None:
            for agent, (inputs, labels) in enumerate(batches):
                losses[agent] = self.model.evaluate_loss(
                    inputs, labels, params=self.state[agent]
                )
        else:
            for rows, inputs, labels in batches.groups():
                losses[rows] = self._stacked.losses(self.state[rows], inputs, labels)
        return float(np.mean(losses))

    def _evaluation_batches(self, max_samples: int) -> FleetBatches:
        """Every agent's loss-evaluation samples under the cap ``max_samples``.

        An agent with at most ``max_samples`` samples is evaluated on its
        whole shard, in order, and draws nothing.  A larger agent is
        evaluated on a uniform subsample of ``max_samples``, drawn from the
        ``"eval"`` stream at the round-independent address ``(0, 0,
        agent)``, so it is the same at every evaluation and touches no
        training stream.  Built once per cap and cached.
        """
        batches = self._evaluation_sets.get(max_samples)
        if batches is not None:
            return batches
        shards = self.flat_shards
        width = int(min(max_samples, shards.sizes.max()))
        steps = np.arange(width)
        sizes = np.minimum(shards.sizes, width)
        index = np.where(steps < sizes[:, None], shards.starts[:, None] + steps, 0)
        large = np.flatnonzero(shards.sizes > width)
        if large.size:
            words = self.streams.row_words(
                "eval", 0, large, np.zeros(large.size, dtype=np.int64), width
            )
            index[large] = shards.sample(words, large, width)[0]
        batches = self._evaluation_sets[max_samples] = FleetBatches(shards, index, sizes)
        return batches

    def test_accuracy(self, test_data: Dataset, mode: str = "mean_agent") -> float:
        """Test accuracy of the trained system.

        ``mode="mean_agent"`` averages each agent's own accuracy (the natural
        decentralized metric); ``mode="average_model"`` evaluates the single
        network-average model.  A stacked model scores the fleet block by
        block with :meth:`~repro.nn.batched.StackedSequential.accuracies`
        on the shared test set, equal per agent to the one ``accuracy`` call
        per agent that other models take.
        """
        if mode == "average_model":
            return self.model.accuracy(
                test_data.inputs, test_data.labels, params=self.average_parameters()
            )
        if mode == "mean_agent":
            if self._stacked is None:
                accuracies = [
                    self.model.accuracy(test_data.inputs, test_data.labels, params=row)
                    for row in self.state
                ]
            else:
                accuracies = np.concatenate(
                    [
                        self._stacked.accuracies(
                            self.state[start:stop], test_data.inputs, test_data.labels
                        )
                        for start, stop in self._fleet_blocks()
                    ]
                )
            return float(np.mean(accuracies))
        raise ValueError("mode must be 'mean_agent' or 'average_model'")

    def privacy_spent(self) -> Tuple[float, float]:
        """Cumulative (epsilon, delta) recorded by the accountant (advanced composition)."""
        return self.accountant.total()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    #: Bump when the state-dict layout changes so old checkpoints fail with a
    #: clear error instead of silently restoring garbage.
    #: Format 2 added the gossip-compression state (error-feedback residuals
    #: and sparsifier streams) and the network's byte counters.  Format 3
    #: replaced the per-agent generator states with the counter-based
    #: streams, whose position is ``(stream_seed, rounds_completed)``.
    #: Format 4 dropped the random-k sparsifier's per-agent generator states
    #: (its coordinates now come from the ``"codec"`` stream) and made the
    #: compression state record the codec's parameters.
    STATE_FORMAT = 4

    #: What changed since each older format, for the rejection message.
    _FORMAT_CHANGES = {
        2: "format 2 checkpoints hold per-agent generator states, which the "
        "counter-based streams of format 3 replace",
        3: "format 3 checkpoints hold the random-k sparsifier's per-agent "
        "generator states, which the \"codec\" stream of format 4 replaces, "
        "and do not record the codec's parameters",
    }

    def state_dict(self, copy: bool = True) -> Dict[str, object]:
        """Everything needed to resume this run **bit-identically**.

        Captures the fleet matrices (parameters, momentum), the privacy
        accountant's events, the network's round counter and traffic
        totals, the stream seed and the round count.  The round count is
        the position of every training stream (batch, noise and agent
        draws are addressed by round, see :mod:`repro.core.streams`) and of
        the :class:`~repro.topology.schedule.TopologySchedule`, because
        schedules are pure functions of ``(seed, round)`` too.  Subclasses contribute
        their own matrices through :meth:`_extra_state`.

        Call only at a round boundary (between :meth:`run_round` calls).
        By default the
        returned dict owns copies of every array, so later training does not
        mutate it; it is picklable for on-disk checkpoints (see
        :mod:`repro.simulation.checkpoint`).  ``copy=False`` returns *views*
        of the fleet matrices instead — for out-of-core checkpointing, where
        the caller serializes the payload to disk immediately and a second
        in-RAM copy of the fleet would defeat the purpose.
        """
        return {
            "state_format": self.STATE_FORMAT,
            "algorithm": self.name,
            "num_agents": self.num_agents,
            "dimension": self.dimension,
            "rounds_completed": self.rounds_completed,
            "state": self.state.copy() if copy else self.state,
            "momentum_state": self.momentum_state.copy() if copy else self.momentum_state,
            "stream_seed": self.streams.seed,
            "accountant_events": self.accountant.state_dict(),
            "network": self.network.state_dict(),
            "pending_events": [
                (event.round, event.kind, dict(event.detail))
                for event in self.pending_events
            ],
            "compression": (
                None
                if self._compression_state is None
                else self._compression_state.state_dict()
            ),
            "extra": self._extra_state(copy=copy),
        }

    def load_state_dict(self, payload: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`state_dict`.

        The algorithm must have been constructed identically to the one that
        produced the payload (same model, topology/schedule, shards and
        config — in the experiment layer, the same spec): this method
        restores *state*, not *structure*, and validates the identity checks
        it can (algorithm name, fleet shape, stream seed).  After the call
        the next :meth:`run_round` continues the interrupted trajectory bit
        for bit.
        """
        fmt = payload.get("state_format")
        if fmt != self.STATE_FORMAT:
            change = self._FORMAT_CHANGES.get(fmt)
            raise ValueError(
                f"checkpoint state format {fmt!r} does not match this code's "
                f"format {self.STATE_FORMAT}"
                + (f" ({change}; restart the run from round 0)" if change else "")
            )
        if payload["algorithm"] != self.name:
            raise ValueError(
                f"checkpoint was written by algorithm {payload['algorithm']!r}, "
                f"cannot restore into {self.name!r}"
            )
        if (payload["num_agents"], payload["dimension"]) != (
            self.num_agents,
            self.dimension,
        ):
            raise ValueError(
                f"checkpoint fleet shape ({payload['num_agents']}, "
                f"{payload['dimension']}) does not match this algorithm's "
                f"({self.num_agents}, {self.dimension})"
            )
        if payload["stream_seed"] != self.streams.seed:
            raise ValueError(
                f"checkpoint was written with stream seed "
                f"{payload['stream_seed']}, this algorithm uses {self.streams.seed}"
            )
        # Checkpoint sidecar arrays load as read-only memmaps, and the setters
        # copy block by block, so an out-of-core restore holds only
        # block-sized transients.
        self.state = payload["state"]
        self.momentum_state = payload["momentum_state"]
        self.accountant.load_state_dict(payload["accountant_events"])
        self.network.load_state_dict(payload["network"])
        self.pending_events = [
            TopologyEvent(round=int(r), kind=str(kind), detail=dict(detail))
            for r, kind, detail in payload["pending_events"]
        ]
        compression = payload.get("compression")
        if self._compression_state is None:
            if compression is not None:
                raise ValueError(
                    f"checkpoint carries compression state (codec "
                    f"{compression.get('codec')!r}) but this algorithm was "
                    f"built without a lossy codec"
                )
        else:
            if compression is None:
                raise ValueError(
                    f"checkpoint has no compression state but this algorithm "
                    f"compresses gossip with codec {self.codec.name!r}"
                )
            self._compression_state.load_state_dict(compression)
        self.rounds_completed = int(payload["rounds_completed"])
        self._draw_step = self.rounds_completed
        self._batch_draws[:] = 0
        self._noise_draws[:] = 0
        # Per-round participation state is refreshed by _begin_round before
        # the next round touches it; reset to the static default meanwhile.
        self.active_mask = np.ones(self.num_agents, dtype=bool)
        self.active_agents = list(range(self.num_agents))
        self._all_active = True
        self._load_extra_state(payload.get("extra", {}))

    def _extra_state(self, copy: bool = True) -> Dict[str, object]:
        """Subclass hook: algorithm-specific resumable state.

        The base class covers parameters, momentum and the stream position; an
        algorithm with additional per-agent matrices (e.g. DP-NET-FLEET's
        gradient-tracking variables) returns them here — as copies by
        default, as views with ``copy=False`` (out-of-core checkpointing,
        mirroring :meth:`state_dict`'s contract).
        """
        return {}

    def _load_extra_state(self, payload: Dict[str, object]) -> None:
        """Subclass hook: restore what :meth:`_extra_state` captured."""
        if payload:
            raise ValueError(
                f"checkpoint carries extra state {sorted(payload)} but "
                f"{type(self).__name__} does not define _load_extra_state()"
            )
