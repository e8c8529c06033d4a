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
a round out (churn, stragglers) draw no randomness and keep frozen rows on
both engines.

Two execution engines share that state (selected by
``AlgorithmConfig.backend``):

* the **loop** backend steps agents one at a time and routes every exchange
  through the :class:`Network` mailbox — faithful to a real deployment,
  message by message, and required for fault injection;
* the **vectorized** backend performs the same round as whole-fleet tensor
  operations — the gossip step is a single ``W @ X`` multiply
  (:meth:`mix_rows`, dispatched through the topology's
  :class:`~repro.topology.mixing.MixingOperator`: O(M^2 d) dense or
  O(nnz d) CSR, bit-identical either way), gradients are evaluated with
  stacked forward/backward passes where the model allows it
  (:meth:`fleet_gradients`), and clipping + Gaussian noise are applied
  row-wise (:meth:`privatize_rows`).

Randomness comes from keyed counter-based streams
(:class:`~repro.core.streams.FleetStreams`): an agent's ``k``-th batch or
noise draw of round ``t`` is a pure function of ``(seed, t, k, agent)``, so
both engines, any row blocking and any set of inactive agents see the same
draws, and a fleet-wide draw is one vectorized call per row block.  The
local datasets are stored once, concatenated
(:class:`~repro.data.flat.FlatShards`), so batches are index rows into one
array.  The two engines therefore produce the same trajectory for a fixed
seed (up to floating-point associativity).

Subclasses implement :meth:`_step_loop` (and usually
:meth:`_step_vectorized`), each executing one communication round for all
agents; :meth:`step` dispatches on the configured backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.compression.codecs import CompressedPayload, make_codec
from repro.compression.config import CompressionConfig
from repro.compression.state import CompressionState
from repro.core.config import AlgorithmConfig
from repro.core.streams import FleetStreams
from repro.data.dataset import Dataset
from repro.data.flat import Batch, FlatShards, FleetBatches
from repro.nn.batched import StackedSequential, supports_stacked
from repro.nn.layers import Dropout
from repro.nn.model import Model
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.mechanisms import clip_by_l2_norm, clip_rows_by_l2_norm
from repro.sharding import FleetState, RoundScheduler, resolve_block_rows, row_blocks
from repro.simulation.metrics import consensus_distance
from repro.simulation.network import Network
from repro.topology.graphs import Topology
from repro.topology.mixing import validate_mixing_matrix
from repro.topology.schedule import (
    ShiftOneSchedule,
    StaticSchedule,
    TopologyEvent,
    TopologySchedule,
)

__all__ = ["AgentRows", "DecentralizedAlgorithm"]


class AgentRows:
    """List-like view over the rows of an ``(num_agents, dimension)`` fleet matrix.

    The vectorized engine stores all agents' vectors in one contiguous
    matrix; this adapter preserves the historical per-agent list API
    (``algorithm.params[i]``, iteration, item assignment) without copying.
    Reads return row *views* into the underlying matrix; writes
    (``rows[i] = vector``) store into it.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def __len__(self) -> int:
        return int(self._matrix.shape[0])

    @overload
    def __getitem__(self, index: int) -> np.ndarray: ...

    @overload
    def __getitem__(self, index: slice) -> List[np.ndarray]: ...

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._matrix[i] for i in range(*index.indices(len(self)))]
        return self._matrix[index]

    def __setitem__(self, index: int, value: np.ndarray) -> None:
        # The fleet matrix's dtype is authoritative (resolved once from
        # AlgorithmConfig.dtype); writes are rounded into it.
        self._matrix[index] = np.asarray(value, dtype=self._matrix.dtype)

    def __iter__(self):
        return iter(self._matrix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AgentRows(shape={self._matrix.shape})"


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
        Optimisation / DP hyper-parameters, including the execution
        ``backend`` (``"loop"`` or ``"vectorized"``).
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
        # The gossip operator: W in dense or CSR storage, per the config's
        # mixing_backend ("auto" selects by fleet size and edge density).
        # Both formats apply W with the same accumulation order, so the
        # choice is purely a performance knob — trajectories are
        # bit-identical either way.
        mixing_backend = getattr(config, "mixing_backend", "auto")
        self._mixing_format = None if mixing_backend == "auto" else mixing_backend
        self.mixing = topology.mixing_operator(self._mixing_format)
        self.model = model
        self.topology = topology
        self.shards = list(shards)
        self.config = config
        self.validation = validation
        self.num_agents = topology.num_agents
        self.dimension = model.num_params
        self.sigma = config.resolve_sigma()
        # Precision and sharding knobs.  ``_dtype`` is the single source of
        # truth for the fleet-state element type (every state matrix, every
        # state assignment and the loop engine's row writes funnel through
        # it, so the two engines cannot drift to different dtypes);
        # ``_grad_dtype`` is its counterpart for gradient/loss buffers, which
        # stay double precision in every mode because the model kernels are
        # float64.  ``_block_rows`` turns on the streaming (row-blocked)
        # kernels for gossip, clip+noise and codec passes.
        self._precision: str = getattr(config, "dtype", "float64")
        self._dtype: np.dtype = np.dtype(
            np.float64 if self._precision == "float64" else np.float32
        )
        self._grad_dtype: np.dtype = np.dtype(np.float64)
        self._block_rows: Optional[int] = getattr(config, "block_rows", None)
        # Streamed-round plumbing.  ``_stream_rows`` is the resolved row-block
        # size every blocked stage uses (the explicit ``block_rows`` when set,
        # else a ~32 MiB default); ``_scheduler`` runs independent row blocks
        # of one stage, serially (``block_workers=1``) or on a thread pool;
        # ``_pinned`` backs the fleet matrices with memmap FleetStates
        # (``storage="memmap"``) so whole-fleet state never has to be
        # resident; ``_scratch`` holds the handful of reusable fleet-shaped
        # working buffers the streamed round writes block by block.
        self._storage: str = getattr(config, "storage", "ram")
        self._pinned: bool = self._storage == "memmap"
        self._block_workers: int = max(1, int(getattr(config, "block_workers", 1)))
        self._scheduler = RoundScheduler(self._block_workers)
        self._stream_rows: int = resolve_block_rows(
            topology.num_agents, model.num_params, self._block_rows, itemsize=8
        )
        self._fleet_backing: Dict[str, FleetState] = {}
        self._scratch: Dict[str, np.ndarray] = {}
        # The codec compresses gossip payloads; its per-agent error-feedback
        # residuals and sparsifier streams live in a CompressionState.  The
        # identity codec carries no state at all, so the legacy path stays
        # bit-identical (and pays nothing).
        self.codec = make_codec(self.compression_config, self.dimension)
        self._compression_state: Optional[CompressionState] = (
            None
            if self.codec.is_identity
            else CompressionState(
                self.codec,
                self.num_agents,
                self.dimension,
                error_feedback=self.compression_config.error_feedback,
                seed=config.seed,
            )
        )

        # Per-round participation state, refreshed by :meth:`_begin_round`
        # from the schedule.  On a static schedule every agent is active in
        # every round and none of the masking paths are taken.
        self.active_mask: np.ndarray = np.ones(self.num_agents, dtype=bool)
        self.active_agents: List[int] = list(range(self.num_agents))
        self._all_active = True
        self.pending_events: List[TopologyEvent] = []

        # Every training draw is addressed by (step, slot, agent) in the
        # run's keyed streams; ``_draw_step`` is the step being executed and
        # the two counters hold each agent's draws so far in it (the slot of
        # its next draw), reset at the start of every round.
        self.streams = FleetStreams(config.seed)
        self.flat_shards = FlatShards.from_datasets(self.shards)
        self._draw_step = 0
        self._batch_draws = np.zeros(self.num_agents, dtype=np.int64)
        self._noise_draws = np.zeros(self.num_agents, dtype=np.int64)
        self.network = Network(self.num_agents)
        self.accountant = PrivacyAccountant()

        initial = np.asarray(model.get_flat_params(), dtype=self._dtype)
        # Canonical fleet state: row i is agent i's parameter vector.  The
        # initial vector is cast *before* tiling so low-precision modes never
        # materialise a float64 fleet matrix even transiently.  With
        # ``storage="memmap"`` both fleet matrices live in memmap-backed
        # FleetStates and are filled block by block, so even initialisation
        # never needs a whole-fleet in-RAM temporary.
        if self._pinned:
            self._state = self._alloc_fleet_matrix("state")
            for start, stop in self._fleet_blocks():
                self._state[start:stop] = initial[None, :]
            self._momentum_state = self._alloc_fleet_matrix("momentum_state")
        else:
            self.state = np.tile(initial[None, :], (self.num_agents, 1))
            self.momentum_state = np.zeros(
                (self.num_agents, self.dimension), dtype=self._dtype
            )
        self._stacked: Optional[StackedSequential] = (
            StackedSequential(model) if supports_stacked(model) else None
        )
        # Models with stochastic layers draw from one RNG stream shared
        # across every forward pass, so re-grouping gradient evaluations
        # (as the vectorized engine does for cross-gradients) would change
        # the draws; such models run on the loop engine to stay reproducible.
        # Models whose layer structure cannot be inspected are treated as
        # stochastic — the conservative choice that preserves the documented
        # backend-equivalence guarantee for arbitrary Model subclasses.
        layers = getattr(model, "layers", None)
        self._model_is_stochastic = layers is None or any(
            isinstance(layer, Dropout) and layer.rate > 0.0 for layer in layers
        )
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    # Fleet state accessors (list-compatible views over the state matrix)
    # ------------------------------------------------------------------
    def _as_state_matrix(self, value: Sequence[np.ndarray]) -> np.ndarray:
        if isinstance(value, np.ndarray) and value.ndim == 2:
            # Fast path for matrix payloads (checkpoints, fleet-scale
            # assignments): a single cast-copy instead of materialising N
            # Python row objects.  Always a fresh writable array — callers
            # rely on the result never aliasing their input.
            matrix = np.array(value, dtype=self._dtype)
        else:
            matrix = np.array(list(value), dtype=self._dtype)
        if matrix.shape != (self.num_agents, self.dimension):
            raise ValueError(
                f"fleet state must have shape ({self.num_agents}, {self.dimension}), "
                f"got {matrix.shape}"
            )
        return matrix

    def _store_blocked(self, dest: np.ndarray, value: np.ndarray) -> None:
        """Blocked in-place copy into a pinned (memmap-backed) fleet matrix.

        Per-block assignment casts into ``dest``'s dtype exactly like the
        one-shot ``np.asarray(value, dtype)`` rebind would, so the pinned
        setters are bit-identical to the RAM setters while never
        materialising a second fleet-sized array.
        """
        value = np.asarray(value)
        if value.shape != dest.shape:
            raise ValueError(
                f"fleet state must have shape {dest.shape}, got {value.shape}"
            )
        if value is dest:
            return
        for start, stop in row_blocks(dest.shape[0], self._stream_rows):
            dest[start:stop] = value[start:stop]

    @property
    def state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` fleet parameter matrix."""
        return self._state

    @state.setter
    def state(self, value: np.ndarray) -> None:
        # Every whole-fleet assignment funnels through the configured state
        # dtype: an update computed in float64 (gradients always are) is
        # rounded into float32 state here, under either engine.  Pinned
        # (memmap) storage streams the assignment into the backing store
        # block by block instead of rebinding.
        if getattr(self, "_pinned", False):
            self._store_blocked(self._state, value)
        else:
            self._state = np.asarray(value, dtype=self._dtype)

    @property
    def momentum_state(self) -> np.ndarray:
        """The ``(num_agents, dimension)`` fleet momentum matrix."""
        return self._momentum_state

    @momentum_state.setter
    def momentum_state(self, value: np.ndarray) -> None:
        if getattr(self, "_pinned", False):
            self._store_blocked(self._momentum_state, value)
        else:
            self._momentum_state = np.asarray(value, dtype=self._dtype)

    @property
    def params(self) -> AgentRows:
        """Per-agent parameter vectors as a list-like view over the state matrix."""
        return AgentRows(self.state)

    @params.setter
    def params(self, value: Sequence[np.ndarray]) -> None:
        self.state = self._as_state_matrix(value)

    @property
    def momenta(self) -> AgentRows:
        """Per-agent momentum buffers as a list-like view over the momentum matrix."""
        return AgentRows(self.momentum_state)

    @momenta.setter
    def momenta(self, value: Sequence[np.ndarray]) -> None:
        self.momentum_state = self._as_state_matrix(value)

    # ------------------------------------------------------------------
    # Core interface and backend dispatch
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The engine that will execute the next round (after fallbacks)."""
        return "vectorized" if self._use_vectorized() else "loop"

    def _use_vectorized(self) -> bool:
        # Message drops are per-message events; they only exist on the loop
        # path, so a lossy network forces the loop backend.  Stochastic
        # models (dropout) force it too: their shared forward-pass RNG would
        # be consumed in a different order by the re-grouped vectorized
        # gradient evaluations, breaking loop/vectorized trajectory
        # equivalence.
        return (
            getattr(self.config, "backend", "loop") == "vectorized"
            and self.network.drop_probability == 0.0
            and not self._model_is_stochastic
        )

    def step(self, round_index: int) -> None:
        """Execute one synchronous communication round for every agent."""
        self._draw_step = int(round_index)
        self._batch_draws[:] = 0
        self._noise_draws[:] = 0
        self._begin_round(round_index)
        if self._use_vectorized():
            self._step_vectorized(round_index)
        else:
            self._step_loop(round_index)

    def _begin_round(self, round_index: int) -> None:
        """Pull round ``round_index``'s topology and participation from the schedule.

        Swaps in the round's graph and
        :class:`~repro.topology.mixing.MixingOperator` (LRU-cached by the
        schedule), refreshes the active-agent mask (churned-out agents and
        this round's stragglers are masked out of every phase), tells the
        network which agents are reachable, and buffers the schedule's
        events for the runner to record.  On a static schedule this is a
        no-op, so the legacy fixed-topology path is untouched.
        """
        if self.schedule.is_static:
            return
        topology = self.schedule.topology_at(round_index)
        if topology is not self.topology:
            self.topology = topology
            self.mixing = self.schedule.operator_at(round_index, self._mixing_format)
        mask = self.schedule.active_mask_at(round_index)
        self.active_mask = mask
        self._all_active = bool(mask.all())
        self.active_agents = [int(agent) for agent in np.flatnonzero(mask)]
        self.network.set_active_mask(mask)
        self.pending_events.extend(self.schedule.events_at(round_index))

    def is_active(self, agent: int) -> bool:
        """Whether the agent participates in the current round."""
        return bool(self.active_mask[agent])

    def consume_events(self) -> List[TopologyEvent]:
        """Drain the topology/churn events buffered since the last call."""
        events = self.pending_events
        self.pending_events = []
        return events

    def freeze_inactive_rows(
        self, updated: np.ndarray, current: np.ndarray
    ) -> np.ndarray:
        """Keep inactive agents' rows at ``current``; active rows take ``updated``.

        The vectorized engine computes whole-fleet updates and then pins the
        rows of agents that sat the round out — matching the loop engine,
        which simply never touches them.  With every agent active this
        returns ``updated`` unchanged (bit-identical legacy path).
        """
        if self._all_active:
            return updated
        return np.where(self.active_mask[:, None], updated, current)

    # ------------------------------------------------------------------
    # Streamed round pipeline
    # ------------------------------------------------------------------
    # With ``block_rows`` configured, the vectorized engine executes the
    # *whole* round as a pipeline over disjoint ``(block_rows, d)`` row
    # blocks: each block draws its agents' batches, evaluates gradients with
    # the stacked passes, applies clip+noise, updates momentum/state and
    # stages its gossip payload — never materialising more than a handful of
    # block-sized transients plus the reusable fleet-shaped scratch buffers.
    # Every batch and noise draw is addressed by (round, slot, agent), each
    # codec stream is per-agent, and all whole-fleet kernels used here are
    # row-wise (or row-blocked with unchanged accumulation order), so the
    # streamed round is bit-identical to the one-shot round — including
    # under a parallel ``RoundScheduler``, because blocks own disjoint rows.

    @property
    def _streamed(self) -> bool:
        """Whether the vectorized round runs on the blocked stream pipeline."""
        return self._block_rows is not None

    def _fleet_blocks(self) -> List[Tuple[int, int]]:
        """The round's ``(start, stop)`` row blocks over the whole fleet."""
        return list(row_blocks(self.num_agents, self._stream_rows))

    def _alloc_fleet_matrix(
        self, name: str, dtype: Optional[np.dtype] = None
    ) -> np.ndarray:
        """A zeroed ``(num_agents, dimension)`` matrix on the configured storage.

        Under ``storage="memmap"`` the matrix is backed by a
        :class:`~repro.sharding.FleetState` memmap (tracked so :meth:`close`
        unlinks the file); otherwise it is an ordinary zeros array.
        """
        dtype = self._dtype if dtype is None else np.dtype(dtype)
        if not self._pinned:
            return np.zeros((self.num_agents, self.dimension), dtype=dtype)
        previous = self._fleet_backing.pop(name, None)
        if previous is not None:
            previous.close()
        backing = FleetState(
            self.num_agents,
            self.dimension,
            dtype=dtype,
            block_rows=self._stream_rows,
            storage="memmap",
        )
        self._fleet_backing[name] = backing
        return backing.array

    def _round_scratch(self, name: str, dtype: np.dtype = np.float64) -> np.ndarray:
        """A reusable fleet-shaped working buffer for the streamed round.

        Scratches are keyed by ``(name, dtype)`` and persist across rounds,
        so the streamed pipeline's steady-state allocation rate is zero.
        Contents are unspecified between rounds: every stage fully overwrites
        the blocks it reads back.
        """
        dtype = np.dtype(dtype)
        key = f"{name}.{dtype.name}"
        scratch = self._scratch.get(key)
        if scratch is None:
            scratch = self._alloc_fleet_matrix(f"scratch.{key}", dtype=dtype)
            self._scratch[key] = scratch
        return scratch

    def _freeze_block(
        self, updated: np.ndarray, current: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """:meth:`freeze_inactive_rows` restricted to rows ``start:stop``."""
        if self._all_active:
            return updated
        return np.where(self.active_mask[start:stop, None], updated, current)

    def _block_perturbed_gradients(
        self,
        start: int,
        stop: int,
        param_rows: Optional[np.ndarray] = None,
        batches_out: Optional[FleetBatches] = None,
    ) -> np.ndarray:
        """Draw, evaluate and privatize one row block's local gradients.

        The blocked twin of ``privatize_rows(fleet_gradients(state,
        draw_batches()))``: agents ``start..stop`` draw their round batch
        (inactive agents draw nothing and contribute zero rows), gradients
        are evaluated at ``param_rows`` (default: the corresponding state
        rows) with the stacked passes, and clip+noise draws each row's noise
        at its own agent's address — all bit-identical to the whole-fleet
        calls because every kernel involved is per-row and every draw is
        addressed by agent.  ``batches_out`` (a fleet-length
        :class:`~repro.data.flat.FleetBatches`) receives the block's batches.
        """
        batches = self._draw_rows(start, stop)
        if batches_out is not None:
            batches_out.index[start:stop] = batches.index
            batches_out.sizes[start:stop] = batches.sizes
        rows = self.state[start:stop] if param_rows is None else param_rows
        gradients = self.fleet_gradients(rows, batches)
        return self.privatize_rows(gradients, agents=np.arange(start, stop))

    def _streamed_local_perturbed(self) -> Tuple[FleetBatches, np.ndarray]:
        """Blocked phase 1: every agent's perturbed local gradient.

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

    def _compress_block(
        self, channel: str, block: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Codec-encode one row block of a gossip channel (identity: pass-through).

        Callers must have primed the channel with
        :meth:`_prepare_gossip_channels` before dispatching blocks to a
        parallel scheduler (residual buffers are created lazily).
        """
        if self._compression_state is None:
            return block
        mask = None if self._all_active else self.active_mask
        return self._compression_state.compress_block(channel, block, start, stop, mask)

    def _prepare_gossip_channels(self, *channels: str) -> None:
        """Eagerly create the codec's per-channel residual buffers.

        The buffers are otherwise created lazily on first use, which would
        race when parallel blocks hit a fresh channel simultaneously.
        """
        if self._compression_state is None:
            return
        for channel in channels:
            self._compression_state.ensure_channel(channel)

    def _gossip_dtype(self, payload_dtype: np.dtype) -> np.dtype:
        """Element type a gossip-channel scratch must have.

        A lossy codec always emits float64 (``compress_rows`` casts its
        input up before encoding), regardless of the payload dtype; the
        identity codec passes the payload through unchanged.
        """
        if self._compression_state is None:
            return np.dtype(payload_dtype)
        return np.dtype(np.float64)

    def _mix_into(self, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The gossip product ``W @ matrix`` written into ``out``.

        Reproduces :meth:`mix_rows`'s dispatch (mixed-precision float32
        payloads use the float64-accumulating kernel) while writing blocks
        straight into ``out`` — which may be state itself, a pinned memmap,
        or a scratch — through the block scheduler.  ``matrix`` is read
        through a write-protected view: it is a pure input of the product,
        so an aliasing bug raises instead of corrupting it mid-mix.
        """
        source = np.asarray(matrix)
        source = source.view()
        source.flags.writeable = False
        if self._precision == "mixed" and source.dtype == np.float32:
            self.mixing.apply_mixed(source, block_rows=self._block_rows, out=out)
            return out
        self._scheduler.map(
            lambda start, stop: self.mixing.mix_block(source, start, stop, out),
            self._fleet_blocks(),
        )
        return out

    def close(self) -> None:
        """Release streamed-round resources (worker pool, memmap backings).

        Idempotent.  After closing, the algorithm instance must not be used
        for further rounds: pinned fleet matrices are detached from their
        (unlinked) backing files.
        """
        self._scheduler.close()
        backings = list(self._fleet_backing.values())
        self._fleet_backing.clear()
        self._scratch.clear()
        for backing in backings:
            backing.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _step_loop(self, round_index: int) -> None:
        """One round via per-agent message passing (must be overridden)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _step_loop() (and optionally "
            "_step_vectorized()) or override step() directly"
        )

    def _step_vectorized(self, round_index: int) -> None:
        """One round via fleet-level tensor operations.

        Defaults to the loop implementation so algorithms without a
        vectorized port remain correct under either backend setting.
        """
        self._step_loop(round_index)

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
    def local_gradient(
        self,
        agent: int,
        params: np.ndarray,
        batch: Batch,
    ) -> np.ndarray:
        """Stochastic gradient of the loss at ``params`` on ``agent``'s batch.

        When ``params`` belongs to a neighbour this is exactly the
        cross-gradient ``g_{i,j}`` of eq. 12: agent ``i``'s data, agent
        ``j``'s model.
        """
        inputs, labels = batch
        _, grad = self.model.loss_and_gradient(inputs, labels, params=params)
        return grad

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
                # the common case inside a streamed block): write gradients
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

    @staticmethod
    def _stack_groups(batches: Sequence[Batch]):
        """Group ``(inputs, labels)`` pairs by shape and stack each group.

        The stacked engine needs rectangular ``(M, B, ...)`` tensors, so
        ragged entries (agents whose shard is smaller than the configured
        batch or evaluation-sample size) only exclude themselves from a
        stack, not the whole fleet.  Yields ``(row_indices, inputs, labels)``
        per group with the original order preserved inside each group.
        """
        groups: Dict[Tuple, List[int]] = {}
        for k, (inputs, labels) in enumerate(batches):
            groups.setdefault((inputs.shape, labels.shape), []).append(k)
        for rows in groups.values():
            yield (
                rows,
                np.stack([batches[k][0] for k in rows], axis=0),
                np.stack([batches[k][1] for k in rows], axis=0),
            )

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

    def draw_batch(self, agent: int, step: Optional[int] = None) -> Optional[Batch]:
        """One mini-batch of ``agent``, ``None`` if it is inactive (see :meth:`_draw_rows`)."""
        return self._draw_rows(agent, agent + 1, step)[0]

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

    def privatize(
        self, agent: int, gradient: np.ndarray, step: Optional[int] = None
    ) -> np.ndarray:
        """Clip to ``C`` and add ``N(0, sigma^2 I)`` noise (Algorithm 1 lines 3–4, 9–10).

        The noise is the agent's next draw of the round (or of its local
        step ``step`` in async mode), identical to the row
        :meth:`privatize_rows` gives the same draw.
        """
        clipped = clip_by_l2_norm(gradient, self.config.clip_threshold)
        if self.sigma == 0.0:
            return clipped
        return clipped + self._noise_rows(np.array([agent]), step)[0]

    def privatize_rows(
        self, rows: np.ndarray, agents: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Row-wise clip + Gaussian noise, each row noised at its owner's address.

        Parameters
        ----------
        rows:
            ``(M, dimension)`` stack of gradients to privatize.
        agents:
            The agent that owns (and therefore noises) each row; defaults to
            ``0..num_agents-1`` (one row per agent).  An agent's rows take
            its next noise slots in row order, so rows owned by the same
            agent must appear in the order the loop backend would privatize
            them for both backends to draw identical noise.
        """
        rows = np.asarray(rows)
        if self._block_rows is None:
            clipped = clip_rows_by_l2_norm(rows, self.config.clip_threshold)
        else:
            # Streamed clipping: the kernel is purely row-wise, so applying
            # it block by block is identical to the whole-matrix call while
            # bounding the transient to one (block_rows, d) chunk.
            clipped = np.empty_like(rows)
            for start in range(0, rows.shape[0], self._block_rows):
                stop = min(start + self._block_rows, rows.shape[0])
                clipped[start:stop] = clip_rows_by_l2_norm(
                    rows[start:stop], self.config.clip_threshold
                )
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
            # Inactive owners contribute zero rows and draw no noise,
            # mirroring the loop engine which never reaches their privatize
            # call.
            if self._all_active:
                clipped += self._noise_rows(owners)
            else:
                live = np.flatnonzero(self.active_mask[owners])
                clipped[live] += self._noise_rows(owners[live])
        return clipped

    def fleet_cross_gradients(
        self, batches: FleetBatches
    ) -> Tuple[np.ndarray, Dict[Tuple[int, int], int]]:
        """Perturbed cross-gradients for every directed pair, plus a row index.

        Row ``pair_rows[(i, j)]`` holds the clipped-and-noised gradient of
        agent ``j``'s model evaluated on agent ``i``'s batch (the
        cross-gradient ``g_{i,j}`` of eq. 12).  Pairs are grouped by
        evaluator with owners ascending, so each evaluator's noise slots
        follow its own-gradient slot in exactly the loop backend's order —
        callers must privatize local gradients (one row per agent, agent
        order) *before* calling this.
        """
        pairs = self.topology.directed_pairs()
        evaluators = [i for i, _ in pairs]
        owners = [j for _, j in pairs]
        if self._streamed and pairs:
            # Streamed twin: evaluate the pair rows in evaluator-aligned
            # chunks of ~block_rows rows.  Each evaluator's rows stay inside
            # one chunk in their one-shot order, so it claims the same noise
            # slots as in the one-shot call — bit-identical under any
            # chunking and any block schedule.
            cross_perturbed = np.empty(
                (len(pairs), self.dimension), dtype=self._grad_dtype
            )

            def run_chunk(start: int, stop: int) -> None:
                chunk_owners = owners[start:stop]
                chunk_evaluators = evaluators[start:stop]
                gradients = self.fleet_gradients(
                    self.state[chunk_owners], batches.take(chunk_evaluators)
                )
                cross_perturbed[start:stop] = self.privatize_rows(
                    gradients, agents=chunk_evaluators
                )

            self._scheduler.map(
                run_chunk,
                self._evaluator_chunks(evaluators),
                serial=self._stacked is None,
            )
        else:
            cross = self.fleet_gradients(self.state[owners], batches.take(evaluators))
            cross_perturbed = self.privatize_rows(cross, agents=evaluators)
        pair_rows = {pair: row for row, pair in enumerate(pairs)}
        return cross_perturbed, pair_rows

    def _evaluator_chunks(self, evaluators: Sequence[int]) -> List[Tuple[int, int]]:
        """Row chunks over the directed-pair list, cut at evaluator boundaries.

        Chunks hold at least ``_stream_rows`` rows (except the last) and
        never split one evaluator's rows across chunks, which is what makes
        the chunked cross-gradient noise slots identical to the one-shot
        call's, even when chunks run in parallel.
        """
        chunks: List[Tuple[int, int]] = []
        start = 0
        for k in range(1, len(evaluators) + 1):
            if k == len(evaluators) or (
                evaluators[k] != evaluators[k - 1] and k - start >= self._stream_rows
            ):
                chunks.append((start, k))
                start = k
        return chunks

    def clip(self, gradient: np.ndarray) -> np.ndarray:
        """Clip a gradient to the configured threshold without adding noise."""
        return clip_by_l2_norm(gradient, self.config.clip_threshold)

    def neighbor_weights(self, agent: int) -> Dict[int, float]:
        """``{j: omega_{ij}}`` over the agent's closed neighbourhood ``M_i``."""
        return {
            j: self.topology.weight(agent, j)
            for j in self.topology.neighbors(agent, include_self=True)
        }

    def gossip_average(self, vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One gossip step: each agent's vector becomes the W-weighted neighbour average.

        Implements ``x_i <- sum_j omega_{ij} x_j`` (eqs. 24–25) for all agents
        simultaneously.
        """
        mixed = self.mix_rows(
            np.stack([np.asarray(v, dtype=self._dtype) for v in vectors], axis=0)
        )
        return [mixed[i] for i in range(self.num_agents)]

    def mix_rows(self, matrix: np.ndarray) -> np.ndarray:
        """The gossip step as one matrix multiply: ``W @ X`` (eqs. 24–25).

        Dispatches to the configured :class:`~repro.topology.mixing.MixingOperator`:
        O(M^2 d) for dense storage, O(nnz d) for CSR — with bit-identical
        results, so sparse topologies can opt into the cheap kernel freely.
        With ``block_rows`` configured the product is streamed over
        ``(block_rows, d)`` output chunks (still bit-identical); in
        ``dtype="mixed"`` mode float32 state is mixed with float64
        accumulation per block.
        """
        matrix = np.asarray(matrix)
        if self._precision == "mixed" and matrix.dtype == np.float32:
            return self.mixing.apply_mixed(matrix, block_rows=self._block_rows)
        if self._block_rows is not None:
            return self.mixing.mix_rows_blocked(matrix, self._block_rows)
        return self.mixing.apply(matrix)

    def record_fleet_exchange(
        self,
        tag: str,
        floats_per_message: int,
        bytes_per_message: Optional[int] = None,
    ) -> None:
        """Account one all-neighbour exchange executed by the vectorized engine.

        Mirrors the traffic the loop backend generates for the same phase:
        one message per directed edge, each carrying ``floats_per_message``
        floats (and ``bytes_per_message`` wire bytes; dense float64 when
        omitted).  Hierarchical topologies
        (:class:`~repro.topology.hierarchical.HierarchicalTopology`) expose
        a ``directed_edge_split`` — their traffic is accounted under
        ``"{tag}.intra"`` (within-cluster channels, cheap local links) and
        ``"{tag}.inter"`` (cross-cluster channels, the expensive hops)
        separately, so bandwidth reports can price the two tiers
        differently.
        """
        split = getattr(self.topology, "directed_edge_split", None)
        if split is not None:
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
        self.network.record_bulk(
            tag, self.topology.num_directed_edges, floats_per_message, bytes_per_message
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

    def compress_gossip_rows(self, channel: str, matrix: np.ndarray) -> np.ndarray:
        """Decoded fleet matrix for one gossip channel (vectorized engine).

        Active rows go through the codec (updating their error-feedback
        residuals); inactive rows pass through raw, exactly like the loop
        engine where an inactive agent never reaches its broadcast.  With
        the identity codec the input is returned unchanged.
        """
        if self._compression_state is None:
            return matrix
        mask = None if self._all_active else self.active_mask
        if self._block_rows is not None:
            # Chunked codec path: the codec kernels are row-wise, so
            # encoding block by block is bit-identical to the whole-matrix
            # call while bounding the transient working set.
            return self._compression_state.compress_rows_blocked(
                channel, matrix, mask, self._block_rows
            )
        return self._compression_state.compress_rows(channel, matrix, mask)

    def gossip_broadcast(self, agent: int, tag: str, value):
        """Broadcast one agent's gossip payload and return what consumers mix.

        The loop-engine counterpart of :meth:`compress_gossip_rows` plus
        :meth:`record_fleet_exchange`: the payload (an array, or a tuple of
        arrays compressed channel-by-channel as ``"{tag}.{index}"``) is
        encoded once, sent to every neighbour at its compressed wire size,
        and the *decoded* value is returned — the gossip semantics are
        ``x_i <- sum_j w_ij C(x_j)``, with every consumer (the agent itself
        included) mixing the reconstructed value, which is what makes the
        vectorized engine's ``W @ decoded`` equivalent.  With the identity
        codec the original ``value`` comes back and the wire carries plain
        copies, bit-identical to the historical path.  Inactive agents
        transmit nothing and get their raw ``value`` back.
        """
        if not self.is_active(agent):
            return value
        neighbors = self.topology.neighbors(agent, include_self=False)
        if self._compression_state is None:
            if isinstance(value, tuple):
                payload = tuple(np.asarray(part).copy() for part in value)
            else:
                payload = value.copy()
            self.network.broadcast(agent, neighbors, tag, payload)
            return value
        if isinstance(value, tuple):
            decoded = tuple(
                self._compression_state.compress_row(f"{tag}.{index}", agent, part)
                for index, part in enumerate(value)
            )
            num_channels = len(value)
        else:
            decoded = self._compression_state.compress_row(tag, agent, value)
            num_channels = 1
        values, wire_bytes = self.gossip_wire_cost(num_channels)
        self.network.broadcast(
            agent,
            neighbors,
            tag,
            CompressedPayload(
                values=decoded,
                num_values=values,
                wire_bytes=wire_bytes,
                codec=self.codec.name,
            ),
        )
        return decoded

    def gossip_receive(self, agent: int, tag: str) -> Dict[int, object]:
        """Drain one agent's gossip mailbox, unwrapping compressed payloads."""
        received = self.network.receive_by_sender(agent, tag)
        if self._compression_state is None:
            return received
        return {
            sender: (
                payload.values
                if isinstance(payload, CompressedPayload)
                else payload
            )
            for sender, payload in received.items()
        }

    def draw_batches(self) -> FleetBatches:
        """One fresh mini-batch per *active* agent for the current round.

        A single vectorized draw over the whole fleet.  Inactive agents
        (churned out or straggling) read back as ``None`` and claim no
        slot — identically under both engines, so loop/vectorized
        trajectory equivalence extends to dynamic schedules.
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
    def agent_parameters(self) -> List[np.ndarray]:
        """Copies of every agent's current parameter vector."""
        return [row.copy() for row in self.state]

    def average_parameters(self) -> np.ndarray:
        """The network-average model ``x_bar`` used in the convergence analysis."""
        return self.state.mean(axis=0)

    def consensus(self) -> float:
        """Average squared distance of agent models from their mean (Lemma 6 quantity)."""
        return consensus_distance(self.state)

    def average_train_loss(self, max_samples_per_agent: int = 256) -> float:
        """Average of each agent's loss on (a sample of) its own local dataset.

        This is the quantity plotted in Figs. 1–6 of the paper ("average
        training loss").

        The per-agent evaluation subsample is drawn from a dedicated
        seed-derived RNG per agent (independent of the training streams), so
        the evaluated samples are identical under every backend and
        evaluation path.  When the model supports stacked evaluation the
        per-agent losses are computed with whole-fleet forward passes
        (grouped by shard shape, like :meth:`fleet_gradients`) instead of
        one Python-level ``evaluate_loss`` call per agent.
        """
        shards: List[Dataset] = []
        for agent in range(self.num_agents):
            shard = self.shards[agent]
            if len(shard) > max_samples_per_agent:
                rng = np.random.default_rng(
                    (self.config.seed * 1_000_003 + agent) % (2**63 - 1)
                )
                shard = shard.sample(max_samples_per_agent, rng)
            shards.append(shard)
        if self._stacked is None:
            losses = [
                self.model.evaluate_loss(
                    shards[agent].inputs, shards[agent].labels, params=self.state[agent]
                )
                for agent in range(self.num_agents)
            ]
            return float(np.mean(losses))
        losses_out = np.empty(self.num_agents, dtype=self._grad_dtype)
        pairs = [(shard.inputs, shard.labels) for shard in shards]
        for agents, inputs, labels in self._stack_groups(pairs):
            losses_out[agents] = self._stacked.losses(self.state[agents], inputs, labels)
        return float(np.mean(losses_out))

    def test_accuracy(self, test_data: Dataset, mode: str = "mean_agent") -> float:
        """Test accuracy of the trained system.

        ``mode="mean_agent"`` averages each agent's own accuracy (the natural
        decentralized metric); ``mode="average_model"`` evaluates the single
        network-average model.
        """
        if mode == "average_model":
            return self.model.accuracy(
                test_data.inputs, test_data.labels, params=self.average_parameters()
            )
        if mode == "mean_agent":
            accuracies = [
                self.model.accuracy(test_data.inputs, test_data.labels, params=row)
                for row in self.state
            ]
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
    STATE_FORMAT = 3

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

        Call only at a round boundary (between :meth:`run_round` calls):
        mid-round mailbox contents are not captured.  By default the
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
            raise ValueError(
                f"checkpoint state format {fmt!r} does not match this code's "
                f"format {self.STATE_FORMAT}"
                + (
                    " (format 2 checkpoints hold per-agent generator states, "
                    "which the counter-based streams of format 3 replace; "
                    "restart the run from round 0)"
                    if fmt == 2
                    else ""
                )
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
        if self._pinned:
            # Pinned storage: stream the payload matrices straight into the
            # memmap backings (the setters cast block by block) instead of
            # materialising a second in-RAM fleet copy first.  Checkpoint
            # sidecar arrays load as read-only memmaps, so the restore is
            # disk-to-disk with only block-sized transients.
            self.state = np.asarray(payload["state"])
            self.momentum_state = np.asarray(payload["momentum_state"])
        else:
            self.state = self._as_state_matrix(payload["state"])
            self.momentum_state = self._as_state_matrix(payload["momentum_state"])
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
