"""Simulated-time execution of a decentralized algorithm.

:class:`AsyncEngine` wraps an already-constructed
:class:`~repro.core.base.DecentralizedAlgorithm` and makes *time* a
simulated quantity: every agent owns a :class:`~repro.simulation.events.traces.DeviceTrace`
(compute speed, link bandwidth, latency), turned once into three per-agent
float arrays that both modes read.  The wrapper proxies every attribute it
does not own to the wrapped algorithm, so
:class:`~repro.simulation.runner.RunSession`, the experiment harness and
the orchestrator drive it exactly like a bare algorithm.

Two execution modes, selected by ``async_mode``:

**Barrier mode** (the default) keeps the synchronous numerics and computes
*when* the round would finish on the trace fleet, in closed form over the
round's active directed edges ``s -> d`` (the positive off-diagonal mixing
weights): ``sent = start + compute[s]``, ``arrival = sent + latency[s] +
wire_bytes / min(bandwidth[s], bandwidth[d])`` at the codec's wire size,
and the round ends at the latest compute-done time or arrival.  The
numeric round is then delegated, unchanged, to ``algorithm.run_round()`` —
the timing pass consumes **no** algorithm randomness, which is why
barrier mode reproduces the synchronous engine **bit for bit** (the
equivalence harness in ``tests/simulation/test_async_equivalence.py`` pins
this for all six algorithms, on static and dynamic topologies).  Message
latencies go into the :class:`~repro.simulation.network.Network`'s latency
counters in one bulk call per round, in the order an event queue would pop
the arrivals (``tests/simulation/test_barrier_oracle.py`` checks the
closed form against that event-queue pass bit for bit).

**Async mode** (``async_mode=True``) replaces the global round with genuine
event-driven execution on an
:class:`~repro.simulation.events.queue.EventQueue`: each agent trains on its
own clock (DMSGD local steps — momentum SGD whose batch and DP noise are
addressed by the agent's own step count), broadcasts its model when a step
completes, and *mixes on message arrival* with staleness-weighted gossip —
``x_j += W_ji * exp(-staleness_decay * s) * (payload - x_j)`` where ``s``
is the payload's simulated age.  Stragglers and slow links are emergent
behaviour of the traces rather than per-round masks; a "round" (for
history/eval purposes) completes when every agent has finished one more
local step, so fast agents legitimately run ahead.  Each completed local
step is a separate clipped+noised release, so the privacy accountant
composes over the *fastest* agent's step count (the worst-case per-agent
loss), not one event per round.  That local step is DMSGD's, so async mode
runs only ``async_capable`` algorithms (DMSGD), and requires a static
topology and the identity codec.

Both modes checkpoint: :meth:`AsyncEngine.state_dict` embeds the event
queue (in-flight payloads included), per-agent clocks and busy-time
accumulators alongside the algorithm's own state, so an interrupted run
resumes *mid-queue* bit-identically.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.simulation.events.queue import (
    PRIORITY_ARRIVAL,
    PRIORITY_COMPUTE,
    EventQueue,
)
from repro.simulation.events.traces import (
    DeviceTrace,
    check_staleness_decay,
    traces_from_spec,
    uniform_traces,
    validate_time_model,
)

__all__ = ["AsyncEngine", "check_async_mode", "engine_from_time_model"]


def check_async_mode(
    *,
    static_schedule: bool,
    identity_codec: bool,
    communication_interval: int,
    unsupported_algorithms: Sequence[str] = (),
) -> None:
    """Raise ``ValueError`` for a configuration async mode cannot run.

    Shared by :class:`AsyncEngine` and ``ExperimentSpec`` validation, so a
    spec fails at parse time with the message the engine would give.
    ``unsupported_algorithms`` names the requested algorithms whose class is
    not ``async_capable``.
    """
    if unsupported_algorithms:
        raise ValueError(
            f"async mode runs DMSGD local steps (momentum SGD, mix on "
            f"arrival) and cannot run {list(unsupported_algorithms)}; use "
            f"DMSGD or barrier mode"
        )
    if not static_schedule:
        raise ValueError(
            "async mode replaces per-round masks with trace-driven "
            "timing and requires a static topology schedule — "
            "stragglers and partitions are emergent from the traces"
        )
    if not identity_codec:
        raise ValueError(
            "async mode sends raw model payloads and requires the "
            "identity codec"
        )
    if communication_interval != 1:
        raise ValueError(
            "communication_interval is a synchronous-round concept; "
            "async mode requires communication_interval=1"
        )


class AsyncEngine:
    """Drive a wrapped algorithm on simulated time (barrier or async mode).

    Parameters
    ----------
    algorithm:
        A fully constructed :class:`~repro.core.base.DecentralizedAlgorithm`.
        The engine proxies unknown attributes to it, so it can stand in for
        the algorithm anywhere (``RunSession``, evaluation, checkpointing).
    traces:
        One :class:`DeviceTrace` per agent; defaults to uniform unit traces
        (one second per step, instantaneous wires).  Barrier-mode numerics
        are bit-identical to the synchronous engine under any traces.
    async_mode:
        ``False`` (barrier): synchronous numerics, closed-form timing.
        ``True``: event-driven DMSGD local steps with gossip on arrival.
    staleness_decay:
        Async mode only (must be 0 otherwise) — exponential down-weighting
        rate applied to a payload's mixing weight per simulated second of
        transit age.  0 mixes arrivals at the full topology weight.
    """

    def __init__(
        self,
        algorithm: Any,
        traces: Optional[Sequence[DeviceTrace]] = None,
        async_mode: bool = False,
        staleness_decay: float = 0.0,
    ) -> None:
        self._algorithm = algorithm
        if traces is None:
            traces = uniform_traces(algorithm.num_agents)
        self.traces: List[DeviceTrace] = list(traces)
        if len(self.traces) != algorithm.num_agents:
            raise ValueError(
                f"got {len(self.traces)} device traces for "
                f"{algorithm.num_agents} agents"
            )
        self.async_mode = bool(async_mode)
        self.staleness_decay = float(staleness_decay)
        check_staleness_decay(self.staleness_decay, self.async_mode)
        if self.async_mode:
            check_async_mode(
                static_schedule=algorithm.schedule.is_static,
                identity_codec=algorithm.codec.is_identity,
                communication_interval=algorithm.compression_config.communication_interval,
                unsupported_algorithms=[] if algorithm.async_capable else [algorithm.name],
            )
        self._compute, self._bandwidth, self._latency = (
            np.array([getattr(trace, name) for trace in self.traces], dtype=np.float64)
            for name in ("compute_seconds", "bandwidth_bytes_per_s", "latency_seconds")
        )
        self.queue = EventQueue()
        self._sim_time = 0.0
        self._steps_done = np.zeros(algorithm.num_agents, dtype=np.int64)
        self._busy_seconds = np.zeros(algorithm.num_agents, dtype=np.float64)
        # Async mode: privatized local steps already composed into the
        # privacy accountant (tracks the fastest agent's release count).
        self._accounted_steps = 0
        self._bootstrapped = False
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Proxying: everything the engine does not own belongs to the algorithm
    # ------------------------------------------------------------------
    def __getattr__(self, item: str) -> Any:
        if item == "_algorithm":
            raise AttributeError(item)
        return getattr(self._algorithm, item)

    @property
    def algorithm(self) -> Any:
        """The wrapped algorithm (the engine owns timing, not numerics)."""
        return self._algorithm

    # ------------------------------------------------------------------
    # Simulated-time observables
    # ------------------------------------------------------------------
    @property
    def simulated_time(self) -> float:
        """Total simulated seconds elapsed since the start of the run."""
        return self._sim_time

    def utilization(self) -> np.ndarray:
        """Per-agent fraction of simulated time spent computing (vs idle/waiting)."""
        if self._sim_time <= 0.0:
            return np.zeros(self._algorithm.num_agents, dtype=np.float64)
        return self._busy_seconds / self._sim_time

    def mean_utilization(self) -> float:
        """Fleet-average compute utilization over the simulated run so far."""
        return float(self.utilization().mean())

    @property
    def time_model_metadata(self) -> Dict[str, object]:
        """Describes the time model for ``TrainingHistory.metadata``."""
        uniform = all(trace == self.traces[0] for trace in self.traces)
        return {
            "async": self.async_mode,
            "staleness_decay": self.staleness_decay,
            "traces": "uniform" if uniform else "heterogeneous",
        }

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """One history round on simulated time (dispatches on the mode)."""
        if self.async_mode:
            self._run_round_async()
        else:
            self._run_round_barrier()

    def _transfer_seconds(self, senders: Any, recipients: Any, nbytes: int) -> np.ndarray:
        """Seconds to move ``nbytes`` from each sender to each recipient: the
        sender's latency plus serialisation at the slower endpoint's rate
        (infinite bandwidth serialises in zero time)."""
        bandwidth = np.minimum(self._bandwidth[senders], self._bandwidth[recipients])
        return self._latency[senders] + nbytes / bandwidth

    def _run_round_barrier(self) -> None:
        """Compute the round's timing in closed form, then delegate the numerics.

        The timing pass touches no algorithm RNG stream and no fleet state —
        it only advances the simulated clock to the latest compute-done time
        or arrival over the round's active edges, updates busy time and step
        counts, and records per-message latency — so ``algorithm.run_round()``
        sees exactly the world it would see without the wrapper.  That is
        the whole bit-identity argument.  Messages are sized at the full
        wire payload (``gossip_wire_cost(num_gossip_channels)``), so
        two-channel algorithms like PDSL pay for both streams.
        ``events_processed`` counts one compute event per active agent and
        one arrival per active edge.

        Latency counters here are **pre-fault-injection**: the timing pass
        prices every scheduled transmission, and the delegated numeric round
        decides which messages drop (a pure function of each message's
        address, so neither pass perturbs the other).  With
        ``drop_probability > 0`` the barrier-mode arrival/latency counters
        therefore describe scheduled transmissions, not confirmed
        deliveries; async mode counts actual deliveries only.
        """
        algorithm = self._algorithm
        round_index = algorithm.rounds_completed
        active = algorithm.schedule.active_mask_at(round_index)
        start = self._sim_time
        done = start + self._compute
        self._busy_seconds[active] += self._compute[active]
        self._steps_done[active] += 1
        num_active = int(np.count_nonzero(active))
        self.events_processed += num_active
        last = float(done[active].max()) if num_active else start
        if algorithm.gossip_now(round_index):
            # Active directed edges: the positive off-diagonal weights of
            # the round's cached CSR matrix (the pairs Topology.neighbors
            # reads) between active agents.
            w = algorithm.schedule.operator_at(round_index).matrix
            senders = np.repeat(np.arange(w.shape[0]), np.diff(w.indptr))
            recipients = w.indices
            live = (w.data > 0.0) & (recipients != senders)
            live &= active[senders] & active[recipients]
            senders, recipients = senders[live], recipients[live]
            if senders.size:
                _, wire_bytes = algorithm.gossip_wire_cost(algorithm.num_gossip_channels)
                sent = done[senders]
                arrival = sent + self._transfer_seconds(senders, recipients, wire_bytes)
                # An event queue pops arrivals by time, then push order:
                # the sender's compute-done rank (time, then id), then the
                # recipient.  Latency is summed in that order; arrivals
                # tied on (arrival, sent) carry the same latency, so
                # sorting on those two keys already fixes the sum.
                order = np.lexsort((sent, arrival))
                algorithm.network.record_latency("model", (arrival - sent)[order])
                self.events_processed += int(senders.size)
                last = max(last, float(arrival.max()))
        self._sim_time = last
        algorithm.run_round()

    def _run_round_async(self) -> None:
        """Advance simulated time until every agent completes one more step.

        Fast agents keep training and broadcasting while slow ones catch up
        — the straggler effect is emergent, not masked.  Numerics happen at
        event granularity: a DMSGD local step per compute event
        (drawing batch and noise at the agent's own step count), a
        staleness-weighted mix per arrival event.
        """
        algorithm = self._algorithm
        algorithm.network.advance_round()
        target = algorithm.rounds_completed + 1
        queue = self.queue
        if not self._bootstrapped:
            for agent in range(algorithm.num_agents):
                queue.push(
                    self._sim_time + self._compute[agent],
                    "compute",
                    agent=agent,
                    priority=PRIORITY_COMPUTE,
                )
            self._bootstrapped = True
        while int(self._steps_done.min()) < target:
            event = queue.pop()
            self.events_processed += 1
            self._sim_time = event.time
            if event.kind == "compute":
                self._complete_local_step(event.agent, event.time)
            elif event.kind == "arrival":
                self._deliver(event)
        if algorithm.config.epsilon is not None and algorithm.sigma > 0:
            # Every completed local step is a separate clipped+noised
            # release, and fast agents finish several per round — compose
            # over the fastest agent's release count, not one per round,
            # so the reported budget covers the worst-case agent.
            max_steps = int(self._steps_done.max())
            releases = max_steps - self._accounted_steps
            if releases > 0:
                algorithm.accountant.record(
                    algorithm.config.epsilon,
                    algorithm.config.delta,
                    count=releases,
                )
            self._accounted_steps = max_steps
        algorithm.rounds_completed = target

    def _complete_local_step(self, agent: int, now: float) -> None:
        """One finished DMSGD local step (a one-row block): update, broadcast, reschedule."""
        algorithm = self._algorithm
        config = algorithm.config
        # The agent's draws are addressed by its own step count, so they do
        # not depend on how the other agents' steps interleave with it.
        step = int(self._steps_done[agent])
        row = slice(agent, agent + 1)
        gradient = algorithm.fleet_gradients(
            algorithm.state[row], algorithm._draw_rows(agent, agent + 1, step=step)
        )
        perturbed = algorithm.privatize_rows(gradient, agents=[agent], step=step)
        update = config.momentum * algorithm.momentum_state[row] + perturbed
        algorithm.momentum_state[row] = update
        algorithm.state[row] = algorithm.state[row] - config.learning_rate * update
        self._steps_done[agent] += 1
        self._busy_seconds[agent] += self._compute[agent]
        payload = np.array(algorithm.state[agent], dtype=np.float64)
        neighbors = algorithm.topology.neighbors(agent, include_self=False)
        arrivals = now + self._transfer_seconds(
            agent, np.array(neighbors, dtype=np.intp), payload.nbytes
        )
        for neighbor, arrival in zip(neighbors, arrivals.tolist()):
            self.queue.push(
                arrival,
                "arrival",
                agent=neighbor,
                priority=PRIORITY_ARRIVAL,
                sender=agent,
                step=step,
                sent_at=now,
                payload=payload,
            )
        self.queue.push(
            now + self._compute[agent],
            "compute",
            agent=agent,
            priority=PRIORITY_COMPUTE,
        )

    def _deliver(self, event) -> None:
        """One message arrival: account it, then mix with staleness weighting.

        Bytes are accounted at *arrival* time.  Under fault injection the
        message is dropped by the ``"model"`` drop mask at the sender's
        local step (see :meth:`DecentralizedAlgorithm._delivered`); a lost
        message counts its bytes but no latency, and is never mixed.
        """
        algorithm = self._algorithm
        sender = int(event.data["sender"])
        recipient = event.agent
        payload = np.asarray(event.data["payload"])
        staleness = event.time - float(event.data["sent_at"])
        lost = algorithm.network.drop_probability > 0.0 and not algorithm._delivered(
            "model",
            np.array([sender]),
            np.array([recipient]),
            step=int(event.data["step"]),
        )[0]
        algorithm.network.record_bulk("model", 1, payload.size, dropped=int(lost))
        if lost:
            return
        algorithm.network.record_latency("model", staleness)
        weight = float(algorithm.topology.weight(recipient, sender))
        if self.staleness_decay > 0.0:
            weight *= math.exp(-self.staleness_decay * staleness)
        current = algorithm.state[recipient]
        algorithm.state[recipient] = current + weight * (payload - current)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self, copy: bool = True) -> Dict[str, object]:
        """The wrapped algorithm's state plus the time model's own state.

        The extra ``"time_model"`` entry carries the event queue (pending
        arrivals with their payload arrays included), the simulated clock,
        per-agent step counts and busy-time accumulators — everything needed
        to resume *mid-queue* bit-identically.
        """
        payload = self._algorithm.state_dict(copy=copy)
        payload["time_model"] = {
            "async": self.async_mode,
            "staleness_decay": self.staleness_decay,
            "sim_time": self._sim_time,
            "steps_done": self._steps_done.tolist(),
            "busy_seconds": self._busy_seconds.tolist(),
            "accounted_steps": self._accounted_steps,
            "bootstrapped": self._bootstrapped,
            "events_processed": self.events_processed,
            "queue": self.queue.state_dict(),
        }
        return payload

    def load_state_dict(self, payload: Mapping[str, object]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        payload = dict(payload)
        timing = payload.pop("time_model", None)
        if timing is None:
            raise ValueError(
                "checkpoint carries no time-model state — it was written by "
                "a bare algorithm, not an AsyncEngine-wrapped run"
            )
        if bool(timing["async"]) != self.async_mode:
            raise ValueError(
                f"checkpoint was written in "
                f"{'async' if timing['async'] else 'barrier'} mode but this "
                f"engine runs in {'async' if self.async_mode else 'barrier'} mode"
            )
        self._algorithm.load_state_dict(payload)
        self.staleness_decay = float(timing["staleness_decay"])
        self._sim_time = float(timing["sim_time"])
        self._steps_done = np.asarray(timing["steps_done"], dtype=np.int64)
        self._busy_seconds = np.asarray(timing["busy_seconds"], dtype=np.float64)
        self._accounted_steps = int(timing["accounted_steps"])
        self._bootstrapped = bool(timing["bootstrapped"])
        self.events_processed = int(timing["events_processed"])
        self.queue.load_state_dict(timing["queue"])


def engine_from_time_model(
    algorithm: Any, time_model: Mapping[str, object]
) -> AsyncEngine:
    """Build the engine an ``ExperimentSpec.time_model`` declaration asks for.

    Validates the declaration, resolves the trace fleet (uniform unit
    traces when unspecified) and wraps ``algorithm``.  This is the hook the
    experiment harness and orchestrator call, so a spec with ``time_model``
    runs on simulated time through every execution path.
    """
    validate_time_model(time_model, num_agents=algorithm.num_agents)
    traces = traces_from_spec(time_model.get("traces"), algorithm.num_agents)
    return AsyncEngine(
        algorithm,
        traces=traces,
        async_mode=bool(time_model.get("async", False)),
        staleness_decay=float(time_model.get("staleness_decay", 0.0)),
    )
