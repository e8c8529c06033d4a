"""Event-driven execution of a decentralized algorithm under a time model.

:class:`AsyncEngine` wraps an already-constructed
:class:`~repro.core.base.DecentralizedAlgorithm` and makes *time* a
simulated quantity: every agent owns a :class:`~repro.simulation.events.traces.DeviceTrace`
(compute speed, link bandwidth, latency), and the engine schedules compute
completions and message arrivals on a deterministic
:class:`~repro.simulation.events.queue.EventQueue`.  The wrapper proxies
every attribute it does not own to the wrapped algorithm, so
:class:`~repro.simulation.runner.RunSession`, the experiment harness and
the orchestrator drive it exactly like a bare algorithm.

Two execution modes, selected by ``async_mode``:

**Barrier mode** (the default) keeps the synchronous numerics and simulates
*when* the round would finish on the trace fleet: compute-done events per
active agent, arrival events per directed edge (at the codec's wire size),
and the round's simulated duration is the latest arrival.  The numeric
round is then delegated, unchanged, to ``algorithm.run_round()`` — the
timing machinery consumes **no** algorithm randomness, which is why uniform
unit traces reproduce the synchronous engine **bit for bit** (the
equivalence harness in ``tests/simulation/test_async_equivalence.py`` pins
this for all six algorithms, on static and dynamic topologies).  Message
latencies are recorded into the :class:`~repro.simulation.network.Network`'s
latency counters per arrival.

**Async mode** (``async_mode=True``) replaces the global round with genuine
event-driven execution: each agent trains on its own clock (momentum-SGD
local steps whose batch and DP noise are addressed by the agent's own step
count), broadcasts its model when a step completes, and *mixes on message
arrival* with staleness-weighted gossip — ``x_j += W_ji *
exp(-staleness_decay * s) * (payload - x_j)`` where ``s`` is the payload's simulated age.  Stragglers
and slow links are emergent behaviour of the traces rather than per-round
masks; a "round" (for history/eval purposes) completes when every agent has
finished one more local step, so fast agents legitimately run ahead.  Each
completed local step is a separate clipped+noised release, so the privacy
accountant composes over the *fastest* agent's step count (the worst-case
per-agent loss), not one event per round.
Requires a static topology and the identity codec.

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
    traces_from_spec,
    transfer_seconds,
    uniform_traces,
    validate_time_model,
)

__all__ = ["AsyncEngine", "check_async_mode", "engine_from_time_model"]


def check_async_mode(
    *, static_schedule: bool, identity_codec: bool, communication_interval: int
) -> None:
    """Raise ``ValueError`` for a configuration async mode cannot run.

    Shared by :class:`AsyncEngine` and ``ExperimentSpec`` validation, so a
    spec fails at parse time with the message the engine would give.
    """
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
        (one second per step, instantaneous wires) — the configuration under
        which barrier mode is bit-identical to the synchronous engine.
    async_mode:
        ``False`` (barrier): synchronous numerics, simulated timing.
        ``True``: event-driven local steps with gossip on arrival.
    staleness_decay:
        Async mode only — exponential down-weighting rate applied to a
        payload's mixing weight per simulated second of transit age.  0
        mixes arrivals at the full topology weight.
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
        if self.staleness_decay < 0:
            raise ValueError("staleness_decay must be non-negative")
        if self.async_mode:
            check_async_mode(
                static_schedule=algorithm.schedule.is_static,
                identity_codec=algorithm.codec.is_identity,
                communication_interval=algorithm.compression_config.communication_interval,
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

    @property
    def backend(self) -> str:
        """``"event-async"`` in async mode, else the wrapped engine's backend."""
        if self.async_mode:
            return "event-async"
        return self._algorithm.backend

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

    def _round_topology(self, round_index: int):
        schedule = self._algorithm.schedule
        if schedule.is_static:
            return self._algorithm.topology
        return schedule.topology_at(round_index)

    def _run_round_barrier(self) -> None:
        """Simulate the round's timing, then delegate the numerics unchanged.

        The event pass touches no algorithm RNG stream and no fleet state —
        it only schedules compute/arrival events, advances the simulated
        clock to the latest arrival, and records per-message latency — so
        ``algorithm.run_round()`` sees exactly the world it would see
        without the wrapper.  That is the whole bit-identity argument.

        Messages are sized at the algorithm's full wire payload
        (``gossip_wire_cost(num_gossip_channels)``), so two-channel
        algorithms like PDSL pay for both streams in simulated time.

        Latency counters here are **pre-fault-injection**: the delegated
        numeric round applies drop faults and departed-agent rejection with
        its own RNG, which this timing pass must not consume (doing so
        would break bit-identity with the bare engine).  With
        ``drop_probability > 0`` the barrier-mode arrival/latency counters
        therefore describe scheduled transmissions, not confirmed
        deliveries; async mode, which routes real payloads through
        :meth:`Network.send`, counts actual deliveries only.
        """
        algorithm = self._algorithm
        round_index = algorithm.rounds_completed
        schedule = algorithm.schedule
        mask = None if schedule.is_static else schedule.active_mask_at(round_index)
        topology = self._round_topology(round_index)
        gossiping = algorithm.gossip_now(round_index)
        _, wire_bytes = algorithm.gossip_wire_cost(algorithm.num_gossip_channels)
        start = self._sim_time
        queue = self.queue
        for agent in range(algorithm.num_agents):
            if mask is not None and not mask[agent]:
                continue
            queue.push(
                start + self.traces[agent].compute_seconds,
                "compute",
                agent=agent,
                priority=PRIORITY_COMPUTE,
            )
        last = start
        while queue:
            event = queue.pop()
            self.events_processed += 1
            last = event.time
            if event.kind == "compute":
                sender = event.agent
                self._busy_seconds[sender] += self.traces[sender].compute_seconds
                self._steps_done[sender] += 1
                if not gossiping:
                    continue
                for neighbor in topology.neighbors(sender, include_self=False):
                    if mask is not None and not mask[neighbor]:
                        continue
                    arrival = event.time + transfer_seconds(
                        self.traces[sender], self.traces[neighbor], wire_bytes
                    )
                    queue.push(
                        arrival,
                        "arrival",
                        agent=neighbor,
                        priority=PRIORITY_ARRIVAL,
                        sender=sender,
                        sent_at=event.time,
                    )
            elif event.kind == "arrival":
                algorithm.network.record_latency(
                    "model", event.time - event.data["sent_at"]
                )
        self._sim_time = last
        algorithm.run_round()

    def _run_round_async(self) -> None:
        """Advance simulated time until every agent completes one more step.

        Fast agents keep training and broadcasting while slow ones catch up
        — the straggler effect is emergent, not masked.  Numerics happen at
        event granularity: a local momentum-SGD step per compute event
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
                    self._sim_time + self.traces[agent].compute_seconds,
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
        """One finished local step: update, broadcast, reschedule."""
        algorithm = self._algorithm
        config = algorithm.config
        trace = self.traces[agent]
        # The agent's draws are addressed by its own step count, so they do
        # not depend on how the other agents' steps interleave with it.
        step = int(self._steps_done[agent])
        batch = algorithm.draw_batch(agent, step=step)
        gradient = algorithm.local_gradient(agent, algorithm.params[agent], batch)
        perturbed = algorithm.privatize(agent, gradient, step=step)
        update = config.momentum * algorithm.momenta[agent] + perturbed
        algorithm.momenta[agent] = update
        algorithm.params[agent] = (
            algorithm.params[agent] - config.learning_rate * update
        )
        self._steps_done[agent] += 1
        self._busy_seconds[agent] += trace.compute_seconds
        payload = np.array(algorithm.params[agent], dtype=np.float64)
        for neighbor in algorithm.topology.neighbors(agent, include_self=False):
            arrival = now + transfer_seconds(
                trace, self.traces[neighbor], payload.nbytes
            )
            self.queue.push(
                arrival,
                "arrival",
                agent=neighbor,
                priority=PRIORITY_ARRIVAL,
                sender=agent,
                sent_at=now,
                payload=payload,
            )
        self.queue.push(
            now + trace.compute_seconds,
            "compute",
            agent=agent,
            priority=PRIORITY_COMPUTE,
        )

    def _deliver(self, event) -> None:
        """One message arrival: account it, then mix with staleness weighting.

        Bytes and latency are tagged at *arrival* time through
        :meth:`Network.send` — which also applies drop fault-injection and
        departed-agent rejection, so lost messages are simply never mixed.
        """
        algorithm = self._algorithm
        sender = int(event.data["sender"])
        recipient = event.agent
        staleness = event.time - float(event.data["sent_at"])
        delivered = algorithm.network.send(
            sender, recipient, "model", event.data["payload"], latency=staleness
        )
        if not delivered:
            return
        # Drain immediately: async mixing is per-arrival, and empty
        # mailboxes at round boundaries keep the checkpoint contract.
        algorithm.network.receive(recipient, "model")
        weight = float(algorithm.topology.weight(recipient, sender))
        if self.staleness_decay > 0.0:
            weight *= math.exp(-self.staleness_decay * staleness)
        current = algorithm.params[recipient]
        algorithm.params[recipient] = current + weight * (
            np.asarray(event.data["payload"]) - current
        )

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
