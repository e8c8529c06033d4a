"""Barrier-mode timing in closed form agrees bit for bit with an event queue.

:class:`EventQueueBarrierEngine` keeps the per-round event-queue pass that
barrier mode used to run — one compute event per active agent, one arrival
event per active directed edge, latency recorded per popped arrival — as
the reference.  The closed form in
:meth:`AsyncEngine._run_round_barrier` must reproduce its simulated clock,
utilization, step counts, event count and every ``Network`` latency
counter exactly, round after round, in every case the time model has to
handle.
"""

import math

import numpy as np
import pytest

from repro.simulation.events import (
    PRIORITY_ARRIVAL,
    PRIORITY_COMPUTE,
    AsyncEngine,
    DeviceTrace,
    EventQueue,
    synthetic_traces,
)
from repro.topology.graphs import random_regular_graph
from repro.topology.schedule import DynamicTopologySchedule


def transfer_seconds(sender, receiver, nbytes):
    """Scalar transfer time: sender latency + bytes / min(bandwidths)."""
    bandwidth = min(sender.bandwidth_bytes_per_s, receiver.bandwidth_bytes_per_s)
    serialisation = 0.0 if math.isinf(bandwidth) else float(nbytes) / bandwidth
    return sender.latency_seconds + serialisation


class EventQueueBarrierEngine(AsyncEngine):
    """Reference engine: the barrier round timed by draining an event queue."""

    def _run_round_barrier(self) -> None:
        algorithm = self._algorithm
        round_index = algorithm.rounds_completed
        schedule = algorithm.schedule
        mask = None if schedule.is_static else schedule.active_mask_at(round_index)
        topology = schedule.topology_at(round_index)
        gossiping = algorithm.gossip_now(round_index)
        _, wire_bytes = algorithm.gossip_wire_cost(algorithm.num_gossip_channels)
        start = self._sim_time
        queue = EventQueue()
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
                        sent_at=event.time,
                    )
            else:
                algorithm.network.record_latency(
                    "model", event.time - event.data["sent_at"]
                )
        self._sim_time = last
        algorithm.run_round()


def assert_timing_bit_identical(reference, engine):
    assert engine.simulated_time == reference.simulated_time
    np.testing.assert_array_equal(engine.utilization(), reference.utilization())
    np.testing.assert_array_equal(engine._steps_done, reference._steps_done)
    assert engine.events_processed == reference.events_processed
    expected, actual = reference.network, engine.network
    assert actual.messages_arrived == expected.messages_arrived
    assert actual.latency_seconds_total == expected.latency_seconds_total
    assert dict(actual.latency_by_tag) == dict(expected.latency_by_tag)
    np.testing.assert_array_equal(engine.state, reference.state)


def grid_traces(num_agents):
    """Coarse-grid traces on instantaneous wires: messages with different
    transit times arrive at exactly the same instant (1.0 + 0.7 == 1.5 + 0.2
    in float64), so the latency sum depends on the order ties are popped."""
    rng = np.random.default_rng(5)
    return [
        DeviceTrace(
            compute_seconds=float(rng.choice([1.0, 1.5])),
            latency_seconds=float(rng.choice([0.2, 0.7])),
        )
        for _ in range(num_agents)
    ]


def slow_link_traces(num_agents):
    return synthetic_traces(num_agents, seed=1, bandwidth_median_bytes_per_s=1e3)


def churn_schedule():
    return DynamicTopologySchedule(
        random_regular_graph(12, 4, seed=2),
        rewire_every=2,
        churn_rate=0.25,
        rejoin_rate=0.5,
        straggler_fraction=0.3,
        edge_failure_rate=0.1,
        seed=3,
    )


def build_pair(make_small_fleet, name, make_traces, topology=None, **config):
    engines = []
    for cls in (EventQueueBarrierEngine, AsyncEngine):
        algorithm, _ = make_small_fleet(name, topology=topology() if topology else None, **config)
        engines.append(cls(algorithm, traces=make_traces(algorithm.num_agents)))
    return engines


CASES = {
    "synthetic-finite-bandwidth": dict(
        name="DMSGD",
        make_traces=slow_link_traces,
        topology=lambda: random_regular_graph(16, 4, seed=1),
    ),
    "grid-ties": dict(
        name="DMSGD",
        make_traces=grid_traces,
        topology=lambda: random_regular_graph(16, 4, seed=1),
    ),
    "churn-and-stragglers": dict(
        name="DP-DPSGD", make_traces=slow_link_traces, topology=churn_schedule
    ),
    "communication-interval-2": dict(
        name="DMSGD",
        make_traces=slow_link_traces,
        compression={"codec": "identity", "communication_interval": 2},
    ),
    "pdsl-two-channels": dict(name="PDSL", make_traces=slow_link_traces),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_closed_form_matches_event_queue(make_small_fleet, case):
    reference, engine = build_pair(make_small_fleet, **CASES[case])
    for _ in range(4):
        reference.run_round()
        engine.run_round()
        assert_timing_bit_identical(reference, engine)
    assert engine.network.messages_arrived > 0


def test_round_with_every_agent_inactive(make_small_fleet, monkeypatch):
    reference, engine = build_pair(
        make_small_fleet, "DMSGD", slow_link_traces, topology=churn_schedule
    )
    for current in (reference, engine):
        schedule = current.algorithm.schedule
        mask_at = schedule.active_mask_at
        nobody = np.zeros(schedule.num_agents, dtype=bool)
        monkeypatch.setattr(
            schedule,
            "active_mask_at",
            lambda r, mask_at=mask_at, nobody=nobody: nobody if r == 1 else mask_at(r),
        )
    for _ in range(3):
        before = engine.simulated_time
        reference.run_round()
        engine.run_round()
        assert_timing_bit_identical(reference, engine)
        if engine.rounds_completed == 2:
            # Nobody computes or sends: the clock stands still.
            assert engine.simulated_time == before


def test_checkpoint_resume_across_a_barrier_round(make_small_fleet):
    reference, engine = build_pair(
        make_small_fleet, "DMSGD", slow_link_traces, topology=churn_schedule
    )
    reference.run_round()
    engine.run_round()
    state = engine.state_dict()
    algorithm, _ = make_small_fleet("DMSGD", topology=churn_schedule())
    resumed = AsyncEngine(algorithm, traces=slow_link_traces(algorithm.num_agents))
    resumed.load_state_dict(state)
    for _ in range(2):
        reference.run_round()
        resumed.run_round()
        assert_timing_bit_identical(reference, resumed)


def test_barrier_round_never_touches_the_event_queue(make_small_fleet, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("barrier mode must not use the event queue")

    monkeypatch.setattr(EventQueue, "push", refuse)
    monkeypatch.setattr(EventQueue, "pop", refuse)
    algorithm, _ = make_small_fleet("DMSGD")
    engine = AsyncEngine(algorithm, traces=slow_link_traces(algorithm.num_agents))
    engine.run_round()
    assert engine.events_processed > algorithm.num_agents
