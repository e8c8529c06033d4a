"""Property-based tests for the discrete-event queue (hypothesis).

The invariants the event-driven time model stands on:

* total order: pops come out sorted by ``(time, priority, seq)``, so events
  with equal timestamps and priorities fire in FIFO (insertion) order —
  never heap-internal or hash order;
* determinism: replaying the same pushes yields the same pops, and a
  state_dict round-trip taken at any drain point changes nothing;
* no loss: every pushed event is popped exactly once;
* clock monotonicity: ``now`` never decreases across pops, and scheduling
  into the past is an error.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.events import (
    PRIORITY_ARRIVAL,
    PRIORITY_COMPUTE,
    EventQueue,
)

# One scheduled event: a coarse time grid (so ties actually happen), one of
# the two real priorities, and an agent id.
EVENT = st.tuples(
    st.integers(min_value=0, max_value=5).map(float),
    st.sampled_from([PRIORITY_ARRIVAL, PRIORITY_COMPUTE]),
    st.integers(min_value=0, max_value=7),
)
EVENTS = st.lists(EVENT, min_size=0, max_size=40)


def drain(queue):
    out = []
    while queue:
        out.append(queue.pop())
    return out


@given(events=EVENTS)
@settings(max_examples=200, deadline=None)
def test_pops_are_totally_ordered_and_fifo_among_ties(events):
    queue = EventQueue()
    for time, priority, agent in events:
        queue.push(time, "e", agent=agent, priority=priority)
    popped = drain(queue)
    keys = [(e.time, e.priority, e.seq) for e in popped]
    assert keys == sorted(keys)
    # FIFO among equal (time, priority): seq is the push counter, so within
    # any tie group the sequence numbers must appear in insertion order.
    assert len(popped) == len(events)


@given(events=EVENTS)
@settings(max_examples=200, deadline=None)
def test_seed_replay_determinism(events):
    def run():
        queue = EventQueue()
        for time, priority, agent in events:
            queue.push(time, "e", agent=agent, priority=priority)
        return [(e.time, e.priority, e.seq, e.kind, e.agent) for e in drain(queue)]

    assert run() == run()


@given(events=EVENTS)
@settings(max_examples=200, deadline=None)
def test_clock_is_monotone_and_rejects_the_past(events):
    queue = EventQueue()
    for time, priority, agent in events:
        queue.push(time, "e", agent=agent, priority=priority)
    last = queue.now
    assert last == 0.0
    while queue:
        event = queue.pop()
        assert event.time >= last
        assert queue.now == event.time
        last = event.time
    if last > 0:
        with pytest.raises(ValueError):
            queue.push(last - 0.5, "late")


@given(events=EVENTS, split=st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_state_dict_round_trip_mid_drain_is_invisible(events, split):
    reference = EventQueue()
    checkpointed = EventQueue()
    for time, priority, agent in events:
        reference.push(time, "e", agent=agent, priority=priority)
        checkpointed.push(time, "e", agent=agent, priority=priority)
    split = min(split, len(events))
    prefix_a = [checkpointed.pop() for _ in range(split) if checkpointed]
    prefix_b = [reference.pop() for _ in range(split) if reference]
    assert [(e.time, e.seq) for e in prefix_a] == [(e.time, e.seq) for e in prefix_b]
    restored = EventQueue()
    restored.load_state_dict(checkpointed.state_dict())
    assert restored.now == checkpointed.now
    assert len(restored) == len(checkpointed)
    tail_restored = [(e.time, e.priority, e.seq) for e in drain(restored)]
    tail_reference = [(e.time, e.priority, e.seq) for e in drain(reference)]
    assert tail_restored == tail_reference
    # New pushes after the round trip continue the original seq counter, so
    # resumed and uninterrupted runs stay aligned.
    assert restored.push(restored.now + 1.0, "next") == len(events)


def test_push_rejects_bad_inputs():
    queue = EventQueue()
    with pytest.raises(ValueError):
        queue.push(float("inf"), "e")
    with pytest.raises(ValueError):
        queue.push(float("nan"), "e")
    with pytest.raises(ValueError):
        queue.push(1.0, "")
    with pytest.raises(IndexError):
        queue.pop()


def test_arrivals_outrank_compute_at_the_same_instant():
    queue = EventQueue()
    queue.push(3.0, "compute", priority=PRIORITY_COMPUTE)
    queue.push(3.0, "arrival", priority=PRIORITY_ARRIVAL)
    assert [queue.pop().kind for _ in range(2)] == ["arrival", "compute"]
