"""Deterministic discrete-event queue for async mode.

Only async mode runs events one by one; barrier mode computes its round's
timestamps in closed form (see
:class:`~repro.simulation.events.engine.AsyncEngine`).  The queue is a
binary heap keyed by ``(time, priority, seq)``:

* ``time`` — simulated seconds at which the event fires;
* ``priority`` — explicit tie-break between event *kinds* scheduled for the
  same instant (lower fires first; see :data:`PRIORITY_ARRIVAL` /
  :data:`PRIORITY_COMPUTE`).  Message arrivals outrank compute completions,
  so a payload that lands exactly when its recipient finishes a step is
  mixed before the recipient's next broadcast — either convention would be
  deterministic, but one must be *chosen* and pinned;
* ``seq`` — the monotone insertion counter, which makes the ordering a
  total order: events pushed with equal ``(time, priority)`` pop in FIFO
  (insertion) order, never in heap-internal or hash order.

Because the key is a pure function of the push sequence, replaying the same
pushes yields the same pops — the property tests in
``tests/properties/test_property_events.py`` pin this, along with clock
monotonicity (``pop`` times never decrease, and scheduling into the past is
an error).

The whole queue — pending entries, the insertion counter, the simulated
clock — round-trips through :meth:`EventQueue.state_dict`, which is how an
interrupted async run resumes mid-queue bit-identically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = [
    "PRIORITY_ARRIVAL",
    "PRIORITY_COMPUTE",
    "Event",
    "EventQueue",
]

#: Message arrivals fire first among events scheduled for the same instant.
PRIORITY_ARRIVAL = 0
#: Compute completions fire after any same-instant arrivals.
PRIORITY_COMPUTE = 1


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence in simulated time.

    ``kind`` names what happens (``"compute"``, ``"arrival"``, ...);
    ``agent`` is the agent the event happens *to* (the recipient for an
    arrival); ``data`` carries kind-specific payload (sender id, send time,
    the transmitted array, ...).
    """

    time: float
    priority: int
    seq: int
    kind: str
    agent: int = -1
    data: Dict[str, Any] = field(default_factory=dict)


class EventQueue:
    """Deterministic priority queue over simulated time.

    Events are totally ordered by ``(time, priority, seq)``; ``seq`` is the
    push counter, so the order is reproducible across runs, platforms and
    checkpoint/resume boundaries.  The queue also owns the simulated clock:
    ``now`` is the timestamp of the last popped event, pops are
    non-decreasing in time, and pushing an event before ``now`` raises.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, str, int, Dict[str, Any]]] = []
        self._next_seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Simulated seconds at the last popped event (0 before any pop)."""
        return self._now

    def __len__(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        kind: str,
        agent: int = -1,
        priority: int = PRIORITY_COMPUTE,
        **data: Any,
    ) -> int:
        """Schedule an event; returns its sequence number.

        ``time`` must be finite and not before the simulated clock — an
        event cannot fire in the past.
        """
        time = float(time)
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before the simulated "
                f"clock (now={self._now})"
            )
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        seq = self._next_seq
        self._next_seq += 1
        heapq.heappush(self._heap, (time, int(priority), seq, str(kind), int(agent), data))
        return seq

    def pop(self) -> Event:
        """Remove and return the next event, advancing the simulated clock.

        Raises ``IndexError`` when the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, priority, seq, kind, agent, data = heapq.heappop(self._heap)
        self._now = time
        return Event(
            time=time, priority=priority, seq=seq, kind=kind, agent=agent, data=data
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to resume the queue bit-identically.

        Entries keep their original sequence numbers, so FIFO order among
        equal ``(time, priority)`` keys survives the round trip.  Entry
        payloads travel as-is (arrays included) — checkpoints are pickled,
        not JSON.
        """
        return {
            "now": self._now,
            "next_seq": self._next_seq,
            "entries": [
                (time, priority, seq, kind, agent, dict(data))
                for time, priority, seq, kind, agent, data in sorted(self._heap)
            ],
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._now = float(payload["now"])
        self._next_seq = int(payload["next_seq"])
        self._heap = [
            (float(time), int(priority), int(seq), str(kind), int(agent), dict(data))
            for time, priority, seq, kind, agent, data in payload["entries"]
        ]
        heapq.heapify(self._heap)
