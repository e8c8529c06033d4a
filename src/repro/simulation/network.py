"""Message-passing network between simulated agents.

Agents in the decentralized algorithms never read each other's state
directly: every exchange — broadcasting the current model to the neighbours
(Algorithm 1, line 5), returning perturbed cross-gradients (line 11), sharing
momentum buffers and models for the gossip step (line 21) — goes through a
:class:`Network` mailbox.  This keeps the information flow identical to a
real deployment and lets tests assert on exactly what was transmitted.

Message payloads are kept as opaque objects (typically NumPy arrays); the
network records per-tag traffic statistics (message counts, float counts and
wire bytes) so experiments can report communication cost.  A payload wrapped
in :class:`~repro.compression.codecs.CompressedPayload` is accounted at its
*encoded* size — the value count and byte count the codec reports — instead
of the dense float64 size, so compressed-gossip runs show the bandwidth a
real deployment would pay.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.compression.codecs import CompressedPayload

__all__ = ["Message", "Network"]


@dataclass(frozen=True)
class Message:
    """A single directed message."""

    sender: int
    recipient: int
    tag: str
    payload: Any
    round: int


class Network:
    """Mailbox-based point-to-point communication between ``num_agents`` agents.

    Parameters
    ----------
    num_agents:
        Number of participating agents, identified by integers ``0..M-1``.
    drop_probability:
        Probability that any individual message is silently dropped
        (fault-injection hook used by robustness tests); 0 disables drops
        and 1 models a fully partitioned network where nothing is ever
        delivered.
    rng:
        Randomness source for drops; required when ``drop_probability > 0``.

    Agents can also *depart* (churn, see
    :class:`~repro.topology.schedule.TopologySchedule`): sends to or from a
    departed agent are rejected — not delivered, counted in
    ``messages_rejected`` — because there is no process at the other end to
    accept the payload.  :meth:`set_active_mask` updates the roster each
    round.
    """

    def __init__(
        self,
        num_agents: int,
        drop_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if num_agents <= 0:
            raise ValueError("num_agents must be positive")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must lie in [0, 1]")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("an rng is required when drop_probability > 0")
        self.num_agents = int(num_agents)
        self.drop_probability = float(drop_probability)
        self.rng = rng
        self._round = 0
        # None means every agent is reachable; otherwise a boolean roster.
        self._active_mask: Optional[np.ndarray] = None
        # mailboxes[recipient][tag] -> list of messages
        self._mailboxes: Dict[int, Dict[str, List[Message]]] = {
            agent: defaultdict(list) for agent in range(num_agents)
        }
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_rejected = 0
        self.floats_sent = 0
        self.bytes_sent = 0
        self.traffic_by_tag: Dict[str, int] = defaultdict(int)
        self.bytes_by_tag: Dict[str, int] = defaultdict(int)
        # Simulated-time delivery statistics (event-driven engine): how many
        # messages actually arrived and how long they spent in transit.
        self.messages_arrived = 0
        self.latency_seconds_total = 0.0
        self.latency_by_tag: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Round bookkeeping
    # ------------------------------------------------------------------
    @property
    def current_round(self) -> int:
        return self._round

    def advance_round(self) -> None:
        """Mark the start of a new communication round (purely for labelling)."""
        self._round += 1

    # ------------------------------------------------------------------
    # Agent roster (churn)
    # ------------------------------------------------------------------
    def set_active_mask(self, mask: Optional[np.ndarray]) -> None:
        """Update which agents are reachable; ``None`` restores everyone.

        Departed agents' pending messages are discarded — their process is
        gone, so anything still queued for them can never be read.
        """
        if mask is None:
            self._active_mask = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_agents,):
            raise ValueError(
                f"active mask must have shape ({self.num_agents},), got {mask.shape}"
            )
        self._active_mask = mask
        for agent in np.flatnonzero(~mask):
            self._mailboxes[int(agent)] = defaultdict(list)

    def is_active(self, agent: int) -> bool:
        """Whether the agent is currently reachable."""
        self._validate_agent(agent)
        return self._active_mask is None or bool(self._active_mask[agent])

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _validate_agent(self, agent: int) -> None:
        if not 0 <= agent < self.num_agents:
            raise ValueError(f"agent id {agent} out of range [0, {self.num_agents})")

    def send(
        self,
        sender: int,
        recipient: int,
        tag: str,
        payload: Any,
        latency: Optional[float] = None,
    ) -> bool:
        """Send ``payload`` from ``sender`` to ``recipient`` under ``tag``.

        Returns ``True`` if the message was delivered, ``False`` if it was
        dropped by fault injection or rejected because either endpoint has
        departed the fleet.

        ``latency`` is the simulated transit time the event-driven engine
        observed for this message; it is recorded only on actual delivery —
        a rejected send counts no bytes and no latency, a dropped send
        counts its bytes (the wire carried them) but never arrived.
        """
        self._validate_agent(sender)
        self._validate_agent(recipient)
        if not tag:
            raise ValueError("tag must be a non-empty string")
        if not (self.is_active(sender) and self.is_active(recipient)):
            self.messages_rejected += 1
            return False
        self.messages_sent += 1
        if isinstance(payload, CompressedPayload):
            payload_size = int(payload.num_values)
            payload_bytes = int(payload.wire_bytes)
        else:
            payload_size = int(np.asarray(payload).size) if isinstance(payload, (np.ndarray, list, tuple)) else 1
            payload_bytes = 8 * payload_size
        self.floats_sent += payload_size
        self.bytes_sent += payload_bytes
        self.traffic_by_tag[tag] += payload_size
        self.bytes_by_tag[tag] += payload_bytes
        if self.drop_probability > 0.0 and self.rng is not None:
            if self.rng.random() < self.drop_probability:
                self.messages_dropped += 1
                return False
        message = Message(sender=sender, recipient=recipient, tag=tag, payload=payload, round=self._round)
        self._mailboxes[recipient][tag].append(message)
        if latency is not None:
            self.record_latency(tag, latency)
        return True

    def record_latency(self, tag: str, seconds: Any) -> None:
        """Account delivered messages' simulated transit times.

        ``seconds`` is one transit time or an array of them, one per message,
        summed in array order by a sequential ``np.add.accumulate`` — so one
        bulk call is bit-identical to one call per message in that order.
        Barrier mode moves real payloads through :meth:`record_bulk` but
        knows each message's transit time; this hook tags the latency
        without enqueueing anything.  Async mode records latency through
        ``send(..., latency=...)`` instead.

        Because this hook bypasses :meth:`send`, callers decide what
        "arrived" means: barrier mode records every *scheduled* edge (its
        numeric round applies drop faults separately, with RNG the timing
        pass must not touch), so with fault injection these counters are
        pre-drop; async mode counts confirmed deliveries only.
        """
        if not tag:
            raise ValueError("tag must be a non-empty string")
        seconds = np.atleast_1d(np.asarray(seconds, dtype=np.float64))
        if (seconds < 0).any():
            raise ValueError(f"latency must be non-negative, got {float(seconds.min())!r}")

        def accumulate(total: float) -> float:
            return float(np.add.accumulate(np.concatenate(([total], seconds)))[-1])

        self.messages_arrived += int(seconds.size)
        self.latency_seconds_total = accumulate(self.latency_seconds_total)
        self.latency_by_tag[tag] = accumulate(self.latency_by_tag[tag])

    def record_bulk(
        self,
        tag: str,
        num_messages: int,
        floats_per_message: int,
        bytes_per_message: Optional[int] = None,
    ) -> None:
        """Account for an exchange performed outside the mailbox (vectorized engine).

        The vectorized backend replaces per-message gossip with whole-fleet
        matrix operations; this hook keeps the traffic statistics identical to
        what the equivalent point-to-point exchange would have recorded, so
        communication-cost reporting is backend independent.  No messages are
        enqueued and fault injection does not apply (the vectorized engine is
        only used on loss-free networks).  ``bytes_per_message`` defaults to
        the dense float64 size (``8 * floats_per_message``); compressed
        exchanges pass the codec's encoded size instead.
        """
        if not tag:
            raise ValueError("tag must be a non-empty string")
        if num_messages < 0 or floats_per_message < 0:
            raise ValueError("message and float counts must be non-negative")
        if bytes_per_message is None:
            bytes_per_message = 8 * int(floats_per_message)
        if bytes_per_message < 0:
            raise ValueError("bytes_per_message must be non-negative")
        self.messages_sent += int(num_messages)
        self.floats_sent += int(num_messages) * int(floats_per_message)
        self.bytes_sent += int(num_messages) * int(bytes_per_message)
        self.traffic_by_tag[tag] += int(num_messages) * int(floats_per_message)
        self.bytes_by_tag[tag] += int(num_messages) * int(bytes_per_message)

    def broadcast(self, sender: int, recipients: List[int], tag: str, payload: Any) -> int:
        """Send the same payload to every recipient; returns the number delivered."""
        delivered = 0
        for recipient in recipients:
            if recipient == sender:
                continue
            if self.send(sender, recipient, tag, payload):
                delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def receive(self, recipient: int, tag: str) -> List[Message]:
        """Drain and return all pending messages for ``recipient`` under ``tag``."""
        self._validate_agent(recipient)
        box = self._mailboxes[recipient]
        messages = box.pop(tag, [])
        return list(messages)

    def receive_by_sender(self, recipient: int, tag: str) -> Dict[int, Any]:
        """Drain pending messages and return ``{sender: payload}``.

        If a sender delivered several messages under the same tag only the
        most recent payload is kept, matching "the latest value wins"
        semantics of the synchronous algorithms here.
        """
        payloads: Dict[int, Any] = {}
        for message in self.receive(recipient, tag):
            payloads[message.sender] = message.payload
        return payloads

    def pending(self, recipient: int, tag: Optional[str] = None) -> int:
        """Number of undelivered messages waiting for an agent (optionally per tag)."""
        self._validate_agent(recipient)
        box = self._mailboxes[recipient]
        if tag is not None:
            return len(box.get(tag, []))
        return sum(len(v) for v in box.values())

    def clear(self) -> None:
        """Drop all pending messages (used between independent experiments)."""
        for agent in range(self.num_agents):
            self._mailboxes[agent] = defaultdict(list)

    def traffic_summary(self) -> Dict[str, Any]:
        """Totals for reporting communication cost."""
        return {
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_rejected": self.messages_rejected,
            "floats_sent": self.floats_sent,
            "bytes_sent": self.bytes_sent,
            "traffic_by_tag": dict(self.traffic_by_tag),
            "bytes_by_tag": dict(self.bytes_by_tag),
            "messages_arrived": self.messages_arrived,
            "latency_seconds_total": self.latency_seconds_total,
            "latency_by_tag": dict(self.latency_by_tag),
        }

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Resumable network state: round counter, traffic totals, drop RNG.

        Checkpoints are taken at round boundaries, where the synchronous
        algorithms have drained every mailbox — so only the counters and the
        fault-injection RNG stream (when drops are enabled) need capturing,
        and a resumed run's traffic statistics continue exactly where the
        interrupted run's left off.
        """
        return {
            "round": self._round,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_rejected": self.messages_rejected,
            "floats_sent": self.floats_sent,
            "bytes_sent": self.bytes_sent,
            "traffic_by_tag": dict(self.traffic_by_tag),
            "bytes_by_tag": dict(self.bytes_by_tag),
            "messages_arrived": self.messages_arrived,
            "latency_seconds_total": self.latency_seconds_total,
            "latency_by_tag": dict(self.latency_by_tag),
            "rng_state": None if self.rng is None else self.rng.bit_generator.state,
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`state_dict`.

        Pending mailboxes are cleared (they were empty at capture time) and
        the active-agent roster is left for the next round's schedule pull.
        """
        self._round = int(payload["round"])
        self.messages_sent = int(payload["messages_sent"])
        self.messages_dropped = int(payload["messages_dropped"])
        self.messages_rejected = int(payload["messages_rejected"])
        self.floats_sent = int(payload["floats_sent"])
        # Checkpoints written before byte accounting existed carried dense
        # float64 traffic only; reconstruct the equivalent byte totals.
        self.bytes_sent = int(payload.get("bytes_sent", 8 * self.floats_sent))
        self.traffic_by_tag = defaultdict(int)
        self.traffic_by_tag.update(payload["traffic_by_tag"])
        self.bytes_by_tag = defaultdict(int)
        self.bytes_by_tag.update(
            payload.get(
                "bytes_by_tag",
                {tag: 8 * count for tag, count in self.traffic_by_tag.items()},
            )
        )
        # Latency counters appeared with the event-driven engine; checkpoints
        # written before it carried none (synchronous runs observe zero).
        self.messages_arrived = int(payload.get("messages_arrived", 0))
        self.latency_seconds_total = float(payload.get("latency_seconds_total", 0.0))
        self.latency_by_tag = defaultdict(float)
        self.latency_by_tag.update(payload.get("latency_by_tag", {}))
        if payload["rng_state"] is not None:
            if self.rng is None:
                raise ValueError(
                    "checkpoint carries a drop RNG stream but this network has "
                    "no rng (was it rebuilt with drop_probability=0?)"
                )
            self.rng.bit_generator.state = payload["rng_state"]
        self.clear()
