"""Traffic accounting for the messages simulated agents exchange.

Agents in the decentralized algorithms never read each other's state
directly: every exchange — broadcasting the current model to the neighbours
(Algorithm 1, line 5), returning perturbed cross-gradients (line 11), sharing
momentum buffers and models for the gossip step (line 21) — is one message
per directed channel of the round's topology.  The round pipeline performs
each exchange as a whole-fleet matrix operation and reports it here, so
experiments can state communication cost the way a real deployment would
pay it: per-tag message counts, float counts and wire bytes (a compressed
exchange is accounted at the codec's encoded size), plus the simulated
transit times the event-driven time model observes.

``drop_probability`` is the fault-injection knob: each message is lost
independently with that probability.  The algorithms read it every round
and draw the drops from their own keyed streams
(:meth:`~repro.core.streams.FleetStreams.edge_uniforms`), so the network
itself holds no randomness.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["Network"]


class Network:
    """Per-tag traffic counters for the messages among ``num_agents`` agents.

    Parameters
    ----------
    num_agents:
        Number of participating agents, identified by integers ``0..M-1``.
    drop_probability:
        Probability that any individual message is silently dropped
        (fault-injection hook used by robustness tests); 0 disables drops
        and 1 models a fully partitioned network where nothing is ever
        delivered.  A dropped message still counts as sent: the wire
        carried its bytes.
    """

    def __init__(self, num_agents: int, drop_probability: float = 0.0) -> None:
        if num_agents <= 0:
            raise ValueError("num_agents must be positive")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must lie in [0, 1]")
        self.num_agents = int(num_agents)
        self.drop_probability = float(drop_probability)
        self._round = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.floats_sent = 0
        self.bytes_sent = 0
        self.traffic_by_tag: Dict[str, int] = defaultdict(int)
        self.bytes_by_tag: Dict[str, int] = defaultdict(int)
        # Simulated-time delivery statistics (event-driven engine): how many
        # messages actually arrived and how long they spent in transit.
        self.messages_arrived = 0
        self.latency_seconds_total = 0.0
        self.latency_by_tag: Dict[str, float] = defaultdict(float)

    @property
    def current_round(self) -> int:
        return self._round

    def advance_round(self) -> None:
        """Mark the start of a new communication round (purely for labelling)."""
        self._round += 1

    def record_latency(self, tag: str, seconds: Any) -> None:
        """Account delivered messages' simulated transit times.

        ``seconds`` is one transit time or an array of them, one per message,
        summed in array order by a sequential ``np.add.accumulate`` — so one
        bulk call is bit-identical to one call per message in that order.
        Both time-model modes record here: barrier mode once per round for
        every *scheduled* edge (its timing pass prices transmissions and
        leaves drops to the numeric round, so with fault injection these
        counters are pre-drop), async mode once per delivered arrival.
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
        dropped: int = 0,
    ) -> None:
        """Account ``num_messages`` messages of one exchange, ``dropped`` of them lost.

        ``bytes_per_message`` defaults to the dense float64 size
        (``8 * floats_per_message``); compressed exchanges pass the codec's
        encoded size instead.
        """
        if not tag:
            raise ValueError("tag must be a non-empty string")
        if num_messages < 0 or floats_per_message < 0:
            raise ValueError("message and float counts must be non-negative")
        if not 0 <= dropped <= num_messages:
            raise ValueError("dropped must lie in [0, num_messages]")
        if bytes_per_message is None:
            bytes_per_message = 8 * int(floats_per_message)
        if bytes_per_message < 0:
            raise ValueError("bytes_per_message must be non-negative")
        self.messages_sent += int(num_messages)
        self.messages_dropped += int(dropped)
        self.floats_sent += int(num_messages) * int(floats_per_message)
        self.bytes_sent += int(num_messages) * int(bytes_per_message)
        self.traffic_by_tag[tag] += int(num_messages) * int(floats_per_message)
        self.bytes_by_tag[tag] += int(num_messages) * int(bytes_per_message)

    def traffic_summary(self) -> Dict[str, Any]:
        """Totals for reporting communication cost."""
        return {
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
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
        """Resumable network state: the round counter and the traffic totals.

        Drops are addressed by ``(seed, round, tag, sender, recipient)`` in
        the algorithm's keyed streams, so no random state is captured and a
        resumed run's traffic statistics continue exactly where the
        interrupted run's left off.
        """
        return {"round": self._round, **self.traffic_summary()}

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore a state captured by :meth:`state_dict`."""
        self._round = int(payload["round"])
        self.messages_sent = int(payload["messages_sent"])
        self.messages_dropped = int(payload["messages_dropped"])
        self.floats_sent = int(payload["floats_sent"])
        self.bytes_sent = int(payload["bytes_sent"])
        self.traffic_by_tag = defaultdict(int, payload["traffic_by_tag"])
        self.bytes_by_tag = defaultdict(int, payload["bytes_by_tag"])
        self.messages_arrived = int(payload["messages_arrived"])
        self.latency_seconds_total = float(payload["latency_seconds_total"])
        self.latency_by_tag = defaultdict(float, payload["latency_by_tag"])
