"""Discrete-event simulation layer: simulated time for decentralized runs.

The synchronous engines treat a round as an indivisible unit; this package
makes *time* a simulated, measurable quantity.  Three pieces:

* :mod:`repro.simulation.events.queue` — a deterministic event queue keyed
  by ``(time, priority, seq)`` with explicit tie-breaking, lazy
  cancellation and full checkpoint round-trips;
* :mod:`repro.simulation.events.traces` — per-agent :class:`DeviceTrace`
  objects (compute seconds per step, link bandwidth, latency) from uniform
  defaults, seeded log-normal synthesis, or JSON trace files;
* :mod:`repro.simulation.events.engine` — the :class:`AsyncEngine` wrapper
  that drives any of the six algorithms on simulated time, in barrier mode
  (synchronous numerics, simulated timing — bit-identical to the plain
  engines under uniform unit traces) or async mode (agents train on their
  own clocks and gossip on message arrival with staleness-weighted mixing).

Declared via ``ExperimentSpec.time_model`` and wrapped automatically by the
experiment harness; ``RunSession`` records simulated wall-clock and fleet
utilization into :class:`~repro.simulation.metrics.TrainingHistory`.
"""

from repro.simulation.events.engine import (
    AsyncEngine,
    check_async_mode,
    engine_from_time_model,
)
from repro.simulation.events.queue import (
    PRIORITY_ARRIVAL,
    PRIORITY_BARRIER,
    PRIORITY_COMPUTE,
    Event,
    EventQueue,
)
from repro.simulation.events.traces import (
    TIME_MODEL_KEYS,
    DeviceTrace,
    load_traces,
    save_traces,
    synthetic_traces,
    traces_from_spec,
    transfer_seconds,
    uniform_traces,
    validate_time_model,
)

__all__ = [
    "AsyncEngine",
    "check_async_mode",
    "engine_from_time_model",
    "PRIORITY_ARRIVAL",
    "PRIORITY_BARRIER",
    "PRIORITY_COMPUTE",
    "Event",
    "EventQueue",
    "TIME_MODEL_KEYS",
    "DeviceTrace",
    "load_traces",
    "save_traces",
    "synthetic_traces",
    "traces_from_spec",
    "transfer_seconds",
    "uniform_traces",
    "validate_time_model",
]
