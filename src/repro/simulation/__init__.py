"""Decentralized-learning simulation engine.

The paper evaluates PDSL by simulating ``M`` agents exchanging models and
gradients over a communication graph.  This package provides that substrate:

* :class:`Network` — per-tag traffic accounting of the messages agents
  exchange, and the message-drop fault-injection knob;
* :class:`Metrics` containers (:class:`RoundRecord`, :class:`TrainingHistory`)
  recording the quantities the paper plots (average training loss per round,
  test accuracy, consensus distance);
* :class:`RunSession` — the round loop as an explicit lifecycle
  (start/step/checkpoint/finish) with a :class:`CallbackBus` for round
  events and bit-identical checkpoint/resume;
* :func:`run_decentralized` — the one-call wrapper: step the algorithm,
  evaluate, record.
* :mod:`repro.simulation.events` — the discrete-event time model: a
  deterministic event queue, per-agent :class:`DeviceTrace` objects and the
  :class:`AsyncEngine` wrapper that runs an algorithm on simulated time
  (barrier mode times any algorithm's rounds in closed form and is
  bit-identical to the bare synchronous round; async mode runs DMSGD and
  gossips on message arrival).
"""

from repro.simulation.checkpoint import (
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.network import Network
from repro.simulation.metrics import (
    RoundRecord,
    TrainingHistory,
    consensus_distance,
    histories_equal,
    history_from_dict,
    history_to_dict,
)
from repro.simulation.runner import (
    CallbackBus,
    EvaluationConfig,
    RunSession,
    run_decentralized,
)
from repro.simulation.events import (
    AsyncEngine,
    DeviceTrace,
    Event,
    EventQueue,
    engine_from_time_model,
    load_traces,
    save_traces,
    synthetic_traces,
    uniform_traces,
)

__all__ = [
    "Network",
    "RoundRecord",
    "TrainingHistory",
    "consensus_distance",
    "histories_equal",
    "history_from_dict",
    "history_to_dict",
    "latest_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "CallbackBus",
    "EvaluationConfig",
    "RunSession",
    "run_decentralized",
    "AsyncEngine",
    "DeviceTrace",
    "Event",
    "EventQueue",
    "engine_from_time_model",
    "load_traces",
    "save_traces",
    "synthetic_traces",
    "uniform_traces",
]
