"""The round loop: step an algorithm, evaluate, record, checkpoint.

Keeps evaluation policy (how often to compute test accuracy, how many
training samples to use for the loss estimate) separate from the algorithms
themselves.

The loop is packaged as a :class:`RunSession` — an explicit
start/step/checkpoint/finish lifecycle instead of one opaque function call —
so callers can:

* drive rounds one at a time (``session.step()``) or in bulk
  (``session.run()``, optionally capped with ``max_rounds`` to hand control
  back mid-run);
* subscribe to round events through a :class:`CallbackBus` (progress
  printers, loggers, the experiment orchestrator's status updates);
* snapshot the run every ``checkpoint_every`` rounds and later *resume it
  bit-identically* via :meth:`RunSession.resume` — the checkpoint carries
  the algorithm's full :meth:`~repro.core.base.DecentralizedAlgorithm.state_dict`
  (fleet matrices, the stream seed and the round count, which is the
  position of every counter-based random stream) plus the partial
  :class:`~repro.simulation.metrics.TrainingHistory`, so a killed run picks
  up where it stopped and produces the same trajectory an uninterrupted run
  would (only per-round wall-clock timings differ).

:func:`run_decentralized` remains the one-call convenience wrapper and is a
thin shim over a session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

import numpy as np

from repro.data.dataset import Dataset
from repro.simulation.checkpoint import (
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.simulation.metrics import (
    RoundRecord,
    TrainingHistory,
    history_from_dict,
    history_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.core.base import DecentralizedAlgorithm

__all__ = ["EvaluationConfig", "CallbackBus", "RunSession", "run_decentralized"]


@dataclass
class EvaluationConfig:
    """How and how often to evaluate during a run.

    Attributes
    ----------
    eval_every:
        Record metrics every ``eval_every`` rounds (round 1 and the final
        round are always recorded).
    test_data:
        Held-out test dataset; when ``None`` no accuracy is computed.
    accuracy_mode:
        ``"mean_agent"`` or ``"average_model"`` (see
        :meth:`DecentralizedAlgorithm.test_accuracy`).
    loss_samples_per_agent:
        Cap on the number of local examples used for the training-loss
        estimate (keeps evaluation cheap for large shards).
    track_consensus:
        Whether to record the consensus distance each evaluation.
    """

    eval_every: int = 1
    test_data: Optional[Dataset] = None
    accuracy_mode: str = "mean_agent"
    loss_samples_per_agent: int = 256
    track_consensus: bool = True

    def __post_init__(self) -> None:
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.loss_samples_per_agent <= 0:
            raise ValueError("loss_samples_per_agent must be positive")
        if self.accuracy_mode not in ("mean_agent", "average_model"):
            raise ValueError("accuracy_mode must be 'mean_agent' or 'average_model'")


class CallbackBus:
    """Pluggable fan-out for run lifecycle events.

    Subscribers are callables ``fn(event: str, payload: dict)`` invoked
    synchronously, in subscription order, for every emitted event:

    * ``"start"``    — ``{"history", "rounds_done", "num_rounds"}``, once per
      session (including resumed ones, with ``rounds_done > 0``);
    * ``"round"``    — ``{"round", "seconds"}`` after every training round;
    * ``"record"``   — ``{"round", "record"}`` after each evaluation point;
    * ``"checkpoint"`` — ``{"round", "path"}`` after each snapshot;
    * ``"finish"``   — ``{"history"}`` when the session completes.

    The bus is deliberately minimal — no filtering, no priorities — because
    its one job is to let the orchestrator, progress printers and tests
    observe a run without the session knowing about any of them.
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[[str, Dict[str, object]], None]] = []

    def subscribe(
        self, callback: Callable[[str, Dict[str, object]], None]
    ) -> Callable[[str, Dict[str, object]], None]:
        """Register a subscriber; returns it, so the method works as a decorator."""
        if not callable(callback):
            raise TypeError("bus subscribers must be callable")
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[str, Dict[str, object]], None]) -> None:
        """Remove a previously subscribed callback (``ValueError`` if absent)."""
        self._subscribers.remove(callback)

    def emit(self, event: str, **payload: object) -> None:
        """Deliver ``(event, payload)`` to every subscriber, in subscription order."""
        for callback in list(self._subscribers):
            callback(event, payload)


class RunSession:
    """A resumable, observable training run of one algorithm.

    Parameters
    ----------
    algorithm:
        Any :class:`~repro.core.base.DecentralizedAlgorithm`, already
        constructed with its model, topology, shards and config.
    num_rounds:
        Total number of communication rounds ``T`` for the *whole run*
        (including rounds already executed when resuming).
    evaluation:
        Evaluation policy; defaults to evaluating the loss every round with
        no test accuracy.  Not checkpointed — a resuming caller passes the
        same policy it started with (the experiment layer derives it
        deterministically from the spec).
    checkpoint_every:
        Snapshot the run after every ``checkpoint_every`` rounds (0 disables
        automatic snapshots; :meth:`checkpoint` remains available).
    checkpoint_dir:
        Where automatic snapshots go (``round_<NNNNNN>.ckpt``); required when
        ``checkpoint_every > 0``.
    bus:
        A shared :class:`CallbackBus`; a private one is created by default.
    out_of_core:
        Write checkpoints with the fleet matrices externalized as
        memory-mapped ``.npy`` sidecars (see
        :func:`~repro.simulation.checkpoint.save_checkpoint`), so snapshots
        of large fleets never hold a second in-RAM copy of the state.
        Resume is transparent either way.
    """

    def __init__(
        self,
        algorithm: "DecentralizedAlgorithm",
        num_rounds: int,
        evaluation: Optional[EvaluationConfig] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        bus: Optional[CallbackBus] = None,
        out_of_core: bool = False,
    ) -> None:
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every > 0 and checkpoint_dir is None:
            raise ValueError("checkpoint_every > 0 requires a checkpoint_dir")
        self.algorithm = algorithm
        self.num_rounds = int(num_rounds)
        self.evaluation = evaluation or EvaluationConfig()
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.bus = bus if bus is not None else CallbackBus()
        self.out_of_core = bool(out_of_core)
        self._rounds_done = 0
        # Records are numbered 1..num_rounds relative to the run's start;
        # schedules and the engine number rounds absolutely, so remember the
        # offset (normally 0 — an algorithm that trained before this run).
        self._base_offset = int(getattr(algorithm, "rounds_completed", 0))
        self._pending_seconds = 0.0
        self._pending_events: List[Dict[str, object]] = []
        # Simulated-time bookkeeping (only for AsyncEngine-wrapped runs):
        # accumulate the simulated clock's advance between records, exactly
        # as _pending_seconds accumulates real time.
        self._pending_sim_seconds = 0.0
        self._sim_mark = self._current_sim_time()
        self._history: Optional[TrainingHistory] = None
        self._finished = False
        self._started = False
        # Events buffered by rounds driven outside any session belong to no
        # record of this run — discard them rather than mis-attribute them.
        if hasattr(algorithm, "consume_events"):
            algorithm.consume_events()

    def _current_sim_time(self) -> Optional[float]:
        """The algorithm's simulated clock, or ``None`` without a time model."""
        value = getattr(self.algorithm, "simulated_time", None)
        return None if value is None else float(value)

    def _mean_utilization(self) -> Optional[float]:
        """Fleet-mean compute utilization, or ``None`` without a time model."""
        fn = getattr(self.algorithm, "mean_utilization", None)
        return None if fn is None else float(fn())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rounds_done(self) -> int:
        """Rounds executed so far in this run (across interruptions)."""
        return self._rounds_done

    @property
    def remaining_rounds(self) -> int:
        """Rounds still to execute before the run is complete."""
        return self.num_rounds - self._rounds_done

    @property
    def done(self) -> bool:
        """Whether every training round has executed (finish may still be pending)."""
        return self._rounds_done >= self.num_rounds

    @property
    def history(self) -> TrainingHistory:
        """The (possibly partial) training history, creating it on first access."""
        if self._history is None:
            self._history = self._build_history()
        return self._history

    def _build_history(self) -> TrainingHistory:
        algorithm = self.algorithm
        metadata = {
            "num_agents": algorithm.num_agents,
            "topology": algorithm.topology.name,
            "sigma": algorithm.sigma,
            "epsilon": algorithm.config.epsilon,
            "learning_rate": algorithm.config.learning_rate,
            "momentum": algorithm.config.momentum,
            "rounds": self.num_rounds,
        }
        schedule = getattr(algorithm, "schedule", None)
        if schedule is not None and not schedule.is_static:
            metadata["dynamics"] = schedule.describe()
            # The experiment's identity is the base graph, not whichever
            # per-round snapshot happens to be swapped in right now.
            metadata["topology"] = schedule.base.name
        time_model = getattr(algorithm, "time_model_metadata", None)
        if time_model is not None:
            metadata["time_model"] = dict(time_model)
        return TrainingHistory(algorithm=algorithm.name, metadata=metadata)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> TrainingHistory:
        """Materialise the history and announce the session (idempotent)."""
        history = self.history
        if not self._started:
            self._started = True
            self.bus.emit(
                "start",
                history=history,
                rounds_done=self._rounds_done,
                num_rounds=self.num_rounds,
            )
        return history

    def step(self) -> Optional[RoundRecord]:
        """Execute one training round; evaluate and record if the policy says so.

        Returns the :class:`RoundRecord` when this round was an evaluation
        point, else ``None``.  Training seconds and schedule events
        accumulate across non-evaluated rounds and are attached to the next
        record, so strided evaluation (``eval_every > 1``) loses neither
        timing nor event information.
        """
        if self.done:
            raise RuntimeError(
                f"all {self.num_rounds} rounds have already been executed"
            )
        self.start()
        algorithm = self.algorithm
        evaluation = self.evaluation
        started = time.perf_counter()
        algorithm.run_round()
        seconds = time.perf_counter() - started
        self._pending_seconds += seconds
        sim_now = self._current_sim_time()
        if sim_now is not None:
            self._pending_sim_seconds += sim_now - (self._sim_mark or 0.0)
            self._sim_mark = sim_now
        if hasattr(algorithm, "consume_events"):
            # Schedules number rounds 0-based (the engine's round index);
            # records number them 1-based within this run — renumber at this
            # boundary so an event and the record of the round it occurred
            # in agree.
            self._pending_events.extend(
                {**event.as_dict(), "round": event.round + 1 - self._base_offset}
                for event in algorithm.consume_events()
            )
        self._rounds_done += 1
        round_index = self._rounds_done
        self.bus.emit("round", round=round_index, seconds=seconds)

        record: Optional[RoundRecord] = None
        should_eval = (
            round_index == 1
            or round_index == self.num_rounds
            or round_index % evaluation.eval_every == 0
        )
        if should_eval:
            active_mask = getattr(algorithm, "active_mask", None)
            record = RoundRecord(
                round=round_index,
                average_train_loss=algorithm.average_train_loss(
                    max_samples_per_agent=evaluation.loss_samples_per_agent
                ),
                test_accuracy=(
                    algorithm.test_accuracy(
                        evaluation.test_data, mode=evaluation.accuracy_mode
                    )
                    if evaluation.test_data is not None
                    else None
                ),
                consensus=algorithm.consensus() if evaluation.track_consensus else None,
                wall_clock_seconds=self._pending_seconds,
                active_agents=(
                    int(np.sum(active_mask)) if active_mask is not None else None
                ),
                topology_events=self._pending_events,
                sim_seconds=(
                    self._pending_sim_seconds if sim_now is not None else None
                ),
                utilization=self._mean_utilization(),
            )
            self._pending_seconds = 0.0
            self._pending_events = []
            self._pending_sim_seconds = 0.0
            self.history.append(record)
            self.bus.emit("record", round=round_index, record=record)

        if (
            self.checkpoint_every > 0
            and round_index % self.checkpoint_every == 0
            and not self.done
        ):
            self.checkpoint()
        return record

    def run(self, max_rounds: Optional[int] = None) -> TrainingHistory:
        """Execute rounds until the run completes (or ``max_rounds`` elapse).

        With ``max_rounds`` set, at most that many rounds execute in this
        call and the (partial) history is returned — the caller checkpoints
        and resumes later, or calls ``run()`` again.  When the final round
        executes, :meth:`finish` runs automatically.
        """
        if max_rounds is not None and max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.start()
        steps = self.remaining_rounds
        if max_rounds is not None:
            steps = min(steps, max_rounds)
        for _ in range(steps):
            self.step()
        if self.done:
            return self.finish()
        return self.history

    def finish(self) -> TrainingHistory:
        """Final evaluation and the ``finish`` event (idempotent).

        Only legal once every round has executed; returns the completed
        history.
        """
        if not self.done:
            raise RuntimeError(
                f"cannot finish: {self.remaining_rounds} of {self.num_rounds} "
                "rounds still pending"
            )
        if not self._finished:
            if self.evaluation.test_data is not None:
                self.history.final_test_accuracy = self.algorithm.test_accuracy(
                    self.evaluation.test_data, mode=self.evaluation.accuracy_mode
                )
            self._finished = True
            self.bus.emit("finish", history=self.history)
        return self.history

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Snapshot the run so :meth:`resume` can continue it bit-identically.

        Writes (atomically) the algorithm's full ``state_dict``, the partial
        history, and the session bookkeeping (rounds done, the timing and
        events accumulated since the last record).  ``path`` defaults to
        ``checkpoint_dir/round_<rounds_done>.ckpt``.
        """
        if path is None:
            if self.checkpoint_dir is None:
                raise ValueError("no path given and the session has no checkpoint_dir")
            path = checkpoint_path(self.checkpoint_dir, self._rounds_done)
        path = Path(path)
        # Out-of-core saves stream the fleet matrices straight from the live
        # state into memmap sidecars — state_dict(copy=False) hands over
        # views, so the snapshot never doubles the fleet's RAM footprint.
        save_checkpoint(
            path,
            {
                "algorithm_state": self.algorithm.state_dict(
                    copy=not self.out_of_core
                ),
                "history": history_to_dict(self.history),
                "session": {
                    "num_rounds": self.num_rounds,
                    "rounds_done": self._rounds_done,
                    "base_offset": self._base_offset,
                    "pending_seconds": self._pending_seconds,
                    "pending_events": [dict(e) for e in self._pending_events],
                    "pending_sim_seconds": self._pending_sim_seconds,
                },
            },
            out_of_core=self.out_of_core,
        )
        self.bus.emit("checkpoint", round=self._rounds_done, path=path)
        return path

    @classmethod
    def resume(
        cls,
        algorithm: "DecentralizedAlgorithm",
        source: Union[str, Path, Dict[str, object]],
        evaluation: Optional[EvaluationConfig] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        bus: Optional[CallbackBus] = None,
        out_of_core: bool = False,
    ) -> "RunSession":
        """Rebuild a session from a checkpoint and continue the run.

        ``algorithm`` must be constructed identically to the one that wrote
        the checkpoint (same model, topology/schedule, shards, config); its
        state is *replaced* by the checkpointed one.  ``source`` is a
        checkpoint file path or an already-loaded payload.  The resumed
        trajectory is bit-identical to the uninterrupted run's — only
        per-round wall-clock timings differ.
        """
        payload = (
            source if isinstance(source, dict) else load_checkpoint(source)
        )
        for key in ("algorithm_state", "history", "session"):
            if key not in payload:
                raise ValueError(f"checkpoint payload is missing {key!r}")
        algorithm.load_state_dict(payload["algorithm_state"])
        saved = payload["session"]
        session = cls(
            algorithm,
            num_rounds=int(saved["num_rounds"]),
            evaluation=evaluation,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            bus=bus,
            out_of_core=out_of_core,
        )
        session._history = history_from_dict(payload["history"])
        session._rounds_done = int(saved["rounds_done"])
        session._base_offset = int(saved["base_offset"])
        session._pending_seconds = float(saved["pending_seconds"])
        session._pending_events = [dict(e) for e in saved["pending_events"]]
        # (The constructor already re-read the restored simulated clock into
        # _sim_mark — algorithm state loads before the session is built.)
        session._pending_sim_seconds = float(saved.get("pending_sim_seconds", 0.0))
        expected = session._base_offset + session._rounds_done
        actual = int(getattr(algorithm, "rounds_completed", expected))
        if actual != expected:
            raise ValueError(
                f"restored algorithm reports {actual} completed rounds but the "
                f"checkpoint expects {expected} — was it built from a different "
                "spec?"
            )
        return session


def run_decentralized(
    algorithm: "DecentralizedAlgorithm",
    num_rounds: int,
    evaluation: Optional[EvaluationConfig] = None,
    progress_callback: Optional[Callable[[int, RoundRecord], None]] = None,
) -> TrainingHistory:
    """Run ``num_rounds`` communication rounds and return the training history.

    The one-call wrapper over :class:`RunSession` (no checkpointing): builds
    a session, wires ``progress_callback`` to the bus's ``record`` events,
    and runs to completion.

    Parameters
    ----------
    algorithm:
        Any :class:`DecentralizedAlgorithm` (PDSL or a baseline), already
        constructed with its model, topology, shards and config.
    num_rounds:
        Number of communication rounds ``T``.
    evaluation:
        Evaluation policy; defaults to evaluating the loss every round with
        no test accuracy.
    progress_callback:
        Optional hook called with ``(round_index, record)`` after every
        evaluation — used by the example scripts to print progress.
    """
    session = RunSession(algorithm, num_rounds, evaluation=evaluation)
    if progress_callback is not None:

        def forward(event: str, payload: Dict[str, object]) -> None:
            if event == "record":
                progress_callback(payload["round"], payload["record"])

        session.bus.subscribe(forward)
    return session.run()
