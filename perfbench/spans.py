"""A span recorder that wraps the package's public functions from outside.

The traced run replaces class and module attributes of the package with
wrappers for the duration of each traced span of the benchmark, and restores
them afterwards.  A span records its name, start, end and parent span; a
counter only counts calls (or rows, or blocks) where a span per call would
cost more than the work it measures.  Spans stay in memory and are written
as JSONL when the run ends.

Names follow ``<layer>.<function>``; the per-layer metrics add a kind
(``self_s``, ``calls``, ``rows``) to them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``module:Owner.attr`` (or ``module:attr``).

    ``kind`` is ``"span"`` (time the call), ``"count"`` (count calls),
    ``"rows"`` (span plus a row counter from the call's second argument) or
    ``"blocks"`` (count the row blocks a scheduler call receives).
    """

    target: str
    name: str
    kind: str = "span"


_ALGORITHM = "repro.core.base:DecentralizedAlgorithm"
_HARNESS = "repro.experiments.harness"
_SCHEDULES = "repro.topology.schedule"

PROBES: Tuple[Probe, ...] = (
    # data
    Probe("repro.data.loaders:BatchSampler.next_batch", "data.next_batch"),
    Probe(f"{_HARNESS}:make_classification_dataset", "data.make_dataset"),
    Probe(f"{_HARNESS}:partition_dirichlet", "data.partition_dirichlet"),
    # experiments
    Probe(f"{_HARNESS}:build_experiment_components", "experiments.build_components"),
    Probe(f"{_HARNESS}:build_algorithm", "experiments.build_algorithm"),
    # topology
    Probe(f"{_HARNESS}:fully_connected_graph", "topology.make"),
    Probe(f"{_HARNESS}:ring_graph", "topology.make"),
    Probe(f"{_HARNESS}:random_regular_graph", "topology.make"),
    Probe(f"{_HARNESS}:schedule_from_dynamics", "topology.make"),
    Probe("repro.topology.mixing:MixingOperator.apply", "topology.mix_rows"),
    Probe("repro.topology.mixing:MixingOperator.mix_rows_blocked", "topology.mix_rows"),
    Probe("repro.topology.mixing:MixingOperator.mix_block", "topology.mix_rows"),
    Probe("repro.topology.mixing:MixingOperator.apply_mixed", "topology.mix_rows"),
    *(
        Probe(f"{_SCHEDULES}:{owner}.{method}", "topology.schedule")
        for owner in ("TopologySchedule", "StaticSchedule", "DynamicTopologySchedule")
        for method in ("topology_at", "operator_at", "active_mask_at")
    ),
    # nn
    Probe(f"{_ALGORITHM}.fleet_gradients", "nn.fleet_gradients", "rows"),
    # privacy
    Probe(f"{_ALGORITHM}.privatize_rows", "privacy.privatize_rows"),
    Probe("repro.privacy.mechanisms:GaussianMechanism.add_noise_rows", "privacy.add_noise_rows"),
    Probe("repro.privacy.accountant:PrivacyAccountant.record", "privacy.accountant_record", "count"),
    # game
    Probe("repro.core.pdsl:monte_carlo_shapley", "game.monte_carlo_shapley"),
    Probe("repro.core.pdsl:make_update_characteristic", "game.make_characteristic"),
    # compression
    Probe(f"{_ALGORITHM}.compress_gossip_rows", "compression.compress_gossip_rows"),
    Probe("repro.compression.state:CompressionState.compress_block", "compression.compress_gossip_rows"),
    # simulation.events
    Probe("repro.simulation.events.engine:AsyncEngine.run_round", "events.engine_round"),
    Probe("repro.simulation.events.queue:EventQueue.push", "events.push", "count"),
    Probe("repro.simulation.events.queue:EventQueue.pop", "events.pop", "count"),
    # simulation.network
    Probe("repro.simulation.network:Network.record_latency", "network.record_latency", "count"),
    # sharding
    Probe("repro.sharding.scheduler:RoundScheduler.map", "sharding.blocks", "blocks"),
    # core and simulation.runner
    Probe(f"{_ALGORITHM}.run_round", "core.run_round"),
    Probe("repro.simulation.runner:RunSession.step", "simulation.session_step"),
    Probe(f"{_ALGORITHM}.average_train_loss", "eval.average_train_loss"),
    Probe(f"{_ALGORITHM}.test_accuracy", "eval.test_accuracy"),
    Probe(f"{_ALGORITHM}.consensus", "eval.consensus"),
    Probe(f"{_ALGORITHM}.state_dict", "core.state_dict"),
    Probe("repro.simulation.events.engine:AsyncEngine.state_dict", "core.state_dict"),
    Probe(f"{_ALGORITHM}.load_state_dict", "core.load_state_dict"),
    Probe("repro.simulation.events.engine:AsyncEngine.load_state_dict", "core.load_state_dict"),
    Probe("repro.simulation.runner:save_checkpoint", "simulation.save_checkpoint"),
    Probe("repro.simulation.runner:load_checkpoint", "simulation.load_checkpoint"),
)


def _resolve(target: str) -> Tuple[Any, str, bool]:
    """``(owner, attribute, owned)`` for a probe target.

    ``owned`` says whether the attribute is defined on the owner itself
    rather than inherited, so uninstalling can restore the exact layout.
    """
    module_name, path = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    owned = attr in vars(owner)
    if not owned and not hasattr(owner, attr):
        raise AttributeError(f"probe target {target} does not exist")
    return owner, attr, owned


class SpanRecorder:
    """Records spans and counters while installed; idle (unpatched) otherwise.

    ``install(phase, bracket)`` patches every probe and tags what follows
    with the benchmark phase and the index of the calibrated bracket the
    spans fall in; ``uninstall()`` restores the originals.  Single-threaded
    by design: the benchmark pins ``block_workers=1``.
    """

    def __init__(self, probes: Sequence[Probe] = PROBES) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.bracket: List[int] = []
        #: ``counts[(name, phase)]`` — calls, rows or blocks per phase.
        self.counts: Dict[Tuple[str, str], int] = {}
        self._stack: List[int] = [-1]
        self._phase = ""
        self._bracket = -1
        self._patches: List[Tuple[Any, str, Any, bool, Any]] = []
        for probe in probes:
            owner, attr, owned = _resolve(probe.target)
            original = vars(owner)[attr] if owned else getattr(owner, attr)
            wrapper = self._wrap(original, probe)
            self._patches.append((owner, attr, original, owned, wrapper))
        self.installed = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _bump(self, name: str, amount: int) -> None:
        key = (name, self._phase)
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn: Callable[..., Any], probe: Probe) -> Callable[..., Any]:
        name = probe.name
        if probe.kind == "count":

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                self._bump(name, 1)
                return fn(*args, **kwargs)

            return counted
        if probe.kind == "blocks":

            @functools.wraps(fn)
            def blocked(scheduler: Any, work: Any, blocks: Any, *args: Any, **kwargs: Any) -> Any:
                blocks = list(blocks)
                self._bump(name, len(blocks))
                return fn(scheduler, work, blocks, *args, **kwargs)

            return blocked

        name_id = self._name_id(name)
        rows_counter = f"{name}.rows" if probe.kind == "rows" else None
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        bracket, stack, clock = self.bracket, self._stack, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            if rows_counter is not None:
                self._bump(rows_counter, len(args[2]))
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            bracket.append(self._bracket)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return spanned

    def install(self, phase: str, bracket: int) -> None:
        """Patch every probe; following spans belong to ``phase``/``bracket``."""
        self._phase = phase
        self._bracket = bracket
        for owner, attr, _, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every patched attribute exactly as it was."""
        for owner, attr, original, owned, _ in self._patches:
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self.installed = False

    def self_seconds(self) -> List[float]:
        """Raw self time of every span: its duration minus its children's."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_time[parent] -= durations[index]
        return self_time

    def write_jsonl(self, path: str, origin: float, phases: Sequence[str]) -> None:
        """One JSON object per span, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name_id in enumerate(self.span_name):
                parent = self.parent[index]
                bracket = self.bracket[index]
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": None if parent < 0 else parent,
                            "name": self.names[name_id],
                            "phase": phases[bracket],
                            "bracket": bracket,
                            "start": round(self.start[index] - origin, 7),
                            "end": round(self.end[index] - origin, 7),
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
