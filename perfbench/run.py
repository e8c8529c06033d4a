#!/usr/bin/env python3
"""End-to-end benchmark of the PDSL reproduction, driven from outside the package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

One process runs one workload.  The run builds the experiment from a spec
generated at ``--seed`` (``build_experiment_components`` +
``build_algorithm``), steps a ``RunSession`` through its rounds with
evaluation and checkpoints, then repeats set-up and ``RunSession.resume`` into
a freshly built algorithm until ``--seconds`` have passed.
Every timed span is host-calibrated (see ``calibrate.py``).  Correctness
gates run throughout; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
An artifact with raw seconds, kernel samples, gates and host details is
written to ``perfbench/out/``, and the traced run's spans beside it as JSONL.
"""

from __future__ import annotations

import os

# Pin every BLAS / OpenMP pool to one thread before NumPy is imported.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import gc
import json
import math
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: End-to-end metrics: name -> (unit, better).  All times are calibrated.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "agent_rounds_per_s": ("agent-rounds/s", "higher"),
    "eval_s": ("s", "lower"),
    "checkpoint_s": ("s", "lower"),
    "resume_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "checkpoint_mb": ("MB", "lower"),
    "wire_mb_per_round": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_accuracy": ("fraction", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  ``self_s``
#: is calibrated self time per round, per evaluation point, per set-up, per
#: checkpoint or per resume, by the phase the layer runs in; ``calls``,
#: ``rows`` and the ``*_per_round`` counters are per round.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "data.next_batch.calls": ("count", "lower"),
    "data.next_batch.self_s": ("s", "lower"),
    "data.make_dataset.self_s": ("s", "lower"),
    "data.partition_dirichlet.self_s": ("s", "lower"),
    "experiments.build_components.self_s": ("s", "lower"),
    "experiments.build_algorithm.self_s": ("s", "lower"),
    "topology.make.self_s": ("s", "lower"),
    "topology.mix_rows.self_s": ("s", "lower"),
    "topology.schedule.self_s": ("s", "lower"),
    "nn.fleet_gradients.self_s": ("s", "lower"),
    "nn.fleet_gradients.rows": ("count", "lower"),
    "privacy.privatize_rows.self_s": ("s", "lower"),
    "privacy.add_noise_rows.calls": ("count", "lower"),
    "privacy.add_noise_rows.self_s": ("s", "lower"),
    "privacy.accountant_record.calls": ("count", "lower"),
    "game.monte_carlo_shapley.calls": ("count", "lower"),
    "game.monte_carlo_shapley.self_s": ("s", "lower"),
    "game.make_characteristic.self_s": ("s", "lower"),
    "compression.compress_gossip_rows.self_s": ("s", "lower"),
    "events.engine_round.self_s": ("s", "lower"),
    "events.push.calls": ("count", "lower"),
    "events.pop.calls": ("count", "lower"),
    "network.bytes_per_round": ("B", "lower"),
    "network.messages_per_round": ("count", "lower"),
    "network.record_latency.calls": ("count", "lower"),
    "sharding.blocks_per_round": ("count", "lower"),
    "core.run_round.self_s": ("s", "lower"),
    "simulation.session_step.self_s": ("s", "lower"),
    "eval.average_train_loss.self_s": ("s", "lower"),
    "eval.test_accuracy.self_s": ("s", "lower"),
    "eval.consensus.self_s": ("s", "lower"),
    "core.state_dict.self_s": ("s", "lower"),
    "simulation.save_checkpoint.self_s": ("s", "lower"),
    "simulation.load_checkpoint.self_s": ("s", "lower"),
    "core.load_state_dict.self_s": ("s", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead": ("fraction", "lower"),
}

#: Per-layer ``self_s`` metrics that are not per round: layer -> (phase its
#: spans run in, unit of work the total is divided by).
_LAYER_PHASE: Dict[str, Tuple[str, str]] = {
    "data.make_dataset": ("setup", "setup"),
    "data.partition_dirichlet": ("setup", "setup"),
    "experiments.build_components": ("setup", "setup"),
    "experiments.build_algorithm": ("setup", "setup"),
    "topology.make": ("setup", "setup"),
    "eval.average_train_loss": ("step", "eval"),
    "eval.test_accuracy": ("step", "eval"),
    "eval.consensus": ("step", "eval"),
    "core.state_dict": ("checkpoint", "checkpoint"),
    "simulation.save_checkpoint": ("checkpoint", "checkpoint"),
    "simulation.load_checkpoint": ("resume", "resume"),
    "core.load_state_dict": ("resume", "resume"),
}

#: Final mean-agent accuracy must beat chance (1 / classes) by this much.
ACCURACY_MARGIN = 0.1

_GATES = (
    "loss_finite",
    "accuracy_above_chance",
    "privacy_spent",
    "resume_state_equal",
    "resume_state_equal_after_round",
)
_SIM_GATE = "sim_seconds_positive"


def expected_gates(simulated_time: bool) -> Tuple[str, ...]:
    """The gate names every run of a workload must evaluate."""
    return _GATES + ((_SIM_GATE,) if simulated_time else ())


class Gates:
    """Correctness checks, counted as attempted and failed operations."""

    def __init__(self) -> None:
        self.results: List[Dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: Any = None) -> None:
        self.results.append({"gate": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not result["ok"] for result in self.results)


def same_state(left: Any, right: Any) -> bool:
    """Exact structural equality of two ``state_dict`` payloads."""
    import numpy as np

    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left, right = np.asarray(left), np.asarray(right)
        return (
            left.shape == right.shape
            and left.dtype == right.dtype
            and bool(np.array_equal(left, right, equal_nan=left.dtype.kind in "fc"))
        )
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(same_state(left[key], right[key]) for key in left)
        )
    if isinstance(left, (list, tuple)):
        return (
            isinstance(right, (list, tuple))
            and len(left) == len(right)
            and all(same_state(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return bool(left == right)


def snapshot(algorithm: Any) -> Dict[str, Any]:
    """A deep, detached copy of the algorithm's resumable state."""
    return pickle.loads(pickle.dumps(algorithm.state_dict(copy=True)))


def checkpoint_bytes(path: Path) -> int:
    """Size of a checkpoint file plus its array sidecars."""
    files = [path, *path.parent.glob(path.name + ".arr*")]
    return sum(item.stat().st_size for item in files)


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> Dict[str, Any]:
    import numpy

    blas: Dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        found = config.get("Build Dependencies", {}).get("blas", {})
        blas = {key: found.get(key) for key in ("name", "version")}
    except TypeError:  # NumPy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_workload(
    workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Run one workload; return the artifact (metrics, records, gates, host)."""
    from calibrate import KERNEL_NOMINAL_S, Calibrator
    from spans import SpanRecorder
    from workloads import WORKLOADS

    from repro.experiments import harness
    from repro.simulation.runner import RunSession

    workload = WORKLOADS[workload_name]
    spec = workload.spec(seed, smoke=smoke)
    rounds = spec.num_rounds
    checkpoint_every = max(1, rounds // 2) if smoke else workload.checkpoint_every
    min_repeats = 1 if smoke else workload.min_repeats

    calibrator = Calibrator()
    tracer = SpanRecorder() if trace else None
    gates = Gates()
    work = OUT_DIR / f"work-{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def timed(phase: str, fn: Any, *args: Any, traced: bool = True, **kwargs: Any):
        if tracer is not None and traced:
            tracer.install(phase, len(calibrator.records))
        try:
            result, record = calibrator.timed(phase, fn, *args, **kwargs)
        finally:
            if tracer is not None and tracer.installed:
                tracer.uninstall()
        record["traced"] = tracer is not None and traced
        return result, record

    def build() -> Tuple[Any, Any]:
        components = harness.build_experiment_components(spec)
        return components, harness.build_algorithm(spec.algorithms[0], components)

    try:
        started = time.perf_counter()
        (components, algorithm), first_setup = timed("setup", build)
        session = RunSession(
            algorithm, rounds, evaluation=harness.evaluation_for_spec(components)
        )
        round_marks: Dict[str, float] = {}

        def on_event(event: str, payload: Dict[str, Any]) -> None:
            if event == "round":
                round_marks["end"] = time.perf_counter()

        session.bus.subscribe(on_event)

        steps: List[Dict[str, Any]] = []
        run_checkpoints: List[Dict[str, Any]] = []
        plain_rounds = 0
        for index in range(1, rounds + 1):
            evaluates = index in (1, rounds) or index % spec.eval_every == 0
            # Traced runs leave every other plain (unevaluated) round
            # untraced, so the same run measures the tracing overhead.
            plain_rounds += not evaluates
            traced = evaluates or plain_rounds % 2 == 1
            # Resolved inside the span, so a traced step runs the wrapper.
            record, step = timed("step", lambda: session.step(), traced=traced)
            ended = calibrator.origin + step["end_s"]
            step["round"] = index
            step["evaluated"] = record is not None
            step["eval_raw_s"] = ended - round_marks["end"] if record is not None else 0.0
            step["train_raw_s"] = step["raw_s"] - step["eval_raw_s"]
            steps.append(step)
            if record is not None:
                loss = record.average_train_loss
                gates.check("loss_finite", math.isfinite(loss), loss)
                if workload.simulated_time:
                    sim = record.sim_seconds
                    gates.check(_SIM_GATE, sim is not None and sim > 0, sim)
            if index % checkpoint_every == 0 and index < rounds:
                _, saved = timed("checkpoint", session.checkpoint, work / "run.ckpt")
                run_checkpoints.append(saved)
        history, finish = timed("finish", session.finish)

        final_path, _ = timed("checkpoint", session.checkpoint, work / "final.ckpt")
        checkpoint_size = checkpoint_bytes(final_path)
        traffic = algorithm.network.traffic_summary()
        accuracy = float(history.final_test_accuracy)
        chance = 1.0 / spec.num_classes
        gates.check(
            "accuracy_above_chance", accuracy > chance + ACCURACY_MARGIN, accuracy
        )
        epsilon_spent = float(algorithm.privacy_spent()[0])
        gates.check("privacy_spent", epsilon_spent > 0, epsilon_spent)

        # The live state at the final checkpoint and one round later: every
        # resumed copy must match the first, and the first copy the second
        # after its own extra round.
        live_state = snapshot(algorithm)
        algorithm.run_round()
        live_next = snapshot(algorithm)

        # Set-up and resume are one-shot spans: repeat them (set-up from the
        # spec, resume into the fresh algorithm) and report medians.
        repeats = 0
        while repeats < min_repeats or time.perf_counter() - started < seconds:
            (fresh_components, fresh), _ = timed("setup", build)
            resumed, _ = timed(
                "resume",
                RunSession.resume,
                fresh,
                final_path,
                evaluation=harness.evaluation_for_spec(fresh_components),
            )
            gates.check(
                "resume_state_equal", same_state(fresh.state_dict(copy=False), live_state)
            )
            if repeats == 0:
                fresh.run_round()
                gates.check(
                    "resume_state_equal_after_round",
                    same_state(fresh.state_dict(copy=False), live_next),
                )
                del live_next
            fresh.close()
            del fresh_components, fresh, resumed
            gc.collect()
            repeats += 1
        rss = peak_rss_mb()
    finally:
        if tracer is not None and tracer.installed:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    records = calibrator.records

    def phase(name: str) -> List[Dict[str, Any]]:
        return [record for record in records if record["phase"] == name]

    def timing(samples: List[Dict[str, Any]], key: str = "raw_s") -> Dict[str, Any]:
        """Median of calibrated samples, with the raw median beside it."""
        return {
            "value": statistics.median(s["factor"] * s[key] for s in samples),
            "raw": statistics.median(s[key] for s in samples),
            "samples": len(samples),
        }

    evaluated = [step for step in steps if step["evaluated"]]
    train_calibrated = sum(step["factor"] * step["train_raw_s"] for step in steps)
    run_parts = [first_setup, *steps, *run_checkpoints, finish]
    agent_rounds = spec.num_agents * rounds
    metrics: Dict[str, Dict[str, Any]] = {
        "setup_s": timing(phase("setup")),
        "agent_rounds_per_s": {
            "value": agent_rounds / train_calibrated,
            "raw": agent_rounds / sum(step["train_raw_s"] for step in steps),
            "samples": len(steps),
        },
        "eval_s": timing(evaluated, "eval_raw_s"),
        "checkpoint_s": timing(phase("checkpoint")),
        "resume_s": timing(phase("resume")),
        "run_s": {
            "value": sum(part["calibrated_s"] for part in run_parts),
            "raw": sum(part["raw_s"] for part in run_parts),
            "samples": len(run_parts),
        },
        "checkpoint_mb": {"value": checkpoint_size / 1e6},
        "wire_mb_per_round": {"value": traffic["bytes_sent"] / rounds / 1e6},
        "peak_rss_mb": {"value": rss},
        "test_accuracy": {"value": accuracy},
    }
    for name, (unit, _) in END_TO_END.items():
        metrics[name]["unit"] = unit

    artifact: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "why": workload.why,
        "reasons": workload.reasons,
        "spec": {key: value for key, value in vars(spec).items()},
        "host": host_info(),
        "kernel": {
            "nominal_s": KERNEL_NOMINAL_S,
            "samples_s": calibrator.kernel_samples,
        },
        "repeats": repeats,
        "records": records,
        "metrics": metrics,
        "gates": gates.results,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "traffic": traffic,
    }
    if tracer is not None:
        artifact["layers"] = layer_metrics(tracer, records, steps, traffic, rounds)
        tracer.write_jsonl(
            str(OUT_DIR / f"{workload_name}-seed{seed}.spans.jsonl"),
            calibrator.origin,
            [record["phase"] for record in records],
        )
    return artifact


def layer_metrics(
    tracer: Any,
    records: List[Dict[str, Any]],
    steps: List[Dict[str, Any]],
    traffic: Dict[str, Any],
    rounds: int,
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced run's spans and counters."""
    self_raw = tracer.self_seconds()
    traced_steps = [step for step in steps if step["traced"]]
    eval_points = sum(1 for step in traced_steps if step["evaluated"])
    brackets = {
        phase: sum(1 for r in records if r["phase"] == phase and r["traced"])
        for phase in ("setup", "checkpoint", "resume")
    }
    brackets["step"] = len(traced_steps)
    brackets["eval"] = eval_points

    self_total: Dict[Tuple[str, str], float] = {}
    duration_total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, name_id in enumerate(tracer.span_name):
        name = tracer.names[name_id]
        record = records[tracer.bracket[index]]
        factor = record["factor"]
        key = (name, record["phase"])
        self_total[key] = self_total.get(key, 0.0) + self_raw[index] * factor
        if record["phase"] == "step":
            duration = tracer.end[index] - tracer.start[index]
            duration_total[name] = duration_total.get(name, 0.0) + duration * factor
            calls[name] = calls.get(name, 0) + 1

    def per(unit: str, total: float) -> float:
        return total / brackets[unit] if brackets[unit] else 0.0

    def counted(name: str) -> float:
        return per("step", tracer.counts.get((name, "step"), 0))

    values: Dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s":
            phase, unit = _LAYER_PHASE.get(layer, ("step", "step"))
            values[metric] = per(unit, self_total.get((layer, phase), 0.0))
        elif kind == "calls" and layer in tracer.names:
            values[metric] = per("step", calls.get(layer, 0))
        elif kind == "calls":
            values[metric] = counted(layer)
        elif kind == "rows":
            values[metric] = counted(metric)
    values["network.bytes_per_round"] = traffic["bytes_sent"] / rounds
    values["network.messages_per_round"] = traffic["messages_sent"] / rounds
    values["sharding.blocks_per_round"] = counted("sharding.blocks")

    # Coverage: the share of traced round time (evaluation excluded) spent
    # below the round glue, i.e. not in RunSession.step's or run_round's own
    # code.
    round_time = duration_total.get("simulation.session_step", 0.0) - sum(
        duration_total.get(name, 0.0)
        for name in ("eval.average_train_loss", "eval.test_accuracy", "eval.consensus")
    )
    glue = self_total.get(("simulation.session_step", "step"), 0.0) + self_total.get(
        ("core.run_round", "step"), 0.0
    )
    values["trace.coverage"] = 1.0 - glue / round_time if round_time > 0 else 0.0

    # Overhead: traced vs untraced calibrated time of plain (non-evaluated)
    # rounds, round 1 excluded as warm-up.
    plain = [s for s in steps if s["round"] > 1 and not s["evaluated"]]
    traced_plain = [s["factor"] * s["train_raw_s"] for s in plain if s["traced"]]
    untraced_plain = [s["factor"] * s["train_raw_s"] for s in plain if not s["traced"]]
    values["trace.overhead"] = (
        statistics.mean(traced_plain) / statistics.mean(untraced_plain) - 1.0
        if traced_plain and untraced_plain
        else 0.0
    )
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced-length run for the smoke test"
    )
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: package sources not found at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    artifact = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, default=str)

    chosen = artifact["layers"] if args.trace else artifact["metrics"]
    result = {
        "correct": artifact["failed"] == 0,
        "attempted": artifact["attempted"],
        "failed": artifact["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in chosen.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
