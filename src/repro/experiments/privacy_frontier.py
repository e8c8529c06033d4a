"""The privacy frontier: attack success vs. privacy budget vs. codec.

The paper's defence story is qualitative — DP noise should blunt gradient
leakage — and this module makes it quantitative at fleet scale: an
orchestrator campaign sweeps ``epsilon`` (and optionally the gossip
compression codec) over a base spec, every finished cell keeps its final
fleet state (``final_checkpoint=True``), and the batched attack engines from
:mod:`repro.attacks.fleet` are mounted on each cell's ``(N, d)`` parameter
matrix:

* **membership inference** — every agent's shard is scored against held-out
  test examples under that agent's own final parameters, all agents in one
  stacked pass (:func:`~repro.attacks.fleet.membership_inference_fleet`);
* **gradient inversion** — each agent's clipped, epsilon-calibrated noised
  batch gradient (exactly the artefact a curious neighbour observes in
  training) is inverted for all agents simultaneously
  (:class:`~repro.attacks.fleet.FleetInversionAttack`).

The result is the frontier the paper never plots: membership advantage and
reconstruction error as functions of ``epsilon`` per codec, aggregated over
seeds, persisted as ``frontier.json`` next to the content-addressed run
directories so re-invocations are incremental (finished cells are cached by
the orchestrator; the attacks re-run only on demand).

Everything is deterministic: training jobs are seeded by their specs, attack
randomness comes from the per-victim stream convention
(``default_rng([seed, tag, agent])``), and the observation noise uses a
dedicated per-agent stream tag below.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attacks.fleet import FleetInversionAttack, membership_inference_fleet
from repro.data.dataset import Dataset
from repro.experiments.harness import build_experiment_components
from repro.experiments.orchestrator import JobResult, RunStore, run_grid
from repro.experiments.specs import ExperimentGrid, ExperimentJob, ExperimentSpec
from repro.nn.batched import StackedSequential, supports_stacked
from repro.privacy.calibration import gaussian_sigma
from repro.privacy.mechanisms import GaussianMechanism
from repro.simulation.checkpoint import atomic_write_text, load_checkpoint

__all__ = [
    "OBSERVATION_STREAM_TAG",
    "NON_MEMBER_STREAM_TAG",
    "FRONTIER_FILE",
    "FrontierPoint",
    "frontier_grid",
    "load_final_state",
    "evaluate_job_attacks",
    "run_privacy_frontier",
    "frontier_report",
]

#: Per-agent stream for the DP noise added to the observed gradients
#: (``default_rng([seed, tag, agent])``, the attack convention).
OBSERVATION_STREAM_TAG = 0x0B5
#: Stream drawing the held-out non-member sample from the test split.
NON_MEMBER_STREAM_TAG = 0x707
#: Artifact written at the campaign root by :func:`run_privacy_frontier`.
FRONTIER_FILE = "frontier.json"


@dataclass(frozen=True)
class FrontierPoint:
    """One aggregated frontier cell: an (algorithm, epsilon, codec) point.

    Attack metrics are means over all agents of all seeds of the cell;
    ``final_loss`` / ``final_accuracy`` come from the stored training
    histories, tying utility and leakage together in one row.
    """

    cell: str
    algorithm: str
    epsilon: float
    codec: str
    seeds: Tuple[int, ...]
    num_agents: int
    membership_advantage: float
    membership_accuracy: float
    inversion_error: float
    inversion_matching_loss: float
    final_loss: Optional[float]
    final_accuracy: Optional[float]


def frontier_grid(
    base: ExperimentSpec,
    epsilons: Sequence[float],
    codecs: Optional[Sequence[Optional[Union[str, Mapping[str, object]]]]] = None,
    algorithms: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> ExperimentGrid:
    """The campaign grid of a frontier sweep: ``epsilon x codec`` overrides.

    ``codecs`` entries may be ``None`` (uncompressed gossip), a codec name
    (``"topk"``, ``"int8"``, ...) or a full compression mapping; each is
    crossed with every ``epsilon``.  Algorithms and seeds are the usual grid
    axes.
    """
    if not epsilons:
        raise ValueError("need at least one epsilon")
    codec_list = list(codecs) if codecs else [None]
    overrides: List[Dict[str, object]] = []
    for epsilon in epsilons:
        for codec in codec_list:
            override: Dict[str, object] = {"epsilon": float(epsilon)}
            if codec is not None:
                override["compression"] = (
                    dict(codec) if isinstance(codec, Mapping) else {"codec": str(codec)}
                )
            overrides.append(override)
    return ExperimentGrid(
        base=base, algorithms=algorithms, seeds=seeds, overrides=overrides
    )


def load_final_state(store: RunStore, job: ExperimentJob) -> np.ndarray:
    """The finished fleet's ``(N, d)`` parameter matrix from the run directory.

    Requires the campaign to have been executed with ``final_checkpoint=True``
    (:func:`run_privacy_frontier` does) — a done cell without a retained
    checkpoint predates that option and must be re-run.
    """
    checkpoint = store.latest_checkpoint(job)
    if checkpoint is None:
        raise FileNotFoundError(
            f"run directory {store.job_dir(job)} holds no checkpoint with the "
            "final fleet state; re-run the campaign with final_checkpoint=True "
            "(e.g. via run_privacy_frontier or `repro-run frontier`)"
        )
    payload = load_checkpoint(checkpoint)
    state = np.asarray(payload["algorithm_state"]["state"], dtype=np.float64)
    if state.ndim != 2 or state.shape[0] != job.spec.num_agents:
        raise ValueError(
            f"checkpoint state has shape {state.shape}, expected "
            f"({job.spec.num_agents}, d)"
        )
    return state


def _codec_label(spec: ExperimentSpec) -> str:
    if not spec.compression:
        return "none"
    return str(dict(spec.compression).get("codec", "identity"))


def _observed_gradients(
    model,
    state: np.ndarray,
    victim_inputs: np.ndarray,
    victim_labels: np.ndarray,
    spec: ExperimentSpec,
) -> np.ndarray:
    """The per-agent artefacts an honest-but-curious neighbour sees.

    Each agent's mean batch gradient at its own final parameters, clipped and
    noised exactly like the training exchange: L2-clip to ``C`` then add
    ``N(0, sigma^2 I)`` with ``sigma`` calibrated from the spec's
    ``(epsilon, delta)`` at the training sensitivity ``2C / batch_size``.
    """
    n = state.shape[0]
    if supports_stacked(model):
        engine = StackedSequential(model)
        _, gradients = engine.loss_and_gradients(state, victim_inputs, victim_labels)
    else:
        gradients = np.stack(
            [
                model.loss_and_gradient(
                    victim_inputs[agent], victim_labels[agent], params=state[agent]
                )[1]
                for agent in range(n)
            ]
        )
    sigma = gaussian_sigma(
        spec.epsilon, spec.delta, 2.0 * spec.clip_threshold / float(spec.batch_size)
    )
    observed = np.empty_like(gradients)
    for agent in range(n):
        mechanism = GaussianMechanism(
            sigma,
            rng=np.random.default_rng([spec.seed, OBSERVATION_STREAM_TAG, agent]),
            clip_threshold=spec.clip_threshold,
        )
        observed[agent] = mechanism.add_noise(mechanism.clip(gradients[agent]))
    return observed


def evaluate_job_attacks(
    job: ExperimentJob,
    store: RunStore,
    inversion_iterations: int = 40,
    victim_batch: int = 4,
    max_eval_samples: int = 64,
    calibration_fraction: float = 0.5,
) -> Dict[str, float]:
    """Mount both fleet attacks on one finished cell's final state.

    Returns the per-job attack metrics (means over the cell's agents):
    ``membership_advantage``, ``membership_accuracy``, ``inversion_error``
    (greedy-matched reconstruction MSE against the true victim batches) and
    ``inversion_matching_loss``.
    """
    spec = job.spec
    state = load_final_state(store, job)
    components = build_experiment_components(spec)
    model = components.model_factory()
    shards = components.partition.shards
    shard_sizes = [len(shard) for shard in shards]

    # Membership: each agent's own shard (trimmed to a common length) against
    # one held-out non-member sample, all agents scored in one stacked pass.
    eval_samples = min(min(shard_sizes), int(max_eval_samples), len(components.test))
    if eval_samples < 4:
        raise ValueError(
            f"membership inference needs >= 4 examples per population, the "
            f"smallest shard/test split provides {eval_samples}"
        )
    members = [shard.subset(np.arange(eval_samples)) for shard in shards]
    non_member_rng = np.random.default_rng([spec.seed, NON_MEMBER_STREAM_TAG])
    non_members = components.test.sample(eval_samples, non_member_rng)
    membership = membership_inference_fleet(
        model,
        state,
        members,
        non_members,
        calibration_fraction=calibration_fraction,
        seed=spec.seed,
    )

    # Inversion: reconstruct each agent's leading batch from its noised
    # gradient observation, all agents in one batched SPSA loop.
    batch = min(int(victim_batch), min(shard_sizes))
    victim_inputs = np.stack(
        [np.asarray(shard.inputs[:batch], dtype=np.float64) for shard in shards]
    )
    victim_labels = np.stack(
        [np.asarray(shard.labels[:batch], dtype=np.int64) for shard in shards]
    )
    observed = _observed_gradients(model, state, victim_inputs, victim_labels, spec)
    attack = FleetInversionAttack(
        model,
        num_classes=spec.num_classes,
        iterations=inversion_iterations,
        seed=spec.seed,
    )
    inversion = attack.run(observed, state, batch, victim_inputs.shape[2:])
    errors = inversion.errors_against(victim_inputs)

    return {
        "membership_advantage": float(membership.mean_advantage),
        "membership_accuracy": float(membership.mean_accuracy),
        "inversion_error": float(errors.mean()),
        "inversion_matching_loss": float(inversion.matching_losses.mean()),
    }


def _final_utility(result: JobResult) -> Tuple[Optional[float], Optional[float]]:
    history = result.history
    if history is None or not history.records:
        return None, None
    last = history.records[-1]
    accuracy = history.final_test_accuracy
    if accuracy is None:
        accuracy = next(
            (
                record.test_accuracy
                for record in reversed(history.records)
                if record.test_accuracy is not None
            ),
            None,
        )
    return float(last.average_train_loss), accuracy


def run_privacy_frontier(
    grid: ExperimentGrid,
    root: Union[str, Path],
    workers: int = 1,
    checkpoint_every: int = 5,
    inversion_iterations: int = 40,
    victim_batch: int = 4,
    max_eval_samples: int = 64,
    write_artifact: bool = True,
) -> List[FrontierPoint]:
    """Run (or resume) the campaign, attack every cell, aggregate the frontier.

    Training goes through the standard orchestrator (content-addressed run
    directories, checkpoint/resume, optional process pool) with
    ``final_checkpoint=True`` so each cell retains its finished fleet state;
    the attacks then run over those states and the per-seed metrics are
    averaged into one :class:`FrontierPoint` per (cell, algorithm).  The
    aggregated frontier is persisted as ``<root>/frontier.json``.
    """
    store = RunStore(root)
    results = run_grid(
        grid,
        root,
        workers=workers,
        checkpoint_every=checkpoint_every,
        final_checkpoint=True,
    )

    grouped: Dict[Tuple[str, str], List[Tuple[JobResult, Dict[str, float]]]] = {}
    for result in results:
        metrics = evaluate_job_attacks(
            result.job,
            store,
            inversion_iterations=inversion_iterations,
            victim_batch=victim_batch,
            max_eval_samples=max_eval_samples,
        )
        grouped.setdefault((result.job.cell, result.job.algorithm), []).append(
            (result, metrics)
        )

    points: List[FrontierPoint] = []
    for (cell, algorithm), entries in grouped.items():
        spec = entries[0][0].job.spec
        losses, accuracies = zip(*(_final_utility(result) for result, _ in entries))
        mean = lambda key: float(np.mean([metrics[key] for _, metrics in entries]))
        known_losses = [value for value in losses if value is not None]
        known_accuracies = [value for value in accuracies if value is not None]
        points.append(
            FrontierPoint(
                cell=cell,
                algorithm=algorithm,
                epsilon=float(spec.epsilon),
                codec=_codec_label(spec),
                seeds=tuple(result.job.seed for result, _ in entries),
                num_agents=int(spec.num_agents),
                membership_advantage=mean("membership_advantage"),
                membership_accuracy=mean("membership_accuracy"),
                inversion_error=mean("inversion_error"),
                inversion_matching_loss=mean("inversion_matching_loss"),
                final_loss=float(np.mean(known_losses)) if known_losses else None,
                final_accuracy=(
                    float(np.mean(known_accuracies)) if known_accuracies else None
                ),
            )
        )
    points.sort(key=lambda p: (p.algorithm, p.codec, p.epsilon, p.cell))

    if write_artifact:
        payload = {
            "schema": 1,
            "parameters": {
                "inversion_iterations": int(inversion_iterations),
                "victim_batch": int(victim_batch),
                "max_eval_samples": int(max_eval_samples),
            },
            "points": [asdict(point) for point in points],
        }
        atomic_write_text(
            Path(root) / FRONTIER_FILE, json.dumps(payload, indent=2, sort_keys=True)
        )
    return points


def frontier_report(points: Sequence[FrontierPoint]) -> str:
    """Markdown table of the frontier, one row per (algorithm, codec, epsilon)."""
    lines = [
        "| algorithm | codec | epsilon | membership adv | membership acc "
        "| inversion MSE | final loss | final acc |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for point in points:
        final_loss = "-" if point.final_loss is None else f"{point.final_loss:.4f}"
        final_accuracy = (
            "-" if point.final_accuracy is None else f"{point.final_accuracy:.4f}"
        )
        lines.append(
            f"| {point.algorithm} | {point.codec} | {point.epsilon:g} "
            f"| {point.membership_advantage:.4f} | {point.membership_accuracy:.4f} "
            f"| {point.inversion_error:.4f} | {final_loss} | {final_accuracy} |"
        )
    return "\n".join(lines)
