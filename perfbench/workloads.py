"""The benchmark's workloads: an ``ExperimentSpec`` per seed plus a run protocol.

The program under test receives only the generated specs.  Each workload
records why its parameters are what they are, because a later change is
judged by whether it moves the workload that exercises its mechanism and
leaves the one that bypasses it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.experiments.specs import ExperimentSpec


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its spec and how the run is driven.

    The spec fixes the rounds and the evaluation stride; a checkpoint is
    taken every ``checkpoint_every`` rounds and once more after the run.
    ``min_repeats`` is the least number of set-up / resume repetitions made
    after the run, however short ``--seconds`` is.
    ``simulated_time`` turns on the simulated-time gate.  Every workload is
    differentially private, so the privacy gate runs on all of them.
    """

    name: str
    why: str
    reasons: Dict[str, str]
    make_spec: Callable[[int], ExperimentSpec]
    checkpoint_every: int
    smoke_rounds: int
    min_repeats: int
    simulated_time: bool = False

    def spec(self, seed: int, smoke: bool = False) -> ExperimentSpec:
        """The spec at ``seed``; ``smoke`` shortens the run to ``smoke_rounds``."""
        spec = self.make_spec(seed)
        if smoke:
            return spec.with_updates(
                num_rounds=self.smoke_rounds, eval_every=max(1, self.smoke_rounds // 2)
            )
        return spec


_FLEET_AGENTS = 16384
_EDGE_AGENTS = 1024


def _fleet_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="perfbench-fleet",
        dataset="classification",
        model="linear",
        num_agents=_FLEET_AGENTS,
        topology="ring",
        dirichlet_alpha=20.0,
        epsilon=1.0,
        learning_rate=0.2,
        momentum=0.0,
        batch_size=16,
        num_rounds=20,
        train_samples=16 * _FLEET_AGENTS,
        validation_samples=200,
        test_samples=512,
        num_classes=4,
        num_features=16,
        eval_every=2,
        seed=seed,
        algorithms=["DP-DPSGD"],
        block_rows=4096,
        block_workers=1,
        storage="ram",
    )


def _paper_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="perfbench-paper",
        dataset="classification",
        model="mlp",
        num_agents=10,
        topology="fully_connected",
        dirichlet_alpha=0.25,
        epsilon=0.3,
        learning_rate=0.01,
        momentum=0.5,
        batch_size=64,
        num_rounds=120,
        train_samples=6000,
        validation_samples=200,
        test_samples=1000,
        num_classes=10,
        num_features=64,
        shapley_permutations=4,
        eval_every=5,
        seed=seed,
        algorithms=["PDSL"],
    )


def _edge_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="perfbench-edge",
        dataset="classification",
        model="mlp",
        num_agents=_EDGE_AGENTS,
        topology="random_regular",
        dirichlet_alpha=5.0,
        epsilon=4.0,
        learning_rate=0.4,
        momentum=0.5,
        batch_size=16,
        num_rounds=40,
        train_samples=32 * _EDGE_AGENTS,
        validation_samples=200,
        test_samples=1000,
        num_classes=10,
        num_features=32,
        eval_every=2,
        seed=seed,
        algorithms=["DMSGD"],
        compression={"codec": "topk", "k": 256, "error_feedback": True},
        dynamics={"churn_rate": 0.05, "rejoin_rate": 0.5, "straggler_fraction": 0.1},
        time_model={"traces": {"kind": "synthetic", "seed": seed}},
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fleet",
            why=(
                "16384-agent DP-DPSGD ring: per-agent Python bookkeeping "
                "(batch draws, noise calls, eval loop, checkpoint of 3N streams)"
            ),
            reasons={
                "dirichlet_alpha": (
                    "20: partition_dirichlet cannot give all 16384 agents the "
                    "4-sample minimum at alpha <= 1"
                ),
                "model": "linear on 16 features / 4 classes (d=68): arithmetic is "
                "negligible, so the per-agent Python paths dominate; with 8 "
                "features the class centres of some seeds nearly coincide and "
                "final accuracy ranged 0.24-0.61 over five seeds",
                "learning_rate": "0.2: at 0.05 twenty rounds leave the model "
                "far from its plateau (0.73-0.79 over five seeds at 0.2)",
                "block_rows": "4096 with block_workers=1: the streamed round, serial",
            },
            make_spec=_fleet_spec,
            checkpoint_every=2,
            smoke_rounds=2,
            min_repeats=4,
        ),
        Workload(
            name="paper",
            why=(
                "the paper's PDSL on 10 fully connected agents: Shapley- and "
                "nn-bound, no per-agent overhead"
            ),
            reasons={
                "learning_rate": "0.01: 0.05 diverges (loss 7.0) at epsilon 0.3",
                "model": "mlp on 64 features: the paper's mnist_cnn costs ~80 s "
                "per PDSL round here",
                "dirichlet_alpha": "0.25: the paper's heterogeneous split",
            },
            make_spec=_paper_spec,
            checkpoint_every=5,
            smoke_rounds=4,
            min_repeats=5,
        ),
        Workload(
            name="edge",
            why=(
                "1024-agent lossy edge fleet: top-k codec state, churn and "
                "stragglers, barrier-mode simulated time"
            ),
            reasons={
                "compression": "top-k k=256 of d=1386 with error feedback: k=32 "
                "stayed at chance accuracy (0.11); at k=128 forty rounds left "
                "final accuracy spread 0.40-0.53 over five seeds",
                "epsilon": "4: epsilon 1 stayed at chance accuracy",
                "learning_rate": "0.4 with k=256: 0.57-0.66 accuracy over five "
                "seeds after 40 rounds",
            },
            make_spec=_edge_spec,
            checkpoint_every=2,
            smoke_rounds=2,
            min_repeats=10,
            simulated_time=True,
        ),
    )
}
