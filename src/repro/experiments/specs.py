"""Declarative experiment specifications and the paper presets.

An :class:`ExperimentSpec` fully determines one experimental cell: which
dataset family to generate, how to partition it, which topology and how many
agents, the privacy budget, the optimisation hyper-parameters, the number of
rounds, and which algorithms to compare.  The factory functions encode the
paper's settings:

* Figures 1–3 — synthetic-MNIST loss curves over fully-connected / bipartite
  / ring topologies, ``M in {10, 15, 20}``, ``epsilon in {0.08, 0.1, 0.3}``,
  ``alpha = 0.5``, ``gamma = 0.001`` (paper values);
* Figures 4–6 — synthetic-CIFAR loss curves over the same topologies,
  ``epsilon in {0.5, 0.7, 1.0}``, ``alpha = 0.7``, ``gamma = 0.01``;
* Tables I–II — final test accuracy over every (topology, M, epsilon) cell.

Because the substrate here is a NumPy simulator rather than a GPU cluster,
each preset also has a ``fast`` variant (smaller synthetic datasets, an MLP
instead of the CNN, fewer rounds) which the benchmark suite runs by default;
the full-size settings remain available by passing ``scale="paper"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compression.config import CompressionConfig, validate_compression
from repro.simulation.events import check_async_mode, validate_time_model
from repro.topology.schedule import validate_dynamics

__all__ = [
    "ALGORITHM_NAMES",
    "ExperimentSpec",
    "ExperimentJob",
    "ExperimentGrid",
    "spec_to_dict",
    "spec_from_dict",
    "grid_to_dict",
    "grid_from_dict",
    "fast_spec",
    "mnist_like_spec",
    "cifar_like_spec",
    "paper_figure_spec",
    "paper_table_spec",
]

#: The algorithms compared in every figure and table of the paper.
ALGORITHM_NAMES: Tuple[str, ...] = (
    "DP-DPSGD",
    "DP-CGA",
    "MUFFLIATO",
    "DP-NET-FLEET",
    "PDSL",
)

#: Paper hyper-parameters per dataset family (Sec. VI-A).
_PAPER_HYPERPARAMS: Dict[str, Dict[str, float]] = {
    "mnist": {"momentum": 0.5, "learning_rate": 0.001, "batch_size": 250},
    "cifar": {"momentum": 0.7, "learning_rate": 0.01, "batch_size": 250},
}

#: Paper privacy budgets per dataset family.
_PAPER_EPSILONS: Dict[str, Tuple[float, ...]] = {
    "mnist": (0.08, 0.1, 0.3),
    "cifar": (0.5, 0.7, 1.0),
}

#: Every algorithm the harness can instantiate (paper set + ablation extras).
_VALID_ALGORITHMS: Tuple[str, ...] = ALGORITHM_NAMES + ("D-PSGD", "DMSGD")

#: Paper figure index -> (dataset family, topology).
_PAPER_FIGURES: Dict[int, Tuple[str, str]] = {
    1: ("mnist", "fully_connected"),
    2: ("mnist", "bipartite"),
    3: ("mnist", "ring"),
    4: ("cifar", "fully_connected"),
    5: ("cifar", "bipartite"),
    6: ("cifar", "ring"),
}


@dataclass
class ExperimentSpec:
    """Everything needed to run one experimental cell.

    ``dynamics`` (optional) makes the communication topology time-varying:
    a mapping over the :data:`repro.topology.schedule.DYNAMICS_KEYS`
    vocabulary, e.g. ``{"rewire_every": 50, "churn_rate": 0.01,
    "straggler_fraction": 0.1}``, turned into a
    :class:`~repro.topology.schedule.DynamicTopologySchedule` by the
    harness and applied identically to every compared algorithm.  ``None``
    (the default) keeps the historical fixed-graph behaviour.

    ``compression`` (optional) compresses the gossip exchanges: a mapping
    over the :data:`repro.compression.config.COMPRESSION_KEYS` vocabulary,
    e.g. ``{"codec": "topk", "k": 8, "communication_interval": 2}``, passed
    through :class:`~repro.core.config.AlgorithmConfig` to every compared
    algorithm.  ``None`` (the default) keeps the bit-identical
    full-precision path.

    ``dtype`` and ``block_rows`` are the scaling knobs (see
    :class:`~repro.core.config.AlgorithmConfig`): ``dtype`` selects the
    fleet-state precision (``"float64"`` historic bit-exact, ``"float32"``,
    or ``"mixed"`` — float32 state with float64 mixing accumulation), and
    ``block_rows`` streams the fleet-wide kernels over row blocks
    (bit-identical to one-shot; ``None`` keeps the one-shot path).
    ``block_workers`` executes independent row blocks of a streamed round on
    a thread pool (1 = serial, the bit-identical default; parallel execution
    is numerically identical — disjoint rows, addressed RNG streams), and
    ``storage`` selects where the fleet matrices live (``"ram"`` or
    ``"memmap"`` for disk-backed out-of-core state).

    ``cluster_size`` applies only with ``topology="hierarchical"``: the
    dense intra-cluster group size (``None`` picks
    :func:`~repro.topology.hierarchical.default_cluster_size`).

    ``time_model`` (optional) runs the cell on simulated time: a mapping
    over the :data:`repro.simulation.events.traces.TIME_MODEL_KEYS`
    vocabulary, e.g. ``{"traces": {"kind": "synthetic", "seed": 3},
    "async": True, "staleness_decay": 0.1}``, turned into an
    :class:`~repro.simulation.events.engine.AsyncEngine` wrapper by the
    harness.  ``None`` (the default) keeps real-time-only execution;
    ``{"traces": "uniform"}`` simulates timing while staying bit-identical
    to the synchronous engines.
    """

    name: str
    dataset: str = "classification"  # "classification", "mnist", "cifar"
    model: str = "mlp"  # "linear", "mlp", "mnist_cnn", "cifar_cnn"
    num_agents: int = 10
    topology: str = "fully_connected"  # "fully_connected", "bipartite", "ring", ...
    dirichlet_alpha: float = 0.25
    epsilon: float = 0.3
    delta: float = 1e-5
    clip_threshold: float = 1.0
    learning_rate: float = 0.05
    momentum: float = 0.5
    batch_size: int = 32
    num_rounds: int = 20
    train_samples: int = 1500
    validation_samples: int = 200
    test_samples: int = 400
    num_classes: int = 10
    num_features: int = 32
    shapley_permutations: int = 4
    eval_every: int = 1
    seed: int = 7
    algorithms: Sequence[str] = field(default_factory=lambda: list(ALGORITHM_NAMES))
    scale: str = "fast"
    dynamics: Optional[Dict[str, float]] = None
    compression: Optional[Dict[str, object]] = None
    dtype: str = "float64"
    block_rows: Optional[int] = None
    block_workers: int = 1
    storage: str = "ram"
    cluster_size: Optional[int] = None
    time_model: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.dataset not in ("classification", "mnist", "cifar"):
            raise ValueError("dataset must be 'classification', 'mnist' or 'cifar'")
        if self.model not in ("linear", "mlp", "mnist_cnn", "cifar_cnn"):
            raise ValueError("unknown model family")
        if self.num_agents < 2:
            raise ValueError("need at least two agents")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        unknown = [a for a in self.algorithms if a not in _VALID_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")
        validate_dynamics(self.dynamics, num_agents=self.num_agents)
        validate_compression(self.compression)
        if self.dtype not in ("float64", "float32", "mixed"):
            raise ValueError("dtype must be 'float64', 'float32' or 'mixed'")
        if self.block_rows is not None and int(self.block_rows) < 1:
            raise ValueError("block_rows must be a positive integer or None")
        if int(self.block_workers) < 1:
            raise ValueError("block_workers must be a positive integer")
        if self.storage not in ("ram", "memmap"):
            raise ValueError("storage must be 'ram' or 'memmap'")
        if self.cluster_size is not None:
            if int(self.cluster_size) < 1:
                raise ValueError("cluster_size must be a positive integer or None")
            if self.topology != "hierarchical":
                raise ValueError(
                    "cluster_size applies only with topology='hierarchical'"
                )
        validate_time_model(self.time_model, num_agents=self.num_agents)
        if self.time_model and self.time_model.get("async", False):
            compression = CompressionConfig(**dict(self.compression or {}))
            check_async_mode(
                static_schedule=not self.dynamics
                and compression.peer_selection != "shift_one",
                identity_codec=compression.is_identity,
                communication_interval=compression.communication_interval,
            )

    def with_updates(self, **kwargs) -> "ExperimentSpec":
        from dataclasses import replace

        return replace(self, **kwargs)


def fast_spec(
    num_agents: int = 6,
    epsilon: float = 0.3,
    topology: str = "fully_connected",
    num_rounds: int = 12,
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 7,
    dynamics: Optional[Dict[str, float]] = None,
    compression: Optional[Dict[str, object]] = None,
    time_model: Optional[Dict[str, object]] = None,
) -> ExperimentSpec:
    """A small spec (generic Gaussian-cluster data + linear model) for tests and CI."""
    return ExperimentSpec(
        dynamics=dynamics,
        compression=compression,
        time_model=time_model,
        name=f"fast_{topology}_M{num_agents}_eps{epsilon}",
        dataset="classification",
        model="linear",
        num_agents=num_agents,
        topology=topology,
        epsilon=epsilon,
        learning_rate=0.05,
        momentum=0.5,
        batch_size=100,
        num_rounds=num_rounds,
        train_samples=1800,
        validation_samples=150,
        test_samples=400,
        num_classes=6,
        num_features=24,
        shapley_permutations=3,
        algorithms=list(algorithms) if algorithms is not None else list(ALGORITHM_NAMES),
        seed=seed,
        scale="fast",
    )


def mnist_like_spec(
    num_agents: int = 10,
    epsilon: float = 0.3,
    topology: str = "fully_connected",
    scale: str = "fast",
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> ExperimentSpec:
    """The MNIST experiment family (Figures 1–3, Table I).

    ``scale="fast"`` uses the synthetic-MNIST generator with an MLP and a
    modest number of rounds so the whole grid runs in minutes;
    ``scale="paper"`` uses the paper's CNN, batch size 250 and 180 rounds.
    """
    hyper = _PAPER_HYPERPARAMS["mnist"]
    if scale == "paper":
        return ExperimentSpec(
            name=f"mnist_{topology}_M{num_agents}_eps{epsilon}",
            dataset="mnist",
            model="mnist_cnn",
            num_agents=num_agents,
            topology=topology,
            epsilon=epsilon,
            learning_rate=hyper["learning_rate"],
            momentum=hyper["momentum"],
            batch_size=int(hyper["batch_size"]),
            num_rounds=180,
            train_samples=60_000,
            validation_samples=2_000,
            test_samples=8_000,
            num_classes=10,
            shapley_permutations=4,
            eval_every=5,
            algorithms=list(algorithms) if algorithms is not None else list(ALGORITHM_NAMES),
            seed=seed,
            scale="paper",
        )
    return ExperimentSpec(
        name=f"mnist_fast_{topology}_M{num_agents}_eps{epsilon}",
        dataset="classification",
        model="linear",
        num_agents=num_agents,
        topology=topology,
        epsilon=epsilon,
        learning_rate=0.05,
        momentum=hyper["momentum"],
        batch_size=100,
        num_rounds=20,
        train_samples=2400,
        validation_samples=150,
        test_samples=400,
        num_classes=10,
        num_features=32,
        shapley_permutations=3,
        algorithms=list(algorithms) if algorithms is not None else list(ALGORITHM_NAMES),
        seed=seed,
        scale="fast",
    )


def cifar_like_spec(
    num_agents: int = 10,
    epsilon: float = 1.0,
    topology: str = "fully_connected",
    scale: str = "fast",
    algorithms: Optional[Sequence[str]] = None,
    seed: int = 11,
) -> ExperimentSpec:
    """The CIFAR-10 experiment family (Figures 4–6, Table II)."""
    hyper = _PAPER_HYPERPARAMS["cifar"]
    if scale == "paper":
        return ExperimentSpec(
            name=f"cifar_{topology}_M{num_agents}_eps{epsilon}",
            dataset="cifar",
            model="cifar_cnn",
            num_agents=num_agents,
            topology=topology,
            epsilon=epsilon,
            learning_rate=hyper["learning_rate"],
            momentum=hyper["momentum"],
            batch_size=int(hyper["batch_size"]),
            num_rounds=200,
            train_samples=50_000,
            validation_samples=2_000,
            test_samples=8_000,
            num_classes=10,
            shapley_permutations=4,
            eval_every=5,
            algorithms=list(algorithms) if algorithms is not None else list(ALGORITHM_NAMES),
            seed=seed,
            scale="paper",
        )
    return ExperimentSpec(
        name=f"cifar_fast_{topology}_M{num_agents}_eps{epsilon}",
        dataset="classification",
        model="linear",
        num_agents=num_agents,
        topology=topology,
        epsilon=epsilon,
        learning_rate=0.05,
        momentum=hyper["momentum"],
        batch_size=100,
        num_rounds=20,
        train_samples=2400,
        validation_samples=150,
        test_samples=400,
        num_classes=10,
        num_features=48,
        shapley_permutations=3,
        algorithms=list(algorithms) if algorithms is not None else list(ALGORITHM_NAMES),
        seed=seed,
        scale="fast",
    )


def paper_figure_spec(
    figure: int,
    num_agents: int = 10,
    epsilon: Optional[float] = None,
    scale: str = "fast",
    algorithms: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Spec for one panel of a paper figure (Figure 1–6).

    ``epsilon`` defaults to the largest budget of that figure's sweep (the
    panel the paper discusses most).
    """
    if figure not in _PAPER_FIGURES:
        raise ValueError(f"figure must be one of {sorted(_PAPER_FIGURES)}")
    family, topology = _PAPER_FIGURES[figure]
    epsilons = _PAPER_EPSILONS[family]
    chosen_epsilon = epsilon if epsilon is not None else epsilons[-1]
    if chosen_epsilon not in epsilons and epsilon is not None:
        # allow off-grid epsilons but keep the paper's defaults discoverable
        pass
    maker = mnist_like_spec if family == "mnist" else cifar_like_spec
    spec = maker(
        num_agents=num_agents,
        epsilon=chosen_epsilon,
        topology=topology,
        scale=scale,
        algorithms=algorithms,
    )
    return spec.with_updates(name=f"figure{figure}_M{num_agents}_eps{chosen_epsilon}")


def paper_table_spec(
    table: int,
    topology: str,
    num_agents: int,
    epsilon: float,
    scale: str = "fast",
    algorithms: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Spec for one cell of Table I (``table=1``, MNIST) or Table II (``table=2``, CIFAR)."""
    if table == 1:
        spec = mnist_like_spec(
            num_agents=num_agents, epsilon=epsilon, topology=topology, scale=scale, algorithms=algorithms
        )
    elif table == 2:
        spec = cifar_like_spec(
            num_agents=num_agents, epsilon=epsilon, topology=topology, scale=scale, algorithms=algorithms
        )
    else:
        raise ValueError("table must be 1 (MNIST) or 2 (CIFAR)")
    return spec.with_updates(name=f"table{table}_{topology}_M{num_agents}_eps{epsilon}")


# ---------------------------------------------------------------------------
# Spec serialisation and experiment grids
# ---------------------------------------------------------------------------

_SPEC_FIELDS: Tuple[str, ...] = tuple(f.name for f in dataclass_fields(ExperimentSpec))

#: Grid overrides may vary any spec field except these: ``seed`` has its own
#: axis, ``name`` is derived per cell, and ``algorithms`` has its own axis
#: (one job per algorithm).
_RESERVED_OVERRIDE_KEYS = frozenset({"seed", "name", "algorithms"})


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, object]:
    """JSON-serialisable form of a spec (inverse of :func:`spec_from_dict`).

    Field order follows the dataclass declaration, so the canonical JSON of
    a spec — and therefore a job's content hash — is stable.
    """
    payload: Dict[str, object] = {}
    for name in _SPEC_FIELDS:
        value = getattr(spec, name)
        if name == "algorithms":
            value = list(value)
        elif name == "dynamics" and value is not None:
            value = dict(value)
        elif name == "compression" and value is not None:
            value = dict(value)
        elif name == "time_model" and value is not None:
            value = dict(value)
        payload[name] = value
    return payload


def spec_from_dict(payload: Mapping[str, object]) -> ExperimentSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (strict about keys)."""
    if "name" not in payload:
        raise ValueError("a spec dict requires at least a 'name'")
    unknown = sorted(set(payload) - set(_SPEC_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown spec fields: {unknown}; expected a subset of "
            f"{sorted(_SPEC_FIELDS)}"
        )
    return ExperimentSpec(**dict(payload))


@dataclass(frozen=True)
class ExperimentJob:
    """One cell of an experiment grid: a fully resolved spec plus one algorithm.

    ``cell`` groups jobs that differ only by seed (the replication axis) so
    the report layer can aggregate multi-seed cells into mean±std rows.
    """

    spec: ExperimentSpec
    algorithm: str
    cell: str

    @property
    def seed(self) -> int:
        return self.spec.seed

    def describe(self) -> str:
        return f"{self.algorithm} @ {self.cell} (seed {self.seed})"


def _override_label(override: Mapping[str, object]) -> str:
    return ",".join(f"{key}={override[key]}" for key in sorted(override))


@dataclass
class ExperimentGrid:
    """A declarative experiment campaign: ``algorithms x seeds x overrides``.

    ``base`` supplies every default; each override dict patches a subset of
    spec fields (a new topology, privacy budget, round count, ...); each
    seed replicates every cell.  The full cross product is validated and
    expanded **at construction time** — duplicate seeds, duplicate
    overrides, reserved or unknown override keys, and invalid resulting
    specs (e.g. a non-positive ``num_rounds``) are all rejected here, with
    the offending entry named, instead of failing mid-campaign.
    """

    base: ExperimentSpec
    algorithms: Optional[Sequence[str]] = None
    seeds: Optional[Sequence[int]] = None
    overrides: Optional[Sequence[Mapping[str, object]]] = None

    def __post_init__(self) -> None:
        self.algorithms = (
            list(self.base.algorithms) if self.algorithms is None else list(self.algorithms)
        )
        self.seeds = [self.base.seed] if self.seeds is None else [int(s) for s in self.seeds]
        self.overrides = (
            [{}] if self.overrides is None else [dict(o) for o in self.overrides]
        )
        if not self.algorithms:
            raise ValueError("an experiment grid needs at least one algorithm")
        if not self.seeds:
            raise ValueError("an experiment grid needs at least one seed")
        if not self.overrides:
            raise ValueError(
                "overrides must contain at least one entry ({} runs the base spec)"
            )
        unknown = [a for a in self.algorithms if a not in _VALID_ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}")
        duplicate_algorithms = sorted(
            {a for a in self.algorithms if self.algorithms.count(a) > 1}
        )
        if duplicate_algorithms:
            raise ValueError(f"duplicate algorithms in grid: {duplicate_algorithms}")
        duplicate_seeds = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if duplicate_seeds:
            raise ValueError(
                f"duplicate seeds in grid: {duplicate_seeds} — each seed is one "
                "replication; repeating it would run (and average) the identical "
                "trajectory twice"
            )
        seen_overrides: Dict[str, int] = {}
        for index, override in enumerate(self.overrides):
            reserved = sorted(set(override) & _RESERVED_OVERRIDE_KEYS)
            if reserved:
                raise ValueError(
                    f"override #{index} sets reserved keys {reserved}: 'seed' and "
                    "'algorithms' are grid axes, 'name' is derived per cell"
                )
            unknown_keys = sorted(set(override) - set(_SPEC_FIELDS))
            if unknown_keys:
                raise ValueError(
                    f"override #{index} has unknown spec fields: {unknown_keys}"
                )
            key = json.dumps(override, sort_keys=True, default=str)
            if key in seen_overrides:
                raise ValueError(
                    f"override #{index} duplicates override #{seen_overrides[key]}: "
                    f"{override!r}"
                )
            seen_overrides[key] = index
        # Expand eagerly so an invalid grid point (e.g. num_rounds <= 0, an
        # unknown topology name combined with the base) fails at parse time
        # with the offending cell named.
        self._jobs: List[ExperimentJob] = []
        for index, override in enumerate(self.overrides):
            cell = (
                self.base.name
                if not override
                else f"{self.base.name}+{_override_label(override)}"
            )
            for seed in self.seeds:
                for algorithm in self.algorithms:
                    # Each job's spec names only its own algorithm: the
                    # grid's roster must not leak into the spec (and hence
                    # into the job's content hash), or adding one algorithm
                    # to a campaign would re-address — and retrain — every
                    # already-finished cell.
                    try:
                        spec = self.base.with_updates(
                            **override, seed=seed, name=cell, algorithms=[algorithm]
                        )
                    except (TypeError, ValueError) as error:
                        raise ValueError(
                            f"invalid grid point (override #{index} {override!r}, "
                            f"seed {seed}): {error}"
                        ) from error
                    self._jobs.append(
                        ExperimentJob(spec=spec, algorithm=algorithm, cell=cell)
                    )

    def jobs(self) -> List[ExperimentJob]:
        """The expanded cross product, in deterministic (override, seed, algorithm) order."""
        return list(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)


def grid_to_dict(grid: ExperimentGrid) -> Dict[str, object]:
    """JSON-serialisable form of a grid (inverse of :func:`grid_from_dict`)."""
    return {
        "base": spec_to_dict(grid.base),
        "algorithms": list(grid.algorithms),
        "seeds": list(grid.seeds),
        "overrides": [dict(o) for o in grid.overrides],
    }


def grid_from_dict(payload: Mapping[str, object]) -> ExperimentGrid:
    """Parse a grid declaration (the ``repro-run`` spec-file format).

    Accepts either the full form ``{"base": {...spec...}, "algorithms":
    [...], "seeds": [...], "overrides": [{...}]}`` or a bare spec dict
    (shorthand for a one-cell grid over the spec's own algorithms and seed).
    """
    if not isinstance(payload, Mapping):
        raise ValueError("a grid declaration must be a JSON object")
    if "base" not in payload:
        return ExperimentGrid(base=spec_from_dict(payload))
    unknown = sorted(set(payload) - {"base", "algorithms", "seeds", "overrides"})
    if unknown:
        raise ValueError(
            f"unknown grid keys: {unknown}; expected 'base', 'algorithms', "
            "'seeds', 'overrides'"
        )
    return ExperimentGrid(
        base=spec_from_dict(payload["base"]),
        algorithms=payload.get("algorithms"),
        seeds=payload.get("seeds"),
        overrides=payload.get("overrides"),
    )
