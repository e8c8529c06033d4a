"""Configuration dataclasses for PDSL and the baseline algorithms.

All algorithms share :class:`AlgorithmConfig` (optimisation, clipping and DP
settings); PDSL and some baselines add their own knobs in subclasses.  The DP
noise scale can be given directly (``sigma``) or derived from a privacy
budget (``epsilon``, ``delta``) via the Gaussian-mechanism bound applied to
the mini-batch gradient query (sensitivity ``2C / batch_size`` for a batch of
per-round samples, see :meth:`AlgorithmConfig.resolve_sigma`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from repro.compression.config import CompressionConfig
from repro.privacy.calibration import gaussian_sigma

__all__ = [
    "check_pipeline_knobs",
    "AlgorithmConfig",
    "PDSLConfig",
    "MuffliatoConfig",
    "CGAConfig",
    "NetFleetConfig",
]


def check_pipeline_knobs(
    dtype: str, block_rows: Optional[int], block_workers: int, storage: str
) -> None:
    """Reject invalid round-pipeline knobs (see :class:`AlgorithmConfig`)."""
    if dtype not in ("float64", "float32", "mixed"):
        raise ValueError("dtype must be 'float64', 'float32' or 'mixed'")
    if block_rows is not None and int(block_rows) < 1:
        raise ValueError("block_rows must be a positive integer or None")
    if int(block_workers) < 1:
        raise ValueError("block_workers must be a positive integer")
    if storage not in ("ram", "memmap"):
        raise ValueError("storage must be 'ram' or 'memmap'")


@dataclass
class AlgorithmConfig:
    """Hyper-parameters shared by every decentralized algorithm in this library.

    Attributes
    ----------
    learning_rate:
        Step size ``gamma``.
    momentum:
        Momentum coefficient ``alpha`` (set to 0 for plain SGD baselines).
    clip_threshold:
        Gradient L2 clipping threshold ``C``.
    sigma:
        Gaussian noise standard deviation.  When ``None`` it is derived from
        ``epsilon``/``delta`` in :meth:`resolve_sigma`; when 0 the algorithm
        runs without privacy noise (useful for non-private references).
    epsilon, delta:
        Per-round privacy budget used to calibrate ``sigma`` when it is not
        given explicitly.
    batch_size:
        Mini-batch size drawn by each agent per round.
    seed:
        Base seed; per-agent randomness is derived from it deterministically.
    compression:
        Gossip compression settings
        (:class:`~repro.compression.config.CompressionConfig`): codec,
        sparsity ``k``, ``communication_interval``, peer selection and
        error feedback.  ``None`` (the default) and the identity config are
        bit-identical to the historical uncompressed path.  A plain mapping
        (as carried by :class:`~repro.experiments.specs.ExperimentSpec`) is
        coerced to a ``CompressionConfig`` here.
    dtype:
        Element type of the fleet state matrices.  ``"float64"`` (the
        default) is the historical bit-exact path; ``"float32"`` halves the
        state memory and runs the gossip kernels in single precision;
        ``"mixed"`` keeps float32 state but accumulates the gossip product
        in float64 (:meth:`repro.topology.mixing.MixingOperator.apply_mixed`)
        so repeated mixing does not compound single-precision rounding.
        Gradient evaluation stays float64 in every mode (the model kernels
        are double precision); updates are rounded into the state dtype on
        assignment.  The precision tests pin the float32/mixed trajectory
        divergence from float64.
    block_rows:
        Row-block size of the round pipeline: every stage (batch drawing,
        gradient evaluation, clip+noise, momentum/state updates, codec and
        gossip, applied over ``(block_rows, d)`` output chunks) runs block
        by block, never materialising more than a handful of
        ``(block_rows, d)`` scratch chunks at a time.  ``None`` (the
        default) auto-sizes blocks to ~32 MiB
        (:func:`~repro.sharding.resolve_block_rows`), so small fleets run
        as a single block.  Results are bit-identical for every block size.
    block_workers:
        Number of threads the :class:`~repro.sharding.RoundScheduler` uses
        to execute independent row blocks of a round stage.  The
        default 1 runs blocks serially; values > 1 dispatch blocks onto a
        ``ThreadPoolExecutor`` and remain bit-identical because every block
        owns disjoint rows and draws from its own agents' addresses in the
        counter-based streams.  Only fleets of more than one block have
        anything to overlap.
    storage:
        Backing store of every fleet matrix (state, momentum,
        algorithm-specific matrices and the round's scratches): ``"ram"``
        (default) keeps ordinary arrays; ``"memmap"`` maps each onto a
        temporary ``.npy`` file, unlinked as soon as it is mapped, so the
        OS pages row blocks in and out and a full round at N=10^6 runs
        under a bounded RSS.
    """

    learning_rate: float = 0.01
    momentum: float = 0.0
    clip_threshold: float = 1.0
    sigma: Optional[float] = None
    epsilon: Optional[float] = None
    delta: float = 1e-5
    batch_size: int = 32
    seed: int = 0
    compression: Optional[CompressionConfig] = None
    dtype: str = "float64"
    block_rows: Optional[int] = None
    block_workers: int = 1
    storage: str = "ram"

    def __post_init__(self) -> None:
        if self.compression is not None and not isinstance(
            self.compression, CompressionConfig
        ):
            if not isinstance(self.compression, Mapping):
                raise ValueError(
                    "compression must be a CompressionConfig or a mapping of "
                    f"its fields, got {type(self.compression).__name__}"
                )
            self.compression = CompressionConfig.from_mapping(self.compression)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.clip_threshold <= 0:
            raise ValueError("clip_threshold must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive when provided")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.sigma is None and self.epsilon is None:
            raise ValueError("either sigma or epsilon must be provided")
        check_pipeline_knobs(
            self.dtype, self.block_rows, self.block_workers, self.storage
        )

    @property
    def sensitivity(self) -> float:
        """L2 sensitivity of the per-round clipped mini-batch gradient query.

        Each agent clips its averaged mini-batch gradient to ``C``; replacing
        one of the ``batch_size`` samples changes the average by at most
        ``2C / batch_size``.
        """
        return 2.0 * self.clip_threshold / float(self.batch_size)

    def resolve_sigma(self) -> float:
        """The noise scale to use: explicit ``sigma`` or calibrated from ``epsilon``."""
        if self.sigma is not None:
            return float(self.sigma)
        assert self.epsilon is not None  # enforced in __post_init__
        return gaussian_sigma(self.epsilon, self.delta, self.sensitivity)

    def with_updates(self, **kwargs) -> "AlgorithmConfig":
        """A copy of this config with some fields replaced (dataclass ``replace``)."""
        return replace(self, **kwargs)


@dataclass
class PDSLConfig(AlgorithmConfig):
    """Configuration specific to the PDSL algorithm (Algorithm 1).

    Attributes
    ----------
    shapley_permutations:
        Number of Monte-Carlo permutations ``R`` in Algorithm 2.  Set to 0 to
        use the exact Shapley value (eq. 18), which is only practical for
        small neighbourhoods: PDSL refuses it when a closed neighbourhood
        has more than ``repro.core.pdsl.MAX_EXACT_SHAPLEY_PLAYERS`` (20)
        players.
    characteristic_metric:
        ``"accuracy"`` (eq. 16 as written) or ``"neg_loss"`` (a smoother
        alternative used by an ablation).
    validation_batch_size:
        Size of the validation subsample each agent draws once per round
        (from its own ``agent_rng``, before its Shapley permutations); every
        coalition of that agent's game is scored on it.  ``None`` (or a
        size of at least ``|Q|``) uses the whole validation set ``Q`` and
        draws nothing.
    """

    momentum: float = 0.5
    shapley_permutations: int = 4
    characteristic_metric: str = "accuracy"
    validation_batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shapley_permutations < 0:
            raise ValueError("shapley_permutations must be non-negative")
        if self.characteristic_metric not in ("accuracy", "neg_loss"):
            raise ValueError("characteristic_metric must be 'accuracy' or 'neg_loss'")
        if self.validation_batch_size is not None and self.validation_batch_size <= 0:
            raise ValueError("validation_batch_size must be positive when provided")


@dataclass
class MuffliatoConfig(AlgorithmConfig):
    """MUFFLIATO baseline: local noise injection followed by multiple gossip steps."""

    gossip_steps: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gossip_steps <= 0:
            raise ValueError("gossip_steps must be positive")


@dataclass
class CGAConfig(AlgorithmConfig):
    """DP-CGA baseline: cross-gradient aggregation with DP perturbation."""

    momentum: float = 0.5


@dataclass
class NetFleetConfig(AlgorithmConfig):
    """DP-NET-FLEET baseline: recursive gradient correction with local steps."""

    local_steps: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.local_steps <= 0:
            raise ValueError("local_steps must be positive")
