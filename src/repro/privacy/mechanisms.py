"""Gradient clipping and the Gaussian mechanism (Definitions 1–2, eqs. 10–14).

Two granularities are provided: per-vector helpers
(:func:`clip_by_l2_norm`, :meth:`GaussianMechanism.privatize`) and
row-stack helpers (:func:`clip_rows_by_l2_norm`,
:meth:`GaussianMechanism.add_noise_rows`, one batched ``normal`` call for a
whole stack).  The training engines clip with these functions but draw
their noise from the fleet's counter-based streams
(:meth:`repro.core.base.DecentralizedAlgorithm.privatize_rows`); a
:class:`GaussianMechanism` with its own generator serves single-query uses
such as the privacy attacks and the privacy frontier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "clip_by_l2_norm",
    "clip_rows_by_l2_norm",
    "clipped_sensitivity",
    "GaussianMechanism",
]


def clip_by_l2_norm(vector: np.ndarray, clip_threshold: float) -> np.ndarray:
    """L2-clip a gradient vector to norm at most ``C`` (eq. 10 / 13).

    ``g_tilde = g / max(1, ||g|| / C)`` — the vector is returned unchanged when
    its norm is already at most ``C`` and rescaled to exactly ``C`` otherwise.
    """
    if clip_threshold <= 0:
        raise ValueError("clip_threshold must be positive")
    vector = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    scale = max(1.0, norm / clip_threshold)
    return vector / scale


def clip_rows_by_l2_norm(matrix: np.ndarray, clip_threshold: float) -> np.ndarray:
    """Row-wise L2 clipping of a ``(num_gradients, d)`` stack of gradients.

    Applies ``g_tilde = g / max(1, ||g|| / C)`` independently to every row
    in a single vectorized pass.  Equal to mapping :func:`clip_by_l2_norm`
    over the rows up to round-off, not bitwise: the row-wise norm can differ
    from ``np.linalg.norm`` of one vector in the last bit, and so can every
    coordinate of a clipped row.  Always returns a new array.
    """
    if clip_threshold <= 0:
        raise ValueError("clip_threshold must be positive")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D stack of gradients, got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1)
    scales = np.maximum(1.0, norms / clip_threshold)
    return matrix / scales[:, None]


def clipped_sensitivity(clip_threshold: float) -> float:
    """L2 sensitivity of a clipped single-sample gradient query (Definition 2).

    Replacing the one sample that produced the gradient can change the clipped
    gradient by at most ``2C`` in L2 norm.
    """
    if clip_threshold <= 0:
        raise ValueError("clip_threshold must be positive")
    return 2.0 * float(clip_threshold)


class GaussianMechanism:
    """Adds isotropic Gaussian noise ``N(0, sigma^2 I_d)`` to query outputs (eq. 4).

    Parameters
    ----------
    sigma:
        Noise standard deviation per coordinate.
    clip_threshold:
        If given, inputs are L2-clipped to this threshold before noising
        (the combination used by Algorithm 1, lines 3–4 and 9–10).
    rng:
        Source of randomness; injected so experiments are reproducible.
    """

    def __init__(
        self,
        sigma: float,
        rng: np.random.Generator,
        clip_threshold: Optional[float] = None,
    ) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if clip_threshold is not None and clip_threshold <= 0:
            raise ValueError("clip_threshold must be positive when provided")
        self.sigma = float(sigma)
        self.clip_threshold = clip_threshold
        self.rng = rng

    def clip(self, vector: np.ndarray) -> np.ndarray:
        """Apply the configured clipping (identity if no threshold was set)."""
        vector = np.asarray(vector, dtype=np.float64)
        if self.clip_threshold is None:
            return vector
        return clip_by_l2_norm(vector, self.clip_threshold)

    def add_noise(self, vector: np.ndarray) -> np.ndarray:
        """Add ``N(0, sigma^2 I)`` noise to an (already clipped) vector."""
        vector = np.asarray(vector, dtype=np.float64)
        if self.sigma == 0.0:
            return vector.copy()
        return vector + self.rng.normal(0.0, self.sigma, size=vector.shape)

    def add_noise_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Add independent ``N(0, sigma^2 I)`` noise to every row of a stack.

        One batched draw from this mechanism's stream instead of one
        Python-level call per row.  ``Generator.normal`` fills an array
        sequentially, so a single ``(k, d)`` draw consumes the stream exactly
        like ``k`` successive ``(d,)`` draws — mapping :meth:`add_noise` over
        the rows yields bit-identical output, just with per-row call
        overhead that profiles show dominating at fleet sizes >= 1024.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D stack of vectors, got shape {matrix.shape}")
        if self.sigma == 0.0:
            return matrix.copy()
        return matrix + self.rng.normal(0.0, self.sigma, size=matrix.shape)

    def privatize(self, vector: np.ndarray) -> np.ndarray:
        """Clip then perturb — the full per-gradient pipeline of Algorithm 1."""
        return self.add_noise(self.clip(vector))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GaussianMechanism(sigma={self.sigma}, clip_threshold={self.clip_threshold})"
        )
