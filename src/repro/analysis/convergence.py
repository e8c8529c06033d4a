"""Theorem 2 and Corollary 1: the convergence bound of PDSL.

Theorem 2 bounds the running average of the squared gradient norm of the
network-average model:

    (1/T) sum_t E||grad F(x_bar^{t-1})||^2
        <= (F(x_bar^0) - F*) / (m1 T)
           + (m2 + m3 * gamma^2 alpha^2 / (1-alpha)^4 + m4)
             * (4C^2/omega_min^4 + 4 sigma^2 d / omega_min^4 + 2 zeta^2 / M)
           + m5 * ( 16 gamma^2 (C^2 + sigma^2 d) / (omega_min^4 (1-alpha)^2 (1-sqrt(rho))^2)
                    + 4 gamma^2 (7 zeta^2 + 13 kappa^2) / ((1-alpha)^2 (1-sqrt(rho))^2) )

with the constants ``m1..m5`` of eq. 33 and the learning-rate window of
eq. 31/85.  Corollary 1 specialises this to gamma = O(1/sqrt(T)) and yields
the ``O(1/sqrt(T) + sigma^2 d / sqrt(T) + ...)`` rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "ConvergenceConstants",
    "learning_rate_interval",
    "theorem2_bound",
    "corollary1_rate",
]


@dataclass(frozen=True)
class ConvergenceConstants:
    """Problem constants appearing in Assumptions 1–3 and Theorem 2.

    Attributes
    ----------
    smoothness:
        ``L`` — Lipschitz constant of the gradients (Assumption 1).
    gradient_variance:
        ``zeta^2`` — variance bound of the stochastic gradients (Assumption 2).
    heterogeneity:
        ``kappa^2`` — bound on the deviation between local and global
        gradients (Assumption 2); larger means more non-IID data.
    rho:
        ``rho`` from Assumption 3; ``sqrt(rho)`` is the second-largest
        eigenvalue magnitude of the mixing matrix.
    omega_min:
        Smallest positive mixing weight.
    """

    smoothness: float
    gradient_variance: float
    heterogeneity: float
    rho: float
    omega_min: float

    def __post_init__(self) -> None:
        if self.smoothness <= 0:
            raise ValueError("smoothness L must be positive")
        if self.gradient_variance < 0 or self.heterogeneity < 0:
            raise ValueError("variance constants must be non-negative")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not 0.0 < self.omega_min <= 1.0:
            raise ValueError("omega_min must lie in (0, 1]")


def learning_rate_interval(
    constants: ConvergenceConstants, momentum: float
) -> Tuple[float, float]:
    """The (lower, upper) learning-rate window of eq. 31 / eq. 85.

    The lower endpoint ``(1-alpha)^2 / alpha`` comes from requiring ``m1 > 0``
    and the upper endpoint is the minimum of the two expressions in eq. 85.
    Returns ``(lower, upper)``.

    Reproduction note: as literally transcribed from the paper the window is
    *empty for every momentum value* — the eq. 84 root is bounded above by
    ``(1-alpha)^2 / (2 alpha)``, i.e. half the lower endpoint.  This appears
    to be an inconsistency in the published condition, so
    :func:`theorem2_bound` only enforces the ``m1 > 0`` part.
    """
    if not 0.0 < momentum < 1.0:
        raise ValueError("momentum must lie in (0, 1) for the Theorem 2 window")
    l_const = constants.smoothness
    sqrt_rho = math.sqrt(constants.rho)
    one_minus = 1.0 - momentum
    lower = one_minus**2 / momentum
    upper_a = one_minus * (1.0 - sqrt_rho) / (2.0 * math.sqrt(26.0) * l_const)
    gap = 1.0 - sqrt_rho
    upper_b = (
        gap * math.sqrt(52.0 * l_const**2 * one_minus**2 + momentum**2 * gap**2)
        - momentum * gap**2
    ) / (52.0 * l_const**2)
    return lower, min(upper_a, upper_b)


def _m_constants(
    constants: ConvergenceConstants, learning_rate: float, momentum: float
) -> Tuple[float, float, float, float, float]:
    """The constants m1..m5 of eq. 33."""
    gamma = learning_rate
    alpha = momentum
    l_const = constants.smoothness
    one_minus = 1.0 - alpha
    m1 = gamma / (2.0 * one_minus) - one_minus / (2.0 * alpha)
    if m1 <= 0:
        raise ValueError(
            "m1 <= 0: the learning rate is below the Theorem 2 window "
            "(gamma must exceed (1-alpha)^2/alpha)"
        )
    m2 = (alpha * l_const * gamma**2 / (2.0 * one_minus**3) + l_const * gamma**2 / (2.0 * one_minus**2)) / m1
    m3 = l_const * one_minus / (2.0 * m1 * alpha)
    m4 = alpha * gamma**2 / (2.0 * m1 * one_minus**3)
    m5 = l_const**2 * gamma / (2.0 * m1 * one_minus)
    return m1, m2, m3, m4, m5


def theorem2_bound(
    constants: ConvergenceConstants,
    learning_rate: float,
    momentum: float,
    num_rounds: int,
    num_agents: int,
    clip_threshold: float,
    sigma: float,
    dimension: int,
    initial_gap: float,
) -> float:
    """Evaluate the right-hand side of Theorem 2 (eq. 32).

    Parameters
    ----------
    initial_gap:
        ``F(x_bar^0) - F*`` — the initial optimality gap.
    """
    if num_rounds <= 0 or num_agents <= 0 or dimension <= 0:
        raise ValueError("num_rounds, num_agents and dimension must be positive")
    if clip_threshold <= 0 or sigma < 0 or initial_gap < 0:
        raise ValueError("clip_threshold must be positive; sigma, initial_gap non-negative")
    gamma = learning_rate
    alpha = momentum
    m1, m2, m3, m4, m5 = _m_constants(constants, gamma, alpha)
    one_minus = 1.0 - alpha
    sqrt_rho = math.sqrt(constants.rho)
    gap = 1.0 - sqrt_rho
    omega4 = constants.omega_min**4

    term_initial = initial_gap / (m1 * num_rounds)
    noise_block = (
        4.0 * clip_threshold**2 / omega4
        + 4.0 * sigma**2 * dimension / omega4
        + 2.0 * constants.gradient_variance / num_agents
    )
    term_noise = (m2 + m3 * gamma**2 * alpha**2 / one_minus**4 + m4) * noise_block
    consensus_block = (
        16.0 * gamma**2 * (clip_threshold**2 + sigma**2 * dimension)
        / (omega4 * one_minus**2 * gap**2)
        + 4.0 * gamma**2 * (7.0 * constants.gradient_variance + 13.0 * constants.heterogeneity)
        / (one_minus**2 * gap**2)
    )
    term_consensus = m5 * consensus_block
    return float(term_initial + term_noise + term_consensus)


def corollary1_rate(
    num_rounds: int,
    num_agents: int,
    sigma: float,
    dimension: int,
    constant: float = 1.0,
) -> float:
    """The Corollary 1 envelope ``K (1/sqrt(T) + sigma^2 d/sqrt(T) + 1/(M sqrt(T)) + 1/T + sigma^2 d/T)``."""
    if num_rounds <= 0 or num_agents <= 0 or dimension <= 0:
        raise ValueError("num_rounds, num_agents and dimension must be positive")
    if sigma < 0 or constant <= 0:
        raise ValueError("sigma must be non-negative and constant positive")
    sqrt_t = math.sqrt(num_rounds)
    noise = sigma**2 * dimension
    return float(
        constant
        * (1.0 / sqrt_t + noise / sqrt_t + 1.0 / (num_agents * sqrt_t) + 1.0 / num_rounds + noise / num_rounds)
    )
