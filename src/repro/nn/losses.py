"""Loss functions for the NumPy neural-network substrate.

Each loss returns ``(loss_value, grad_wrt_logits)`` so that callers can feed
the gradient straight into ``Model.backward`` without a separate call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "log_softmax",
    "per_example_cross_entropy",
    "softmax_cross_entropy",
    "mean_squared_error",
    "l2_regularization",
]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis.

    The single source of the ``shifted - log(sum(exp(shifted)))`` formula:
    :func:`softmax_cross_entropy` (training), the stacked engine's fused loss
    (:meth:`repro.nn.batched.StackedSequential._softmax_cross_entropy`) and
    the membership-inference per-sample scorer all route through it, so their
    log-probabilities are bit-identical for the same logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def per_example_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Unreduced cross-entropy ``-log p[label]`` per example.

    Works on any leading layout — ``(N, K)`` logits with ``(N,)`` labels or a
    stacked ``(M, B, K)`` with ``(M, B)`` — reducing only the trailing class
    axis.  This is the shared per-example-loss helper used by the attacks
    (membership inference scores raw per-example losses) and by the stacked
    engine's :meth:`~repro.nn.batched.StackedSequential.per_example_losses`
    and forward-only :meth:`~repro.nn.batched.StackedSequential.losses`.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 1 or labels.shape != logits.shape[:-1]:
        raise ValueError(
            f"labels shape {labels.shape} must match logits leading shape {logits.shape[:-1]}"
        )
    k = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("labels out of range for the number of classes")
    log_probs = log_softmax(logits)
    picked = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    return -picked


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, reduction: str = "mean"
) -> Tuple[float, np.ndarray]:
    """Fused softmax + cross-entropy.

    Parameters
    ----------
    logits:
        ``(N, K)`` unnormalised class scores.
    labels:
        ``(N,)`` integer class labels in ``[0, K)``.
    reduction:
        ``"mean"`` (default) or ``"sum"``.

    Returns
    -------
    (loss, grad):
        Scalar loss and the gradient of the loss with respect to ``logits``
        (already divided by the batch size when ``reduction == "mean"``).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be 1-D with the same batch size as logits")
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("labels out of range for the number of classes")
    if reduction not in ("mean", "sum"):
        raise ValueError("reduction must be 'mean' or 'sum'")

    log_probs = log_softmax(logits)
    nll = -log_probs[np.arange(n), labels]

    probs = np.exp(log_probs)
    grad = probs
    grad[np.arange(n), labels] -= 1.0

    if reduction == "mean":
        return float(nll.mean()), grad / n
    return float(nll.sum()), grad


def mean_squared_error(
    predictions: np.ndarray, targets: np.ndarray, reduction: str = "mean"
) -> Tuple[float, np.ndarray]:
    """Mean squared error ``0.5 * ||pred - target||^2`` per element."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError("predictions and targets must have identical shapes")
    if reduction not in ("mean", "sum"):
        raise ValueError("reduction must be 'mean' or 'sum'")
    diff = predictions - targets
    if reduction == "mean":
        loss = float(0.5 * np.mean(diff**2))
        grad = diff / diff.size
    else:
        loss = float(0.5 * np.sum(diff**2))
        grad = diff
    return loss, grad


def l2_regularization(flat_params: np.ndarray, weight_decay: float) -> Tuple[float, np.ndarray]:
    """L2 penalty ``0.5 * wd * ||x||^2`` and its gradient ``wd * x``."""
    flat_params = np.asarray(flat_params, dtype=np.float64)
    if weight_decay < 0:
        raise ValueError("weight_decay must be non-negative")
    loss = float(0.5 * weight_decay * np.dot(flat_params, flat_params))
    return loss, weight_decay * flat_params
