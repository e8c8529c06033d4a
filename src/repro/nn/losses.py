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


#: :func:`log_softmax` takes the class axis as columns for at most this many
#: classes and at least :data:`_COLUMN_ROWS_PER_CLASS` rows per class.  Each
#: column pass costs one NumPy call; NumPy's own reduction costs one inner
#: loop per row.  On a 2-CPU host the columns win by 2-4x at 4 classes and
#: 1.3-1.8x at 10 from a few hundred rows on, and lose above about 32
#: classes, where the per-row loop runs long enough to pay for itself.  The
#: column passes are exact up to 128 classes.
_COLUMN_CLASSES = 32
_COLUMN_ROWS_PER_CLASS = 32

#: Elements of one row chunk of the column passes (512 KB of float64), so
#: the ``K`` passes over a chunk hit cache rather than memory.
_COLUMN_CHUNK_ELEMENTS = 1 << 16


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis.

    The single source of the ``shifted - log(sum(exp(shifted)))`` formula:
    :func:`softmax_cross_entropy` (training), the stacked engine's fused loss
    (:meth:`repro.nn.batched.StackedSequential._softmax_cross_entropy`) and
    the membership-inference per-sample scorer all route through it, so their
    log-probabilities are bit-identical for the same logits.

    NumPy reduces a narrow trailing axis one row at a time, so a
    C-contiguous array with ``K <= 32`` classes and at least ``32 K`` rows
    is reduced over its ``K`` class columns instead, in row chunks of
    :data:`_COLUMN_CHUNK_ELEMENTS`.  The column passes keep the order that
    ``max(axis=-1)`` and ``sum(axis=-1)`` use on such an array, so the
    result equals the two-line formula bit for bit (NaNs stay NaN; their
    sign is not pinned):

    * the row max is a chain of ``np.maximum`` over the columns.  A maximum
      is the same in any order except for the sign of a zero maximum, and
      that sign cannot reach the output: a row holding both zeros has an
      exp sum of at least 2, so ``±0 - log(sum)`` is the same number;
    * the sum of exps starts from ``+0.0`` and adds the columns left to
      right when ``K < 8``.  For ``8 <= K`` it keeps eight accumulators
      (column ``j`` into accumulator ``j % 8`` over the first ``K - K % 8``
      columns), joins them as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
      (r6 + r7))`` and adds the remaining columns left to right: NumPy's
      pairwise summation, which is one fixed tree up to 128 elements.

    Wider, shorter or non-contiguous logits use the formula itself.
    """
    logits = np.asarray(logits, dtype=np.float64)
    k = logits.shape[-1] if logits.ndim else 0
    rows = logits.size // k if k else 0
    if not (
        0 < k <= _COLUMN_CLASSES
        and rows >= _COLUMN_ROWS_PER_CLASS * k
        and logits.flags.c_contiguous
    ):
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    flat = logits.reshape(rows, k)
    out = np.empty_like(flat)
    step = _COLUMN_CHUNK_ELEMENTS // k
    for start in range(0, rows, step):
        _log_softmax_columns(flat[start : start + step], out[start : start + step])
    return out.reshape(logits.shape)


def _log_softmax_columns(rows: np.ndarray, out: np.ndarray) -> None:
    """:func:`log_softmax` of ``(R, K)`` ``rows`` into ``out``, column by column."""
    k = rows.shape[1]
    row_max = rows[:, 0].copy()
    for column in range(1, k):
        np.maximum(row_max, rows[:, column], out=row_max)
    np.subtract(rows, row_max[:, None], out=out)
    exps = np.exp(out)
    if k < 8:
        total = np.zeros(rows.shape[0])
        for column in range(k):
            total += exps[:, column]
    else:
        tail = k - k % 8
        lanes = [exps[:, j].copy() for j in range(8)]
        for start in range(8, tail, 8):
            for j in range(8):
                lanes[j] += exps[:, start + j]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for column in range(tail, k):
            total += exps[:, column]
    np.log(total, out=total)
    out -= total[:, None]


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
