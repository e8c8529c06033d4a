"""Stacked forward/backward passes over many parameter vectors at once.

The decentralized algorithms evaluate the *same architecture* at many
different points of ``R^d`` every round — one point per agent for local
gradients, one point per directed edge for cross-gradients.  Doing that with
the scalar :class:`~repro.nn.model.Model` interface costs one Python-level
forward/backward pass per point.  :class:`StackedSequential` instead treats
the whole fleet as a single tensor computation: parameters live in an
``(M, d)`` matrix, activations in ``(M, B, ...)`` tensors, and each dense
layer is applied to all ``M`` models with one batched ``np.matmul``.

Only layer types whose stacked semantics are exact and deterministic are
supported (``Dense``, ``ReLU``, ``Tanh``, ``Sigmoid``, ``Flatten``).  Models
containing convolutions, pooling or dropout fall back to one scalar pass per
model — use :func:`supports_stacked` to check.  The stacked passes apply the
per-layer formulas of :mod:`repro.nn.layers`, and a batched ``np.matmul`` runs
the same inner kernel per model as the scalar ``Dense``'s ``x @ W``,
``x.T @ g`` and ``g @ W.T``, so losses, gradients and predictions are
bit-identical to ``Model.loss_and_gradient`` and ``Model.accuracy`` row by
row.  One operation is left out: the backward pass stops after the first
dense layer's weight and bias gradients, where the scalar model also computes
the gradient with respect to its inputs, which no caller reads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import Dense, Flatten, ReLU, Sigmoid, Tanh
from repro.nn.losses import log_softmax, per_example_cross_entropy
from repro.nn.model import Model, Sequential

__all__ = ["supports_stacked", "StackedSequential"]

_ACTIVATIONS = (ReLU, Tanh, Sigmoid)

#: Bytes of one chunk's widest activation in
#: :meth:`StackedSequential.accuracies`.  A forward-only pass touches each
#: activation once, so chunks that stay in cache run fastest.  On 1024 MLP
#: agents (d = 1386) and 1000 test rows, 64 MB chunks (``max_chunk_elements``)
#: took 0.52 s and 1 MB chunks 0.31 s, on a 2-CPU host.
_ACCURACY_CHUNK_BYTES = 1 << 20


def supports_stacked(model: Model) -> bool:
    """True if ``model`` can be evaluated by :class:`StackedSequential`.

    The model must be a plain :class:`~repro.nn.model.Sequential` composed
    only of ``Dense``, ``ReLU``, ``Tanh``, ``Sigmoid`` and ``Flatten`` layers
    (linear classifiers and MLPs).  Layers with spatial structure
    (``Conv2D``, ``MaxPool2D``) or internal randomness (``Dropout``) are
    excluded, as are ``Sequential`` *subclasses* — the stacked engine
    hard-codes softmax cross-entropy, so a subclass overriding the loss
    would silently get the wrong gradients.
    """
    if type(model) is not Sequential:
        return False
    for layer in model.layers:
        if not isinstance(layer, (Dense, Flatten) + _ACTIVATIONS):
            return False
    return True


class StackedSequential:
    """Evaluate a :class:`Sequential` template at ``M`` parameter vectors at once.

    Parameters
    ----------
    template:
        The architecture to evaluate.  Only its layer *shapes* are used; the
        parameter values come from the ``(M, d)`` matrix passed to
        :meth:`loss_and_gradients`, laid out exactly like
        :meth:`Model.get_flat_params` (layer order, weight before bias).
    max_chunk_elements:
        Upper bound on ``M * B * width`` per processed chunk, used to split
        very large stacks (e.g. all cross-gradient pairs of a dense graph)
        into memory-bounded pieces.  :meth:`accuracies` sizes its chunks by
        activation bytes instead.
    """

    def __init__(self, template: Sequential, max_chunk_elements: int = 8_000_000) -> None:
        if not supports_stacked(template):
            raise ValueError(
                "StackedSequential supports Sequential models built from "
                "Dense/ReLU/Tanh/Sigmoid/Flatten layers only"
            )
        self.template = template
        self.dimension = template.num_params
        self.max_chunk_elements = int(max_chunk_elements)
        # Build the static evaluation plan: one spec per layer with the flat
        # slices its parameters occupy.
        self._plan: List[Tuple] = []
        offset = 0
        widest = 1
        for layer in template.layers:
            if isinstance(layer, Dense):
                w_size = layer.weight.size
                w_slice = slice(offset, offset + w_size)
                offset += w_size
                b_slice: Optional[slice] = None
                if layer.bias is not None:
                    b_slice = slice(offset, offset + layer.bias.size)
                    offset += layer.bias.size
                self._plan.append(
                    ("dense", layer.in_features, layer.out_features, w_slice, b_slice)
                )
                widest = max(widest, layer.in_features, layer.out_features)
            elif isinstance(layer, ReLU):
                self._plan.append(("relu",))
            elif isinstance(layer, Tanh):
                self._plan.append(("tanh",))
            elif isinstance(layer, Sigmoid):
                self._plan.append(("sigmoid",))
            elif isinstance(layer, Flatten):
                self._plan.append(("flatten",))
        self._widest = widest
        # Plan index of the first dense layer; the backward pass ends there.
        self._first_dense = next(
            (index for index, spec in enumerate(self._plan) if spec[0] == "dense"),
            len(self._plan),
        )
        assert offset == self.dimension

    # ------------------------------------------------------------------
    # Forward / backward over a stack
    # ------------------------------------------------------------------
    def _forward(
        self, params: np.ndarray, x: np.ndarray, shared: bool = False
    ) -> Tuple[np.ndarray, List[Tuple]]:
        """Stacked forward pass; returns ``(logits, caches)``.

        ``x`` is an ``(M, B, ...)`` stack, batch ``k`` under model ``k``, or
        with ``shared=True`` one ``(B, ...)`` batch for every model:
        ``np.matmul`` broadcasts it against the ``(M, i, o)`` weights of the
        first dense layer, so it is never copied per model.
        """
        caches: List[Tuple] = []
        m = params.shape[0]
        # Leading axes Flatten keeps: the batch, plus the stack once x has one.
        lead = 1 if shared else 2
        for spec in self._plan:
            kind = spec[0]
            if kind == "dense":
                _, n_in, n_out, w_slice, b_slice = spec
                weight = params[:, w_slice].reshape(m, n_in, n_out)
                caches.append((x, weight))
                x = np.matmul(x, weight)
                lead = 2
                if b_slice is not None:
                    np.add(x, params[:, b_slice][:, None, :], out=x)
            elif kind == "relu":
                mask = x > 0
                caches.append((mask,))
                x = x * mask
            elif kind == "tanh":
                x = np.tanh(x)
                caches.append((x,))
            elif kind == "sigmoid":
                x = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
                caches.append((x,))
            elif kind == "flatten":
                caches.append((x.shape,))
                x = x.reshape(x.shape[:lead] + (-1,))
        return x, caches

    def _backward(
        self, grad_logits: np.ndarray, caches: List[Tuple], grads_out: np.ndarray
    ) -> None:
        """Stacked backward pass writing flat parameter gradients into ``grads_out``.

        Stops after the first dense layer's weight and bias gradients: the
        gradient with respect to the inputs is never read.
        """
        g = grad_logits
        for index in range(len(self._plan) - 1, self._first_dense - 1, -1):
            spec, cache = self._plan[index], caches[index]
            kind = spec[0]
            if kind == "dense":
                _, n_in, n_out, w_slice, b_slice = spec
                x, weight = cache
                m = x.shape[0]
                grads_out[:, w_slice] = np.matmul(x.transpose(0, 2, 1), g).reshape(m, -1)
                if b_slice is not None:
                    grads_out[:, b_slice] = g.sum(axis=1)
                if index == self._first_dense:
                    break
                g = np.matmul(g, weight.transpose(0, 2, 1))
            elif kind == "relu":
                g = g * cache[0]
            elif kind == "tanh":
                g = g * (1.0 - cache[0] ** 2)
            elif kind == "sigmoid":
                g = g * cache[0] * (1.0 - cache[0])
            elif kind == "flatten":
                g = g.reshape(cache[0])

    @staticmethod
    def _softmax_cross_entropy(
        logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean-reduced fused softmax + cross-entropy over an ``(M, B, K)`` stack.

        Runs the arithmetic of :func:`repro.nn.losses.softmax_cross_entropy`
        per model row, in its order: the labels' log-probabilities are
        picked and the ``-1`` applied through one flat index, and ``exp``
        and ``/ B`` run in place on the log-prob buffer.  Returns
        ``(losses (M,), grad_logits (M, B, K))``.
        """
        m, batch, classes = logits.shape
        if labels.size and (labels.min() < 0 or labels.max() >= classes):
            raise ValueError("labels out of range for the number of classes")
        log_probs = log_softmax(logits)
        flat = log_probs.reshape(-1)
        picked = np.arange(0, m * batch * classes, classes) + labels.reshape(-1)
        losses = -flat[picked].reshape(m, batch).mean(axis=1)
        np.exp(log_probs, out=log_probs)
        flat[picked] -= 1.0
        np.divide(log_probs, batch, out=log_probs)
        return losses, log_probs

    def _validate_stack(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        params = np.asarray(params, dtype=np.float64)
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if params.ndim != 2 or params.shape[1] != self.dimension:
            raise ValueError(
                f"params must have shape (M, {self.dimension}), got {params.shape}"
            )
        m = params.shape[0]
        if inputs.shape[0] != m or labels.shape[:2] != inputs.shape[:2]:
            raise ValueError("params, inputs and labels disagree on the stack layout")
        batch = inputs.shape[1]
        per_row = max(1, batch * self._widest)
        chunk = max(1, self.max_chunk_elements // per_row)
        return params, inputs, labels, chunk

    def loss_and_gradients(
        self,
        params: np.ndarray,
        inputs: np.ndarray,
        labels: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Softmax-cross-entropy loss and gradient for every stacked model.

        Parameters
        ----------
        params:
            ``(M, d)`` matrix; row ``k`` is the flat parameter vector of
            model ``k``.
        inputs:
            ``(M, B, ...)`` stacked mini-batches; batch ``k`` is evaluated
            under model ``k``.
        labels:
            ``(M, B)`` integer class labels.
        out:
            Optional pre-allocated ``(M, d)`` float64 gradient buffer; the
            backward pass already writes chunk slices in place, so passing a
            caller-owned buffer (e.g. the blocked round's row view) skips
            the allocation and the copy-out without changing a single bit.

        Returns
        -------
        (losses, grads):
            ``(M,)`` per-model mean losses and the ``(M, d)`` matrix of flat
            gradients (``out`` when given), bit-identical row by row to
            ``Model.loss_and_gradient``.
        """
        params, inputs, labels, chunk = self._validate_stack(params, inputs, labels)
        m = params.shape[0]
        losses = np.empty(m, dtype=np.float64)
        if out is None:
            grads = np.empty((m, self.dimension), dtype=np.float64)
        else:
            if out.shape != (m, self.dimension) or out.dtype != np.float64:
                raise ValueError(
                    f"out must be a float64 ({m}, {self.dimension}) array, got "
                    f"{out.dtype} {out.shape}"
                )
            grads = out
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            logits, caches = self._forward(params[start:stop], inputs[start:stop])
            chunk_losses, grad_logits = self._softmax_cross_entropy(
                logits, labels[start:stop]
            )
            losses[start:stop] = chunk_losses
            self._backward(grad_logits, caches, grads[start:stop])
        return losses, grads

    def losses(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Softmax-cross-entropy loss for every stacked model (forward only).

        Same stacked layout as :meth:`loss_and_gradients` but skips the
        backward pass — the evaluation path
        (:meth:`~repro.core.base.DecentralizedAlgorithm.average_train_loss`)
        only needs the ``(M,)`` per-model mean losses.
        """
        params, inputs, labels, chunk = self._validate_stack(params, inputs, labels)
        m = params.shape[0]
        losses = np.empty(m, dtype=np.float64)
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            logits, _ = self._forward(params[start:stop], inputs[start:stop])
            losses[start:stop] = per_example_cross_entropy(
                logits, labels[start:stop]
            ).mean(axis=1)
        return losses

    def accuracies(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Classification accuracy of every stacked model on one shared test set.

        ``inputs`` is a single ``(B, ...)`` batch with ``(B,)`` integer
        ``labels``, scored under each of the ``M`` rows of ``params``
        (forward only, in chunks of about :data:`_ACCURACY_CHUNK_BYTES` of
        activations).  The batch is shared, never copied per model.  Entry
        ``k`` equals ``Model.accuracy(inputs, labels, params=params[k])``
        exactly: the logits are bit-identical and the prediction is the same
        ``argmax``, so ties and NaN rows resolve the same way.  An empty test
        set scores 0.0, as ``Model.accuracy`` does.
        """
        params = np.asarray(params, dtype=np.float64)
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if params.ndim != 2 or params.shape[1] != self.dimension:
            raise ValueError(
                f"params must have shape (M, {self.dimension}), got {params.shape}"
            )
        if labels.ndim != 1 or inputs.shape[:1] != labels.shape:
            raise ValueError("inputs and labels must have the same batch size")
        m, batch = params.shape[0], labels.shape[0]
        out = np.zeros(m, dtype=np.float64)
        if batch == 0:
            return out
        chunk = max(1, _ACCURACY_CHUNK_BYTES // (batch * self._widest * 8))
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            logits, _ = self._forward(params[start:stop], inputs, shared=True)
            out[start:stop] = (logits.argmax(axis=-1) == labels).mean(axis=1)
        return out

    def per_example_losses(
        self, params: np.ndarray, inputs: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Unreduced per-example cross-entropy for every stacked model.

        Same stacked layout as :meth:`loss_and_gradients` but returns the raw
        ``(M, B)`` matrix of ``-log p[label]`` values instead of mean-reducing
        over the batch axis.  This is the kernel behind the fleet membership
        attack: one stacked forward scores a whole dataset under many
        ``(agent, checkpoint)`` parameter rows at once, and row ``k`` is
        bit-identical to evaluating the same forward with ``M = 1``.
        """
        params, inputs, labels, chunk = self._validate_stack(params, inputs, labels)
        m, batch = params.shape[0], inputs.shape[1]
        out = np.empty((m, batch), dtype=np.float64)
        for start in range(0, m, chunk):
            stop = min(m, start + chunk)
            logits, _ = self._forward(params[start:stop], inputs[start:stop])
            out[start:stop] = per_example_cross_entropy(logits, labels[start:stop])
        return out
