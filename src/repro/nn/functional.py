"""Functional helpers built on top of :class:`repro.nn.tensor.Tensor`.

Losses, activations and utilities that do not carry parameters live here so
that layers in :mod:`repro.nn.layers` stay thin.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor


def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    return x.gelu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot encoding of integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between prediction and target."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error between prediction and target."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss, robust to outliers in regression targets."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    mask = abs_diff.data <= delta
    from .tensor import where

    return where(mask, quadratic, linear).mean()


def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Cross-entropy loss between raw ``logits`` and integer class ``targets``.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` has the
    matching leading shape with integer class ids.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    target_flat = targets.reshape(-1)
    picked = flat[np.arange(flat.shape[0]), target_flat]
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales surviving activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Clip gradients in-place to a maximum global L2 norm.

    Returns the pre-clipping norm, mirroring the PyTorch utility.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / (total + 1e-12)
        for p in parameters:
            if p.grad is not None:
                p.grad = p.grad * scale
    return total


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function ``fn``.

    Used by the test suite to validate autograd correctness.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x.copy())
        flat[i] = original - eps
        minus = fn(x.copy())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad
