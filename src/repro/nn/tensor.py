"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` substrate.  It implements a micrograd-style dynamic computation
graph.  An operation states only its forward value and, per operand, the
vector-Jacobian product (vjp) that maps the result's gradient to that
operand's; :func:`_node` alone records it — the ``_prev`` edges and the one
backward closure — and :meth:`Tensor.backward` walks the graph in reverse
topological order accumulating gradients.

Two global switches control the cost of the substrate:

* **Gradient mode** — inside :func:`no_grad` (or after
  ``set_grad_enabled(False)``) operations skip all graph bookkeeping: no
  backward closure is attached (the vjps an op states are never called), no
  ``_prev`` edges are recorded and results never require grad.  Pure-inference code (rollout collection, evaluation,
  autoregressive decoding) runs through exactly the same numpy kernels but
  without paying the autograd tax.  The flag is **thread-local** (PyTorch
  semantics): a background inference loop holding ``no_grad`` does not
  forbid training on other threads, and every new thread starts with grad
  recording enabled.
* **Default dtype** — :func:`set_default_dtype` selects the floating-point
  precision (``float64`` by default, ``float32`` for faster inference) used
  whenever data enters the tensor world through :func:`_as_array`.

The implementation is intentionally dependency-free (numpy only) because the
reproduction environment does not provide PyTorch.  It supports the operations
needed by the NetLLM reproduction: broadcasting arithmetic, matrix
multiplication, reductions, reshaping, indexing, concatenation, common
activations and normalization primitives.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]


# ---------------------------------------------------------------------- #
# Autograd (thread-local) / dtype (global) state
# ---------------------------------------------------------------------- #
class _GradMode(threading.local):
    """Per-thread autograd flag; the class attribute is each thread's default."""

    enabled: bool = True


_GRAD_MODE = _GradMode()
_DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)


def is_grad_enabled() -> bool:
    """Return whether operations on *this thread* record a computation graph."""
    return _GRAD_MODE.enabled


def set_grad_enabled(mode: bool) -> bool:
    """Enable/disable autograd recording on this thread; returns the previous
    mode.  Other threads are unaffected (the flag is thread-local), so a
    background inference loop cannot disable a training thread's autograd."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = bool(mode)
    return previous


class no_grad:
    """Context manager (and decorator) that disables autograd recording.

    Operations executed inside the context produce tensors with no backward
    closures and no ``_prev`` edges; calling :meth:`Tensor.backward` on such a
    result raises a :class:`RuntimeError`.  Nesting is supported and the prior
    mode is restored on exit.  Both decorator spellings work: ``@no_grad``
    and ``@no_grad()``.
    """

    def __new__(cls, fn: Optional[Callable] = None):
        if fn is not None:  # bare @no_grad usage: delegate to @no_grad()
            return super().__new__(cls)(fn)
        return super().__new__(cls)

    def __enter__(self) -> "no_grad":
        self._previous = set_grad_enabled(False)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        set_grad_enabled(self._previous)
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with (float64 by default)."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the floating-point dtype for new tensors; returns the previous one.

    Only ``float32`` and ``float64`` make sense for this substrate; lower
    precisions are rejected because numpy falls back to slow software paths.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {resolved}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    dtype = _DEFAULT_DTYPE if dtype is None else dtype
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records a computation graph for autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: str = "",
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[Optional[np.ndarray]], None] = _noop_backward
        self._prev: Tuple[Tensor, ...] = _prev
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, got shape {self.shape}"
            )
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data (and dtype) but cut from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph helpers
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    @staticmethod
    def _ensure(other: ArrayLike, dtype=None) -> "Tensor":
        """Wrap non-tensor operands; ``dtype`` lets binary ops keep scalar
        constants in the tensor's own dtype rather than the global default."""
        return other if isinstance(other, Tensor) else Tensor(other, dtype=dtype)

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError(
                "backward() called on a tensor that does not require grad; "
                "it was created with requires_grad=False or inside no_grad()"
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        self._accumulate(grad)
        for node in reversed(topo):
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        return _node(self.data + other.data,
                     (self, lambda g: _unbroadcast(g, self.shape)),
                     (other, lambda g: _unbroadcast(g, other.shape)))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        return _node(self.data * other.data,
                     (self, lambda g: _unbroadcast(g * other.data, self.shape)),
                     (other, lambda g: _unbroadcast(g * self.data, other.shape)))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (self._ensure(other, self.data.dtype) * -1.0)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return self * self._ensure(other, self.data.dtype).pow(-1.0)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self + other

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self * other

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other, self.data.dtype) - self

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other, self.data.dtype) / self

    def pow(self, exponent: float) -> "Tensor":
        return _node(
            np.power(self.data, exponent),  # repro: noqa[REP002] general-exponent autograd op; hot paths use x*x directly
            (self, lambda g: g * exponent
             * np.power(self.data, exponent - 1)))  # repro: noqa[REP002] general (possibly fractional) exponent

    def __pow__(self, exponent: float) -> "Tensor":
        return self.pow(exponent)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._ensure(other, self.data.dtype)
        return _node(
            self.data @ other.data,
            (self, lambda g: _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)),
            (other, lambda g: _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _node(out_data, (self, lambda g: g * out_data))

    def log(self) -> "Tensor":
        return _node(np.log(self.data), (self, lambda g: g / self.data))

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return _node(out_data, (self, lambda g: g * (1.0 - out_data * out_data)))

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return _node(out_data, (self, lambda g: g * out_data * (1.0 - out_data)))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _node(self.data * mask, (self, lambda g: g * mask))

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        out_data, tanh_inner = _gelu_kernel(x)

        def vjp(g: np.ndarray) -> np.ndarray:
            # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3a * x * x),
            # evaluated in that order (bit for bit) on four fresh arrays.
            sech2 = tanh_inner * tanh_inner
            np.subtract(1.0, sech2, out=sech2)
            d_inner = x * x
            d_inner *= 3 * 0.044715
            d_inner += 1.0
            d_inner *= _GELU_C
            slope = x * 0.5
            slope *= sech2
            slope *= d_inner
            grad = tanh_inner + 1.0
            grad *= 0.5
            grad += slope
            return mul_into(grad, g)

        return _node(out_data, (self, vjp))

    def abs(self) -> "Tensor":
        return _node(np.abs(self.data), (self, lambda g: g * np.sign(self.data)))

    def clip(self, low: float, high: float) -> "Tensor":
        return _node(np.clip(self.data, low, high),
                     (self, lambda g: g * ((self.data >= low) & (self.data <= high))))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def vjp(g: np.ndarray) -> np.ndarray:
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return np.broadcast_to(g, self.shape)

        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self, vjp))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def vjp(g: np.ndarray) -> np.ndarray:
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally among ties.
            mask = mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return mask * g

        return _node(out_data, (self, vjp))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _node(self.data.reshape(shape), (self, lambda g: g.reshape(self.shape)))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return _node(self.data.transpose(axes),
                     (self, lambda g: g.transpose(np.argsort(axes))))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        def vjp(g: np.ndarray) -> np.ndarray:
            grad = np.zeros_like(self.data)
            np.add.at(grad, index, g)
            return grad

        return _node(self.data[index], (self, vjp))

    def pad(self, pad_width) -> "Tensor":
        """Zero-pad; ``pad_width`` follows :func:`numpy.pad` convention."""
        def vjp(g: np.ndarray) -> np.ndarray:
            return g[tuple(slice(before, before + dim)
                           for (before, _), dim in zip(pad_width, self.shape))]

        return _node(np.pad(self.data, pad_width), (self, vjp))

    # ------------------------------------------------------------------ #
    # Softmax family (kept on Tensor for numerical stability)
    # ------------------------------------------------------------------ #
    def softmax(self, axis: int = -1) -> "Tensor":
        out_data = softmax_array(self.data, axis=axis)
        return _node(out_data, (self, lambda g: out_data * (
            g - (g * out_data).sum(axis=axis, keepdims=True))))

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum
        return _node(out_data, (self, lambda g: g - np.exp(out_data)
                                * g.sum(axis=axis, keepdims=True)))


def _node(data: np.ndarray, *edges: Tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """An op's result: ``data``, recorded in the graph when grad is on and
    some parent requires grad.

    Each edge is ``(parent, vjp)``; ``vjp(out_grad)`` returns that parent's
    gradient and runs only in backward, and only while the parent still
    requires grad.  ``_prev`` lists the parents in the op's operand order,
    repeats included, and backward accumulates their gradients in that same
    order.  Keep it so: the topological walk follows ``_prev``, and with it
    the order floating-point gradients are summed — reordering changes the
    gradients' last bits.  The result keeps numpy's computed dtype (a
    float64 model stays float64 even after the default switches to float32).

    :meth:`Tensor.backward` hands the closure its node's gradient, so the
    closure holds no reference to its own node: a graph has no cycles and
    is freed as soon as the loss is dropped, not at the next collection.
    """
    # A plain loop, not any() over a generator: this runs on every op.
    for parent, _ in edges if _GRAD_MODE.enabled else ():
        if parent.requires_grad:
            break
    else:
        return Tensor(data, dtype=data.dtype)
    out = Tensor(data, requires_grad=True, _prev=tuple([parent for parent, _ in edges]),
                 dtype=data.dtype)

    def _backward(grad: Optional[np.ndarray]) -> None:
        if grad is None:
            return
        for parent, vjp in edges:
            if parent.requires_grad:
                parent._accumulate(vjp(grad))

    out._backward = _backward
    return out


def _noop_backward(grad: Optional[np.ndarray]) -> None:
    return None


# Python float, not np.float64 scalar: keeps float32 inputs float32.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(c * (x + 0.044715 * x**3))`` in one fresh array: the graph's
    expression, each step written over the previous one (multiplication
    and addition commute bit for bit, so the operand order is free)."""
    # x*x*x, not x**3: np.power on float64 arrays is ~70x slower than two
    # multiplies, and gelu sits on every transformer MLP forward.
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    return np.tanh(inner, out=inner)


def _gelu_kernel(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(gelu(x), tanh term)``; the tanh term is what backward reuses."""
    tanh_inner = _gelu_tanh(x)
    out = x * 0.5
    out *= tanh_inner + 1.0
    return out, tanh_inner


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """:meth:`Tensor.softmax` on a raw array (numerically stable)."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def gelu_array(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """:meth:`Tensor.gelu` on a raw array — the same arithmetic in the same
    order, so the two agree bit for bit (the inference-only ``apply`` paths
    use this one).  ``out=x`` overwrites ``x``, for a caller that allocated
    it; otherwise the result is one fresh array beside the tanh term's."""
    half = _gelu_tanh(x)
    half += 1.0
    out = np.multiply(x, 0.5, out=out)
    out *= half
    return out


def add_into(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``own + other`` written into ``own``, an array the caller allocated.

    Bit for bit the sum ``own + other`` returns (addition commutes, so the
    caller picks which operand it owns) and in its dtype: when numpy would
    promote the sum past ``own``'s dtype — float64 ``other`` into float32
    ``own`` — the sum gets a fresh array instead of an in-place downcast.
    ``other`` must broadcast to ``own``'s shape."""
    if own.dtype == other.dtype or np.result_type(own, other) == own.dtype:
        own += other
        return own
    return own + other


def mul_into(own: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``own * other`` written into ``own``: :func:`add_into` for a product."""
    if own.dtype == other.dtype or np.result_type(own, other) == own.dtype:
        own *= other
        return own
    return own * other


# ---------------------------------------------------------------------- #
# Free functions operating on tensors
# ---------------------------------------------------------------------- #
def _take_along(axis: int, index) -> Callable[[np.ndarray], np.ndarray]:
    """A vjp that picks ``index`` (an int or a slice) of the gradient along ``axis``."""
    def vjp(g: np.ndarray) -> np.ndarray:
        key = [slice(None)] * g.ndim
        key[axis] = index
        return g[tuple(key)]

    return vjp


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    edges = []
    start = 0
    for t in tensors:
        end = start + t.shape[axis]
        edges.append((t, _take_along(axis, slice(start, end))))
        start = end
    return _node(np.concatenate([t.data for t in tensors], axis=axis), *edges)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._ensure(t) for t in tensors]
    return _node(np.stack([t.data for t in tensors], axis=axis),
                 *((t, _take_along(axis, i)) for i, t in enumerate(tensors)))


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select between two tensors based on a boolean mask."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    cond = np.asarray(condition, dtype=bool)
    return _node(np.where(cond, a.data, b.data),
                 (a, lambda g: _unbroadcast(g * cond, a.shape)),
                 (b, lambda g: _unbroadcast(g * (~cond), b.shape)))
