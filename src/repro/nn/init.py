"""Weight initialization schemes for :mod:`repro.nn` layers.

All initializers return arrays in the substrate's current default dtype (see
:func:`repro.nn.set_default_dtype`), so models built under a ``float32``
default carry float32 parameters end to end.
"""

from __future__ import annotations

import numpy as np

from .tensor import get_default_dtype


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialization for (fan_in, fan_out) weights."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He uniform initialization suited to ReLU networks."""
    fan_in, _ = _fans(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype(), copy=False)


def normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Small-std normal initialization used by GPT-style transformers."""
    return rng.normal(0.0, std, size=shape).astype(get_default_dtype(), copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=get_default_dtype())


def _fans(shape) -> tuple[int, int]:
    shape = tuple(shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
