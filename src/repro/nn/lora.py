"""Low-rank adaptation (LoRA) layers for frozen backbones.

DD-LRNA freezes every pre-trained weight matrix ``W0`` and learns a low-rank
update ``W = W0 + A B`` where ``A`` has shape ``(d, r)`` and ``B`` has shape
``(r, k)`` with ``r << min(d, k)``.  Only ``A`` and ``B`` receive gradients.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init as weight_init
from .layers import Module, Parameter
from .tensor import Tensor, add_into, is_grad_enabled


class LoRALinear(Module):
    """Linear layer with a frozen base weight and trainable low-rank update.

    The effective transformation is ``y = x (W0 + scale * A B) + b`` where
    ``scale = alpha / rank``.  ``A`` is initialized with small random values
    and ``B`` with zeros, so at initialization the layer behaves exactly like
    the frozen base layer (standard LoRA initialization).
    """

    def __init__(self, in_features: int, out_features: int, rank: int = 8,
                 alpha: float = 1.0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.rank = rank
        self.alpha = alpha
        self.scale = alpha / rank

        self.weight = Parameter(weight_init.xavier_uniform((in_features, out_features), rng),
                                name="weight")
        self.weight.requires_grad = False  # frozen base weight
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="bias")
            self.bias.requires_grad = False

        self.lora_a = Parameter(weight_init.normal((in_features, rank), rng, std=0.02),
                                name="lora_a")
        self.lora_b = Parameter(np.zeros((rank, out_features)), name="lora_b")
        self._lora_enabled = True

    # ------------------------------------------------------------------ #
    def enable_lora(self, enabled: bool = True) -> None:
        """Toggle the low-rank update (used by the 'no domain knowledge' ablation)."""
        self._lora_enabled = enabled

    def lora_parameters(self) -> list[Parameter]:
        return [self.lora_a, self.lora_b]

    def num_lora_parameters(self) -> int:
        return int(self.lora_a.size + self.lora_b.size)

    def merged_weight(self) -> np.ndarray:
        """Return the dense ``W0 + scale * A B`` matrix (for inspection/tests)."""
        update = self.lora_a.data @ self.lora_b.data * self.scale
        return self.weight.data + (update if self._lora_enabled else 0.0)

    # ------------------------------------------------------------------ #
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array: the graph path's numpy
        operations in the same order (bit-identical), with no ``Tensor``,
        written only into arrays it allocated — never into its argument, a
        parameter, or a view of either."""
        out = x @ self.weight.data
        if self._lora_enabled:
            update = (x @ self.lora_a.data) @ self.lora_b.data
            update *= self.scale
            out = add_into(out, update)
        if self.use_bias:
            out = add_into(out, self.bias.data)
        return out

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            out = self.apply(x.data)
            return Tensor(out, dtype=out.dtype)
        out = x @ self.weight
        if self._lora_enabled:
            out = out + (x @ self.lora_a @ self.lora_b) * self.scale
        if self.use_bias:
            out = out + self.bias
        return out


def mark_only_lora_trainable(module: Module) -> None:
    """Freeze every parameter except LoRA ``A``/``B`` matrices in ``module``."""
    for name, param in module.named_parameters():
        param.requires_grad = name.endswith("lora_a") or name.endswith("lora_b")


def iter_lora_layers(module: Module):
    """Yield every :class:`LoRALinear` in ``module`` (depth-first)."""
    for _, sub in module.named_modules():
        if isinstance(sub, LoRALinear):
            yield sub
