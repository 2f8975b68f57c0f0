"""Networking heads (§4.2): direct, always-valid answer generation.

Each head is a lightweight trainable linear projector from the LLM's output
features to the task's answer space, replacing the LM head entirely:

* :class:`VPHead` regresses the (roll, pitch, yaw) residuals of the future
  viewports relative to the last observed viewport — every output is a valid
  coordinate triple by construction.
* :class:`ABRHead` outputs a probability distribution over the candidate
  bitrate ladder; the answer is the arg-max index, always a real bitrate.
* :class:`CJSHead` outputs two distributions (the paper's two CJS actions):
  one over the candidate runnable stages and one over discrete executor
  parallelism buckets.

Because the answer is produced by a single forward pass of the LLM plus one
linear layer, generation latency is one inference instead of one per token.
The heads only produce logits; the arg-max, with CJS's candidate mask, is
taken in one place, :meth:`~repro.core.adapter.DecisionAdapter.act_batch`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Linear, Module, Tensor


class VPHead(Module):
    """Regression head for viewport prediction (prediction_steps x 3 outputs)."""

    def __init__(self, d_model: int, prediction_steps: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.prediction_steps = prediction_steps
        self.project = Linear(d_model, prediction_steps * 3, rng=rng)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference only)."""
        return self.project.apply(features).reshape(
            features.shape[0], self.prediction_steps, 3)

    def forward(self, features: Tensor) -> Tensor:
        """``(batch, d_model)`` -> ``(batch, prediction_steps, 3)`` residuals."""
        out = self.project(features)
        return out.reshape(features.shape[0], self.prediction_steps, 3)


class ABRHead(Module):
    """Classification head over the bitrate ladder."""

    def __init__(self, d_model: int, num_bitrates: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_bitrates = num_bitrates
        self.project = Linear(d_model, num_bitrates, rng=rng)

    def apply(self, features: np.ndarray) -> Tuple[np.ndarray]:
        """:meth:`forward` on a raw array (inference only), as the
        one-component tuple of per-component logits."""
        return (self.project.apply(features),)

    def forward(self, features: Tensor) -> Tuple[Tensor]:
        """``(..., d_model)`` -> the one-component tuple of
        ``(..., num_bitrates)`` logits."""
        return (self.project(features),)


class CJSHead(Module):
    """Two-part head for cluster job scheduling: stage choice + parallelism."""

    def __init__(self, d_model: int, max_candidates: int, num_parallelism_buckets: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.max_candidates = max_candidates
        self.num_parallelism_buckets = num_parallelism_buckets
        self.stage_project = Linear(d_model, max_candidates, rng=rng)
        self.parallelism_project = Linear(d_model, num_parallelism_buckets, rng=rng)

    def apply(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` on a raw array (inference only)."""
        return (self.stage_project.apply(features),
                self.parallelism_project.apply(features))

    def forward(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        """``(..., d_model)`` -> (stage logits, parallelism logits)."""
        return self.stage_project(features), self.parallelism_project(features)
