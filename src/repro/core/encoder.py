"""Multimodal encoder (§4.1): project task inputs into token-like embeddings.

The encoder has two stages, mirroring Figure 6 of the paper:

1. **Feature encoders**, one per modality, reuse well-established designs
   rather than bespoke architectures: a ViT-style patch encoder for images
   (frozen, standing in for pre-trained ViT weights), a 1-D CNN for
   time-series and sequence data, fully connected layers for scalar/vector
   data, a GNN for graphs, and embeddings for discrete values such as past
   actions.
2. **Linear projection + layer normalization** maps every extracted feature
   into the LLM's token space (dimension ``d_model``), producing token-like
   embeddings the frozen LLM can consume directly.

Everything here is trainable (except the image patch encoder, matching the
paper's frozen ViT) and is updated together with the networking head and the
LoRA matrices during DD-LRNA fine-tuning.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn import (
    Embedding,
    GraphEncoder,
    LayerNorm,
    Linear,
    Module,
    PatchImageEncoder,
    Tensor,
    TemporalConvEncoder,
    concatenate,
    stack,
)


class TokenProjector(Module):
    """Linear projection of modality features into token space + layer norm."""

    def __init__(self, feature_dim: int, d_model: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.project = Linear(feature_dim, d_model, rng=rng)
        self.norm = LayerNorm(d_model)

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array (what the adapters'
        ``act_batch`` / ``predict_batch`` run; ``forward`` is the graph path
        DD-LRNA trains through)."""
        return self.norm.apply(self.project.apply(features))

    def forward(self, features: Tensor) -> Tensor:
        return self.norm(self.project(features))


class TimeSeriesEncoder(Module):
    """1D-CNN feature encoder + token projection for time-series/sequence data.

    Two usage modes mirror how the paper feeds time-series data to the LLM:
    :meth:`forward` pools the series into a single token-like embedding,
    while :meth:`forward_sequence` keeps one token per timestep so the LLM's
    attention can exploit the temporal structure (used by the VP adapter).
    """

    def __init__(self, in_channels: int, d_model: int, feature_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = TemporalConvEncoder(in_channels, feature_dim, rng=rng)
        self.projector = TokenProjector(feature_dim, d_model, rng=rng)

    def forward(self, series: Tensor) -> Tensor:
        """``(batch, length, channels)`` -> one token ``(batch, d_model)``."""
        return self.projector(self.encoder(series))

    def apply_sequence(self, series: np.ndarray) -> np.ndarray:
        """:meth:`forward_sequence` on a raw array (inference only)."""
        return self.projector.apply(self.encoder.apply_sequence(series))

    def forward_sequence(self, series: Tensor) -> Tensor:
        """``(batch, length, channels)`` -> per-step tokens ``(batch, length, d_model)``."""
        features = self.encoder.convs(series)
        per_step = self.encoder.project(features)
        return self.projector(per_step)


class ImageEncoder(Module):
    """ViT-style image feature encoder (frozen) + trainable token projection."""

    def __init__(self, d_model: int, image_size: int = 32, feature_dim: int = 32,
                 freeze_backbone: bool = True, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = PatchImageEncoder(image_size=image_size, feature_dim=feature_dim, rng=rng)
        if freeze_backbone:
            self.encoder.freeze()
        self.projector = TokenProjector(feature_dim, d_model, rng=rng)

    def apply(self, images: np.ndarray) -> np.ndarray:
        """:meth:`forward` as a raw array (inference only)."""
        return self.projector.apply(self.encoder.apply(images))

    def forward(self, images: np.ndarray) -> Tensor:
        """``(batch, H, W)`` images -> one token ``(batch, d_model)``."""
        return self.projector(self.encoder(images))


class ScalarEncoder(Module):
    """Fully connected feature encoder for scalar/vector data + projection."""

    def __init__(self, in_features: int, d_model: int, feature_dim: int = 32,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = Linear(in_features, feature_dim, rng=rng)
        self.projector = TokenProjector(feature_dim, d_model, rng=rng)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a raw array (inference only)."""
        hidden = self.encoder.apply(values)
        return self.projector.apply(hidden * (hidden > 0))

    def forward(self, values: Tensor) -> Tensor:
        """``(batch, in_features)`` -> one token ``(batch, d_model)``."""
        return self.projector(self.encoder(values).relu())


class GraphModalityEncoder(Module):
    """GNN feature encoder for DAG inputs + token projection."""

    def __init__(self, node_features: int, d_model: int, feature_dim: int = 16,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder = GraphEncoder(node_features, hidden_features=16,
                                    out_features=feature_dim, rng=rng)
        self.projector = TokenProjector(feature_dim, d_model, rng=rng)

    def forward(self, node_features_list: Sequence[np.ndarray],
                adjacency_list: Sequence[np.ndarray]) -> Tensor:
        """A batch of graphs -> one token per graph ``(batch, d_model)``."""
        embeddings = [
            self.encoder.encode_graph(Tensor(features), adjacency)
            for features, adjacency in zip(node_features_list, adjacency_list)
        ]
        return self.projector(stack(embeddings, axis=0))


class DiscreteEncoder(Module):
    """Embedding-based encoder for discrete inputs (e.g., past actions)."""

    def __init__(self, num_values: int, d_model: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(num_values, d_model, rng=rng)
        self.norm = LayerNorm(d_model)

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.norm(self.embedding(indices))


def tokens_to_sequence(tokens: Sequence[Tensor]) -> Tensor:
    """Stack per-modality tokens ``(batch, d_model)`` into ``(batch, seq, d_model)``."""
    if not tokens:
        raise ValueError("at least one token is required")
    return stack(list(tokens), axis=1)
