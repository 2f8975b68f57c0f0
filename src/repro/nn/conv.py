"""1-D convolution layers used by the multimodal feature encoders.

NetLLM encodes time-series and sequence data (historical throughputs, chunk
sizes, viewport traces) with 1D-CNN feature encoders.  The convolution here is
implemented via explicit window unfolding (an im2col-style reshape) so the
heavy lifting stays inside a single batched matrix multiplication on the
autodiff graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init as weight_init
from .layers import Linear, Module, Parameter, ReLU, Sequential
from .tensor import Tensor, add_into, concatenate, gelu_array, get_default_dtype, stack


class Conv1D(Module):
    """1-D convolution over inputs of shape ``(batch, length, channels)``.

    The layout follows the time-series convention used across the repo
    (time on axis 1, channels last).  Output length is
    ``(length + 2 * padding - kernel_size) // stride + 1``.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution hyper-parameters")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            weight_init.kaiming_uniform((kernel_size * in_channels, out_channels), rng),
            name="weight",
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_channels), name="bias")

    def output_length(self, length: int) -> int:
        return (length + 2 * self.padding - self.kernel_size) // self.stride + 1

    def _out_length(self, shape) -> int:
        """Validate a ``(batch, length, channels)`` input shape; return the
        output length."""
        if len(shape) != 3:
            raise ValueError(f"Conv1D expects (batch, length, channels), got shape {shape}")
        if shape[2] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {shape[2]}")
        out_length = self.output_length(shape[1])
        if out_length < 1:
            raise ValueError("input too short for the given kernel size")
        return out_length

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array: the graph path's numpy
        operations in the same order, with no ``Tensor``, written only into
        arrays it allocated.  The zero padding is a slice assignment into a
        zeroed array: ``np.pad``'s values, at a tenth of its cost."""
        out_length = self._out_length(x.shape)
        if self.padding:
            batch, length, channels = x.shape
            padded = np.zeros((batch, length + 2 * self.padding, channels), dtype=x.dtype)
            padded[:, self.padding:self.padding + length] = x
            x = padded
        span = self.stride * (out_length - 1) + 1
        unfolded = np.concatenate(
            [x[:, offset:offset + span:self.stride, :]
             for offset in range(self.kernel_size)], axis=2)
        out = unfolded @ self.weight.data
        if self.use_bias:
            out = add_into(out, self.bias.data)
        return out

    def forward(self, x: Tensor) -> Tensor:
        out_length = self._out_length(x.shape)
        if self.padding:
            x = x.pad(((0, 0), (self.padding, self.padding), (0, 0)))
        # Unfold windows: gather kernel_size shifted slices and concatenate on
        # the channel axis, yielding (batch, out_length, kernel_size * channels).
        windows = []
        for offset in range(self.kernel_size):
            end = offset + self.stride * (out_length - 1) + 1
            windows.append(x[:, offset:end:self.stride, :])
        unfolded = concatenate(windows, axis=2)
        out = unfolded @ self.weight
        if self.use_bias:
            out = out + self.bias
        return out


class TemporalConvEncoder(Module):
    """Small stack of 1-D convolutions followed by global average pooling.

    This is the "1D-CNN" feature encoder from the NetLLM multimodal encoder:
    it maps a ``(batch, length, channels)`` time series (or sequence) to a
    fixed-size feature vector of dimension ``feature_dim``.
    """

    def __init__(self, in_channels: int, feature_dim: int, hidden_channels: int = 32,
                 kernel_size: int = 3, num_layers: int = 2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        layers = []
        channels = in_channels
        for _ in range(num_layers):
            layers.append(Conv1D(channels, hidden_channels, kernel_size, padding=kernel_size // 2,
                                 rng=rng))
            layers.append(ReLU())
            channels = hidden_channels
        self.convs = Sequential(*layers)
        self.project = Linear(hidden_channels, feature_dim, rng=rng)
        self.feature_dim = feature_dim

    def apply_sequence(self, x: np.ndarray) -> np.ndarray:
        """Inference-only per-step features on a raw array:
        ``(batch, length, channels)`` -> ``(batch, length, feature_dim)``,
        the convolutions and the projection without the pooling."""
        for layer in self.convs:
            x = layer.apply(x)
        return self.project.apply(x)

    def forward(self, x: Tensor) -> Tensor:
        """Encode ``(batch, length, channels)`` into ``(batch, feature_dim)``."""
        features = self.convs(x)
        pooled = features.mean(axis=1)
        return self.project(pooled)


class PatchImageEncoder(Module):
    """ViT-style image feature encoder (patch embedding + mean pooling).

    The paper reuses a pre-trained Vision Transformer to encode video frames
    and saliency maps.  Here we keep the same interface — image in, flat
    feature vector out — with a patch-embedding encoder sized for synthetic
    saliency maps.  The encoder is typically frozen, matching the paper's
    treatment of ViT weights.
    """

    def __init__(self, image_size: int = 32, patch_size: int = 8, feature_dim: int = 64,
                 channels: int = 1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if image_size % patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        rng = rng or np.random.default_rng(0)
        self.image_size = image_size
        self.patch_size = patch_size
        self.channels = channels
        self.num_patches = (image_size // patch_size) ** 2  # repro: noqa[REP002] scalar Python int at init, not an array hot path
        patch_dim = channels * patch_size * patch_size
        self.patch_embed = Linear(patch_dim, feature_dim, rng=rng)
        self.mixer = Linear(feature_dim, feature_dim, rng=rng)
        self.feature_dim = feature_dim

    def _to_patches(self, images: np.ndarray) -> np.ndarray:
        """Reshape ``(batch, H, W[, C])`` images into flattened patches."""
        images = np.asarray(images, dtype=get_default_dtype())
        if images.ndim == 3:
            images = images[..., None]
        batch, height, width, channels = images.shape
        if height != self.image_size or width != self.image_size or channels != self.channels:
            raise ValueError(
                f"expected images of shape (*, {self.image_size}, {self.image_size}, "
                f"{self.channels}), got {images.shape}"
            )
        p = self.patch_size
        grid = self.image_size // p
        patches = images.reshape(batch, grid, p, grid, p, channels)
        patches = patches.transpose(0, 1, 3, 2, 4, 5).reshape(batch, grid * grid, p * p * channels)
        return patches

    def apply(self, images: np.ndarray) -> np.ndarray:
        """Inference-only forward: ``(batch, feature_dim)`` features as a raw
        array, the graph path's numpy operations in the same order."""
        embedded = self.patch_embed.apply(self._to_patches(images))
        gelu_array(embedded, out=embedded)
        pooled = embedded.sum(axis=1) * (1.0 / embedded.shape[1])
        return self.mixer.apply(pooled)

    def forward(self, images: np.ndarray) -> Tensor:
        """Encode a batch of images into ``(batch, feature_dim)`` features."""
        patches = Tensor(self._to_patches(images))
        embedded = self.patch_embed(patches).gelu()
        pooled = embedded.mean(axis=1)
        return self.mixer(pooled)
