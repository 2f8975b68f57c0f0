"""Multi-head self-attention used by the transformer backbone.

Two bodies compute one operation.  The graph ``forward`` runs full
sequences under autograd (training, and the reference every inference path
is checked against).  ``forward_step`` runs every inference forward: a
ragged step that projects only the *new* tokens and attends against each
row's history in the paged pool — O(T) per token instead of recomputing the
whole O(T²) window (``docs/paged_kv.md``) — or, for rows that start empty,
against the step's own keys; the decision path is that step with no pool
(``docs/decisions.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .layers import Linear, Module
from .lora import LoRALinear
from .tensor import Tensor, get_default_dtype, is_grad_enabled


@lru_cache(maxsize=16)
def _causal_mask_base(size: int, dtype: np.dtype) -> np.ndarray:
    mask = np.zeros((size, size), dtype=dtype)
    mask[np.triu_indices(size, k=1)] = -1e9
    mask.setflags(write=False)  # shared across calls; must stay immutable
    return mask


@lru_cache(maxsize=8)
def _position_range_base(size: int) -> np.ndarray:
    base = np.arange(size, dtype=np.int64)
    base.setflags(write=False)  # shared across calls; must stay immutable
    return base


def _position_range(length: int) -> np.ndarray:
    """Read-only ``arange(length)`` served from a cached power-of-two base."""
    size = max(64, 1 << max(0, length - 1).bit_length())
    return _position_range_base(size)[:length]


def causal_mask(length: int, dtype=None) -> np.ndarray:
    """Return an additive causal mask of shape ``(length, length)``.

    Entries above the diagonal are a large negative value so that softmax
    assigns (numerically) zero attention to future positions.  Returns a
    read-only view into a cached power-of-two base mask, so cycling window
    lengths (as full-window decoding does) never thrashes the cache.  Pass
    the activations' dtype so a float32 model keeps float32 masks even when
    the global default is float64.
    """
    dtype = get_default_dtype() if dtype is None else np.dtype(dtype)
    size = max(64, 1 << max(0, length - 1).bit_length())
    # Keyed by the dtype object: ``dtype.name`` is resolved in Python on every
    # access, which cost more than the rest of this call.
    return _causal_mask_base(size, dtype)[:length, :length]


@dataclass(frozen=True)
class TokenRun:
    """A length group's tokens when its rows are consecutive and equally
    long: ``rows`` rows of ``width`` packed tokens from token ``start``."""

    start: int
    rows: int
    width: int

    @property
    def size(self) -> int:
        return self.rows * self.width


def by_row(packed: np.ndarray, tokens) -> np.ndarray:
    """``packed`` at a group's tokens, ``(rows, width, ...)``: a reshape of
    one basic slice (a view) for a :class:`TokenRun`, else a fancy index."""
    if type(tokens) is not TokenRun:
        return packed[tokens]
    return packed[tokens.start:tokens.start + tokens.size].reshape(
        tokens.rows, tokens.width, *packed.shape[1:])


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Query/key/value projections can optionally be wrapped with LoRA adapters
    (``lora_rank > 0``); this is how DD-LRNA injects trainable low-rank
    matrices into an otherwise frozen LLM.
    """

    def __init__(self, d_model: int, num_heads: int, lora_rank: int = 0,
                 lora_alpha: float = 1.0, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads

        def make_proj() -> Module:
            if lora_rank > 0:
                return LoRALinear(d_model, d_model, rank=lora_rank, alpha=lora_alpha, rng=rng)
            return Linear(d_model, d_model, rng=rng)

        self.q_proj = make_proj()
        self.k_proj = make_proj()
        self.v_proj = make_proj()
        self.out_proj = make_proj()

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention to ``x`` of shape ``(batch, seq, d_model)``."""
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / float(np.sqrt(self.head_dim)))
        if mask is not None:
            scores = scores + Tensor(mask, dtype=mask.dtype)
        context = scores.softmax(axis=-1) @ v
        merged = context.swapaxes(1, 2).reshape(batch, seq, self.d_model)
        return self.out_proj(merged)

    def _check_cached_preconditions(self) -> None:
        if is_grad_enabled():
            raise RuntimeError(
                "KV-cached attention is inference-only and would silently "
                "detach gradients; wrap the call in no_grad()")

    def forward_step(self, x: np.ndarray, layer_cache, step) -> np.ndarray:
        """Batched ragged step over independent rows, on raw arrays.

        ``x`` is ``(tokens, d_model)``: the step's new tokens packed row
        after row (one per session for plain decode; the pending token plus
        drafts for speculative verification; a prompt chunk's tokens for a
        prefill row; a whole window for a decision row), nothing padded.
        ``step`` is the :class:`~repro.nn.paged_cache.PagedStepContext`
        saying where each token lands and which keys each row sees;
        ``layer_cache`` is this layer's
        :class:`~repro.nn.paged_cache.PagedLayerKVCache`, or None for a step
        with no pool (:func:`~repro.nn.paged_cache.plan_fresh_rows`).  The
        projections run once over the packed tokens and, with a pool, their
        K/V go into it as they come — one fancy-index write per layer.  Only
        the attention itself needs a rectangle, once per length group of
        ``step.groups``: the group's queries are read at its own widest
        row's width and attend over its keys — gathered through its block
        tables, or for a *fresh* group (every row stood empty) the step's
        own ``k`` / ``v`` at its tokens — under the group's mask (causal
        cutoff, block padding and shorter group members in one boolean mask;
        ``-inf`` scores contribute exact zeros), and the contexts of its real
        tokens land back in the packed array, so position ``t`` of row ``i``
        sees exactly the keys the graph :meth:`forward` shows it under the
        causal mask.  A row pays for its neighbours only inside its group:
        every row there is scored at the group's key width and at its widest
        row's query width (the dense layers still see its own tokens only).
        Prompt rows never share a group with decode or verification rows
        (``prompt_from`` in the plan), so a chunk never widens a decoder's
        rectangle.

        With ``step.keep`` (the final layer's view of a step that carries
        prompt rows, :attr:`~repro.nn.paged_cache.PagedStepContext.last`)
        keys and values are still computed and written for every token, but
        the query, and so the output, only at the kept tokens: ``(tokens,
        d_model)`` in, ``(len(step.keep), d_model)`` out.
        """
        self._check_cached_preconditions()
        by_head = (len(x), self.num_heads, self.head_dim)
        k = self.k_proj.apply(x).reshape(by_head)
        v = self.v_proj.apply(x).reshape(by_head)
        if layer_cache is not None:
            layer_cache.append_step(step.write_blocks, step.write_offsets, k, v)
        if step.keep is not None:
            x = x[step.keep]
        q = self.q_proj.apply(x).reshape(len(x), self.num_heads, self.head_dim)
        # The score scale, folded into the queries once per layer instead of
        # once per group: exact when it is a power of two (head_dim 4, 16,
        # 64, ...), within the parity bound otherwise.
        q *= 1.0 / float(np.sqrt(self.head_dim))

        merged = np.empty_like(q)
        for tokens, tables, mask, valid, fresh in step.groups:
            if fresh is None:
                keys, values = layer_cache.gather(tables)
            else:
                keys = by_row(k, fresh).transpose(0, 2, 1, 3)
                values = by_row(v, fresh).transpose(0, 2, 1, 3)
            scores = (by_row(q, tokens).transpose(0, 2, 1, 3)
                      @ keys.transpose(0, 1, 3, 2))
            if mask is not None:
                np.copyto(scores, -np.inf, where=mask[:, None, :, :])
            # softmax_array's arithmetic, in place on the group's own scores.
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            context = (scores @ values).transpose(0, 2, 1, 3)
            if valid is not None:
                merged[tokens[valid]] = context[valid]
            elif type(tokens) is TokenRun:
                by_row(merged, tokens)[...] = context
            else:
                merged[tokens] = context
        return self.out_proj.apply(merged.reshape(x.shape))

    def _split_heads(self, x, batch: int, seq: int):
        """``(batch, seq, d_model)`` -> ``(batch, heads, seq, head_dim)``."""
        return x.reshape(batch, seq, self.num_heads, self.head_dim).swapaxes(1, 2)
