"""Multi-head self-attention used by the transformer backbone.

Three bodies compute one operation.  The graph ``forward`` runs full
sequences under autograd (training, and the reference every inference path
is checked against).  ``forward_step`` is the KV-cache fast path for
autoregressive decoding: a ragged step over paged sessions that projects
only the *new* tokens and attends against their cached history — O(T) per
token instead of recomputing the whole O(T²) window (``docs/paged_kv.md``).
``forward_packed`` serves one-shot inference over many independent rows of
different lengths packed back to back (the NetLLM decision path;
``docs/decisions.md``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .layers import Dropout, Linear, Module
from .lora import LoRALinear
from .tensor import Tensor, get_default_dtype, is_grad_enabled, softmax_array


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


def packed_runs(lengths: Sequence[int]) -> List[Tuple[int, int, int]]:
    """``(token offset, rows, length)`` of every run of consecutive
    equal-length rows in a packed ``(sum(lengths), d_model)`` token array."""
    runs: List[Tuple[int, int, int]] = []
    offset = 0
    for length in lengths:
        if runs and runs[-1][2] == length:
            start, rows, _ = runs[-1]
            runs[-1] = (start, rows + 1, length)
        else:
            runs.append((offset, 1, length))
        offset += length
    return runs


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Query/key/value projections can optionally be wrapped with LoRA adapters
    (``lora_rank > 0``); this is how DD-LRNA injects trainable low-rank
    matrices into an otherwise frozen LLM.
    """

    def __init__(self, d_model: int, num_heads: int, dropout: float = 0.0,
                 lora_rank: int = 0, lora_alpha: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
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
        self.attn_dropout = Dropout(dropout)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention to ``x`` of shape ``(batch, seq, d_model)``."""
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / float(np.sqrt(self.head_dim)))
        if mask is not None:
            scores = scores + Tensor(mask, dtype=mask.dtype)
        weights = scores.softmax(axis=-1)
        weights = self.attn_dropout(weights)
        context = weights @ v
        merged = context.swapaxes(1, 2).reshape(batch, seq, self.d_model)
        return self.out_proj(merged)

    def _check_cached_preconditions(self) -> None:
        if is_grad_enabled():
            raise RuntimeError(
                "KV-cached attention is inference-only and would silently "
                "detach gradients; wrap the call in no_grad()")
        if self.training and self.attn_dropout.p > 0:
            raise RuntimeError(
                "KV-cached attention skips attention dropout and would "
                "diverge from the full forward; call eval() first")

    def forward_step(self, x: np.ndarray, layer_cache, step) -> np.ndarray:
        """Batched ragged step over independent paged sessions, on raw arrays.

        ``x`` is ``(tokens, d_model)``: the step's new tokens packed row
        after row (one per session for plain decode; the pending token plus
        drafts for speculative verification; a prompt chunk's tokens for a
        prefill row), nothing padded.
        ``layer_cache`` is this layer's
        :class:`~repro.nn.paged_cache.PagedLayerKVCache` and ``step`` the
        :class:`~repro.nn.paged_cache.PagedStepContext` saying where each
        token lands and which blocks cover each session's history.  The
        projections run once over the packed tokens and their K/V go into
        the pool as they come — one fancy-index write per layer.  Only the
        attention itself needs a rectangle, once per length group of
        ``step.groups``: the group's queries are gathered at its own widest
        row's width and attend over its gathered block tables under the
        group's mask (causal cutoff, block padding and shorter group members
        in one boolean mask; ``-inf`` scores contribute exact zeros), and
        the contexts of its real tokens land back in the packed array, so
        position ``t`` of row ``i`` sees exactly the keys the graph
        :meth:`forward` shows it under the causal mask.  A row pays for its
        neighbours only inside its group: every row there is scored at the
        group's key width and at its widest row's query width, so a
        one-token row beside a drafting row of its group pays for the
        drafts' width in scores and softmax (the dense layers still see its
        one token only).  Prompt rows never share a group with decode or
        verification rows (``prompt_from`` in the plan), so a chunk never
        widens a decoder's rectangle.  A batch of similar lengths is one
        group spanning every row: the loop body, run once.

        With ``step.keep`` (the final layer's view of a step that carries
        prompt rows, :attr:`~repro.nn.paged_cache.PagedStepContext.last`)
        keys and values are still computed and written for every token, but
        the query, and so the output, only at the kept tokens: ``(tokens,
        d_model)`` in, ``(len(step.keep), d_model)`` out.
        """
        self._check_cached_preconditions()
        by_head = (len(x), self.num_heads, self.head_dim)
        layer_cache.append_step(step.write_blocks, step.write_offsets,
                                self.k_proj.apply(x).reshape(by_head),
                                self.v_proj.apply(x).reshape(by_head))
        if step.keep is not None:
            x = x[step.keep]
        q = self.q_proj.apply(x).reshape(len(x), self.num_heads, self.head_dim)

        scale = 1.0 / float(np.sqrt(self.head_dim))
        merged = np.empty_like(q)
        for tokens, tables, mask, valid in step.groups:
            keys, values = layer_cache.gather(tables)
            scores = (np.swapaxes(q[tokens], 1, 2) @ np.swapaxes(keys, -1, -2)) * scale
            if mask is not None:
                np.copyto(scores, -np.inf, where=mask[:, None, :, :])
            context = np.swapaxes(softmax_array(scores) @ values, 1, 2)
            if valid is None:
                merged[tokens] = context
            else:
                merged[tokens[valid]] = context[valid]
        return self.out_proj.apply(merged.reshape(x.shape))

    def forward_packed(self, x: np.ndarray, runs: Sequence[Tuple[int, int, int]],
                       last_index: Optional[np.ndarray] = None) -> np.ndarray:
        """Causal self-attention over packed ragged rows, on raw arrays.

        ``x`` is ``(tokens, d_model)``: independent rows of different
        lengths laid back to back, no padding.  The projections run once
        over the packed tokens; the attention itself runs once per entry of
        ``runs`` (:func:`packed_runs`), whose rows share a length and so
        reshape into one ``(rows, heads, length, head_dim)`` batch under the
        causal mask alone — a row never sees a neighbour or a pad.  The
        arithmetic is the full :meth:`forward`'s, operation for operation.

        With ``last_index`` (each row's last token, for the final block of an
        inference that reads only that position) keys and values are still
        computed everywhere but the query, and so the output, only there:
        the result is ``(rows, d_model)`` instead of ``(tokens, d_model)``.
        """
        self._check_cached_preconditions()
        k = self.k_proj.apply(x)
        v = self.v_proj.apply(x)
        q = self.q_proj.apply(x if last_index is None else x[last_index])
        scale = 1.0 / float(np.sqrt(self.head_dim))
        merged = np.empty_like(q)
        by_head = merged.reshape(len(q), self.num_heads, self.head_dim)
        done = 0
        for offset, rows, length in runs:
            width = length if last_index is None else 1
            tokens = slice(offset, offset + rows * length)
            mine = slice(done, done + rows * width)
            done = mine.stop
            keys = self._split_heads(k[tokens], rows, length)
            values = self._split_heads(v[tokens], rows, length)
            scores = (self._split_heads(q[mine], rows, width)
                      @ np.swapaxes(keys, -1, -2)) * scale
            if width > 1:  # a lone last-position query sees every key
                scores += causal_mask(length, scores.dtype)
            by_head[mine] = np.swapaxes(softmax_array(scores) @ values, 1, 2).reshape(
                rows * width, self.num_heads, self.head_dim)
        return self.out_proj.apply(merged)

    def _split_heads(self, x, batch: int, seq: int):
        """``(batch, seq, d_model)`` (or the same tokens packed 2-d) ->
        ``(batch, heads, seq, head_dim)``; a ``Tensor`` on the graph path, a
        raw array on the step and packed paths."""
        return x.reshape(batch, seq, self.num_heads, self.head_dim).swapaxes(1, 2)
