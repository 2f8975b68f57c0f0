"""Transformer building blocks (pre-norm decoder blocks, GPT-style)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .attention import MultiHeadAttention, _position_range, causal_mask
from .paged_cache import (
    DEFAULT_BLOCK_SIZE,
    PagedKVCache,
    PagedLayerKVCache,
    PagedStepContext,
    plan_fresh_rows,
)
from .layers import Dropout, GELU, LayerNorm, Linear, Module, ModuleList
from .lora import LoRALinear
from .tensor import Tensor, gelu_array, is_grad_enabled


class FeedForward(Module):
    """Position-wise feed-forward network with optional LoRA adapters."""

    def __init__(self, d_model: int, d_hidden: int, dropout: float = 0.0,
                 lora_rank: int = 0, lora_alpha: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)

        def make(in_f: int, out_f: int) -> Module:
            if lora_rank > 0:
                return LoRALinear(in_f, out_f, rank=lora_rank, alpha=lora_alpha, rng=rng)
            return Linear(in_f, out_f, rng=rng)

        self.fc1 = make(d_model, d_hidden)
        self.fc2 = make(d_hidden, d_model)
        self.activation = GELU()
        self.dropout = Dropout(dropout)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on a raw array (bit-identical to the graph
        path with dropout inactive, which is the only case it accepts)."""
        if self.training and self.dropout.p > 0:
            raise RuntimeError(
                "FeedForward.apply skips dropout and would diverge from the "
                "full forward; call eval() first")
        return self.fc2.apply(gelu_array(self.fc1.apply(x)))

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled() and not (self.training and self.dropout.p > 0):
            out = self.apply(x.data)
            return Tensor(out, dtype=out.dtype)
        return self.dropout(self.fc2(self.activation(self.fc1(x))))


class TransformerBlock(Module):
    """Pre-norm transformer decoder block: LN -> attention -> LN -> MLP."""

    def __init__(self, d_model: int, num_heads: int, d_hidden: Optional[int] = None,
                 dropout: float = 0.0, lora_rank: int = 0, lora_alpha: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        d_hidden = d_hidden or 4 * d_model
        self.norm1 = LayerNorm(d_model)
        self.attention = MultiHeadAttention(d_model, num_heads, dropout=dropout,
                                            lora_rank=lora_rank, lora_alpha=lora_alpha, rng=rng)
        self.norm2 = LayerNorm(d_model)
        self.mlp = FeedForward(d_model, d_hidden, dropout=dropout,
                               lora_rank=lora_rank, lora_alpha=lora_alpha, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = x + self.attention(self.norm1(x), mask=mask)
        x = x + self.mlp(self.norm2(x))
        return x

    def forward_step(self, x: np.ndarray, layer_cache: Optional[PagedLayerKVCache],
                     step: PagedStepContext) -> np.ndarray:
        """Batched ragged step on raw ``(tokens, d_model)`` arrays, with or
        without a pool (see ``MultiHeadAttention.forward_step``).  With
        ``step.keep`` the residual stream, and so the MLP, continues at the
        kept tokens only."""
        attended = self.attention.forward_step(self.norm1.apply(x), layer_cache, step)
        x = (x if step.keep is None else x[step.keep]) + attended
        return x + self.mlp.apply(self.norm2.apply(x))


class TransformerBackbone(Module):
    """Stack of transformer blocks with learned positional embeddings.

    This is the shared "body" of the LLM substitute: it consumes a sequence of
    *embeddings* (either token embeddings or the token-like embeddings emitted
    by the NetLLM multimodal encoder) and produces contextualized output
    features of the same dimension.

    Autoregressive decoding should use :meth:`init_paged_cache` plus
    :meth:`forward_step`: each step then consumes only the new token
    embeddings and attends against the cached keys/values, turning O(T·L²)
    full-window decoding into O(T·L).
    """

    def __init__(self, d_model: int, num_layers: int, num_heads: int,
                 max_seq_len: int = 256, d_hidden: Optional[int] = None,
                 dropout: float = 0.0, lora_rank: int = 0, lora_alpha: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.max_seq_len = max_seq_len
        from .layers import Parameter
        from . import init as weight_init

        self.position_embedding = Parameter(
            weight_init.normal((max_seq_len, d_model), rng), name="position_embedding")
        self.blocks = ModuleList([
            TransformerBlock(d_model, num_heads, d_hidden=d_hidden, dropout=dropout,
                             lora_rank=lora_rank, lora_alpha=lora_alpha, rng=rng)
            for _ in range(num_layers)
        ])
        self.final_norm = LayerNorm(d_model)

    def init_paged_cache(self, max_blocks: int,
                         block_size: int = DEFAULT_BLOCK_SIZE) -> PagedKVCache:
        """Return an empty paged multi-session KV cache for this backbone."""
        attention = self.blocks[0].attention
        return PagedKVCache(len(self.blocks), max_blocks, block_size=block_size,
                            num_heads=attention.num_heads,
                            head_dim=attention.head_dim,
                            dtype=self.position_embedding.data.dtype)

    def forward_step(self, embeddings: Tensor, cache: PagedKVCache,
                     session_ids: np.ndarray,
                     counts: Optional[np.ndarray] = None,
                     prompt_from: Optional[int] = None) -> Tensor:
        """Advance ``len(session_ids)`` independent paged sessions in one forward.

        One ragged step over the paged cache: ``embeddings`` is
        ``(sum(counts), d_model)``, the step's new tokens packed row after
        row — session ``session_ids[i]`` owns ``counts[i]`` consecutive ones
        — so every layer runs on the tokens that exist and nothing is
        padded.  Each session keeps its own position (the length of its
        cached history), so sessions admitted at different times — with
        different prompt lengths — advance together with per-token
        positional embeddings.  The cache is updated in place (allocating or
        copy-on-writing tail blocks as needed) and per-session lengths
        advance by ``counts[i]``.  The features come back as one packed
        sequence, ``(1, rows out, d_model)``: the unit axis keeps the
        logits three-axis for callers that multiply the first two into a
        row count (ROADMAP 2(c) drops it).

        Plain decode is the all-ones step and is spelled ``counts=None``
        (``embeddings`` then ``(n, d_model)``); a speculative verification
        row feeds its pending sampled token plus its drafts, and the caller
        rolls rejected tokens back via :meth:`PagedKVCache.truncate_session`;
        a prefill row feeds the next ``counts[i]`` tokens of its prompt, from
        length 0 if it was just opened.  All run the same plan, the same
        forward and the same commit.  ``prompt_from`` is the index of the
        first prompt row (0 when every row is one): attention never groups
        prompt rows with the rows before them, and since only a prompt row's
        last token is ever sampled from, the final block runs on the step's
        final-layer view (:attr:`PagedStepContext.last`) — every layer
        still writes every token's K/V, but the final one queries, and
        returns features for, every token of the rows before
        ``prompt_from`` and then one per prompt row, its last.  Rows out is
        therefore ``sum(counts[:prompt_from]) + len(counts) - prompt_from``,
        and ``sum(counts)`` with ``prompt_from=None``.  A step that would
        take a session past ``max_seq_len`` is refused before the pool is
        touched, and so is a cache built for another depth.
        """
        session_ids = np.asarray(session_ids, dtype=np.int64)
        tokens, d_model = embeddings.shape
        if d_model != self.d_model:
            raise ValueError(f"expected embedding dim {self.d_model}, got {d_model}")
        if cache.num_layers != len(self.blocks):
            raise ValueError(
                f"cache has {cache.num_layers} layers but backbone has "
                f"{len(self.blocks)}; build it with init_paged_cache()")
        if len(session_ids) != len(set(session_ids.tolist())):
            raise ValueError("duplicate sessions in one batched step")
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
        expected = len(session_ids) if counts is None else int(counts.sum())
        if tokens != expected:
            raise ValueError(f"{tokens} packed tokens for a step that feeds "
                             f"{expected} (one token per session unless "
                             f"counts says otherwise)")
        # One plan and one commit under two names each, kept apart only so the
        # benchmark's trace still tells a decode step from a verify step.  The
        # plan refuses a row past ``max_seq_len`` before it grows any table.
        step = (cache.prepare_step(session_ids, self.max_seq_len) if counts is None
                else cache.prepare_multi_step(session_ids, counts, self.max_seq_len,
                                              prompt_from))
        features = self._layers(embeddings.data, step, cache.layers)[None]
        if counts is None:
            cache.commit_step(session_ids)
        else:
            cache.commit_multi_step(session_ids, counts)
        return Tensor(features, dtype=features.dtype)  # repro: noqa[REP007] the step's one output wrap

    def last_position_features(self, tokens: np.ndarray,
                               lengths: Sequence[int]) -> np.ndarray:
        """Output features at the last position of each of many ragged rows.

        The one-inference-per-answer entry (inference only, raw arrays in
        and out): ``tokens`` is ``(sum(lengths), d_model)``, independent
        rows of embeddings laid back to back, row *i* owning ``lengths[i]``
        tokens at positions ``0..lengths[i]-1``.  It is the step of
        :meth:`forward_step` with no pool, every row a prompt row that starts
        empty (:func:`~repro.nn.paged_cache.plan_fresh_rows`): nothing is
        padded or written, attention runs once per run of equal-length rows,
        and the final block only at each row's last position, so the
        ``(rows, d_model)`` result is what :meth:`forward` (causal) returns
        at ``[:, -1]`` for each row alone, at a fraction of its cost.
        """
        lengths = [int(length) for length in lengths]
        if tokens.ndim != 2 or tokens.shape[1] != self.d_model:
            raise ValueError(f"expected packed (tokens, {self.d_model}) "
                             f"embeddings, got shape {tokens.shape}")
        if not lengths or min(lengths) < 1 or sum(lengths) != len(tokens):
            raise ValueError(f"{len(tokens)} packed tokens for rows of "
                             f"lengths {lengths}")
        if max(lengths) > self.max_seq_len:
            raise ValueError(f"sequence length {max(lengths)} exceeds "
                             f"maximum {self.max_seq_len}")
        return self._layers(tokens, plan_fresh_rows(lengths), [None] * len(self.blocks))

    def _layers(self, x: np.ndarray, step: PagedStepContext,
                layer_caches: Sequence[Optional[PagedLayerKVCache]]) -> np.ndarray:
        """The one raw-array layer loop (inference only: the attention layers
        refuse to run with grad enabled); the final block runs on
        ``step.last`` when the step has one."""
        x = x + self.position_embedding.data[step.positions]
        *body, (final, final_cache) = zip(self.blocks, layer_caches)
        for block, layer_cache in body:
            x = block.forward_step(x, layer_cache, step)
        x = final.forward_step(x, final_cache, step if step.last is None else step.last)
        return self.final_norm.apply(x)

    def forward(self, embeddings: Tensor, causal: bool = True) -> Tensor:
        """Run the backbone over ``(batch, seq, d_model)`` embeddings."""
        batch, seq, d_model = embeddings.shape
        if d_model != self.d_model:
            raise ValueError(f"expected embedding dim {self.d_model}, got {d_model}")
        if seq > self.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds maximum {self.max_seq_len}")
        x = embeddings + self.position_embedding[_position_range(seq)]
        mask = causal_mask(seq, x.dtype) if causal else None
        for block in self.blocks:
            x = block(x, mask=mask)
        return self.final_norm(x)
