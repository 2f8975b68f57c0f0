"""Decoder-only transformer language model — the LLM substitute.

The model exposes two entry points that mirror how NetLLM uses a real LLM:

* :meth:`LanguageModel.forward_tokens` — the classic NLP path: token ids go
  through the vocabulary embedding, the transformer backbone, and the language
  modeling (LM) head that predicts next-token logits.  The prompt-learning and
  token-prediction baselines use this path.
* :meth:`LanguageModel.forward_embeddings` — the NetLLM path: pre-computed
  token-like embeddings (from the multimodal encoder) are fed straight into
  the backbone and the contextualized output features are returned *without*
  the LM head, ready for a networking head.

LoRA adapters can be enabled per instance; when enabled, the backbone's linear
projections become :class:`~repro.nn.lora.LoRALinear` layers whose base
weights stay frozen while rank-``r`` updates are trained (DD-LRNA).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import (
    DEFAULT_BLOCK_SIZE,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    PagedKVCache,
    Tensor,
    TransformerBackbone,
    iter_lora_layers,
)
from .config import LLMConfig
from .tokenizer import CharTokenizer


class LanguageModel(Module):
    """GPT-style decoder-only language model with optional LoRA adapters."""

    def __init__(self, config: LLMConfig, tokenizer: Optional[CharTokenizer] = None,
                 lora_rank: int = 0, lora_alpha: float = 16.0,
                 seed: int = 0) -> None:
        super().__init__()
        self.config = config
        self.tokenizer = tokenizer or CharTokenizer()
        rng = np.random.default_rng(seed)
        vocab_size = self.tokenizer.vocab_size
        self.lora_rank = lora_rank

        self.token_embedding = Embedding(vocab_size, config.d_model, rng=rng)
        self.backbone = TransformerBackbone(
            d_model=config.d_model,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            max_seq_len=config.max_seq_len,
            d_hidden=config.hidden_dim,
            lora_rank=lora_rank,
            lora_alpha=lora_alpha,
            rng=rng,
        )
        self.lm_head = Linear(config.d_model, vocab_size, bias=False, rng=rng)

    # ------------------------------------------------------------------ #
    # Forward paths
    # ------------------------------------------------------------------ #
    def forward_tokens(self, token_ids: np.ndarray) -> Tensor:
        """Next-token logits for ``(batch, seq)`` integer token ids."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        embeddings = self.token_embedding(token_ids)
        features = self.backbone(embeddings, causal=True)
        return self.lm_head(features)

    def forward_incremental(self, token_ids: np.ndarray, cache: PagedKVCache) -> Tensor:
        """Next-token logits for the *new* tokens only, using the KV cache.

        ``cache`` is a pool with one live session and
        ``token_ids`` the ``(1, n)`` tokens that follow its history (the
        whole prompt on the first call, usually a single token afterwards):
        one :meth:`forward_step` row of ``n`` tokens on that session.  The
        cache is updated in place; the ``(1, n, vocab)`` logits cover only
        the new positions and agree with :meth:`forward_tokens` on the full
        window to within rounding (``docs/paged_kv.md``, "Parity policy").
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim > 1 and token_ids.shape[0] != 1:
            raise ValueError(f"a one-session cache decodes one row of tokens, "
                             f"got {token_ids.shape[0]}")
        sessions = cache.sessions
        if len(sessions) != 1:
            raise ValueError(f"forward_incremental needs a cache with one live "
                             f"session, this one has {len(sessions)}")
        token_ids = token_ids.reshape(-1)
        return self.forward_step(token_ids, cache, sessions, counts=[len(token_ids)])

    def init_paged_cache(self, max_sessions: int = 16,
                         max_context: Optional[int] = None,
                         block_size: int = DEFAULT_BLOCK_SIZE,
                         extra_blocks: int = 0) -> PagedKVCache:
        """Paged multi-session KV cache for batched decoding (``repro.serve``).

        The pool is sized so ``max_sessions`` concurrent sessions can each
        reach ``max_context`` tokens (default: the model's ``max_seq_len``),
        plus ``extra_blocks`` for out-of-session residents such as a shared
        prompt-prefix cache.  Storage is only materialized for blocks actually
        touched, so short sessions never pay for the worst case.
        """
        max_context = min(max_context or self.config.max_seq_len,
                          self.config.max_seq_len)
        per_session = -(-max_context // block_size)
        return self.backbone.init_paged_cache(
            max_sessions * per_session + extra_blocks, block_size=block_size)

    def forward_step(self, token_ids: np.ndarray, cache: PagedKVCache,
                     session_ids: np.ndarray,
                     counts: Optional[np.ndarray] = None,
                     prompt_from: Optional[int] = None) -> Tensor:
        """Next-token logits for the new tokens of each listed paged session.

        One ragged step (:meth:`TransformerBackbone.forward_step`):
        ``token_ids`` holds the step's ``sum(counts)`` tokens packed row
        after row — session ``session_ids[i]`` owns ``counts[i]``
        consecutive ones (per-session positions come from the cache).
        Plain decode is the all-ones step, spelled ``counts=None`` with one
        token per session; a prompt is prefilled by the same call —
        ``counts[i]`` of its tokens on a session opened empty
        (:meth:`~repro.nn.PagedKVCache.open_session`) or partly filled, and
        prompt rows can ride behind decode rows in one call: ``prompt_from``
        is the index of the first of them (0 when every row is a prompt row).

        The step runs on raw arrays; the logits are the one ``Tensor`` it
        builds, packed on a unit leading axis.  With
        ``prompt_from=None`` they are ``(1, sum(counts), vocab)``: row *i*'s
        token ``t`` is at ``[0, offset_i + t]`` and matches the ``t``-th of
        ``counts[i]`` sequential one-token steps on the session alone.  With
        ``prompt_from`` only the logits something samples from are computed
        — the final block, final norm and ``lm_head`` run on those tokens
        alone (every layer still writes every token's K/V): every token of
        the rows before ``prompt_from``, laid out as above, then one row per
        prompt row, at its last token — ``(1, sum(counts[:prompt_from]) +
        len(counts) - prompt_from, vocab)``.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
        embeddings = self.token_embedding.apply(token_ids)
        features = self.backbone.forward_step(embeddings, cache, session_ids,
                                              counts=counts, prompt_from=prompt_from)
        logits = self.lm_head.apply(features)
        return Tensor(logits, dtype=logits.dtype)  # repro: noqa[REP007] the step's one output wrap

    def forward_embeddings(self, embeddings: Tensor, causal: bool = True) -> Tensor:
        """Contextualized output features for externally produced embeddings.

        This is the path used by NetLLM: the LM head is bypassed entirely and
        the raw ``(batch, seq, d_model)`` output features are returned for a
        task-specific networking head.
        """
        return self.backbone(embeddings, causal=causal)

    def last_position_features(self, tokens: np.ndarray, lengths) -> np.ndarray:
        """:meth:`forward_embeddings` for inference that reads one position:
        packed ragged rows of embeddings in, each row's last output feature
        out, on raw arrays (:meth:`TransformerBackbone.last_position_features`).
        This is what the NetLLM adapters answer with — one inference, the
        networking head on the last feature."""
        return self.backbone.last_position_features(tokens, lengths)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        return self.forward_tokens(token_ids)

    # ------------------------------------------------------------------ #
    # Parameter bookkeeping (freezing / LoRA / ablations)
    # ------------------------------------------------------------------ #
    @property
    def d_model(self) -> int:
        return self.config.d_model

    def freeze_backbone(self) -> None:
        """Freeze every pre-trained weight (token/positional embeddings, blocks,
        LM head).  LoRA ``A``/``B`` matrices remain trainable when present."""
        for name, param in self.named_parameters():
            if name.endswith("lora_a") or name.endswith("lora_b"):
                param.requires_grad = True
            else:
                param.requires_grad = False

    def set_lora_enabled(self, enabled: bool) -> None:
        """Enable or disable the learned low-rank updates (domain-knowledge ablation)."""
        for layer in iter_lora_layers(self):
            layer.enable_lora(enabled)

    def randomize_weights(self, seed: int = 0) -> None:
        """Re-initialize all backbone weights (the 'no pre-trained knowledge' ablation)."""
        rng = np.random.default_rng(seed)
        for name, param in self.named_parameters():
            if name.endswith("lora_b"):
                param.data = np.zeros_like(param.data)
            elif name.endswith(("gamma",)):
                param.data = np.ones_like(param.data)
            elif name.endswith(("beta", "bias")):
                param.data = np.zeros_like(param.data)
            else:
                param.data = rng.normal(0.0, 0.02, size=param.data.shape)

    def num_lora_parameters(self) -> int:
        return int(sum(layer.num_lora_parameters() for layer in iter_lora_layers(self)))

    def trainable_fraction(self) -> float:
        """Fraction of parameters that currently receive gradients."""
        total = self.num_parameters()
        trainable = self.num_parameters(trainable_only=True)
        return trainable / total if total else 0.0

    def parameter_memory_bytes(self, trainable_only: bool = False) -> int:
        """Bytes of parameter storage (used by the adaptation-cost profiler)."""
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.data.nbytes for p in params))
