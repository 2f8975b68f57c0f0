"""Shared prompt-prefix cache: common prompt heads computed once, mapped many.

Serving traffic for the three task adapters (and most templated generation
workloads) repeats a fixed instruction preamble at the start of every prompt.
In a causal transformer the K/V projections of a prompt head depend only on
the head itself, so they are identical across every session that starts with
it.  :class:`PrefixCache` exploits both halves of that:

* **Compute reuse** — each registered preamble's per-layer K/V is computed
  once; admission of a matching prompt seeds the prefill with the stored
  tensors and only runs the transformer over the prompt *tail*.
* **Memory reuse** — the preamble's full blocks are parked in the paged pool
  (:meth:`~repro.nn.PagedKVCache.register_blocks`) and mapped into each
  matching session's block table by reference.  Blocks are refcounted and
  copy-on-write protected, so a session can never corrupt a sibling through
  the shared head.

Entries are LRU-bounded: registering beyond ``max_entries`` releases the
least recently matched preamble and its blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..llm import LanguageModel
from ..nn import KVCache, PagedKVCache, no_grad


@contextmanager
def cached_inference(model: LanguageModel, toggle_eval: bool) -> Iterator[None]:
    """``no_grad`` around one KV-cached serving forward.

    KV-cached forwards skip dropout, so a training-mode model with active
    dropout must run them in eval mode (restored afterwards, as ``generate()``
    does).  ``toggle_eval`` is the caller's one-time
    :meth:`~repro.nn.Module.has_active_dropout` answer: a model without
    active dropout — the usual served model — computes the same thing in
    either mode, and skipping the flip saves two walks over every module per
    forward.  Should dropout be switched on after that answer was taken, the
    cached-attention and MLP step paths raise rather than diverge silently.
    """
    toggle = toggle_eval and model.training
    if toggle:
        model.eval()
    try:
        with no_grad():
            yield
    finally:
        if toggle:
            model.train()


@dataclass
class PrefixEntry:
    """One cached prompt head.

    The block-aligned part of the head's K/V lives *only* in the pool blocks
    (``block_ids``); the entry itself keeps just the sub-block remainder
    (``len % block_size`` tokens), so a resident head is never stored twice.
    """

    token_ids: Tuple[int, ...]
    #: Per-layer ``(heads, len % block_size, head_dim)`` K/V of the head's
    #: unaligned tail (empty arrays when the head is block-aligned).
    tail_keys: List[np.ndarray]
    tail_values: List[np.ndarray]
    #: Pool blocks holding the head's *full* blocks (``len // block_size`` of
    #: them); mapped by reference into matching sessions' block tables.
    block_ids: Tuple[int, ...]
    hits: int = 0

    @property
    def length(self) -> int:
        return len(self.token_ids)


class PrefixCache:
    """Registry of cached prompt heads over one model + paged pool."""

    def __init__(self, model: LanguageModel, cache: PagedKVCache,
                 max_entries: int = 8, max_length: Optional[int] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.model = model
        self.cache = cache
        self.max_entries = max_entries
        # A head longer than the serving context minus one tail token can
        # never match a (truncated) prompt — reject it at registration so it
        # cannot consume pool blocks reserved for matchable heads.
        limit = model.config.max_seq_len - 1
        self.max_length = limit if max_length is None else min(max_length, limit)
        self._toggle_eval = model.has_active_dropout()
        self._entries: "OrderedDict[Tuple[int, ...], PrefixEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.tokens_reused = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def blocks_held(self) -> int:
        return sum(len(entry.block_ids) for entry in self._entries.values())

    def external_refs(self) -> Dict[int, int]:
        """Block references this cache holds outside any session table."""
        refs: Dict[int, int] = {}
        for entry in self._entries.values():
            for block in entry.block_ids:
                refs[block] = refs.get(block, 0) + 1
        return refs

    # ------------------------------------------------------------------ #
    def register(self, text: str) -> PrefixEntry:
        """Compute and cache the K/V of a prompt head (idempotent per text).

        ``text`` must tokenize to at least one token; it is encoded exactly
        like a prompt's leading characters (BOS included), so any prompt
        string that *starts with* ``text`` matches the entry.
        """
        ids = tuple(self.model.tokenizer.encode(text, add_bos=True))
        return self.register_ids(ids)

    def register_ids(self, ids: Sequence[int]) -> PrefixEntry:
        ids = tuple(int(i) for i in ids)
        if not ids:
            raise ValueError("cannot register an empty prefix")
        if len(ids) > self.max_length:
            raise ValueError(
                f"prefix of {len(ids)} tokens leaves no room for a tail within "
                f"the serving context ({self.max_length + 1})")
        existing = self._entries.get(ids)
        if existing is not None:
            self._entries.move_to_end(ids)
            return existing
        # Evict beyond-capacity entries *before* allocating the new head's
        # blocks: the pool reservation covers max_entries resident heads, so
        # registration at the cap must free the LRU head first to fit.
        while len(self._entries) >= self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.cache.release_blocks(evicted.block_ids)

        with cached_inference(self.model, self._toggle_eval):
            head_cache = self.model.init_cache()
            self.model.forward_incremental(
                np.asarray(ids, dtype=np.int64)[None, :], head_cache)
        keys = [layer.keys[0] for layer in head_cache.layers]
        values = [layer.values[0] for layer in head_cache.layers]

        block_size = self.cache.block_size
        aligned = (len(ids) // block_size) * block_size
        if aligned:
            block_ids = tuple(self.cache.register_blocks(
                [k[:, :aligned] for k in keys], [v[:, :aligned] for v in values]))
        else:
            block_ids = ()  # head shorter than one block: compute reuse only
        # Keep only the sub-block remainder; the aligned part now lives in
        # the pool blocks and is read back from there when seeding prefills.
        entry = PrefixEntry(token_ids=ids,
                            tail_keys=[k[:, aligned:].copy() for k in keys],
                            tail_values=[v[:, aligned:].copy() for v in values],
                            block_ids=block_ids)
        self._entries[ids] = entry
        return entry

    # ------------------------------------------------------------------ #
    def is_live(self, entry: PrefixEntry) -> bool:
        """Whether this exact entry is still registered (not LRU-evicted).

        A chunked-prefill session holds its matched entry across engine
        steps; before the first chunk seeds from the entry's pool blocks it
        must confirm the entry survived any intervening ``register`` — an
        evicted entry's blocks may already belong to a newer head.
        """
        return self._entries.get(entry.token_ids) is entry

    def match(self, prompt_ids: Sequence[int]) -> Optional[PrefixEntry]:
        """Longest cached head that is a *strict* prefix of ``prompt_ids``.

        Strict because at least one tail token must remain to produce the
        prompt's next-token logits.  Updates hit/miss/reuse counters.
        """
        prompt = tuple(int(i) for i in prompt_ids)
        best: Optional[PrefixEntry] = None
        for ids, entry in self._entries.items():
            if len(ids) < len(prompt) and prompt[:len(ids)] == ids:
                if best is None or len(ids) > best.length:
                    best = entry
        if best is None:
            self.misses += 1
            return None
        self._entries.move_to_end(best.token_ids)
        best.hits += 1
        self.hits += 1
        self.tokens_reused += best.length
        return best

    def seed_cache(self, entry: PrefixEntry, batch: int) -> KVCache:
        """Fresh :class:`KVCache` pre-loaded with the head's K/V, ``batch`` wide.

        The block-aligned part is read back from the pool blocks and the
        sub-block remainder from the entry; ``forward_incremental`` on the
        prompt tails then starts at position ``entry.length``, exactly as if
        the head had just been prefilled.
        """
        seeded = self.model.init_cache()
        for seed_layer, pool_layer, tail_keys, tail_values in zip(
                seeded.layers, self.cache.layers, entry.tail_keys, entry.tail_values):
            if entry.block_ids:
                head_keys, head_values = pool_layer.read_blocks(entry.block_ids)
                keys = np.concatenate([head_keys, tail_keys], axis=1)
                values = np.concatenate([head_values, tail_values], axis=1)
            else:
                keys, values = tail_keys, tail_values
            seed_layer.append(np.repeat(keys[None], batch, axis=0),
                              np.repeat(values[None], batch, axis=0))
        return seeded
