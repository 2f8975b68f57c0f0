"""Shared prompt-prefix cache: common prompt heads computed once, mapped many.

Serving traffic for the three task adapters (and most templated generation
workloads) repeats a fixed instruction preamble at the start of every prompt.
In a causal transformer the K/V projections of a prompt head depend only on
the head itself, so they are identical across every session that starts with
it.  :class:`PrefixCache` exploits both halves of that:

* **Compute reuse** — each registered preamble's per-layer K/V is computed
  once, by the paged step every other token goes through, straight into pool
  blocks; a matching prompt starts at the head's length and only runs the
  transformer over its *tail*.
* **Memory reuse** — the head lives once, in those blocks (its partly filled
  last block included), held by a pool session of its own that never steps
  again; each matching prompt's session is a fork of it, mapping the blocks
  by reference.  Blocks are refcounted and copy-on-write protected — a
  session's first write splits the partial last block off for itself — so a
  session can never corrupt a sibling through the shared head.  Every
  reference is a block-table entry, so the pool checks its own refcounts.

Entries are LRU-bounded: registering beyond ``max_entries`` evicts the head
session of the least recently matched preamble; its blocks free once the
last session still mapping them ends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..llm import LanguageModel
from ..nn import PagedKVCache, no_grad


@dataclass
class PrefixEntry:
    """One cached prompt head: its tokens and the pool session holding its
    K/V.  The session's table (``cache.table(session)``, ``blocks_needed(
    length)`` blocks, the last partly filled unless the head is
    block-aligned) holds one reference on each block."""

    token_ids: Tuple[int, ...]
    session: int

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
        self._entries: "OrderedDict[Tuple[int, ...], PrefixEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def sessions(self) -> Tuple[int, ...]:
        """The pool sessions holding the registered heads, oldest first."""
        return tuple(sorted(entry.session for entry in self._entries.values()))

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
            self.cache.evict(evicted.session)

        # The head is a session: opened empty, written by the forward every
        # prompt goes through, then left open for as long as the entry lives.
        # Nothing samples from it, so it is a prompt row: its last layer runs
        # at one token.
        head = self.cache.open_session()
        try:
            with no_grad():
                self.model.forward_step(
                    np.asarray(ids, dtype=np.int64), self.cache,
                    np.asarray([head]), counts=np.asarray([len(ids)]),
                    prompt_from=0)
        except Exception:
            self.cache.evict(head)
            raise
        entry = PrefixEntry(token_ids=ids, session=head)
        self._entries[ids] = entry
        return entry

    # ------------------------------------------------------------------ #
    def is_live(self, entry: PrefixEntry) -> bool:
        """Whether this exact entry is still registered (not LRU-evicted).

        A queued session holds its matched entry across engine steps; before
        its first chunk forks the entry's head session it must confirm the
        entry survived any intervening ``register`` — an evicted entry's
        session is gone.
        """
        return self._entries.get(entry.token_ids) is entry

    def match(self, prompt_ids: Sequence[int]) -> Optional[PrefixEntry]:
        """Longest cached head that is a *strict* prefix of ``prompt_ids``.

        Strict because at least one tail token must remain to produce the
        prompt's next-token logits.  A lookup and its LRU touch, nothing
        more: the session manager records hits and misses.
        """
        prompt = tuple(int(i) for i in prompt_ids)
        best: Optional[PrefixEntry] = None
        for ids, entry in self._entries.items():
            if len(ids) < len(prompt) and prompt[:len(ids)] == ids:
                if best is None or len(ids) > best.length:
                    best = entry
        if best is not None:
            self._entries.move_to_end(best.token_ids)
        return best

    def seed_cache(self, entry: PrefixEntry) -> int:
        """Fork the head's session; return the fork's id.

        It starts at length ``entry.length`` with the head's blocks mapped by
        reference, exactly as if it had just prefilled the head itself; its
        first step copies the partial last block before writing into it.
        """
        return self.cache.fork(entry.session)
