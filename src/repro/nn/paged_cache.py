"""Paged key/value storage for multi-session decoding (vLLM-style).

The slot-packed batched cache this module replaces reserved one fixed-size
``(heads, max_context, head_dim)`` strip per session, so memory scaled with
``max_batch × max_context`` even when most sessions were short, and a slot
could never lend its unused tail to a longer neighbour.  Here the per-layer
K/V of *all* sessions live in one pool of fixed-size **blocks** (``block_size``
tokens each):

* :class:`BlockAllocator` owns the pool — free-list reuse, a lazily grown
  high-water mark (storage is only materialized for blocks that have actually
  been touched) and per-block reference counts so several sessions can map the
  same physical block (shared prompt prefixes, forked sessions).
* :class:`PagedLayerKVCache` holds one layer's K/V arrays, indexed by block.
* :class:`PagedKVCache` keeps every session's **block table** (the ordered
  block ids covering its history) as one row of a single ``int64`` matrix and
  turns a batch of session ids into a :class:`PagedStepContext` — the
  gather/scatter plan one batched step needs.  Writes into a block referenced
  by more than one session first copy it (copy-on-write), so shared blocks are
  never mutated under a neighbour.

Attention gathers each session's history with one fancy index over the block
axis (``keys[tables]``), which pads every row to a whole number of blocks;
the padded tail is masked with ``-inf`` exactly like ragged batches were in
the slot-packed design, so a padded key adds an exact zero and per-session
logits agree with the full-window graph forward to within rounding (the
parity policy of ``docs/paged_kv.md``).

The step is ragged in both dimensions.  Its queries are **token-packed**:
row *i*'s ``counts[i]`` new tokens sit back to back in one ``(sum(counts),
...)`` array, so a row that feeds five tokens beside fifteen that feed one
costs twenty token rows in every dense layer, not eighty.  Its keys are
grouped: padding every row to the *batch's* longest table would make a
40-token session gather and score its 500-token neighbour's width, so
:func:`partition_rows` sorts the rows of a step into **length groups** by each
row's own block need and the context carries one ``(tokens, tables, mask,
valid, fresh)`` entry per group, each at that group's key width and its own
widest row's query width; attention runs gather -> scores -> mask -> softmax
-> ``@ values`` once per group while everything else in the layer stays one
call over the packed tokens.  A batch of similar lengths is the one-group
case of the same plan (the step's table matrix itself, no further copy).  A
group of rows that start empty is *fresh*: it keys on its own tokens.
``key_positions_gathered`` / ``key_positions_live`` count what the padding
that remains costs.  A step whose prompt rows feed several tokens also
carries the final layer's view of itself (:attr:`PagedStepContext.last`),
which queries each prompt row at its last token only — the one token of the
row anybody samples from.

A session starts empty (:meth:`PagedKVCache.open_session`) or as a
:meth:`PagedKVCache.fork` of another — a cached prompt head is an ordinary
session, forked by every prompt that matches it — and every token it ever
holds is written by a step: a **prefill chunk** is a row of the one plan with
``counts[i] = take``, beside rows that take other amounts at other lengths.
:meth:`PagedKVCache.admit_rows` and :meth:`PagedKVCache.extend_session`
import a session of another pool through that same plan, so the pool has one
writer.  Every block reference is an entry of a live session's table, so
:meth:`PagedKVCache.check_invariants` needs nothing but the pool to prove
the refcounts.

There is one step plan.  Because the block tables already are a matrix, a
step's padded gather tables are ``table[rows, :width]`` — one fancy index, read
afresh every step, so there is nothing to cache, version or invalidate when a
table moves.  Plain decode is the ``counts == 1`` call of the ragged
multi-token step that speculative verification uses:
:meth:`PagedKVCache.prepare_step` / :meth:`PagedKVCache.prepare_multi_step`
and :meth:`PagedKVCache.commit_step` / :meth:`PagedKVCache.commit_multi_step`
are spellings of one plan body and one commit body (``docs/paged_kv.md``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .attention import TokenRun, _position_range, by_row

#: Default tokens per block — small enough that short sessions waste little,
#: large enough that block tables and gathers stay cheap.
DEFAULT_BLOCK_SIZE = 16

#: Fewest padded block-rows (one row gathering and scoring one block it does
#: not own) a further split of a step's rows must save; below that the extra
#: gather / matmul / softmax / matmul round per layer costs more than the
#: padding did.  Chosen by measurement: ``forward_step`` on the benchmark's
#: model shape, one pool per value stepped in turn on the same tokens and
#: regrouped every step, median step time as a share of never splitting
#: (two runs agreed to within 0.03).
#:
#:     value                          2      4      6      8     12     16
#:     2 rows of 8..96 tokens       1.06   1.02   1.00   1.00   0.98   0.98
#:     3 rows of 8..96 tokens       1.13   1.06   1.03   1.02   1.02   1.00
#:     8 rows of 200..340           0.88   0.87   0.90   0.91   0.91   0.92
#:     the same, 5-token verify     0.88   0.89   0.90   0.92   0.92   0.93
#:     16 rows of 8..160            0.75   0.74   0.74   0.75   0.77   0.77
#:
#: Small batches of short rows want it high (a split there saves a few
#: kilobytes and pays the round in full), large ones low (smaller groups also
#: stay in cache).  6 is where the first two rows stop paying for splits that
#: the other three still profit from.  End to end (``bench/run.py``) every
#: value from 1 to 32 gives ``longctx_closed10`` the same 1.8x of the unsplit
#: parent: the claim does not hang on this constant.
MIN_SPLIT_SAVING_BLOCK_ROWS = 6

#: The one-group partition's row selector: a basic slice, so nothing is
#: copied to name "every row".
_ALL_ROWS = slice(None)

#: How a length group names its rows: the whole-batch slice or index array.
RowIndex = Union[slice, np.ndarray]


def partition_rows(needs: Sequence[int], prompt_from: Optional[int] = None
                   ) -> Tuple[Tuple[RowIndex, int], ...]:
    """Sort a step's rows into length groups by their own block need.

    ``needs[i]`` is the number of blocks row *i*'s attention window covers
    (``ceil(max cutoff / block_size)``).  Returns ``(rows, width)`` pairs,
    widest group first: ``rows`` the ascending row indices of the group and
    ``width`` the largest need among them, so every row is in exactly one
    group and no row is padded past its group's longest member.  Walking the
    distinct needs from the widest down, the rows at or below a level leave
    the group above it when that saves them at least
    :data:`MIN_SPLIT_SAVING_BLOCK_ROWS` padded block-rows.  The result
    depends only on the multiset of needs (rows of equal need always share a
    group), and a batch that is not worth splitting comes back as the single
    pair ``(slice(None), max(needs))`` without building an index array.
    Plain Python on purpose: a batch is a few dozen rows at most, where a
    sort and one pass cost less than a single numpy call.

    ``prompt_from`` splits the rows first: rows ``prompt_from..`` are prompt
    chunks and never share a group with the rows before them, whose query
    width is one token or a few drafts — each side is partitioned on its
    own, and a side that stays whole is the basic slice of its rows.
    """
    if prompt_from is not None and 0 < prompt_from < len(needs):
        return tuple(
            (slice(start, stop) if rows is _ALL_ROWS else rows + start, width)
            for start, stop in ((0, prompt_from), (prompt_from, len(needs)))
            for rows, width in partition_rows(needs[start:stop]))
    order = sorted(range(len(needs)), key=needs.__getitem__)  # stable
    groups: List[Tuple[RowIndex, int]] = []
    end, width = len(order), needs[order[-1]]
    for start in range(end - 1, 0, -1):
        # `start` rows rank below this one; a level ends where the need drops.
        level = needs[order[start - 1]]
        if (level < needs[order[start]]
                and start * (width - level) >= MIN_SPLIT_SAVING_BLOCK_ROWS):
            groups.append((np.asarray(sorted(order[start:end])), width))
            end, width = start, level
    if not groups:
        return ((_ALL_ROWS, width),)
    groups.append((np.asarray(sorted(order[:end])), width))
    return tuple(groups)


class BlockAllocator:
    """Fixed-size block pool with free-list reuse and reference counting.

    ``num_blocks`` is a hard capacity cap; storage in the layer caches only
    grows to the *high-water mark* — the largest block id ever handed out —
    so a pool sized for the worst case costs nothing until traffic needs it.
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.refcounts = np.zeros(num_blocks, dtype=np.int64)
        self._free: List[int] = []  # released ids; kept sorted, pop() -> lowest
        self._next = 0  # high-water mark: ids >= _next were never allocated
        self._in_use = 0

    @property
    def high_water(self) -> int:
        """Largest number of blocks ever live at once (storage follows this)."""
        return self._next

    @property
    def blocks_in_use(self) -> int:
        return self._in_use

    @property
    def blocks_free(self) -> int:
        return self.num_blocks - self._in_use

    def require(self, count: int) -> None:
        """Raise the pool's one exhaustion error unless ``count`` blocks are free."""
        if count > self.blocks_free:
            raise RuntimeError(
                f"out of KV-cache blocks ({count} needed, {self.blocks_free} of "
                f"{self.num_blocks} x {self.block_size} tokens free); evict a "
                f"session first")

    def allocate(self) -> int:
        """Hand out one block (refcount 1), reusing freed ids lowest-first."""
        self.require(1)
        if self._free:
            block = self._free.pop()
        else:
            block = self._next
            self._next += 1
        self.refcounts[block] = 1
        self._in_use += 1
        return block

    def share(self, blocks: Sequence[int]) -> None:
        """Add a reference to each of some already-live blocks (a fork), all
        or nothing: one dead block refuses the lot before any count moves."""
        index = np.asarray(blocks, dtype=np.int64)
        dead = index[self.refcounts[index] < 1]
        if dead.size:
            raise ValueError(f"cannot share block {dead.item(0)}: it is not allocated")
        np.add.at(self.refcounts, index, 1)

    def release(self, block: int) -> bool:
        """Drop one reference; return True when the block actually freed."""
        count = int(self.refcounts[block])
        if count < 1:
            raise ValueError(f"double free of block {block}")
        self.refcounts[block] = count - 1
        if count == 1:
            self._free.append(block)
            # Lowest-id-first reuse keeps live blocks packed at the front, so
            # the lazily grown storage arrays stay as small as possible.
            self._free.sort(reverse=True)
            self._in_use -= 1
            return True
        return False


class PagedLayerKVCache:
    """One attention layer's K/V arrays, block-indexed.

    Arrays have shape ``(blocks, num_heads, block_size, head_dim)`` and grow
    geometrically to the allocator's high-water mark.  Storage is zero-filled
    and freed blocks are re-zeroed, so gathering a padded block never mixes
    stale non-finite values into masked-out attention scores.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self) -> None:
        self._keys: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    @property
    def capacity_blocks(self) -> int:
        return 0 if self._keys is None else self._keys.shape[0]

    def ensure(self, blocks: int, heads: int, block_size: int, head_dim: int,
               dtype: np.dtype) -> None:
        if self._keys is not None and self._keys.shape[0] >= blocks:
            return
        new_capacity = max(4, blocks, 2 * self.capacity_blocks)
        keys = np.zeros((new_capacity, heads, block_size, head_dim), dtype=dtype)
        values = np.zeros_like(keys)
        if self._keys is not None:
            keys[:self._keys.shape[0]] = self._keys
            values[:self._values.shape[0]] = self._values
        self._keys, self._values = keys, values

    def copy_block(self, source: int, target: int) -> None:
        """Clone a block's contents (the copy half of copy-on-write)."""
        self._keys[target] = self._keys[source]
        self._values[target] = self._values[source]

    def clear_block(self, block: int) -> None:
        self._keys[block] = 0.0
        self._values[block] = 0.0

    def append_step(self, blocks: np.ndarray, offsets: np.ndarray,
                    keys: np.ndarray, values: np.ndarray) -> None:
        """Write a step's packed tokens, token ``i`` at ``(blocks[i],
        offsets[i])``; ``keys``/``values`` are ``(tokens, heads, head_dim)``."""
        self._keys[blocks, :, offsets] = keys
        self._values[blocks, :, offsets] = values

    def read_blocks(self, block_ids: Sequence[int]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(heads, len(block_ids)*block_size, head_dim)`` copies
        of the listed blocks' K/V (tests read a session's history back with it)."""
        index = np.asarray(block_ids, dtype=np.int64)
        _, heads, block_size, head_dim = self._keys.shape
        keys = self._keys[index].transpose(1, 0, 2, 3).reshape(
            heads, len(index) * block_size, head_dim)
        values = self._values[index].transpose(1, 0, 2, 3).reshape(
            heads, len(index) * block_size, head_dim)
        return keys, values

    def gather(self, tables: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-session histories for attention, gathered via block tables.

        ``tables`` is ``(n, max_blocks)`` — each row a session's block ids,
        padded with any valid id (padded positions are masked by the caller).
        Returns ``(n, heads, max_blocks*block_size, head_dim)`` arrays.
        """
        n, max_blocks = tables.shape
        _, heads, block_size, head_dim = self._keys.shape
        keys = self._keys[tables]      # (n, max_blocks, heads, block, head_dim)
        values = self._values[tables]
        keys = keys.transpose(0, 2, 1, 3, 4).reshape(
            n, heads, max_blocks * block_size, head_dim)
        values = values.transpose(0, 2, 1, 3, 4).reshape(
            n, heads, max_blocks * block_size, head_dim)
        return keys, values


@lru_cache(maxsize=256)
def _token_grid(counts_key: bytes
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Where a step's tokens sit in the packed array: a pure function of its
    counts.

    ``counts_key`` is the step's ``int64`` counts as bytes; row *i*'s tokens
    are packed tokens ``offset_i .. offset_i + counts[i] - 1``.  Returns
    ``(row_of, place_of, index, valid)``: the owning row of every packed token
    and its place among that row's tokens, and the ``(n, max(counts))`` grids
    of each row's packed indices (places past a row's count clamped to its
    last token, so they stay in range) and of which entries are real tokens
    (None when every row feeds ``max(counts)``: all are).
    Memoised (and read-only) like :func:`~repro.nn.attention.causal_mask`:
    every decode step of ``n`` rows shares the all-ones entry.  Nothing here
    depends on the pool, so nothing ever invalidates an entry.
    """
    counts = np.frombuffer(counts_key, dtype=np.int64)
    if counts.min() < 1:
        raise ValueError("every session must consume at least one token")
    places = _position_range(int(counts.max()))
    valid = places < counts[:, None]
    row_of, place_of = np.nonzero(valid)
    index = (np.cumsum(counts) - counts)[:, None] + np.minimum(
        places, counts[:, None] - 1)
    for array in (row_of, place_of, index, valid):
        array.setflags(write=False)
    return row_of, place_of, index, None if valid.all() else valid


def _window_mask(positions: np.ndarray, keys: int) -> Optional[np.ndarray]:
    """Boolean ``(g, width, keys)`` mask of the key positions past each query
    token's own; None when there are none."""
    if int(positions.min()) + 1 == keys:
        return None
    return _position_range(keys)[None, None, :] > positions[:, :, None]


@lru_cache(maxsize=64)
def _causal_window(length: int) -> Optional[np.ndarray]:
    """The ``(1, length, length)`` :func:`_window_mask` every fresh row of
    ``length`` tokens shares (memoised, so read-only)."""
    mask = _window_mask(_position_range(length)[None, :], length)
    if mask is not None:
        mask.setflags(write=False)
    return mask


class PagedStepContext:
    """Gather/scatter plan for one batched step over the paged cache.

    One shape serves decode and speculative verification alike: row *i*
    feeds ``counts[i] >= 1`` new tokens (decode is ``counts == 1``) at
    global positions ``lengths[i] .. lengths[i] + counts[i] - 1``, and the
    step's tokens are **packed** — row after row, ``sum(counts)`` in all, no
    padding.  Built by the one plan body behind
    :meth:`PagedKVCache.prepare_step` / :meth:`PagedKVCache.prepare_multi_step`
    (which also performs any block allocation and copy-on-write the step
    needs) and consumed by every attention layer, so the table padding, the
    query index and the attention masks are built once per step, not per
    layer.

    Every packed token is real, so the flat ``write_blocks`` /
    ``write_offsets`` / ``positions`` arrays line up with the packed
    activations one to one and a layer scatters its K/V into the pool as they
    come (a step with no pool, :func:`plan_fresh_rows`, has neither writes
    nor ``session_ids``).  Only attention needs a rectangle, and only per
    length group: ``groups`` partitions the rows by block need
    (:func:`partition_rows`) and attention gathers, scores and scatters each
    group at its own key width and its own widest row's query width.  A batch of
    similar lengths has one group covering every row — the same loop, run
    once.  Every array is the step's own copy, read from the pool as it
    stood when the step was prepared: a context is spent once its step is
    committed, or once any of its sessions is otherwise mutated.

    A step whose prompt rows (``prompt_from`` in the plan) feed more than one
    token carries a second context, ``last``, for the final layer: the same
    writes and the same partition, but queries only at the tokens whose
    logits are read — every token of the rows before ``prompt_from``, then
    each prompt row's last — listed by ``keep``.  Every layer writes K/V for
    every token; only the final one stops computing the rest.
    """

    __slots__ = ("session_ids", "groups", "write_blocks", "write_offsets",
                 "positions", "keep", "last")

    def __init__(self, session_ids: Optional[np.ndarray], groups: Tuple[tuple, ...],
                 write_blocks: Optional[np.ndarray], write_offsets: Optional[np.ndarray],
                 positions: np.ndarray, keep: Optional[np.ndarray] = None) -> None:
        self.session_ids = session_ids
        self.write_blocks = write_blocks    #: (total,) block per packed token
        self.write_offsets = write_offsets  #: (total,) offset within that block
        #: (total,) global position per packed token: where it is written,
        #: its positional embedding and its causal cutoff.
        self.positions = positions
        #: One ``(tokens, tables, mask, valid, fresh)`` per length group.
        #: ``tokens`` indexes the packed arrays: ``(g, width)``, row by row,
        #: ``width`` the group's own widest row and the places past a shorter
        #: row's count repeating its last token (a :class:`TokenRun`, read as
        #: a view, when the rows are consecutive and all feed ``width``).
        #: ``tables`` is the rows' ``(g, group_blocks)`` padded block ids.  A
        #: *fresh* group — every row stood at length 0 — has no tables and
        #: keys on its own tokens, ``fresh`` (else None).  ``mask`` is the
        #: boolean ``(g, width, keys)`` invisibility mask over the group's
        #: keys, or None when every query token of the group sees all of it: ``mask[i, t, j]`` is True when key
        #: position ``j`` lies past the position of query token ``t`` of row
        #: ``i`` (the causal cutoff) — which covers future draft tokens,
        #: block padding and shorter group members at once; a repeated token
        #: repeats its position, so no softmax row is ever fully masked.
        #: ``valid`` is the boolean ``(g, width)`` selector of the real
        #: tokens among ``tokens`` — whose contexts are the only ones
        #: scattered back — or None when the rows all feed ``width``.
        self.groups = groups
        #: The packed indices of the tokens this context queries, in the
        #: order its output returns them; None: every packed token.  A
        #: context with ``keep`` indexes its groups' ``tokens`` into the kept
        #: tokens, not into the packed arrays.
        self.keep = keep
        #: The final layer's context when it queries fewer tokens than this
        #: one, else None (the final layer runs on this context).
        self.last: Optional[PagedStepContext] = None


def _length_groups(tables: np.ndarray, needs: Sequence[int], counts: np.ndarray,
                   lengths: np.ndarray, index: np.ndarray, valid: Optional[np.ndarray],
                   positions: np.ndarray, block_size: int,
                   prompt_from: Optional[int] = None
                   ) -> Tuple[Tuple[tuple, ...], Optional[np.ndarray], Tuple[tuple, ...]]:
    """A step's ``(tokens, tables, mask, valid, fresh)`` per length group
    (see :class:`PagedStepContext`).  ``index`` / ``valid`` are the step's
    :func:`_token_grid` and ``lengths`` the rows' lengths before it.  The
    one-group case takes them and ``tables`` as they stand (``max(counts)``
    and ``max(needs)`` are their widths by construction); a group among
    several is cut to its own two widths.

    Returns ``(groups, keep, last_groups)``.  When some prompt row (rows
    ``prompt_from..``) feeds more than one token, the same pass also builds
    the final layer's view: ``keep`` lists the packed indices of the tokens
    whose logits are read — the rows before ``prompt_from`` whole, then each
    prompt row's last token — and ``last_groups`` is ``groups`` with every
    prompt group cut to one query per row, the row's last token, indexed into
    ``keep``, under its ``(g, 1)`` window mask.  The groups before
    ``prompt_from`` carry over as they are: their tokens lead the packed
    arrays, so their packed indices are their kept ones.  Otherwise ``keep``
    is None and ``last_groups`` empty.
    """
    keep = None
    if prompt_from is not None and any(
            count > 1 for count in counts[prompt_from:].tolist()):
        decoded = index.item(prompt_from, 0)  # packed offset of the first prompt row
        keep = np.concatenate([_position_range(decoded), index[prompt_from:, -1]])
    groups, last_groups = [], []
    for rows, blocks in partition_rows(needs, prompt_from):
        tokens, group_tables, real = index, tables, valid
        if rows is not _ALL_ROWS:
            own = counts[rows].tolist()  # a group is a few rows: lists are cheaper
            width = max(own)
            tokens, group_tables = index[rows, :width], tables[rows, :blocks]
            real = None if min(own) == width else valid[rows, :width]
        width = tokens.shape[1]
        if real is None and isinstance(rows, slice):  # read as a view
            tokens = TokenRun(tokens.item(0, 0), len(tokens), width)
        fresh, keys_width = None, group_tables.shape[1] * block_size
        if not lengths[rows].any():  # fresh: its keys are the tokens it feeds
            fresh, group_tables, keys_width = tokens, None, width
        groups.append((tokens, group_tables,
                       _window_mask(by_row(positions, tokens), keys_width), real,
                       fresh))
        if keep is None:
            continue
        members = _position_range(len(needs))[rows]
        if members[0] < prompt_from:
            last_groups.append(groups[-1])
        else:
            # ``index[:, -1]`` is each row's last packed token (the grid
            # clamps the places past a row's count to it).
            last = positions[index[rows, -1]][:, None]
            last_groups.append(((members + (decoded - prompt_from))[:, None],
                                group_tables, _window_mask(last, keys_width), None,
                                fresh))
    return tuple(groups), keep, tuple(last_groups)


def plan_fresh_rows(lengths: Sequence[int]) -> PagedStepContext:
    """The plan of a step with no pool over independent rows at positions
    ``0..lengths[i]-1``: one fresh group per run of equal lengths, no writes,
    and the final layer's view at each row's last token, which sees its
    whole row.  Sorted rows make long runs; any order is correct."""
    groups, last_groups, positions = [], [], []
    start = row = 0
    for length, run in itertools.groupby(lengths):
        rows = len(list(run))
        tokens = TokenRun(start, rows, length)
        groups.append((tokens, None, _causal_window(length), None, tokens))
        last_groups.append((TokenRun(row, rows, 1), None, None, None, tokens))
        positions.append(np.tile(_position_range(length), rows))
        start, row = start + tokens.size, row + rows
    positions = np.concatenate(positions)
    step = PagedStepContext(None, tuple(groups), None, None, positions)
    step.last = PagedStepContext(None, tuple(last_groups), None, None, positions,
                                 np.cumsum(lengths) - 1)
    return step


class PagedKVCache:
    """Multi-session KV cache over a shared block pool.

    Each admitted session gets a monotonically increasing integer id and a
    *block table* — the ordered block ids covering its token history.  Unlike
    the slot-packed design there is no per-session capacity reservation: a
    session holds exactly ``ceil(len/block_size)`` blocks, short sessions
    stay cheap, and the number of concurrently decodable sessions is bounded
    by total blocks, not by a fixed slot count.

    The tables are the rows of one geometrically grown ``int64`` matrix: a
    session id maps to a row, row ``r`` holds its blocks in
    ``_table[r, :_nblocks[r]]`` (zero past that — any valid id pads a gather,
    the padding is masked) and its token count in ``_length[r]``.  Ids are
    never reused; the row of an evicted session is.  A batch's padded gather
    tables are therefore ``_table[rows, :width]``, read afresh each step.

    Sharing: :meth:`fork` clones a session (a cached prompt head is one) and
    :meth:`open_session` maps a list of its blocks into a new table, both by
    bumping block refcounts instead of copying.  Every reference to a block
    is an entry of some live session's table — nothing outside the matrix
    holds one — so the tables alone account for every refcount.  Any write
    into a block with refcount > 1 triggers copy-on-write before the step
    that writes it (:meth:`_grow`, inside the one plan), so sharing is
    invisible to correctness.

    ``num_heads`` / ``head_dim`` / ``dtype`` are the K/V shape the pool stores
    (:meth:`~repro.nn.TransformerBackbone.init_paged_cache` gives them).
    """

    def __init__(self, num_layers: int, max_blocks: int,
                 block_size: int = DEFAULT_BLOCK_SIZE, *,
                 num_heads: int, head_dim: int, dtype: np.dtype) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self._kv_dims = (num_heads, head_dim, np.dtype(dtype))
        self.allocator = BlockAllocator(max_blocks, block_size)
        self.layers: List[PagedLayerKVCache] = [
            PagedLayerKVCache() for _ in range(num_layers)]
        self._table = np.zeros((0, 0), dtype=np.int64)
        self._nblocks = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        self._rows: Dict[int, int] = {}  # live session id -> table row
        self._free_rows: List[int] = []
        self._ids = itertools.count()
        #: Key positions the steps so far scored per layer, gathered or read
        #: fresh (every group's rows x its key width) and how many of those
        #: were live history (each row's own window); the gap is padding,
        #: scored for nothing.  ``attention_groups`` counts the length groups
        #: those steps ran, so groups per step is its delta.
        self.key_positions_gathered = 0
        self.key_positions_live = 0
        self.attention_groups = 0

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def block_size(self) -> int:
        return self.allocator.block_size

    @property
    def num_sessions(self) -> int:
        return len(self._rows)

    @property
    def sessions(self) -> Tuple[int, ...]:
        """The live session ids, oldest first."""
        return tuple(self._rows)

    @property
    def blocks_in_use(self) -> int:
        return self.allocator.blocks_in_use

    @property
    def blocks_free(self) -> int:
        return self.allocator.blocks_free

    @property
    def attention_totals(self) -> Tuple[int, int, int]:
        """Running ``(key_positions_gathered, key_positions_live,
        attention_groups)`` — what telemetry differences per step."""
        return (self.key_positions_gathered, self.key_positions_live,
                self.attention_groups)

    def _row(self, session_id: int) -> int:
        try:
            return self._rows[session_id]
        except KeyError:
            raise ValueError(f"session {session_id} is not live") from None

    def _batch_rows(self, session_ids: Sequence[int]) -> np.ndarray:
        """The table rows of a batch of live sessions, in batch order."""
        ids = np.asarray(session_ids, dtype=np.int64).tolist()
        try:
            return np.fromiter(map(self._rows.__getitem__, ids), np.int64, len(ids))
        except KeyError as missing:
            raise ValueError(f"session {missing.args[0]} is not live") from None

    def length(self, session_id: int) -> int:
        return self._length.item(self._row(session_id))

    def table(self, session_id: int) -> Tuple[int, ...]:
        row = self._row(session_id)
        return tuple(self._table[row, :self._nblocks[row]].tolist())

    def blocks_needed(self, length: int) -> int:
        return -(-length // self.block_size)

    # ------------------------------------------------------------------ #
    def _ensure_storage(self) -> None:
        heads, head_dim, dtype = self._kv_dims
        for layer in self.layers:
            layer.ensure(self.allocator.high_water, heads, self.block_size,
                         head_dim, dtype)

    def _allocate_many(self, count: int) -> List[int]:
        """Allocate ``count`` blocks, all or nothing."""
        self.allocator.require(count)
        return [self.allocator.allocate() for _ in range(count)]

    def _reserve(self, rows: int, width: int) -> None:
        """Grow the table matrix geometrically to at least ``rows x width``."""
        have_rows, have_width = self._table.shape
        if rows <= have_rows and width <= have_width:
            return
        rows = max(rows, 2 * have_rows) if rows > have_rows else have_rows
        width = max(width, 2 * have_width) if width > have_width else have_width
        table = np.zeros((rows, width), dtype=np.int64)
        table[:have_rows, :have_width] = self._table
        self._table = table
        if rows > have_rows:
            spare = np.zeros(rows - have_rows, dtype=np.int64)
            self._nblocks = np.concatenate([self._nblocks, spare])
            self._length = np.concatenate([self._length, spare])
            self._free_rows.extend(range(rows - 1, have_rows - 1, -1))

    def open_session(self, shared_blocks: Sequence[int] = (),
                     length: int = 0) -> int:
        """Enter a session under the next id; return the id.

        With no arguments the session is empty: it holds no block until its
        first step writes one.  ``shared_blocks`` are already-filled blocks of
        live sessions — a cached prompt head's, a sibling's — mapped into the
        new table by reference, holding ``length`` tokens between them (the
        last one may be partly filled; the first write into it copies it
        first).  All or nothing: a block that is not live refuses the call
        before any reference is taken.
        """
        blocks = list(shared_blocks)
        if len(blocks) != self.blocks_needed(length):
            raise ValueError(f"{len(blocks)} shared blocks cannot hold exactly "
                             f"{length} tokens (block size {self.block_size})")
        if blocks:
            self.allocator.share(blocks)
        # A free row exists afterwards; one column, so an empty row has a table.
        self._reserve(len(self._rows) + 1, max(1, len(blocks)))
        row = self._free_rows.pop()
        self._table[row, :len(blocks)] = blocks
        self._nblocks[row] = len(blocks)
        self._length[row] = length
        session_id = next(self._ids)
        self._rows[session_id] = row
        return session_id

    # ------------------------------------------------------------------ #
    # Importing another pool's session.  The served path never does: its
    # prompts are written by ``forward_step``.  These lay a history computed
    # in another pool into blocks through the same plan.
    # ------------------------------------------------------------------ #
    def _import(self, session_id: int, history: Sequence[Tuple[np.ndarray, np.ndarray]],
                new_length: int) -> None:
        """Append tokens ``[length(session_id), new_length)`` of ``history`` —
        per layer the ``(heads, tokens, head_dim)`` keys and values of one
        session — as a one-row step would have written them."""
        old = self.length(session_id)
        ids, counts = np.asarray([session_id]), np.asarray([new_length - old])
        step = self._plan(ids, counts, attended=False)
        for layer, (keys, values) in zip(self.layers, history):
            layer.append_step(step.write_blocks, step.write_offsets,
                              keys[:, old:new_length].swapaxes(0, 1),
                              values[:, old:new_length].swapaxes(0, 1))
        self._advance(ids, counts)

    def history(self, session_id: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per layer, contiguous ``(heads, length, head_dim)`` copies of a
        session's keys and values (what :meth:`_import` takes)."""
        table, length = self.table(session_id), self.length(session_id)
        return [tuple(half[:, :length] for half in layer.read_blocks(table))
                for layer in self.layers]

    def admit_rows(self, source: "PagedKVCache",
                   sessions: Optional[Sequence[int]] = None,
                   lengths: Optional[Sequence[int]] = None,
                   shared_blocks: Sequence[int] = ()) -> List[int]:
        """Open one session per listed session of a prefilled ``source`` pool.

        ``sessions`` defaults to every live session of ``source``, oldest
        first; ``lengths[i]`` trims the import of ``sessions[i]`` to its
        first tokens (default: all it holds).  ``shared_blocks`` —
        already-filled *full* blocks, a common head — go at the front of
        every table by reference; the source session must still hold the
        complete history so the rest can be copied from it.  All or nothing:
        on exhaustion no session is opened and no id is spent.  Returns the
        session ids in the order of ``sessions``.
        """
        if sessions is None:
            sessions = source.sessions
        fulls = [source.length(session) for session in sessions]
        lengths = fulls if lengths is None else list(lengths)
        if len(lengths) != len(fulls):
            raise ValueError(f"{len(lengths)} lengths for {len(fulls)} sessions")
        shared = list(shared_blocks)
        shared_len = len(shared) * self.block_size
        for length, full in zip(lengths, fulls):
            if full < 1:
                raise ValueError("cannot admit an empty session; prefill first")
            if not shared_len < length <= full:
                raise ValueError(
                    f"length {length} outside {shared_len + 1}..{full}: the "
                    f"{len(shared)} shared blocks, then at least one fresh "
                    f"token of the prefilled history")
        histories = [self._source_history(source, session) for session in sessions]
        self.allocator.require(sum(self.blocks_needed(length - shared_len)
                                   for length in lengths))
        session_ids = []
        for history, length in zip(histories, lengths):
            session_ids.append(self.open_session(shared, shared_len))
            self._import(session_ids[-1], history, length)
        return session_ids

    def _source_history(self, source: "PagedKVCache", session: int
                        ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`history` of a session of ``source``, checked to match this
        pool's depth."""
        if source.num_layers != self.num_layers:
            raise ValueError(
                f"session cache has {source.num_layers} layers but the paged "
                f"cache has {self.num_layers}")
        return source.history(session)

    def extend_session(self, session_id: int, source: "PagedKVCache",
                       session: Optional[int] = None,
                       new_length: Optional[int] = None) -> None:
        """Append what a session of ``source`` (default: its only one) holds
        past this session's length.

        The source session holds this session's full history so far (shared
        head included); tokens ``[length(session_id), new_length)`` are new
        (``new_length`` defaults to the source session's full length).
        """
        if session is None:
            [session] = source.sessions
        old, full = self.length(session_id), source.length(session)
        new_length = full if new_length is None else new_length
        if not old < new_length <= full:
            raise ValueError(
                f"cannot extend session {session_id} from {old} to "
                f"{new_length} tokens (prefilled history holds {full})")
        self._import(session_id, self._source_history(source, session), new_length)

    # ------------------------------------------------------------------ #
    def _release_blocks(self, block_ids: Sequence[int]) -> None:
        """Drop one reference on each block, as a table lets go of it.  A
        block that frees is re-zeroed (see :class:`PagedLayerKVCache`)."""
        for block in block_ids:
            if self.allocator.release(block):
                for layer in self.layers:
                    layer.clear_block(block)

    def fork(self, session_id: int) -> int:
        """Clone a session by sharing its blocks (copy-on-write protected)."""
        return self.open_session(self.table(session_id), self.length(session_id))

    def evict(self, session_id: int) -> None:
        """Release a session's blocks back to the pool."""
        row = self._rows.pop(session_id, None)
        if row is None:
            raise ValueError(f"session {session_id} is not live (double evict?)")
        held = int(self._nblocks[row])
        self._release_blocks(self._table[row, :held].tolist())
        self._table[row, :held] = 0
        self._nblocks[row] = self._length[row] = 0
        self._free_rows.append(row)

    # ------------------------------------------------------------------ #
    def _grow(self, rows: np.ndarray, lengths: np.ndarray,
              totals: np.ndarray) -> List[int]:
        """Ready the tables of ``rows`` for writes up to ``totals`` tokens;
        return each row's block count afterwards.

        A row gains however many whole blocks it is short of, and a row
        whose partially filled tail block is shared (a forked sibling, a
        partial prefix) first gets its own copy of it, so the write that
        follows cannot leak into the other holder.  Every fresh block comes
        from one all-or-nothing allocation made before any table is touched:
        on pool exhaustion the caller can evict a session and retry.
        """
        block_size = self.block_size
        have = self._nblocks[rows]
        needs = (totals + (block_size - 1)) // block_size
        # An empty row has no tail block: column -1 is read in its place and
        # dropped below with the full tails (length 0 fills no block partly).
        tails = self._table[rows, have - 1]
        split = self.allocator.refcounts[tails] > 1
        # The common step moves no table; for a few dozen rows, finding that
        # out on lists costs less than the array reductions would.
        needs_list = needs.tolist()
        if needs_list == have.tolist() and not any(split.tolist()):
            return needs_list
        split &= lengths % block_size != 0  # a full tail takes no write
        fresh_needed = needs - have + split
        fresh = self._allocate_many(int(fresh_needed.sum()))
        self._ensure_storage()
        self._reserve(0, max(needs_list))
        taken = 0
        for i in np.flatnonzero(fresh_needed).tolist():
            row, end, count = rows[i], have[i], int(fresh_needed[i])
            if split[i]:
                end -= 1  # the copy takes the shared tail's place
                for layer in self.layers:
                    layer.copy_block(tails[i], fresh[taken])
                # The split can drop the last reference (the sibling already
                # copy-on-wrote its own tail this same step): the release keeps
                # the freed-blocks-are-zeroed invariant.
                self._release_blocks((int(tails[i]),))
            self._table[row, end:end + count] = fresh[taken:taken + count]
            taken += count
        self._nblocks[rows] = needs
        return needs_list

    def _plan(self, session_ids: np.ndarray, counts: np.ndarray,
              limit: Optional[int] = None, attended: bool = True,
              prompt_from: Optional[int] = None) -> PagedStepContext:
        """The one step plan: row *i* will write ``counts[i] >= 1`` new tokens.

        Decode is ``counts == 1``; a verification row feeds its pending
        sampled token plus its drafts; a prefill row feeds the next
        ``counts[i]`` tokens of its prompt, from whatever length it stands at
        (0 for a row just opened).  Rows ``prompt_from..`` are prompt rows
        behind decode / verification rows and are grouped apart from them
        (:func:`partition_rows`); only a prompt row's last token is read, so
        the same pass gives the step its final-layer view
        (:attr:`PagedStepContext.last`) when a prompt row feeds more than
        one token.  A step that would take any row past
        ``limit`` tokens is refused before anything is touched.  Grows and
        copy-on-write splits the tables first (:meth:`_grow` — atomic on
        exhaustion, and before any write), then reads the batch's padded
        tables straight off the table matrix and lays out, per packed token,
        its position (also its causal cutoff) and where it lands, and per
        length group the query index.  ``attended`` is False for an import,
        whose tokens no attention reads: it is left out of the counters.
        """
        session_ids = np.asarray(session_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if len(session_ids) == 0:
            raise ValueError("step prepared with no active sessions")
        if len(counts) != len(session_ids):
            raise ValueError(f"{len(counts)} counts for {len(session_ids)} sessions")
        row_of, place_of, index, valid = _token_grid(counts.tobytes())
        rows = self._batch_rows(session_ids)
        lengths = self._length[rows]
        totals = lengths + counts
        if limit is not None and int(totals.max()) > limit:
            raise ValueError(f"sequence length {int(totals.max())} exceeds "
                             f"maximum {limit}")
        needs = self._grow(rows, lengths, totals)
        tables = self._table[rows, :max(needs)]
        positions = lengths[row_of] + place_of
        blocks, write_offsets = np.divmod(positions, self.block_size)
        write_blocks = tables[row_of, blocks]
        groups, keep, last_groups = _length_groups(
            tables, needs, counts, lengths, index, valid, positions,
            self.block_size, prompt_from)
        step = PagedStepContext(session_ids, groups, write_blocks, write_offsets,
                                positions)
        if keep is not None:
            step.last = PagedStepContext(session_ids, last_groups, write_blocks,
                                         write_offsets, positions, keep)
        if attended:
            # What the step's attention will score, per layer: every group's
            # rows x its key width, against the rows' own windows.
            self.key_positions_gathered += sum(
                self.block_size * tables.size if fresh is None else fresh.size
                for _, tables, _, _, fresh in step.groups)
            self.key_positions_live += int(totals.sum())
            self.attention_groups += len(step.groups)
        return step

    def _advance(self, session_ids: np.ndarray, counts) -> None:
        """The one commit: lengths move once every layer has written."""
        self._length[self._batch_rows(session_ids)] += counts

    # The four public spellings of the plan and the commit.  Each calls the
    # body directly, never another spelling: ``bench/trace.py`` times them by
    # name, and a nested call would be counted twice.
    def prepare_step(self, session_ids: np.ndarray,
                     limit: Optional[int] = None) -> PagedStepContext:
        """Plan one new token on each listed session: :meth:`prepare_multi_step`
        with every count 1."""
        return self._plan(session_ids, np.ones(len(session_ids), dtype=np.int64),
                          limit)

    def prepare_multi_step(self, session_ids: np.ndarray, counts: np.ndarray,
                           limit: Optional[int] = None,
                           prompt_from: Optional[int] = None) -> PagedStepContext:
        """Plan a ragged multi-token step (see :meth:`_plan`): refuses a row
        past ``limit`` tokens, allocates and copy-on-writes all or nothing,
        groups rows ``prompt_from..`` apart from the rows before them and
        plans the final layer at their last tokens, returns the
        gather/scatter plan."""
        return self._plan(session_ids, counts, limit, prompt_from=prompt_from)

    def commit_step(self, session_ids: np.ndarray) -> None:
        """Advance each listed session by the one token its layers wrote."""
        self._advance(session_ids, 1)

    def commit_multi_step(self, session_ids: np.ndarray,
                          counts: np.ndarray) -> None:
        """Advance per-session lengths after a ragged multi-token step."""
        self._advance(session_ids, counts)

    def truncate_session(self, session_id: int, new_length: int) -> None:
        """Roll a session back to ``new_length`` tokens (speculation rollback).

        Releases the tail blocks past ``ceil(new_length / block_size)`` —
        freshly appended by the step being rolled back, hence exclusively
        owned (forks happen between steps, and a shared partial tail was
        already copy-on-write split before any draft token landed in it), so
        the release cannot disturb a sibling.  Rejected tokens left inside
        the kept tail block are invisible: every future gather masks at the
        committed length and every future append overwrites them.  Truncating
        to the current length abandons a step that was prepared and never
        committed: the blocks its plan appended go back.
        """
        row = self._row(session_id)
        current = int(self._length[row])
        if not 0 < new_length <= current:
            raise ValueError(
                f"cannot truncate session {session_id} from {current} to "
                f"{new_length} tokens")
        keep, held = self.blocks_needed(new_length), int(self._nblocks[row])
        self._release_blocks(self._table[row, keep:held].tolist())
        self._table[row, keep:held] = 0
        self._nblocks[row] = keep
        self._length[row] = new_length

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert pool-accounting consistency (used by the stress tests).

        The table rows split exactly into live sessions' rows and free ones;
        a session holds ``blocks_needed(length)`` blocks and its row is zero
        past them; the references counted off the table matrix equal the
        allocator's — every reference is a table entry, so nothing else may
        be counted; and the allocator's free list, in-use counter and
        high-water mark balance.  Raises ``AssertionError`` naming the first
        violated invariant.
        """
        alloc = self.allocator
        live_rows = sorted(self._rows.values())
        assert sorted(live_rows + self._free_rows) == list(range(len(self._table))), (
            "the row map and the free rows do not partition the table rows: "
            f"live {live_rows}, free {sorted(self._free_rows)}")
        for sid, row in self._rows.items():
            assert self._nblocks[row] == self.blocks_needed(self._length[row]), (
                f"session {sid}: {self._nblocks[row]} blocks for length "
                f"{self._length[row]} (block_size {self.block_size})")
        assert not self._nblocks[self._free_rows].any(), (
            "a free table row still holds blocks")
        held = np.arange(self._table.shape[1]) < self._nblocks[:, None]
        assert not self._table[~held].any(), (
            "a table row is not zero past its session's blocks")
        table_refs = np.bincount(self._table[held], minlength=alloc.num_blocks)
        live = np.flatnonzero(alloc.refcounts > 0)
        assert np.array_equal(table_refs, alloc.refcounts), (
            "refcount mismatch: counted "
            f"{table_refs[live].tolist()} vs recorded "
            f"{alloc.refcounts[live].tolist()} on live blocks {live.tolist()}")
        free = set(alloc._free)
        assert len(free) == len(alloc._free), "free list contains duplicates"
        for block in free:
            assert alloc.refcounts[block] == 0, (
                f"block {block} is both free and referenced")
            assert block < alloc.high_water, (
                f"block {block} freed beyond the high-water mark {alloc.high_water}")
        assert alloc.blocks_in_use == len(live), (
            f"in-use counter {alloc.blocks_in_use} != {len(live)} live blocks")
        assert alloc.blocks_in_use + len(free) == alloc.high_water, (
            "allocator accounting does not balance: "
            f"{alloc.blocks_in_use} in use + {len(free)} free != "
            f"high water {alloc.high_water}")
        # A block referenced exactly once belongs to exactly one table —
        # exclusive ownership; shared blocks are read-only until
        # copy-on-write gives the writer its own copy.
        single = np.flatnonzero(alloc.refcounts == 1)
        owners = table_refs[single]
        assert np.all(owners == 1), "exclusively owned block with wrong ref tally"
