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
the slot-packed design, keeping per-session logits identical to a
single-session :class:`KVCache` decode.

The step is ragged in both dimensions.  Its queries are **token-packed**:
row *i*'s ``counts[i]`` new tokens sit back to back in one ``(sum(counts),
...)`` array, so a row that feeds five tokens beside fifteen that feed one
costs twenty token rows in every dense layer, not eighty.  Its keys are
grouped: padding every row to the *batch's* longest table would make a
40-token session gather and score its 500-token neighbour's width, so
:func:`partition_rows` sorts the rows of a step into **length groups** by each
row's own block need and the context carries one ``(tokens, tables, mask,
valid)`` entry per group, each at that group's key width and its own widest
row's query width; attention runs gather -> scores -> mask -> softmax ->
``@ values`` once per group while everything else in the layer stays one call
over the packed tokens.  A batch of similar lengths is the one-group case of
the same plan (the step's table matrix itself, no further copy).
``key_positions_gathered`` / ``key_positions_live`` count what the padding
that remains costs.

Sessions need not be admitted fully prefilled: :meth:`PagedKVCache.admit_rows`
accepts a partial prompt (``lengths`` shorter than the prefilled history) and
:meth:`PagedKVCache.extend_session` scatters each further **prefill chunk**
into the session's blocks, growing its table incrementally — the substrate
for chunked prefill interleaved with decode steps.

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

from .attention import KVCache, _position_range

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

#: The one-group all-ones step's token selector — row *i*'s one token is packed
#: token *i* — as a basic index: ``q[tokens]`` is the view ``q[:, None]`` and
#: ``out[tokens] = ...`` a plain copy.
_ONE_TOKEN_EACH = (slice(None), None)

#: How a length group names its rows: the whole-batch slice or index array.
RowIndex = Union[slice, np.ndarray]


def partition_rows(needs: Sequence[int]) -> Tuple[Tuple[RowIndex, int], ...]:
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
    """
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

    def allocate(self) -> int:
        """Hand out one block (refcount 1), reusing freed ids lowest-first."""
        if self._free:
            block = self._free.pop()
        elif self._next < self.num_blocks:
            block = self._next
            self._next += 1
        else:
            raise RuntimeError(
                f"out of KV-cache blocks ({self.num_blocks} x {self.block_size} "
                f"tokens all in use); evict a session first")
        self.refcounts[block] = 1
        self._in_use += 1
        return block

    def share(self, block: int) -> None:
        """Add a reference to an already-live block (prefix reuse / fork)."""
        if self.refcounts[block] < 1:
            raise ValueError(f"cannot share block {block}: it is not allocated")
        self.refcounts[block] += 1

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

    def write_blocks(self, block_ids: Sequence[int], keys: np.ndarray,
                     values: np.ndarray) -> None:
        """Lay a contiguous ``(heads, length, head_dim)`` history out in blocks.

        ``block_ids[j]`` receives tokens ``[j*block_size, (j+1)*block_size)``;
        the final block may be partially filled.
        """
        block_size = self._keys.shape[2]
        length = keys.shape[1]
        for j, block in enumerate(block_ids):
            start = j * block_size
            took = min(block_size, length - start)
            self._keys[block, :, :took] = keys[:, start:start + took]
            self._values[block, :, :took] = values[:, start:start + took]

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
        of the listed blocks' K/V (the inverse of :meth:`write_blocks`)."""
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


def _window_mask(positions: np.ndarray, gathered_len: int) -> Optional[np.ndarray]:
    """Boolean ``(g, width, gathered_len)`` mask of the gathered positions
    past each query token's own; None when there are none."""
    if int(positions.min()) + 1 == gathered_len:
        return None
    return _position_range(gathered_len)[None, None, :] > positions[:, :, None]


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
    come.  Only attention needs a rectangle, and only per length group:
    ``groups`` partitions the rows by block need (:func:`partition_rows`) and
    attention gathers, scores and scatters each group at its own key width
    and its own widest row's query width.  A batch of similar lengths has one
    group covering every row — the same loop, run once.  Every array is the
    step's own copy, read from the pool as it stood when the step was
    prepared: a context is spent once its step is committed, or once any of
    its sessions is otherwise mutated.
    """

    __slots__ = ("session_ids", "groups", "write_blocks", "write_offsets",
                 "positions")

    def __init__(self, session_ids: np.ndarray, groups: Tuple[tuple, ...],
                 write_blocks: np.ndarray, write_offsets: np.ndarray,
                 positions: np.ndarray) -> None:
        self.session_ids = session_ids
        self.write_blocks = write_blocks    #: (total,) block per packed token
        self.write_offsets = write_offsets  #: (total,) offset within that block
        #: (total,) global position per packed token: where it is written,
        #: its positional embedding and its causal cutoff.
        self.positions = positions
        #: One ``(tokens, tables, mask, valid)`` per length group.  ``tokens``
        #: indexes the packed arrays: ``(g, width)``, row by row, ``width``
        #: the group's own widest row and the places past a shorter row's
        #: count repeating its last token (the basic index ``[:, None]``, a
        #: view, when the batch is one group of one-token rows).  ``tables``
        #: is the rows' ``(g, group_blocks)`` padded block ids.  ``mask`` is
        #: the boolean ``(g, width, group_blocks * block_size)`` invisibility
        #: mask over the group's gathered window, or None when every query
        #: token of the group sees all of it: ``mask[i, t, j]`` is True when
        #: gathered position ``j`` lies past the position of query token
        #: ``t`` of row ``i`` (the causal cutoff) — which covers future draft
        #: tokens, block padding and shorter group members at once; a
        #: repeated token repeats its position, so no softmax row is ever
        #: fully masked.  ``valid`` is the boolean ``(g, width)`` selector of
        #: the real tokens among ``tokens`` — whose contexts are the only
        #: ones scattered back — or None when the rows all feed ``width``.
        self.groups = groups


def _length_groups(tables: np.ndarray, needs: Sequence[int], counts: np.ndarray,
                   index: np.ndarray, valid: Optional[np.ndarray],
                   positions: np.ndarray, block_size: int) -> Tuple[tuple, ...]:
    """A step's ``(tokens, tables, mask, valid)`` per length group (see
    :class:`PagedStepContext`).  ``index`` / ``valid`` are the step's
    :func:`_token_grid`.  The one-group case takes them and ``tables`` as
    they stand (``max(counts)`` and ``max(needs)`` are their widths by
    construction); a group among several is cut to its own two widths."""
    groups = []
    for rows, blocks in partition_rows(needs):
        tokens, group_tables, real = index, tables, valid
        if rows is not _ALL_ROWS:
            own = counts[rows].tolist()  # a group is a few rows: lists are cheaper
            width = max(own)
            tokens, group_tables = index[rows, :width], tables[rows, :blocks]
            real = None if min(own) == width else valid[rows, :width]
        elif index.shape[1] == 1:
            tokens = _ONE_TOKEN_EACH
        groups.append((tokens, group_tables,
                       _window_mask(positions[tokens],
                                    group_tables.shape[1] * block_size), real))
    return tuple(groups)


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

    Sharing: :meth:`admit` can map already-filled blocks (a cached prompt
    prefix) into a new session's table, and :meth:`fork` clones a whole
    session, both by bumping block refcounts instead of copying.  Any write
    into a block with refcount > 1 triggers copy-on-write before the step
    that writes it (:meth:`prepare_step` / :meth:`prepare_multi_step` /
    :meth:`extend_session`, one routine), so sharing is invisible to
    correctness.
    """

    #: Optional chaos hook (``FaultInjector.fire``): called at the named
    #: fault sites ``kv.admit`` / ``kv.extend`` before any pool mutation, so
    #: an injected fault never leaves partially-admitted state behind.  None
    #: (the class default) costs one attribute check per call.
    fault_hook = None

    def __init__(self, num_layers: int, max_blocks: int,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.allocator = BlockAllocator(max_blocks, block_size)
        self.layers: List[PagedLayerKVCache] = [
            PagedLayerKVCache() for _ in range(num_layers)]
        self._table = np.zeros((0, 0), dtype=np.int64)
        self._nblocks = np.zeros(0, dtype=np.int64)
        self._length = np.zeros(0, dtype=np.int64)
        self._rows: Dict[int, int] = {}  # live session id -> table row
        self._free_rows: List[int] = []
        self._ids = itertools.count()
        #: Key positions the steps so far gathered per layer (every group's
        #: rows x its padded width) and how many of those were live history
        #: (each row's own window); the gap is padding, gathered and scored
        #: for nothing.  ``attention_groups`` counts the length groups those
        #: steps ran, so groups per step is its delta.
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
        row = self._rows[session_id]
        return tuple(self._table[row, :self._nblocks[row]].tolist())

    def blocks_needed(self, length: int) -> int:
        return -(-length // self.block_size)

    # ------------------------------------------------------------------ #
    def _ensure_storage(self, heads: int, head_dim: int, dtype: np.dtype) -> None:
        for layer in self.layers:
            layer.ensure(self.allocator.high_water, heads, self.block_size,
                         head_dim, dtype)

    def _allocate_many(self, count: int) -> List[int]:
        """Allocate ``count`` blocks atomically (roll back on exhaustion)."""
        blocks: List[int] = []
        try:
            for _ in range(count):
                blocks.append(self.allocator.allocate())
        except RuntimeError:
            for block in blocks:
                self.allocator.release(block)
            raise
        return blocks

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

    def _open(self, blocks: Sequence[int], length: int) -> int:
        """Enter a session holding ``blocks`` (references already taken) and
        ``length`` tokens under the next id; return the id."""
        self._reserve(len(self._rows) + 1, len(blocks))  # a free row exists
        row = self._free_rows.pop()
        self._table[row, :len(blocks)] = blocks
        self._nblocks[row] = len(blocks)
        self._length[row] = length
        session_id = next(self._ids)
        self._rows[session_id] = row
        return session_id

    def admit(self, cache: KVCache, row: int = 0, length: Optional[int] = None,
              shared_blocks: Sequence[int] = ()) -> int:
        """Map one prefilled session into the pool; return its session id.

        ``cache`` is the single-session :class:`KVCache` the prompt was
        prefilled through; ``row`` selects the session when several prompts
        were prefilled together.  ``length`` trims a right-padded batched
        prefill to the session's true history (default: the full cache
        length).  ``shared_blocks`` maps already-filled *full* blocks — a
        cached common prefix — into the head of the new session's table
        without copying; ``cache`` must still contain the complete history
        (prefix included) so the fresh tail can be copied from it.
        """
        template = cache.layers[0].keys if cache.layers else None
        if template is not None and not 0 <= row < template.shape[0]:
            raise ValueError(f"row {row} outside prefilled batch of {template.shape[0]}")
        return self.admit_rows(cache, rows=[row],
                               lengths=None if length is None else [length],
                               shared_blocks=shared_blocks)[0]

    def admit_rows(self, cache: KVCache, rows: Optional[Sequence[int]] = None,
                   lengths: Optional[Sequence[int]] = None,
                   shared_blocks: Sequence[int] = ()) -> List[int]:
        """Map several rows of one batched prefill into the pool at once.

        The whole group's fresh key/value history is laid out into blocks
        with one scatter per layer (instead of per-session per-block copies),
        which is what keeps ragged batched admission cheap.  ``lengths[i]``
        trims row ``rows[i]`` of the (right-padded) prefill to its true
        history; ``shared_blocks`` is prepended to every admitted session's
        table by reference (see :meth:`admit`).  Returns the session ids in
        row order.
        """
        if self.fault_hook is not None:
            self.fault_hook("kv.admit")
        if cache.num_layers != self.num_layers:
            raise ValueError(
                f"session cache has {cache.num_layers} layers but the paged "
                f"cache has {self.num_layers}")
        full = cache.seq_len
        if full < 1:
            raise ValueError("cannot admit an empty session cache; prefill first")
        batch = cache.layers[0].keys.shape[0]
        rows = list(range(batch)) if rows is None else list(rows)
        if not rows:
            return []
        for row in rows:
            if not 0 <= row < batch:
                raise ValueError(f"row {row} outside prefilled batch of {batch}")
        lengths = [full] * len(rows) if lengths is None else list(lengths)
        if len(lengths) != len(rows):
            raise ValueError(f"{len(lengths)} lengths for {len(rows)} rows")
        shared = list(shared_blocks)
        shared_len = len(shared) * self.block_size
        for length in lengths:
            if not 1 <= length <= full:
                raise ValueError(f"length {length} outside prefilled range 1..{full}")
            if shared_len >= length:
                raise ValueError(
                    f"{len(shared)} shared blocks cover {shared_len} tokens but "
                    f"the session is only {length} long; at least one fresh "
                    f"token is required")
        template = cache.layers[0].keys
        block_size = self.block_size

        fresh_counts = [self.blocks_needed(length - shared_len) for length in lengths]
        fresh = self._allocate_many(sum(fresh_counts))
        for _ in rows:
            for block in shared:
                self.allocator.share(block)
        self._ensure_storage(template.shape[1], template.shape[3], template.dtype)

        # One scatter per layer: gather the group's fresh token range, pad it
        # to whole blocks, fold into (row, block, heads, block_size, head_dim)
        # and write every session's blocks with a single fancy index.
        rows_index = np.asarray(rows, dtype=np.int64)
        max_blocks = max(fresh_counts)
        padded_len = max_blocks * block_size
        valid = np.zeros((len(rows), max_blocks), dtype=bool)
        for i, count in enumerate(fresh_counts):
            valid[i, :count] = True
        targets = np.asarray(fresh, dtype=np.int64)
        n, heads, _, head_dim = template.shape
        for source, layer in zip(cache.layers, self.layers):
            for source_array, storage in ((source.keys, layer._keys),
                                          (source.values, layer._values)):
                chunk = source_array[rows_index, :, shared_len:shared_len + padded_len]
                take = chunk.shape[2]
                folded = np.zeros((len(rows), heads, padded_len, head_dim),
                                  dtype=chunk.dtype)
                folded[:, :, :take] = chunk
                folded = folded.reshape(len(rows), heads, max_blocks, block_size,
                                        head_dim).transpose(0, 2, 1, 3, 4)
                storage[targets] = folded[valid]

        session_ids = []
        offset = 0
        for length, count in zip(lengths, fresh_counts):
            session_ids.append(
                self._open(shared + fresh[offset:offset + count], length))
            offset += count
        return session_ids

    def extend_session(self, session_id: int, cache: KVCache, row: int = 0,
                       new_length: Optional[int] = None) -> None:
        """Scatter the next prefill chunk of a partially admitted session.

        ``cache`` is the session's resumable single-session prefill cache: it
        holds the full history computed so far (shared prefix head included),
        of which tokens ``[length(session_id), new_length)`` are new and get
        laid out into the session's blocks — filling the partially used tail
        block first, then appending fresh blocks.  ``new_length`` defaults to
        the cache's full length.  A shared tail block (a forked sibling) is
        copy-on-write split before the chunk lands in it, by the
        routine that does it for decode writes (:meth:`_grow`).
        """
        if self.fault_hook is not None:
            self.fault_hook("kv.extend")
        table_row = self._row(session_id)
        if cache.num_layers != self.num_layers:
            raise ValueError(
                f"session cache has {cache.num_layers} layers but the paged "
                f"cache has {self.num_layers}")
        old = int(self._length[table_row])
        full = cache.seq_len
        new_length = full if new_length is None else new_length
        if not old < new_length <= full:
            raise ValueError(
                f"cannot extend session {session_id} from {old} to "
                f"{new_length} tokens (prefilled history holds {full})")
        template = cache.layers[0].keys
        if not 0 <= row < template.shape[0]:
            raise ValueError(f"row {row} outside prefilled batch of "
                             f"{template.shape[0]}")
        block_size = self.block_size
        self._grow(np.asarray([table_row]), np.asarray([old]), np.asarray([new_length]))
        table = self._table[table_row, :self._nblocks[table_row]].tolist()
        for source, layer in zip(cache.layers, self.layers):
            for source_array, storage in ((source.keys, layer._keys),
                                          (source.values, layer._values)):
                history = source_array[row]
                position, index = old, old // block_size
                while position < new_length:
                    offset = position % block_size
                    took = min(block_size - offset, new_length - position)
                    storage[table[index], :, offset:offset + took] = \
                        history[:, position:position + took]
                    position += took
                    index += 1
        self._length[table_row] = new_length

    def register_blocks(self, keys_per_layer: Sequence[np.ndarray],
                        values_per_layer: Sequence[np.ndarray]) -> List[int]:
        """Fill fresh blocks with a block-aligned history owned by the caller.

        ``keys_per_layer[l]``/``values_per_layer[l]`` are contiguous
        ``(heads, length, head_dim)`` arrays with ``length`` a multiple of
        the block size.  Used by the shared-prefix cache to park a common
        prompt head in the pool outside any session; sessions then map the
        returned blocks via :meth:`admit`'s ``shared_blocks``.  The caller
        holds one reference per block until :meth:`release_blocks`.
        """
        if len(keys_per_layer) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} layers of keys, "
                             f"got {len(keys_per_layer)}")
        length = keys_per_layer[0].shape[1]
        if length < 1 or length % self.block_size:
            raise ValueError(f"registered history length {length} must be a "
                             f"positive multiple of block size {self.block_size}")
        blocks = self._allocate_many(length // self.block_size)
        template = keys_per_layer[0]
        for layer in self.layers:
            layer.ensure(self.allocator.high_water, template.shape[0],
                         self.block_size, template.shape[2], template.dtype)
        for layer, keys, values in zip(self.layers, keys_per_layer, values_per_layer):
            layer.write_blocks(blocks, keys, values)
        return blocks

    def release_blocks(self, block_ids: Sequence[int]) -> None:
        """Drop one reference on each block — the caller's, on blocks from
        :meth:`register_blocks`; a session's, when its table lets go of them.
        A block that frees is re-zeroed (see :class:`PagedLayerKVCache`)."""
        for block in block_ids:
            if self.allocator.release(block):
                for layer in self.layers:
                    layer.clear_block(block)

    def fork(self, session_id: int) -> int:
        """Clone a session by sharing its blocks (copy-on-write protected)."""
        blocks = self.table(session_id)
        for block in blocks:
            self.allocator.share(block)
        return self._open(blocks, self.length(session_id))

    def evict(self, session_id: int) -> None:
        """Release a session's blocks back to the pool."""
        row = self._rows.pop(session_id, None)
        if row is None:
            raise ValueError(f"session {session_id} is not live (double evict?)")
        held = int(self._nblocks[row])
        self.release_blocks(self._table[row, :held].tolist())
        self._table[row, :held] = 0
        self._nblocks[row] = self._length[row] = 0
        self._free_rows.append(row)

    # ------------------------------------------------------------------ #
    def _template_dims(self) -> Tuple[int, int, np.dtype]:
        template = self.layers[0]._keys
        if template is None:
            raise RuntimeError("paged cache has no admitted sessions")
        return template.shape[1], template.shape[3], template.dtype

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
        self._ensure_storage(*self._template_dims())
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
                self.release_blocks((int(tails[i]),))
            self._table[row, end:end + count] = fresh[taken:taken + count]
            taken += count
        self._nblocks[rows] = needs
        return needs_list

    def _counted(self, step: PagedStepContext, live: int) -> PagedStepContext:
        """Count what ``step``'s attention will read (per layer); ``live`` is
        the sum of its rows' own windows."""
        self.key_positions_gathered += self.block_size * sum(
            tables.size for _, tables, _, _ in step.groups)
        self.key_positions_live += live
        self.attention_groups += len(step.groups)
        return step

    def _plan(self, session_ids: np.ndarray,
              counts: np.ndarray) -> PagedStepContext:
        """The one step plan: row *i* will write ``counts[i] >= 1`` new tokens.

        Decode is ``counts == 1``; a verification row feeds its pending
        sampled token plus its drafts.  Grows and copy-on-write splits the
        tables first (:meth:`_grow` — atomic on exhaustion, and before any
        write), then reads the batch's padded tables straight off the table
        matrix and lays out, per packed token, its position (also its causal
        cutoff) and where it lands, and per length group the query index.
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
        needs = self._grow(rows, lengths, totals)
        tables = self._table[rows, :max(needs)]
        positions = lengths[row_of] + place_of
        blocks, write_offsets = np.divmod(positions, self.block_size)
        return self._counted(
            PagedStepContext(
                session_ids,
                _length_groups(tables, needs, counts, index, valid, positions,
                               self.block_size),
                tables[row_of, blocks], write_offsets, positions),
            int(totals.sum()))

    def _advance(self, session_ids: np.ndarray, counts) -> None:
        """The one commit: lengths move once every layer has written."""
        self._length[self._batch_rows(session_ids)] += counts

    # The four public spellings of the plan and the commit.  Each calls the
    # body directly, never another spelling: ``bench/trace.py`` times them by
    # name, and a nested call would be counted twice.
    def prepare_step(self, session_ids: np.ndarray) -> PagedStepContext:
        """Plan one new token on each listed session: :meth:`prepare_multi_step`
        with every count 1."""
        return self._plan(session_ids, np.ones(len(session_ids), dtype=np.int64))

    def prepare_multi_step(self, session_ids: np.ndarray,
                           counts: np.ndarray) -> PagedStepContext:
        """Plan a ragged multi-token step (see :meth:`_plan`): allocates and
        copy-on-writes all or nothing, returns the gather/scatter plan."""
        return self._plan(session_ids, counts)

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
        self.release_blocks(self._table[row, keep:held].tolist())
        self._table[row, keep:held] = 0
        self._nblocks[row] = keep
        self._length[row] = new_length

    # ------------------------------------------------------------------ #
    def check_invariants(self, external_refs: Optional[Dict[int, int]] = None) -> None:
        """Assert pool-accounting consistency (used by the stress tests).

        The table rows split exactly into live sessions' rows and free ones;
        a session holds ``blocks_needed(length)`` blocks and its row is zero
        past them; the references counted off the table matrix (plus
        ``external_refs``: block id -> references held outside any session
        table, e.g. by a prefix cache) equal the allocator's; and the
        allocator's free list, in-use counter and high-water mark balance.
        Raises ``AssertionError`` naming the first violated invariant.
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
        for block, count in (external_refs or {}).items():
            table_refs[block] += count
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
        # A block referenced exactly once belongs to exactly one table (or one
        # external holder) — exclusive ownership; shared blocks are read-only
        # until copy-on-write gives the writer its own copy.
        single = np.flatnonzero(alloc.refcounts == 1)
        owners = table_refs[single]
        assert np.all(owners == 1), "exclusively owned block with wrong ref tally"
