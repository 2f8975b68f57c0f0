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
* :class:`PagedKVCache` keeps a **block table** per session (the ordered block
  ids covering its history) and turns a batch of session ids into a
  :class:`PagedStepContext` — the gather/scatter plan one batched decode step
  needs.  Writes into a block referenced by more than one session first copy
  it (copy-on-write), so shared blocks are never mutated under a neighbour.

Attention gathers each session's history with one fancy index over the block
axis (``keys[tables]``), which pads every row to a whole number of blocks;
the padded tail is masked with ``-inf`` exactly like ragged batches were in
the slot-packed design, keeping per-session logits identical to a
single-session :class:`KVCache` decode.

The step is ragged in the key dimension too.  Padding every row to the
*batch's* longest table would make a 40-token session gather and score its
500-token neighbour's width, so :func:`partition_rows` sorts the rows of a
step into **length groups** by each row's own block need and the context
carries one ``(rows, tables, mask)`` triple per group, each at that group's
width; attention runs gather -> scores -> mask -> softmax -> ``@ values``
once per group while everything else in the layer stays one batched call.
A batch of similar lengths is the one-group case of the same plan (the
whole-batch slice over the cached table matrix, no copies).
``key_positions_gathered`` / ``key_positions_live`` count what the padding
that remains costs.

Sessions need not be admitted fully prefilled: :meth:`PagedKVCache.admit_rows`
accepts a partial prompt (``lengths`` shorter than the prefilled history) and
:meth:`PagedKVCache.extend_session` scatters each further **prefill chunk**
into the session's blocks, growing its table incrementally — the substrate
for chunked prefill interleaved with decode steps.

The decode hot path caches its gather plan: per-session block-table rows are
versioned, the padded ``tables`` matrix is reused across steps and only rows
whose table actually changed are rewritten (``table_rebuilds`` /
``table_row_updates`` count the cache behaviour), and the per-step
offset/total/position arrays live in preallocated buffers so a steady-state
decode step performs no per-session Python table walk and no temporary
allocations beyond the attention math itself.  The length groups are part of
that cached plan and are recomputed only when a row's block table moves.
"""

from __future__ import annotations

import itertools
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

#: The one-group partition's row selector: a basic slice, so ``q[rows]`` is a
#: view and ``out[rows] = ...`` a plain copy.
_ALL_ROWS = slice(None)

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


def _row_groups(tables: np.ndarray, needs: Sequence[int]
                ) -> Tuple[Tuple[RowIndex, np.ndarray], ...]:
    """``(rows, tables)`` per length group; the one-group case is ``tables``
    itself (``max(needs)`` is its width by construction)."""
    return tuple((rows, tables if rows is _ALL_ROWS else tables[rows, :width])
                 for rows, width in partition_rows(needs))


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
        """Write one new token per session at ``(blocks[i], offsets[i])``.

        ``keys``/``values`` have shape ``(n, heads, head_dim)``.
        """
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


def _window_mask(cutoffs: np.ndarray, gathered_len: int) -> Optional[np.ndarray]:
    """Boolean ``(g, width, gathered_len)`` mask of the gathered positions at
    or past each query token's cutoff; None when there are none."""
    if int(cutoffs.min()) == gathered_len:
        return None
    return _position_range(gathered_len)[None, None, :] >= cutoffs[:, :, None]


class PagedStepContext:
    """Gather/scatter plan for one batched step over the paged cache.

    One shape serves decode and speculative verification alike: row *i*
    feeds ``counts[i] >= 1`` new tokens (decode is ``counts == 1``) at
    global positions ``lengths[i] .. lengths[i] + counts[i] - 1``, padded
    to the batch's widest row.  Built by :meth:`PagedKVCache.prepare_step`
    / :meth:`PagedKVCache.prepare_multi_step` (which also perform any block
    allocation and copy-on-write the step needs) and consumed by every
    attention layer, so table padding and the attention masks are built
    once per step, not per layer.

    Queries are padded to the widest row, keys are not padded to the longest
    session: ``groups`` partitions the rows by block need
    (:func:`partition_rows`) and attention gathers and scores each group at
    its own width.  A batch of similar lengths has one group covering every
    row — the same loop, run once.

    The flat ``write_blocks``/``write_offsets``/``row_index``/``token_index``
    arrays cover exactly the *valid* (row, token) pairs, so padded query
    positions — whose outputs the caller ignores — are never scattered into
    the pool.  The arrays may alias the cache's internal step buffers: a
    context is only valid until the next ``prepare_*`` call on the cache.
    """

    __slots__ = ("session_ids", "groups", "write_blocks", "write_offsets",
                 "row_index", "token_index", "positions")

    def __init__(self, session_ids: np.ndarray,
                 row_groups: Sequence[Tuple[RowIndex, np.ndarray]],
                 write_blocks: np.ndarray, write_offsets: np.ndarray,
                 row_index: np.ndarray, token_index: np.ndarray,
                 positions: np.ndarray, cutoffs: np.ndarray,
                 block_size: int) -> None:
        self.session_ids = session_ids
        self.write_blocks = write_blocks    #: (total,) block per valid token
        self.write_offsets = write_offsets  #: (total,) offset within that block
        self.row_index = row_index          #: (total,) source row per valid token
        self.token_index = token_index      #: (total,) source position per valid token
        #: (n, width) global position per query token (padded entries are
        #: clamped to the row's last valid position, keeping them in range).
        self.positions = positions
        #: One ``(rows, tables, mask)`` per length group.  ``rows`` selects
        #: the group's rows of the batch (``slice(None)`` when the batch is
        #: one group), ``tables`` is their ``(g, group_blocks)`` padded block
        #: ids, and ``mask`` the boolean ``(g, width, group_blocks *
        #: block_size)`` invisibility mask over the group's gathered window,
        #: or None when every query token of the group sees all of it.
        #: ``mask[i, t, j]`` is True when gathered position ``j`` lies at or
        #: past ``cutoffs[i, t]``, the causal cutoff of query token ``t`` of
        #: row ``i`` (its own position + 1) — which covers future draft
        #: tokens, block padding and shorter group members at once.
        #: Padded query rows reuse their row's last valid cutoff, so no
        #: softmax row is ever fully masked.
        self.groups = tuple(
            (rows, tables, _window_mask(cutoffs[rows],
                                        int(tables.shape[1]) * block_size))
            for rows, tables in row_groups)


class _StepPlan:
    """Cached gather plan for a fixed batch of session ids.

    Valid while the batch composition is unchanged; individual rows are
    refreshed when their session's block table changes (tracked by per-session
    versions), so a steady-state decode never rebuilds the padded table
    matrix.  ``lengths`` mirrors the cache's per-session lengths for the
    batch and is advanced in bulk by :meth:`PagedKVCache.commit_step`.
    ``groups`` holds the step's length groups (``(rows, tables)`` pairs, see
    :func:`partition_rows`); any write to ``tables`` resets it to None and
    the next step partitions again.
    """

    __slots__ = ("ids_key", "session_ids", "tables", "lengths", "tail_blocks",
                 "versions", "epoch", "offsets_buf", "totals_buf",
                 "positions_buf", "rows", "first_token", "groups")

    def __init__(self, session_ids: np.ndarray, tables: np.ndarray,
                 lengths: np.ndarray, tail_blocks: np.ndarray,
                 versions: np.ndarray, epoch: int) -> None:
        self.ids_key = session_ids.tobytes()
        self.session_ids = session_ids
        self.tables = tables
        self.lengths = lengths
        self.tail_blocks = tail_blocks
        self.versions = versions
        self.epoch = epoch
        n = len(session_ids)
        self.offsets_buf = np.empty(n, dtype=np.int64)
        self.totals_buf = np.empty(n, dtype=np.int64)
        self.positions_buf = np.empty(n, dtype=np.int64)
        self.rows = np.arange(n)  # one valid token (index 0) per row
        self.first_token = np.zeros(n, dtype=np.int64)
        self.groups: Optional[Tuple[Tuple[RowIndex, np.ndarray], ...]] = None


class PagedKVCache:
    """Multi-session KV cache over a shared block pool.

    Each admitted session gets a monotonically increasing integer id and a
    *block table* — the ordered block ids covering its token history.  Unlike
    the slot-packed design there is no per-session capacity reservation: a
    session holds exactly ``ceil(len/block_size)`` blocks, short sessions
    stay cheap, and the number of concurrently decodable sessions is bounded
    by total blocks, not by a fixed slot count.

    Sharing: :meth:`admit` can map already-filled blocks (a cached prompt
    prefix) into a new session's table, and :meth:`fork` clones a whole
    session, both by bumping block refcounts instead of copying.  Any write
    into a block with refcount > 1 triggers copy-on-write in
    :meth:`prepare_step`, so sharing is invisible to correctness.
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
        self._tables: Dict[int, List[int]] = {}
        self._lengths: Dict[int, int] = {}
        self._ids = itertools.count()
        # Step-plan cache: per-session table versions plus a global mutation
        # epoch.  A decode step whose batch and epoch both match the cached
        # plan reuses the padded gather tables untouched; a bumped epoch only
        # rewrites the rows whose version changed.
        self._versions: Dict[int, int] = {}
        self._epoch = 0
        self._plan: Optional[_StepPlan] = None
        #: Full rebuilds of the padded gather-table matrix (batch changed).
        self.table_rebuilds = 0
        #: Single-row refreshes of the cached matrix (one table changed).
        self.table_row_updates = 0
        #: Key positions the steps so far gathered per layer (every group's
        #: rows x its padded width) and how many of those were live history
        #: (each row's own window); the gap is padding, gathered and scored
        #: for nothing.  ``attention_groups`` counts the length groups those
        #: steps ran, so groups per step is its delta.
        self.key_positions_gathered = 0
        self.key_positions_live = 0
        self.attention_groups = 0

    def _mutated(self) -> None:
        """Note a table/pool mutation so cached step plans revalidate."""
        self._epoch += 1

    # ------------------------------------------------------------------ #
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def block_size(self) -> int:
        return self.allocator.block_size

    @property
    def num_sessions(self) -> int:
        return len(self._tables)

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

    def length(self, session_id: int) -> int:
        try:
            return self._lengths[session_id]
        except KeyError:
            raise ValueError(f"session {session_id} is not live") from None

    def table(self, session_id: int) -> Tuple[int, ...]:
        return tuple(self._tables[session_id])

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
            session_id = next(self._ids)
            self._tables[session_id] = shared + fresh[offset:offset + count]
            self._lengths[session_id] = length
            self._versions[session_id] = 0
            session_ids.append(session_id)
            offset += count
        self._mutated()
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
        copy-on-write split before the chunk lands in it, exactly as
        :meth:`prepare_step` does for decode writes.
        """
        if self.fault_hook is not None:
            self.fault_hook("kv.extend")
        if session_id not in self._tables:
            raise ValueError(f"session {session_id} is not live")
        if cache.num_layers != self.num_layers:
            raise ValueError(
                f"session cache has {cache.num_layers} layers but the paged "
                f"cache has {self.num_layers}")
        old = self._lengths[session_id]
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
        table = self._tables[session_id]
        tail_offset = old % block_size
        needs_cow = tail_offset and self.allocator.refcounts[table[-1]] > 1
        grow = self.blocks_needed(new_length) - len(table)
        fresh = self._allocate_many(grow + (1 if needs_cow else 0))
        self._ensure_storage(template.shape[1], template.shape[3],
                             template.dtype)
        if needs_cow:
            replacement = fresh.pop(0)
            for layer in self.layers:
                layer.copy_block(table[-1], replacement)
            # Unlike prepare_step's batched CoW, no sibling can drop the last
            # reference within this single-session call: the block stays live
            # for its other holder(s), never freed here.
            self.allocator.release(table[-1])
            table[-1] = replacement
        table.extend(fresh)
        start_block = old // block_size
        for source, layer in zip(cache.layers, self.layers):
            for source_array, storage in ((source.keys, layer._keys),
                                          (source.values, layer._values)):
                history = source_array[row]
                position, index = old, start_block
                while position < new_length:
                    offset = position % block_size
                    took = min(block_size - offset, new_length - position)
                    storage[table[index], :, offset:offset + took] = \
                        history[:, position:position + took]
                    position += took
                    index += 1
        self._lengths[session_id] = new_length
        self._versions[session_id] += 1
        self._mutated()

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
        self._mutated()
        return blocks

    def release_blocks(self, block_ids: Sequence[int]) -> None:
        """Drop the caller's reference on externally held blocks."""
        for block in block_ids:
            if self.allocator.release(block):
                for layer in self.layers:
                    layer.clear_block(block)
        self._mutated()

    def fork(self, session_id: int) -> int:
        """Clone a session by sharing its blocks (copy-on-write protected)."""
        table = self._tables[session_id]
        for block in table:
            self.allocator.share(block)
        clone = next(self._ids)
        self._tables[clone] = list(table)
        self._lengths[clone] = self._lengths[session_id]
        self._versions[clone] = 0
        self._mutated()
        return clone

    def evict(self, session_id: int) -> None:
        """Release a session's blocks back to the pool."""
        if session_id not in self._tables:
            raise ValueError(f"session {session_id} is not live (double evict?)")
        for block in self._tables.pop(session_id):
            if self.allocator.release(block):
                for layer in self.layers:
                    layer.clear_block(block)
        del self._lengths[session_id]
        del self._versions[session_id]
        self._mutated()

    # ------------------------------------------------------------------ #
    def _build_plan(self, session_ids: np.ndarray) -> _StepPlan:
        """Construct the padded gather plan for a (new) batch of sessions."""
        n = len(session_ids)
        rows: List[List[int]] = []
        for sid in session_ids:
            table = self._tables.get(int(sid))
            if table is None:
                raise ValueError(f"session {int(sid)} is not live")
            rows.append(table)
        width = max(len(row) for row in rows)
        tables = np.zeros((n, width), dtype=np.int64)
        lengths = np.empty(n, dtype=np.int64)
        tail_blocks = np.empty(n, dtype=np.int64)
        versions = np.empty(n, dtype=np.int64)
        for i, (sid, row) in enumerate(zip(session_ids, rows)):
            tables[i, :len(row)] = row
            lengths[i] = self._lengths[int(sid)]
            tail_blocks[i] = row[-1]
            versions[i] = self._versions[int(sid)]
        self.table_rebuilds += 1
        return _StepPlan(session_ids, tables, lengths, tail_blocks, versions,
                         self._epoch)

    def _refresh_plan_row(self, plan: _StepPlan, i: int, sid: int) -> None:
        """Rewrite one cached row after its session's table changed."""
        table = self._tables[sid]
        if len(table) > plan.tables.shape[1]:
            # Widen to exactly the new longest table: the matrix copy is a few
            # hundred int64s, while every extra column would cost a full extra
            # block of gathered K/V per row on every subsequent step.
            wider = np.zeros((plan.tables.shape[0], len(table)), dtype=np.int64)
            wider[:, :plan.tables.shape[1]] = plan.tables
            plan.tables = wider
        plan.tables[i, :len(table)] = table
        plan.tables[i, len(table):] = 0
        plan.tail_blocks[i] = table[-1]
        plan.lengths[i] = self._lengths[sid]
        plan.versions[i] = self._versions[sid]
        plan.groups = None
        self.table_row_updates += 1

    def _counted(self, step: PagedStepContext, live: int) -> PagedStepContext:
        """Count what ``step``'s attention will read (per layer); ``live`` is
        the sum of its rows' own windows."""
        self.key_positions_gathered += self.block_size * sum(
            tables.size for _, tables, _ in step.groups)
        self.key_positions_live += live
        self.attention_groups += len(step.groups)
        return step

    def prepare_step(self, session_ids: np.ndarray) -> PagedStepContext:
        """Build the step plan for one new token on each listed session.

        Allocates a fresh block for sessions whose length is at a block
        boundary; copies the tail block of sessions whose tail is shared
        (copy-on-write) so the write below cannot leak into a sibling.
        Allocation is all-or-nothing: on pool exhaustion no table is touched,
        so the caller can evict a session and retry the step safely.

        The padded gather tables are cached between steps: an unchanged batch
        reuses the previous matrix outright, and only rows whose block table
        actually changed since the last step are rewritten (see
        ``table_rebuilds`` / ``table_row_updates``).
        """
        session_ids = np.asarray(session_ids, dtype=np.int64)
        n = len(session_ids)
        if n == 0:
            raise ValueError("prepare_step called with no active sessions")
        block_size = self.block_size
        plan = self._plan
        if plan is None or plan.ids_key != session_ids.tobytes():
            plan = self._build_plan(session_ids)
            self._plan = plan
        elif plan.epoch != self._epoch:
            # Same batch, but tables mutated since the plan was built (block
            # appended, chunk admitted, fork/CoW, eviction elsewhere): refresh
            # only the rows whose per-session version moved.
            for i, sid in enumerate(session_ids):
                sid = int(sid)
                version = self._versions.get(sid)
                if version is None:
                    raise ValueError(f"session {sid} is not live")
                if version != plan.versions[i]:
                    self._refresh_plan_row(plan, i, sid)
            plan.epoch = self._epoch

        # Which rows need a fresh block this step: boundary append, or
        # copy-on-write split of a shared tail (vectorized over the batch).
        offsets = np.mod(plan.lengths, block_size, out=plan.offsets_buf)
        boundary = offsets == 0
        shared_tail = self.allocator.refcounts[plan.tail_blocks] > 1
        fresh_rows = np.flatnonzero(boundary | (shared_tail & ~boundary))
        if fresh_rows.size:
            fresh = self._allocate_many(len(fresh_rows))  # atomic on exhaustion
            self._ensure_storage(*self._template_dims())
            for block, i in zip(fresh, fresh_rows):
                i = int(i)
                sid = int(session_ids[i])
                table = self._tables[sid]
                if boundary[i]:
                    table.append(block)
                    if len(table) > plan.tables.shape[1]:
                        self._refresh_plan_row(plan, i, sid)
                    else:
                        plan.tables[i, len(table) - 1] = block
                else:
                    # Copy-on-write: the partially filled tail block is shared
                    # (forked session / partial prefix); give this session its
                    # own copy before the new token lands in it.
                    for layer in self.layers:
                        layer.copy_block(table[-1], block)
                    if self.allocator.release(table[-1]):
                        # Last reference died during the split (e.g. the
                        # sibling already copy-on-wrote its own tail this same
                        # step): keep the freed-blocks-are-zeroed invariant.
                        for layer in self.layers:
                            layer.clear_block(table[-1])
                    table[-1] = block
                    plan.tables[i, len(table) - 1] = block
                plan.tail_blocks[i] = block
                self._versions[sid] += 1
                plan.versions[i] = self._versions[sid]
            plan.groups = None
            self._mutated()
            plan.epoch = self._epoch
        totals = np.add(plan.lengths, 1, out=plan.totals_buf)
        np.copyto(plan.positions_buf, plan.lengths)
        if plan.groups is None:
            plan.groups = _row_groups(plan.tables,
                                      (-(-totals // block_size)).tolist())
        return self._counted(
            PagedStepContext(session_ids, plan.groups, plan.tail_blocks,
                             offsets, plan.rows, plan.first_token,
                             plan.positions_buf[:, None], totals[:, None],
                             block_size), int(totals.sum()))

    def _template_dims(self) -> Tuple[int, int, np.dtype]:
        template = self.layers[0]._keys
        if template is None:
            raise RuntimeError("paged cache has no admitted sessions")
        return template.shape[1], template.shape[3], template.dtype

    def commit_step(self, session_ids: np.ndarray) -> None:
        """Advance the per-session lengths after every layer has written."""
        for sid in session_ids:
            self._lengths[int(sid)] += 1
        plan = self._plan
        if plan is not None:
            if plan.ids_key == np.asarray(session_ids,
                                          dtype=np.int64).tobytes():
                plan.lengths += 1  # keep the cached batch lengths in lockstep
            else:
                self._plan = None  # committed a different batch: drop the plan

    def prepare_multi_step(self, session_ids: np.ndarray,
                           counts: np.ndarray) -> PagedStepContext:
        """Build the plan for a ragged multi-token (speculative) step.

        Row ``i`` will write ``counts[i] >= 1`` new tokens — its pending
        sampled token plus its draft tokens — so its table grows by however
        many whole blocks that needs, and a shared partially-filled tail
        block is copy-on-write split first, exactly as :meth:`prepare_step`
        does for the single-token case.  Allocation is all-or-nothing across
        the whole batch.

        Unlike the single-token hot path this does not use the cached step
        plan: speculative batches change shape every step (counts vary with
        draft acceptance), so the padded tables are built fresh and the
        cached plan is dropped (rows mutated here would be refreshed by the
        next ``prepare_step`` anyway, via the version bump).
        """
        session_ids = np.asarray(session_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        n = len(session_ids)
        if n == 0:
            raise ValueError("prepare_multi_step called with no active sessions")
        if len(counts) != n:
            raise ValueError(f"{len(counts)} counts for {n} sessions")
        if counts.min() < 1:
            raise ValueError("every session must consume at least one token")
        block_size = self.block_size

        rows: List[List[int]] = []
        lengths = np.empty(n, dtype=np.int64)
        for i, sid in enumerate(session_ids):
            table = self._tables.get(int(sid))
            if table is None:
                raise ValueError(f"session {int(sid)} is not live")
            rows.append(table)
            lengths[i] = self._lengths[int(sid)]

        # Per-row growth and copy-on-write needs, then one atomic allocation.
        grows = [self.blocks_needed(int(lengths[i] + counts[i])) - len(rows[i])
                 for i in range(n)]
        cow = [bool(lengths[i] % block_size)
               and self.allocator.refcounts[rows[i][-1]] > 1
               for i in range(n)]
        fresh = self._allocate_many(sum(grows) + sum(cow))
        self._ensure_storage(*self._template_dims())
        taken = 0
        for i in range(n):
            table = rows[i]
            if cow[i]:
                replacement = fresh[taken]
                taken += 1
                for layer in self.layers:
                    layer.copy_block(table[-1], replacement)
                if self.allocator.release(table[-1]):
                    # Sibling already split its own tail this step: keep the
                    # freed-blocks-are-zeroed invariant.
                    for layer in self.layers:
                        layer.clear_block(table[-1])
                table[-1] = replacement
            if grows[i]:
                table.extend(fresh[taken:taken + grows[i]])
                taken += grows[i]
            if cow[i] or grows[i]:
                self._versions[int(session_ids[i])] += 1
        self._mutated()
        self._plan = None  # shape-shifting batches never reuse the decode plan

        needs = [len(row) for row in rows]
        tables = np.zeros((n, max(needs)), dtype=np.int64)
        for i, row in enumerate(rows):
            tables[i, :len(row)] = row

        max_count = int(counts.max())
        t_grid = _position_range(max_count)[None, :]
        valid = t_grid < counts[:, None]
        pos = lengths[:, None] + t_grid
        blk_col = np.where(valid, pos // block_size, 0)
        write_blocks = tables[np.arange(n)[:, None], blk_col][valid]
        write_offsets = (pos % block_size)[valid]
        row_index, token_index = np.nonzero(valid)
        # Padded query positions clamp to the row's last valid position so
        # their (discarded) outputs stay in positional-embedding range.
        positions = lengths[:, None] + np.minimum(t_grid, counts[:, None] - 1)
        return self._counted(
            PagedStepContext(session_ids, _row_groups(tables, needs),
                             write_blocks, write_offsets, row_index,
                             token_index, positions, positions + 1,
                             block_size), int((lengths + counts).sum()))

    def commit_multi_step(self, session_ids: np.ndarray,
                          counts: np.ndarray) -> None:
        """Advance per-session lengths after a ragged multi-token step."""
        for sid, count in zip(session_ids, counts):
            self._lengths[int(sid)] += int(count)
            self._versions[int(sid)] += 1
        self._mutated()
        self._plan = None

    def truncate_session(self, session_id: int, new_length: int) -> None:
        """Roll a session back to ``new_length`` tokens (speculation rollback).

        Releases the tail blocks past ``ceil(new_length / block_size)`` —
        freshly appended by :meth:`prepare_multi_step`, hence exclusively
        owned (forks happen between steps, and a shared partial tail was
        already copy-on-write split before any draft token landed in it), so
        the release cannot disturb a sibling.  Rejected tokens left inside
        the kept tail block are invisible: every future gather masks at the
        committed length and every future append overwrites them.
        """
        if session_id not in self._tables:
            raise ValueError(f"session {session_id} is not live")
        current = self._lengths[session_id]
        if not 0 < new_length <= current:
            raise ValueError(
                f"cannot truncate session {session_id} from {current} to "
                f"{new_length} tokens")
        if new_length == current:
            return
        table = self._tables[session_id]
        keep = self.blocks_needed(new_length)
        while len(table) > keep:
            block = table.pop()
            if self.allocator.release(block):
                for layer in self.layers:
                    layer.clear_block(block)
        self._lengths[session_id] = new_length
        self._versions[session_id] += 1
        self._mutated()
        self._plan = None

    # ------------------------------------------------------------------ #
    def check_invariants(self, external_refs: Optional[Dict[int, int]] = None) -> None:
        """Assert pool-accounting consistency (used by the stress tests).

        ``external_refs`` maps block id -> references held outside any
        session table (e.g. by a prefix cache).  Raises ``AssertionError``
        with a description on the first violated invariant.
        """
        alloc = self.allocator
        table_refs = np.zeros(alloc.num_blocks, dtype=np.int64)
        for sid, table in self._tables.items():
            assert len(table) == self.blocks_needed(self._lengths[sid]), (
                f"session {sid}: {len(table)} blocks for length "
                f"{self._lengths[sid]} (block_size {self.block_size})")
            for block in table:
                table_refs[block] += 1
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
        assert set(self._versions) == set(self._tables), (
            "table-version bookkeeping out of sync with live sessions")
        # A cached step plan that claims to be current must actually mirror
        # the live tables and lengths of its batch.
        plan = self._plan
        if plan is not None and plan.epoch == self._epoch:
            for i, sid in enumerate(plan.session_ids):
                sid = int(sid)
                if sid not in self._tables:
                    continue  # stale ids force a rebuild on the next step
                if plan.versions[i] != self._versions[sid]:
                    continue  # row pending refresh (epoch check already bumped)
                table = self._tables[sid]
                assert list(plan.tables[i, :len(table)]) == table, (
                    f"cached gather row for session {sid} diverged from its "
                    f"block table")
                assert plan.lengths[i] == self._lengths[sid], (
                    f"cached length for session {sid} diverged")
            if plan.groups is not None:
                # Cached length groups are copies of table rows: each must
                # still mirror the matrix, and together cover every row once.
                covered = np.zeros(len(plan.session_ids), dtype=np.int64)
                for rows, tables in plan.groups:
                    covered[rows] += 1
                    assert np.array_equal(
                        tables, plan.tables[rows, :tables.shape[1]]), (
                        "cached length group diverged from the gather tables")
                assert np.all(covered == 1), (
                    "cached length groups do not partition the batch rows")
