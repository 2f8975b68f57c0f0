"""Random pool histories against a model of what every session should hold.

Twin :class:`~repro.nn.PagedKVCache` pools take the same history — admissions
with and without shared prefix blocks, rows opened empty and fed their first
tokens through the plan (what a served prompt does), forks, prefill chunks,
single- and multi-token steps, rollbacks, evictions, pool exhaustion — except
that one
steps through ``prepare_step`` / ``commit_step`` and the other through
``prepare_multi_step`` / ``commit_multi_step`` with every count 1.  The two
spellings must produce array-equal plans and leave equal pools; a
``counts = c`` step rolled back to one token must leave the pool where a
plain step does; every key a session reads back through its block table must
be the key that was written for that session and position (each written key
is a fresh serial number, so a write that leaked through a shared block, a
token scattered to the wrong block or offset, or a rollback that kept a
rejected token shows up as a wrong number); and ``check_invariants()`` holds
after every operation.  No model: K/V are the serial numbers themselves, and
the pool is small enough that about one history in three exhausts it.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import PagedKVCache
from repro.nn.attention import by_row

BLOCK = 4
MAX_BLOCKS = 24
MAX_LIVE = 6  # past the table matrix's first four rows, so it has to grow
PREFIX_BLOCKS = 2
EXHAUSTED = object()


def _pool(blocks):
    """A one-layer pool whose K/V are ``(heads=1, head_dim=2)`` serial numbers."""
    return PagedKVCache(1, blocks, block_size=BLOCK, num_heads=1, head_dim=2,
                        dtype=np.float64)


def _fill(pool, history):
    """Open a session and write ``history`` into it through the plan."""
    sid = pool.open_session()
    _run_step(pool, np.asarray([sid]), np.asarray([len(history)]), [history],
              plain=False)
    return sid


def _staged(history):
    """A one-layer source pool whose one session holds ``history`` as keys
    (values the negation): what ``admit_rows`` / ``extend_session`` import."""
    source = _pool(-(-len(history) // BLOCK))
    _fill(source, history)
    return source


class _Pools:
    """The twin pools, the prefix holder and the expected histories.

    The shared prefix lives in a holder session of each pool — opened first,
    so it has the same id in both — that no operation touches and
    ``expected`` leaves out."""

    def __init__(self):
        self.serial = itertools.count(1)
        self.single = _pool(MAX_BLOCKS)
        self.multi = _pool(MAX_BLOCKS)
        self.prefix = [next(self.serial) for _ in range(PREFIX_BLOCKS * BLOCK)]
        for pool in self.pools:
            self.holder = _fill(pool, self.prefix)
            self.shared = pool.table(self.holder)
        self.expected = {}  # session id -> the serial number at each position

    @property
    def pools(self):
        return (self.single, self.multi)

    def fresh(self, count):
        return [next(self.serial) for _ in range(count)]

    def snapshot(self, pool):
        return ({sid: (pool.table(sid), pool.length(sid)) for sid in self.expected},
                pool.allocator.refcounts.copy())

    def check(self):
        """Invariants, twin equality, and every session reads its own history."""
        for pool in self.pools:
            pool.check_invariants()
            assert pool.sessions == (self.holder, *self.expected)
            for sid, history in self.expected.items():
                assert pool.length(sid) == len(history)
                keys, values = pool.layers[0].read_blocks(pool.table(sid))
                assert keys[0, :len(history), 0].tolist() == history
                assert values[0, :len(history), 1].tolist() == [-k for k in history]
        tables, refcounts = self.snapshot(self.single)
        twin_tables, twin_refcounts = self.snapshot(self.multi)
        assert tables == twin_tables
        assert np.array_equal(refcounts, twin_refcounts)

    def both(self, operation):
        """Run ``operation(pool)`` on each twin and return the one result.
        Pool exhaustion must hit both and leave both exactly as they were;
        the result is then ``EXHAUSTED``."""
        before = [self.snapshot(pool) for pool in self.pools]
        try:
            results = [operation(pool) for pool in self.pools]
        except RuntimeError as error:
            assert "out of KV-cache blocks" in str(error)
            with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
                operation(self.multi)
            for pool, (tables, refcounts) in zip(self.pools, before):
                now_tables, now_refcounts = self.snapshot(pool)
                assert now_tables == tables, "a refused operation moved a table"
                assert np.array_equal(now_refcounts, refcounts)
            return EXHAUSTED
        assert results[0] == results[1]
        return results[0]


def _assert_same_plan(a, b):
    for name in ("session_ids", "write_blocks", "write_offsets", "positions"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), name)
    assert len(a.groups) == len(b.groups)
    packed = np.arange(len(a.positions))
    for (tokens, *plan, fresh), (tokens_b, *plan_b, fresh_b) in zip(a.groups, b.groups):
        assert type(tokens) is type(tokens_b) and type(fresh) is type(fresh_b)
        for mine, theirs in ((tokens, tokens_b), (fresh, fresh_b)):
            if mine is not None:
                np.testing.assert_array_equal(by_row(packed, mine), by_row(packed, theirs))
        for mine, theirs in zip(plan, plan_b):  # tables, mask, valid
            assert (mine is None) == (theirs is None)
            if mine is not None:
                np.testing.assert_array_equal(mine, theirs)
    # The groups' real tokens partition the packed array.
    owned = np.concatenate([by_row(packed, tokens)[... if valid is None else valid].ravel()
                            for tokens, _, _, valid, _ in a.groups])
    assert sorted(owned.tolist()) == packed.tolist()


def _write(pool, step, fed):
    """What the attention layers do with a plan: scatter the packed tokens
    as they come (``fed`` row after row is the key of each)."""
    keys = np.asarray([key for row in fed for key in row], dtype=np.float64)
    keys = np.repeat(keys[:, None, None], 2, axis=2)  # (total, heads, head_dim)
    pool.layers[0].append_step(step.write_blocks, step.write_offsets, keys, -keys)


def _run_step(pool, ids, counts, fed, plain):
    """Prepare, write and commit one step; ``plain`` picks the spelling."""
    if plain:
        step = pool.prepare_step(ids)
    else:
        step = pool.prepare_multi_step(ids, counts)
    _write(pool, step, fed)
    if plain:
        pool.commit_step(ids)
    else:
        pool.commit_multi_step(ids, counts)
    return step


def _pick(live, selector):
    """A non-empty, ordered subset of ``live`` chosen by ``selector``'s bits."""
    chosen = [sid for bit, sid in enumerate(live) if selector >> bit & 1]
    return chosen or [live[selector % len(live)]]


_operation = st.one_of(
    st.tuples(st.just("admit"), st.integers(1, 30), st.booleans()),
    st.tuples(st.just("open"), st.integers(1, 30)),
    st.tuples(st.just("fork"), st.integers(0, 64)),
    st.tuples(st.just("extend"), st.integers(0, 64), st.integers(1, 9)),
    st.tuples(st.just("step"), st.integers(0, 63)),
    st.tuples(st.just("verify"), st.integers(0, 63),
              st.lists(st.integers(1, 6), min_size=MAX_LIVE, max_size=MAX_LIVE),
              st.lists(st.integers(0, 5), min_size=MAX_LIVE, max_size=MAX_LIVE)),
    st.tuples(st.just("evict"), st.integers(0, 64)),
)


@settings(max_examples=60, deadline=None)
@given(operations=st.lists(_operation, min_size=10, max_size=50))
def test_random_pool_histories(operations):
    state = _Pools()
    expected = state.expected
    for name, *args in operations:
        live = sorted(expected)
        if name == "admit":
            length, shared = args
            if len(live) >= MAX_LIVE:
                continue
            head = state.prefix if shared else []
            history = head + state.fresh(length)
            sid = state.both(lambda pool: pool.admit_rows(
                _staged(history), shared_blocks=state.shared if shared else ())[0])
            if sid is not EXHAUSTED:
                expected[sid] = history
        elif name == "open":
            # A served prompt: a row opened empty, its first ``take`` tokens
            # written by the plan.  Refused for want of blocks, the row stays
            # — empty, holding nothing — and later operations fork, extend,
            # step and evict it like any other.
            if len(live) >= MAX_LIVE:
                continue
            sid = state.both(lambda pool: pool.open_session())
            expected[sid] = []
            state.check()
            fed = [state.fresh(args[0])]
            ids, counts = np.asarray([sid]), np.asarray([args[0]])
            if state.both(lambda pool: _run_step(
                    pool, ids, counts, fed, plain=False) and None) is not EXHAUSTED:
                expected[sid] = fed[0]
        elif not live:
            continue
        elif name == "fork":
            if len(live) >= MAX_LIVE:
                continue
            source = live[args[0] % len(live)]
            expected[state.both(lambda pool: pool.fork(source))] = list(expected[source])
        elif name == "extend":
            sid = live[args[0] % len(live)]
            history = expected[sid] + state.fresh(args[1])
            if state.both(lambda pool: pool.extend_session(
                    sid, _staged(history))) is not EXHAUSTED:
                expected[sid] = history
        elif name == "evict":
            sid = live[args[0] % len(live)]
            state.both(lambda pool: pool.evict(sid))
            del expected[sid]
        else:
            chosen = _pick(live, args[0])
            ids = np.asarray(chosen, dtype=np.int64)
            if name == "step":
                counts, keeps = np.ones(len(ids), dtype=np.int64), None
            else:
                counts = np.asarray(args[1][:len(ids)], dtype=np.int64)
                keeps = [1 + keep % int(count)
                         for keep, count in zip(args[2], counts)]
            fed = [state.fresh(int(count)) for count in counts]
            if name == "verify":
                _assert_rollback_to_one_is_a_plain_step(state, ids, counts, fed)
            try:
                plans = [_run_step(pool, ids, counts, fed,
                                   plain=pool is state.single and name == "step")
                         for pool in state.pools]
            except RuntimeError:
                # Exhausted: the twin must refuse too, and neither may move.
                assert state.both(lambda pool: pool.prepare_multi_step(
                    ids, counts)) is EXHAUSTED
            else:
                _assert_same_plan(*plans)
                for row, sid in enumerate(chosen):
                    if keeps is None:
                        expected[sid] = expected[sid] + fed[row]
                        continue
                    expected[sid] = expected[sid] + fed[row][:keeps[row]]
                    for pool in state.pools:
                        pool.truncate_session(sid, len(expected[sid]))
        state.check()


def _assert_rollback_to_one_is_a_plain_step(state, ids, counts, fed):
    """On two copies of the pool: a ``counts`` step truncated to one token per
    row, beside a plain step fed the same first tokens."""
    plain, rolled = copy.deepcopy(state.single), copy.deepcopy(state.single)
    try:
        _run_step(rolled, ids, counts, fed, plain=False)
    except RuntimeError:
        return  # the wide step does not fit; the real step checks atomicity
    for sid in ids.tolist():
        rolled.truncate_session(sid, state.single.length(sid) + 1)
    _run_step(plain, ids, None, [row[:1] for row in fed], plain=True)
    for pool in (plain, rolled):
        pool.check_invariants()
    # Same pool up to which free block each row happened to be handed.
    assert plain.blocks_in_use == rolled.blocks_in_use
    assert (sorted(plain.allocator.refcounts.tolist())
            == sorted(rolled.allocator.refcounts.tolist()))
    for sid in state.expected:
        assert plain.length(sid) == rolled.length(sid)
        assert len(plain.table(sid)) == len(rolled.table(sid))
        length = plain.length(sid)
        keys, _ = plain.layers[0].read_blocks(plain.table(sid))
        rolled_keys, _ = rolled.layers[0].read_blocks(rolled.table(sid))
        assert np.array_equal(keys[0, :length], rolled_keys[0, :length])
