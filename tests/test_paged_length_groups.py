"""Length-grouped ragged attention in the paged step.

The paged step partitions its rows into length groups by each row's own block
need and attends once per group at that group's width.  This suite pins

* the partition as a pure function of the needs (property tests),
* that the unsplit batch is the one-group case with no index copies,
* logit parity against the graph forward (``tests/reference.py``) in
  batches built to split — plain decode, speculative verify with rollbacks,
  copy-on-write forks, prefix blocks shared across groups and block-boundary
  crossings — with ``check_invariants()`` after every step,
* that the step is token-packed: dense layers and the LM head see
  ``sum(counts)`` token rows, each group's queries are its own widest row
  wide, and any ragged ``counts`` match the graph forward,
* that a group of rows opened empty attends over its own keys and gathers
  nothing, while a group with any history still gathers,
* that a quarantine inside a split step implicates the same sessions as ever,
* the padding counters on the cache, ``StepRecord``, the windows and
  ``explain_request``.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import PARITY_ATOL, Twin, assert_logits, decode, fill, standalone

from repro.llm import LanguageModel
from repro.llm.config import LLMConfig
from repro.nn import no_grad, set_default_dtype
from repro.nn import paged_cache as pc
from repro.nn.attention import TokenRun, by_row
from repro.serve import (
    FaultInjector,
    FaultSpec,
    GenerateRequest,
    InferenceServer,
    RequestFailed,
    RequestMetrics,
    SchedulerPolicy,
    ServeTelemetry,
    StepRecord,
    WindowAggregator,
)

BLOCK = 8
ATOL = dict(atol=PARITY_ATOL[np.dtype(np.float64)], rtol=0)


@pytest.fixture(scope="module")
def model():
    config = LLMConfig(name="groups-test", family="test", d_model=32,
                       num_layers=2, num_heads=2, max_seq_len=640)
    return LanguageModel(config, seed=5).eval()


def _prompts(model, lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, model.tokenizer.vocab_size, size=n).tolist()
            for n in lengths]


def _packed(fed):
    """The rows' fed tokens laid back to back, as ``forward_step`` takes them."""
    return np.asarray([token for row in fed for token in row], dtype=np.int64)


# ---------------------------------------------------------------------- #
# The partition, as a pure function of per-row block needs
# ---------------------------------------------------------------------- #
_needs = st.lists(st.integers(1, 48), min_size=1, max_size=24)


class TestPartition:
    @settings(max_examples=200, deadline=None)
    @given(needs=_needs)
    def test_groups_partition_the_rows_at_their_own_width(self, needs):
        groups = pc.partition_rows(needs)
        needs = np.asarray(needs)
        seen = np.zeros(len(needs), dtype=np.int64)
        for rows, width in groups:
            seen[rows] += 1
            # No row is padded past the longest member of its group.
            assert width == int(needs[rows].max())
        assert np.all(seen == 1), "every row in exactly one group"
        gathered = sum(len(needs[rows]) * width for rows, width in groups)
        assert gathered <= len(needs) * int(needs.max())
        # Rows of equal need never part ways.
        for need in np.unique(needs):
            owners = [i for i, (rows, _) in enumerate(groups)
                      if np.any(needs[rows] == need)]
            assert len(owners) == 1

    @settings(max_examples=100, deadline=None)
    @given(needs=_needs, seed=st.integers(0, 2**16))
    def test_deterministic_and_independent_of_row_order(self, needs, seed):
        order = np.random.default_rng(seed).permutation(len(needs))
        first = pc.partition_rows(needs)
        again = pc.partition_rows(list(needs))
        shuffled = pc.partition_rows([needs[i] for i in order])
        assert len(first) == len(again) == len(shuffled)
        for (rows, width), (rows2, width2), (rows3, width3) in zip(
                first, again, shuffled):
            assert width == width2 == width3
            members = np.arange(len(needs))[rows]
            assert np.array_equal(members, np.arange(len(needs))[rows2])
            # Same sessions, named by their positions in the shuffled batch.
            assert np.array_equal(members, np.sort(order[rows3]))

    @settings(max_examples=100, deadline=None)
    @given(need=st.integers(1, 48), n=st.integers(1, 24))
    def test_equal_needs_are_one_group(self, need, n):
        [(rows, width)] = pc.partition_rows([need] * n)
        assert rows == slice(None) and width == need

    @settings(max_examples=200, deadline=None)
    @given(needs=_needs, data=st.data())
    def test_prompt_rows_never_share_a_group_with_the_rows_before(self, needs, data):
        prompt_from = data.draw(st.integers(0, len(needs)))
        groups = pc.partition_rows(needs, prompt_from)

        def members(groups, start, stop):
            return [(np.arange(start, stop)[rows].tolist(), width)
                    for rows, width in groups]

        if prompt_from in (0, len(needs)):  # one kind of row: no boundary
            assert members(groups, 0, len(needs)) == members(
                pc.partition_rows(needs), 0, len(needs))
            return
        named = members(groups, 0, len(needs))
        assert sorted(row for rows, _ in named for row in rows) == list(range(len(needs)))
        for rows, _ in named:
            assert max(rows) < prompt_from or min(rows) >= prompt_from
        # Each side is partitioned as if it were the whole step.
        assert named == (
            members(pc.partition_rows(needs[:prompt_from]), 0, prompt_from)
            + members(pc.partition_rows(needs[prompt_from:]), prompt_from, len(needs)))
        # A group whose rows are one contiguous run — a side that stays whole
        # among them — is named by the basic slice of that run, never by an
        # index copy; any other group by its ascending index array.
        for rows, _ in groups:
            run = np.arange(len(needs))[rows]
            if run[-1] - run[0] == len(run) - 1:
                assert rows == slice(int(run[0]), int(run[-1]) + 1)
            else:
                assert isinstance(rows, np.ndarray) and np.array_equal(rows, run)
        slices = [rows for rows, _ in groups if isinstance(rows, slice)]
        for start, stop in ((0, prompt_from), (prompt_from, len(needs))):
            if len(pc.partition_rows(needs[start:stop])) == 1:
                assert slice(start, stop) in slices

    def test_a_split_must_save_the_minimum(self):
        floor = pc.MIN_SPLIT_SAVING_BLOCK_ROWS
        # `floor - 1` rows one block short save one block-row too few ...
        short = [4, 4] + [3] * (floor - 1)
        assert len(pc.partition_rows(short)) == 1
        # ... one more row, or the same rows two blocks short, reach it.
        assert len(pc.partition_rows(short + [3])) == 2
        assert len(pc.partition_rows([4, 4] + [2] * (floor - 1))) == 2
        # The motivating batch: eight short rows beside two long ones.
        groups = pc.partition_rows([3, 34, 5, 4, 3, 28, 5, 6, 4, 3])
        widths = [width for _, width in groups]
        assert widths == sorted(widths, reverse=True) and widths[:2] == [34, 28]
        assert sum(len(np.arange(10)[rows]) * width
                   for rows, width in groups) < 10 * 34 // 3

    def test_one_group_case_allocates_no_index_copies(self, model):
        """Same arrays in, same object out: the unsplit step hands attention
        the step's table matrix and token grid themselves, and the all-ones
        one reaches its packed tokens through a token run — a view."""
        tables = np.arange(9, dtype=np.int64).reshape(3, 3)
        counts = np.asarray([2, 1, 2])
        _, _, index, valid = pc._token_grid(counts.tobytes())
        assert index.tolist() == [[0, 1], [2, 2], [3, 4]]
        positions = np.asarray([16, 17, 20, 18, 19])
        lengths = np.asarray([16, 20, 18])
        [(tokens, same, _, real, fresh)], keep, _ = pc._length_groups(
            tables, [3, 3, 3], counts, lengths, index, valid, positions, BLOCK)
        assert tokens is index and same is tables and real is valid
        assert fresh is None  # the rows have a history: the group gathers
        assert keep is None  # no prompt rows: no final-layer view
        with no_grad():
            paged = model.init_paged_cache(max_sessions=4, block_size=BLOCK)
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, (10, 12, 9), seed=1)]
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
            step = paged.prepare_step(ids)
            [(tokens, tables, _, real, fresh)] = step.groups
            assert tokens == TokenRun(0, 3, 1) and real is None and fresh is None
            packed = np.arange(6.0).reshape(3, 2)
            assert np.shares_memory(by_row(packed, tokens), packed)
            assert by_row(packed, tokens).shape == (3, 1, 2)
            assert tables.tolist() == [list(paged.table(twin.sid)) for twin in twins]


# ---------------------------------------------------------------------- #
# Parity against the graph forward, in batches built to split
# ---------------------------------------------------------------------- #
class TestSplitStepParity:
    def test_plain_decode_with_long_neighbours(self, model):
        """Two ~500-token sessions among short ones, 20 decode steps: every
        row crosses a block boundary at least twice on the way."""
        lengths = (500, 37, 5, 61, 483, 12, 20, 90)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=8, block_size=BLOCK)
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, lengths, seed=2)]
            gathered, live = paged.key_positions_gathered, paged.key_positions_live
            groups = decode(model, paged, twins, steps=20)
            assert min(groups) >= 3, "every step ran split"
            # The counters: padding is what block rounding leaves, not the
            # 8 x 63 blocks an unsplit batch would have gathered.
            gathered = paged.key_positions_gathered - gathered
            live = paged.key_positions_live - live
            assert live < gathered < 1.1 * live
            assert live == sum(sum(lengths) + len(lengths) * (t + 1)
                               for t in range(20))

    def test_block_boundary_crossing_regroups_the_rows(self, model):
        with no_grad():
            paged = model.init_paged_cache(max_sessions=4, block_size=BLOCK)
            # Needs after the first token: 1, 1, 9 blocks, so splitting the
            # short rows off saves 2 x 8 block-rows, and 2 x 7 once they
            # cross into a second block on the third step: both reach
            # MIN_SPLIT_SAVING_BLOCK_ROWS.
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, (6, 6, 68), seed=3)]
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)

            def group_shapes():
                """The next step's groups, read by preparing a pool copy."""
                step = copy.deepcopy(paged).prepare_step(ids)
                return sorted(tables.shape for _, tables, _, _, _ in step.groups)

            assert group_shapes() == [(1, 9), (2, 1)]
            assert decode(model, paged, twins, steps=2) == [2, 2]
            assert group_shapes() == [(1, 9), (2, 2)]
            decode(model, paged, twins, steps=7)

    def test_speculative_verify_with_rollbacks(self, model):
        """Ragged multi-token steps whose rejected tails are truncated away,
        shrinking rows out of the group they verified in."""
        rng = np.random.default_rng(4)
        vocab = model.tokenizer.vocab_size
        with no_grad():
            paged = model.init_paged_cache(max_sessions=6, block_size=BLOCK)
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, (497, 15, 30, 7, 23), seed=4)]
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
            shrunk = 0
            for _ in range(12):
                counts = rng.integers(1, 6, size=len(twins))
                fed = [[twin.next_token] + rng.integers(0, vocab, size=c - 1).tolist()
                       for twin, c in zip(twins, counts)]
                before = paged.attention_groups
                logits = model.forward_step(_packed(fed), paged, ids,
                                            counts=counts).data[0]
                assert paged.attention_groups - before >= 2
                paged.check_invariants()
                offsets = np.cumsum(counts) - counts
                for row, twin in enumerate(twins):
                    twin.feed(fed[row], logits[offsets[row]:offsets[row] + counts[row]])
                    twin.check()  # rejected drafts included
                    keep = int(rng.integers(1, counts[row] + 1))
                    blocks = len(paged.table(twin.sid))
                    twin.truncate(len(twin.ids) - int(counts[row]) + keep)
                    shrunk += len(paged.table(twin.sid)) < blocks
                    paged.check_invariants()
            assert shrunk, "no rollback released a block: the test lost its point"
            # Plain decode on the rolled-back pool stays exact.
            decode(model, paged, twins, steps=3)

    def test_fork_copy_on_write_inside_a_split_step(self, model):
        [long_prompt, short_prompt, other] = _prompts(model, (493, 11, 27), seed=6)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=8, block_size=BLOCK)
            long_a = Twin(model, paged, long_prompt)
            short_a = Twin(model, paged, short_prompt)
            bystander = Twin(model, paged, other)
            # Forks share every block, partial tails included.
            twins = [long_a, short_a, bystander]
            for original in (long_a, short_a):
                fork = original.fork()
                fork.next_token = (original.next_token + 1) % model.tokenizer.vocab_size
                twins.append(fork)
            paged.check_invariants()
            groups = decode(model, paged, twins, steps=1)
            assert groups[0] >= 2
            for original, fork in ((twins[0], twins[3]), (twins[1], twins[4])):
                assert paged.table(fork.sid)[-1] != paged.table(original.sid)[-1]
                assert paged.table(fork.sid)[:-1] == paged.table(original.sid)[:-1]
            decode(model, paged, twins, steps=10)

    def test_prefix_blocks_shared_across_groups(self, model):
        """A registered head mapped into a short and a long session: the same
        physical blocks are gathered by rows of different groups."""
        rng = np.random.default_rng(7)
        vocab = model.tokenizer.vocab_size
        head = rng.integers(0, vocab, size=2 * BLOCK).tolist()
        with no_grad():
            paged = model.init_paged_cache(max_sessions=6, block_size=BLOCK,
                                           extra_blocks=2)
            holder, _ = fill(model, paged, head)  # the head's one holder: a session
            shared = list(paged.table(holder))
            # Needs 3, 61, 17 and 2 blocks: three groups, the head's rows
            # in all three.
            tails = _prompts(model, (3, 470, 120), seed=8)
            twins = [Twin(model, paged, head + tail,
                          session=paged.open_session(shared, len(head)))
                     for tail in tails]
            twins.append(Twin(model, paged, _prompts(model, (9,), seed=9)[0]))
            for twin in twins[:3]:
                assert list(paged.table(twin.sid)[:2]) == shared
            paged.check_invariants()
            groups = decode(model, paged, twins, steps=12)
            assert min(groups) >= 3


# ---------------------------------------------------------------------- #
# Token packing: the forward runs on the tokens that exist
# ---------------------------------------------------------------------- #
def _counting(monkeypatch, cls, name):
    """Count calls of ``cls.name`` and still make them."""
    calls, original = [], getattr(cls, name)

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, spy)
    return calls


def _planned(monkeypatch):
    """Collect every step plan the pool makes, and still make them."""
    plans, plan = [], pc.PagedKVCache._plan

    def spy(self, *args, **kwargs):
        plans.append(plan(self, *args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(pc.PagedKVCache, "_plan", spy)
    return plans


def _attention_rounds(step, layers):
    """``(rows, query width)`` of each attention round a ``layers``-deep
    forward runs on ``step``: one per group of its plan, the final layer's
    groups read from its final-layer view when it carries one."""
    def shapes(groups):
        return [(tokens.rows, tokens.width) if type(tokens) is TokenRun
                else tokens.shape for tokens, *_ in groups]

    final = step if step.last is None else step.last
    return shapes(step.groups) * (layers - 1) + shapes(final.groups)


class TestTokenPackedStep:
    def test_one_drafting_row_bills_nobody_else(self, model, monkeypatch):
        """16 rows, one of them feeding 1 + 4 tokens: every dense layer and
        the LM head see 20 token rows (a step padded to its widest row
        would push 80), and each length group's queries are as wide as its
        own widest row."""
        from repro.nn import LayerNorm, Linear

        lengths = [8 + 10 * row for row in range(16)]  # 8..158: the rows split
        counts = np.ones(16, dtype=np.int64)
        counts[5] = 5
        rng = np.random.default_rng(11)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=16, block_size=BLOCK)
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, lengths, seed=10)]
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
            fed = [[twin.next_token] + rng.integers(
                0, model.tokenizer.vocab_size, size=count - 1).tolist()
                for twin, count in zip(twins, counts)]
            dense_rows = []
            for layer in (Linear, LayerNorm):
                def spy(self, x, _apply=layer.apply):
                    dense_rows.append(int(np.prod(x.shape[:-1])))
                    return _apply(self, x)
                monkeypatch.setattr(layer, "apply", spy)
            plans = _planned(monkeypatch)
            gathers = _counting(monkeypatch, pc.PagedLayerKVCache, "gather")
            logits = model.forward_step(_packed(fed), paged, ids, counts=counts).data
            monkeypatch.undo()
            assert logits.shape == (1, 20, model.tokenizer.vocab_size)
            # Per block: two norms, q/k/v/out, two MLP layers; then the final
            # norm and the LM head.
            blocks = len(model.backbone.blocks)
            assert dense_rows == [20] * (8 * blocks + 2)
            needs = [-(-(length + count) // BLOCK)
                     for length, count in zip(lengths, counts)]
            expected = [(len(counts[rows]), int(counts[rows].max()))
                        for rows, _ in pc.partition_rows(needs)]
            assert len(expected) >= 2 and sorted(w for _, w in expected)[-2:] == [1, 5]
            [step] = plans
            query_shapes = _attention_rounds(step, blocks)
            assert query_shapes == expected * blocks
            assert [tables.shape[0] for tables, in gathers] == [
                rows for rows, _ in query_shapes]
            offsets = np.cumsum(counts) - counts
            for row, twin in enumerate(twins):
                np.testing.assert_allclose(
                    logits[0, offsets[row]:offsets[row] + counts[row]],
                    twin.preview(fed[row]), **ATOL)

    def test_prompt_rows_behind_decode_rows_keep_their_own_groups(
            self, model, monkeypatch):
        """Six decode rows and two 12-token prompt chunks of similar lengths
        in one step: with ``prompt_from`` no decode row is scored at a
        chunk's query width, the final layer queries each chunk at its last
        token only, and every returned row still matches the graph forward."""
        lengths = [40, 44, 41, 46, 43, 45, 33, 34]  # one need: one group unsplit
        counts = np.asarray([1] * 6 + [12, 12], dtype=np.int64)
        rng = np.random.default_rng(12)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=8, block_size=BLOCK)
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, lengths, seed=13)]
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
            fed = [[twin.next_token] + rng.integers(
                0, model.tokenizer.vocab_size, size=count - 1).tolist()
                for twin, count in zip(twins, counts)]
            plans = _planned(monkeypatch)
            gathers = _counting(monkeypatch, pc.PagedLayerKVCache, "gather")
            mixed = copy.deepcopy(paged)
            model.forward_step(_packed(fed), mixed, ids, counts=counts)
            logits = model.forward_step(_packed(fed), paged, ids, counts=counts,
                                        prompt_from=6).data[0]
            monkeypatch.undo()
            blocks = len(model.backbone.blocks)
            widths = [shape for step in plans
                      for shape in _attention_rounds(step, blocks)]
            assert widths == ([(8, 12)] * blocks + [(6, 1), (2, 12)] * (blocks - 1)
                              + [(6, 1), (2, 1)])
            assert [tables.shape[0] for tables, in gathers] == [
                rows for rows, _ in widths]
            paged.check_invariants()
            # Six one-token decode rows, then one row per chunk: its last token.
            assert logits.shape[0] == 8
            for row, twin in enumerate(twins):
                np.testing.assert_allclose(logits[row], twin.preview(fed[row])[-1],
                                           **ATOL)

    def test_packed_rows_match_sequential_steps(self, model):
        """Any counts in 1..5 over rows that split into length groups — a
        forked pair (copy-on-write inside the step) and a row on shared
        prefix blocks among them: row *i*'s logits are the graph forward's
        at its ``counts[i]`` tokens."""
        vocab = model.tokenizer.vocab_size
        head = _prompts(model, (2 * BLOCK,), seed=20)[0]
        with no_grad():
            paged = model.init_paged_cache(max_sessions=8, block_size=BLOCK,
                                           extra_blocks=2)
            holder, _ = fill(model, paged, head)  # the head's one holder: a session
            shared = list(paged.table(holder))
            twins = [Twin(model, paged, prompt)
                     for prompt in _prompts(model, (301, 11, 27), seed=21)]
            twins.append(Twin(model, paged, head + [3, 1, 4],
                              session=paged.open_session(shared, len(head))))
            fork = twins[1].fork()  # shares every block, partial tail too
            twins.append(fork)
            ids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
            paged.check_invariants()

        @settings(max_examples=25, deadline=None)
        @given(counts=st.lists(st.integers(1, 5), min_size=len(twins),
                               max_size=len(twins)),
               seed=st.integers(0, 2**16))
        def check(counts, seed):
            rng = np.random.default_rng(seed)
            fed = [rng.integers(0, vocab, size=count).tolist() for count in counts]
            counts = np.asarray(counts, dtype=np.int64)
            pool = copy.deepcopy(paged)  # every example steps the same pool
            with no_grad():
                logits = model.forward_step(_packed(fed), pool, ids,
                                            counts=counts).data[0]
                assert pool.attention_groups - paged.attention_groups >= 2
                pool.check_invariants()
                assert pool.table(fork.sid)[-1] != pool.table(twins[1].sid)[-1]
                assert list(pool.table(twins[3].sid)[:2]) == shared
                offsets = np.cumsum(counts) - counts
                for row, twin in enumerate(twins):
                    assert pool.length(twin.sid) == paged.length(twin.sid) + counts[row]
                    np.testing.assert_allclose(
                        logits[offsets[row]:offsets[row] + counts[row]],
                        twin.preview(fed[row]), **ATOL)

        check()


# ---------------------------------------------------------------------- #
# The final layer runs at the tokens whose logits are read
# ---------------------------------------------------------------------- #
class TestFinalLayerView:
    """``forward_step`` with ``prompt_from`` against the same step with
    ``prompt_from=None`` on a deep copy of the pool: the trimmed step returns
    every token of the rows before ``prompt_from`` and then one row per
    prompt row, each within the parity bound of its untrimmed twin.

    ``prompt_from=None`` also partitions the rows without the decode /
    prompt split, so from the second layer on its attention rounds in other
    batch shapes and its K/V agree within the bound, bit for bit only when
    the two partitions coincide (``prompt_from=0``).  A third twin runs the
    trimmed step's own plan with the final-layer view taken out: its K/V are
    the trimmed step's, bit for bit, in every layer — the view changes what
    the final layer queries, never what any layer writes."""

    @pytest.fixture(scope="class", params=[np.float64, np.float32],
                    ids=["float64", "float32"])
    def pool(self, request):
        """A model of the dtype and a pool whose rows split into several
        length groups: long and short sessions, a forked pair sharing a
        partial tail block (the step copy-on-write splits it), a row on
        shared prefix blocks and a row opened empty."""
        previous = set_default_dtype(request.param)
        try:
            config = LLMConfig(name="view-test", family="test", d_model=32,
                               num_layers=2, num_heads=2, max_seq_len=640)
            model = LanguageModel(config, seed=5).eval()
        finally:
            set_default_dtype(previous)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=10, block_size=BLOCK,
                                           extra_blocks=2)
            head = _prompts(model, (2 * BLOCK,), seed=30)[0]
            owner, _ = fill(model, paged, head)
            shared = list(paged.table(owner))  # the owner stays open: it holds them
            ids = [fill(model, paged, prompt)[0]
                   for prompt in _prompts(model, (301, 150, 11, 27, 45), seed=31)]
            ids.append(paged.fork(ids[3]))  # 27 tokens: a shared partial tail
            ids.append(paged.open_session(shared, len(head)))
            empty = paged.open_session()
        paged.check_invariants()
        return model, paged, ids, empty, PARITY_ATOL[np.dtype(request.param)]

    @pytest.mark.parametrize("case", [f"mixed-{seed}" for seed in range(6)]
                             + ["prompt_from=0", "one-token prompt rows"])
    def test_trimmed_step_matches_the_untrimmed_one(self, pool, case, monkeypatch):
        model, paged, ids, empty, bound = pool
        rng = np.random.default_rng(sum(map(ord, case)))
        order = rng.permutation(ids).tolist()
        prompt_from = 0 if case == "prompt_from=0" else int(rng.integers(1, len(order)))
        # Decode (1) and verification (2..5) rows first, then prompt rows —
        # chunks of 1..40 tokens, the empty row's first one among them.
        rows = order + [empty]
        takes = len(rows) - prompt_from
        counts = np.concatenate([
            rng.integers(1, 6, size=prompt_from),
            np.ones(takes, dtype=np.int64) if case == "one-token prompt rows"
            else rng.integers(1, 41, size=takes)])
        vocab = model.tokenizer.vocab_size
        tokens = rng.integers(0, vocab, size=int(counts.sum()))
        length_groups = pc._length_groups

        def without_view(*args):
            groups, _, _ = length_groups(*args)
            return groups, None, ()

        trimmed_pool, full_pool, planned_pool = (copy.deepcopy(paged) for _ in range(3))
        with no_grad():
            trimmed = model.forward_step(tokens, trimmed_pool, rows, counts=counts,
                                         prompt_from=prompt_from).data[0]
            full = model.forward_step(tokens, full_pool, rows, counts=counts).data[0]
            monkeypatch.setattr(pc, "_length_groups", without_view)
            planned = model.forward_step(tokens, planned_pool, rows, counts=counts,
                                         prompt_from=prompt_from).data[0]
            monkeypatch.undo()
            assert trimmed_pool.attention_groups - paged.attention_groups >= 2
            assert full.shape == planned.shape == (counts.sum(), vocab)
            decoded = int(counts[:prompt_from].sum())
            read = np.concatenate([np.arange(decoded),
                                   np.cumsum(counts)[prompt_from:] - 1])
            assert trimmed.shape == (decoded + len(rows) - prompt_from, vocab)
            np.testing.assert_allclose(trimmed, full[read], atol=bound, rtol=0)
            np.testing.assert_allclose(trimmed, planned[read], atol=bound, rtol=0)
            for mine, planned_layer, full_layer in zip(
                    trimmed_pool.layers, planned_pool.layers, full_pool.layers):
                for name in ("_keys", "_values"):
                    written = getattr(mine, name)
                    assert np.array_equal(written, getattr(planned_layer, name))
                    np.testing.assert_allclose(written, getattr(full_layer, name),
                                               atol=bound, rtol=0)
                    if prompt_from == 0:
                        assert np.array_equal(written, getattr(full_layer, name))
            fork, sibling = ids[5], ids[3]
            for stepped in (trimmed_pool, full_pool):
                stepped.check_invariants()
                assert stepped.table(fork)[-1] != stepped.table(sibling)[-1]
            nxt = rng.integers(0, vocab, size=len(rows))
            np.testing.assert_allclose(
                model.forward_step(nxt, trimmed_pool, rows).data[0],
                model.forward_step(nxt, full_pool, rows).data[0], atol=bound, rtol=0)


# ---------------------------------------------------------------------- #
# Fresh groups: rows that start empty attend over their own keys
# ---------------------------------------------------------------------- #
class TestFreshGroups:
    @pytest.mark.parametrize("prompt_from", [None, 0])
    @pytest.mark.parametrize("lengths", [(5, 3, 7), (6, 6, 6), (30, 2, 19, 9)])
    def test_rows_opened_empty_gather_nothing(self, model, monkeypatch,
                                              lengths, prompt_from):
        """A ragged fresh group (the places past a short row's count repeat
        its last token), a token run, and a batch that splits: every row's
        keys are its own, read from the step, never gathered — and the
        logits are the reference's at the policy bound."""
        prompts = _prompts(model, lengths, seed=sum(lengths))
        with no_grad():
            paged = model.init_paged_cache(max_sessions=4, block_size=BLOCK)
            sids = [paged.open_session() for _ in prompts]
            plan = copy.deepcopy(paged).prepare_multi_step(sids, list(lengths),
                                                           prompt_from=prompt_from)
            assert all(fresh is not None and tables is None
                       for _, tables, _, _, fresh in plan.groups)
            if len(set(lengths)) == 1:  # consecutive rows of one count
                assert plan.groups[0][0] == TokenRun(0, len(lengths), lengths[0])
            gathers = _counting(monkeypatch, pc.PagedLayerKVCache, "gather")
            writes = _counting(monkeypatch, pc.PagedLayerKVCache, "append_step")
            gathered = paged.key_positions_gathered
            logits = model.forward_step(_packed(prompts), paged, sids,
                                        counts=list(lengths),
                                        prompt_from=prompt_from).data[0]
            assert gathers == [] and len(writes) == len(model.backbone.blocks)
            # Once written, the rows have a history: the next step gathers.
            plan = copy.deepcopy(paged).prepare_step(sids)
            assert all(fresh is None for *_, fresh in plan.groups)
            # A fresh group scores its rows at its own widest count.
            assert paged.key_positions_gathered - gathered >= sum(lengths)
            if len(set(lengths)) > 1 and max(lengths) < BLOCK:
                assert paged.key_positions_gathered - gathered == \
                    len(lengths) * max(lengths)
            paged.check_invariants()
        offset = 0
        for sid, prompt in zip(sids, prompts):
            rows = len(prompt) if prompt_from is None else 1
            assert_logits(model, prompt, logits[offset:offset + rows],
                          err_msg=f"session {sid}")
            offset += rows
            assert paged.length(sid) == len(prompt)
        # What the fresh step wrote is what a decode step reads back.
        with no_grad():
            after = model.forward_step(np.zeros(len(sids), dtype=np.int64),
                                       paged, sids).data[0]
        for prompt, row in zip(prompts, after):
            assert_logits(model, prompt + [0], row[None])

    def test_a_group_with_one_row_holding_history_still_gathers(
            self, model, monkeypatch):
        prompts = _prompts(model, (3, 4), seed=40)
        with no_grad():
            paged = model.init_paged_cache(max_sessions=2, block_size=BLOCK)
            held = Twin(model, paged, prompts[0])
            empty = paged.open_session()
            fed = [[5, 9], prompts[1]]
            step = copy.deepcopy(paged).prepare_multi_step(
                [held.sid, empty], [2, 4])
            [(_, tables, _, _, fresh)] = step.groups
            assert fresh is None and tables.shape == (2, 1)
            gathers = _counting(monkeypatch, pc.PagedLayerKVCache, "gather")
            logits = model.forward_step(_packed(fed), paged, [held.sid, empty],
                                        counts=[2, 4]).data[0]
            assert len(gathers) == len(model.backbone.blocks)
        assert_logits(model, prompts[0] + fed[0], logits[:2])
        assert_logits(model, prompts[1], logits[2:])


# ---------------------------------------------------------------------- #
# Engine level: served tokens, quarantine blast radius, telemetry
# ---------------------------------------------------------------------- #
def _policy(**overrides):
    fields = dict(max_batch_size=6, max_context=640, block_size=16,
                  prefill_chunk_size=32, step_token_budget=64)
    fields.update(overrides)
    return SchedulerPolicy(**fields)


def _long_prompt(tag: str, chars: int) -> str:
    return (f"{tag}: " + "status: ok; retry: 2; latency: 15ms; " * 20)[:chars]


def _requests():
    prompts = [_long_prompt("trace a", 500), "bitrate now", "abc abc abc abc abc",
               _long_prompt("trace b", 430), "x", "schedule job 7 on executor 3"]
    # Greedy and sampled rows side by side: greedy output of the templated
    # prompts repeats itself (drafts accepted), sampled output does not
    # (drafts rejected and rolled back).
    return [GenerateRequest(prompt=prompt, max_new_tokens=24,
                            temperature=0.8 * (index % 2), seed=index,
                            stop_on_eos=False)
            for index, prompt in enumerate(prompts)]


class TestServedSplitSteps:
    @pytest.mark.parametrize("speculation", ["off", "ngram"])
    def test_served_tokens_match_generate(self, model, speculation):
        server = InferenceServer(model, _policy(speculation=speculation,
                                                speculation_k=4))
        handles = [server.submit(request) for request in _requests()]
        server.run_until_idle()
        for handle in handles:
            assert handle.result(timeout=5).token_ids == standalone(model, handle.request)
        records = [r for r in server.telemetry.records() if r.decode_sessions]
        assert max(r.kv_groups for r in records) >= 2
        for record in records:
            assert record.kv_groups >= 1
            assert 0 < record.kv_positions_live <= record.kv_positions_gathered
            assert 0.0 <= record.kv_padding_share < 1.0
        if speculation == "ngram":
            stats = server.stats()
            assert stats.tokens_drafted > stats.tokens_accepted > 0  # rollbacks
        server._manager.cache.check_invariants()

    def test_a_chunk_that_emits_no_token_rides_the_decode_forward(
            self, model, monkeypatch):
        """While a long prompt is mid-way beside running decoders, an engine
        step is one model forward; the step its last chunk completes is two
        (the completing chunk first, so it samples its first token before
        the decode forward) — and every stream is token-exact."""
        greedy = dict(max_new_tokens=40, temperature=0.0, stop_on_eos=False)
        prompts = ["abc abc abc", "bitrate now", "x", _long_prompt("trace c", 300)]
        server = InferenceServer(model, _policy(max_batch_size=4))
        handles = [server.submit(GenerateRequest(prompt=prompt, **greedy))
                   for prompt in prompts[:3]]
        server.step()  # three one-shot admissions: they decode from here on
        assert server._manager.num_running == 3
        handles.append(server.submit(GenerateRequest(prompt=prompts[3], **greedy)))
        forwards = []
        forward_step = LanguageModel.forward_step

        def spy(self, *args, **kwargs):
            forwards[-1] += 1
            return forward_step(self, *args, **kwargs)

        monkeypatch.setattr(LanguageModel, "forward_step", spy)
        while handles[3]._session.state != "running":
            forwards.append(0)
            server.step()
        monkeypatch.undo()
        chunks = -(-len(handles[3]._session.prompt_ids) // 32)
        assert chunks >= 5 and server._manager.num_running == 4
        assert forwards == [1] * (chunks - 1) + [2]
        server.run_until_idle()
        for handle in handles:
            assert handle.result(timeout=5).token_ids == standalone(model, handle.request)
        assert server._manager.cache.num_sessions == 0

    @pytest.mark.parametrize("site,speculation,action", [
        ("decode.step", "off", "raise"), ("decode.verify", "ngram", "raise"),
        ("decode.verify", "ngram", "corrupt")],
        ids=["decode.step-off", "decode.verify-ngram", "decode.verify-ngram-corrupt"])
    def test_quarantine_in_a_split_step_keeps_its_blast_radius(
            self, model, monkeypatch, site, speculation, action):
        """The faulted step's decode batch fails, exactly as before the step
        was split; the session still prefilling and the one still queued are
        untouched and finish token-exact.  A corrupted payload in a step
        whose forward carries a riding chunk lands on the decode rows alone:
        the prefilling request stays token-exact."""
        greedy = dict(max_new_tokens=40, temperature=0.0, stop_on_eos=False)
        # "trace b" is long enough to be still prefilling on the first
        # probe step, the first step a session starting undrafted verifies.
        prompts = [_long_prompt("trace a", 300), "abc abc abc abc abc abc",
                   "ab ab ab ab ab ab ab", _long_prompt("trace b", 560),
                   "queued behind the batch"]

        def serve(injector):
            server = InferenceServer(
                model, _policy(max_batch_size=4, speculation=speculation),
                fault_injector=injector)
            handles = [server.submit(GenerateRequest(prompt=prompt, **greedy))
                       for prompt in prompts]
            server.run_until_idle()
            return server, handles

        # Fault-free pass: find the site's first visit inside a split step
        # whose batch has all three decoders, a prefill in flight and a
        # request queued.  Steps are deterministic, so the visit number holds.
        clean, _ = serve(None)
        records = clean.telemetry.records()

        def rides(index):
            """Step ``index`` carries a chunk that is not its prompt's last."""
            later = {sid for r in records[index + 1:] for sid, _ in r.prefill_chunks}
            return any(sid in later for sid, _ in records[index].prefill_chunks)

        visits = [i for i, r in enumerate(records)
                  if (r.tokens_drafted if site == "decode.verify"
                      else r.decode_sessions)]
        target = next(i for i in visits
                      if len(records[i].decode_sessions) == 3
                      and records[i].kv_groups >= 2 and records[i].prefill_chunks
                      and records[i].queue_depth and (action == "raise" or rides(i)))

        monkeypatch.setenv("REPRO_FAULTS", "1")
        injector = FaultInjector([FaultSpec(site=site, action=action,
                                            at=visits.index(target) + 1,
                                            corrupt_scale=50.0)])
        server, handles = serve(injector)
        assert injector.total_fired == 1
        if action == "corrupt":
            assert not any(r.quarantines for r in server.telemetry.records())
            assert any(handle.result(timeout=5).token_ids
                       != standalone(model, handle.request) for handle in handles[:3])
        else:
            [culprit] = [r for r in server.telemetry.records() if r.quarantines]
            assert culprit.quarantined == records[target].decode_sessions
            assert set(culprit.quarantined) == {h.request_id for h in handles[:3]}
            for handle in handles[:3]:
                with pytest.raises(RequestFailed, match="decode step"):
                    handle.result(timeout=5)
        for handle in handles[3:]:
            assert handle.result(timeout=5).token_ids == standalone(model, handle.request)
        server._manager.cache.check_invariants()
        assert server._manager.cache.num_sessions == 0


class TestGroupsAsViews:
    """The served decode step lists its rows in ascending block need, so
    every length group is a contiguous run of rows: the plan and attention
    read it through views, not fancy-index copies."""

    @settings(max_examples=200, deadline=None)
    @given(needs=_needs, seed=st.integers(0, 2**16))
    def test_sorted_rows_make_slices_and_shuffled_rows_the_same_groups(
            self, needs, seed):
        ordered = sorted(needs)
        groups = pc.partition_rows(ordered)
        assert all(isinstance(rows, slice) for rows, _ in groups)
        order = np.random.default_rng(seed).permutation(len(needs))
        shuffled = pc.partition_rows([ordered[i] for i in order])
        assert len(shuffled) == len(groups)
        for (rows, width), (moved, moved_width) in zip(groups, shuffled):
            assert moved_width == width
            # The same rows, named by their positions in the shuffled batch.
            assert np.array_equal(np.arange(len(needs))[rows], np.sort(order[moved]))
            named = np.arange(len(needs))[moved]
            if named[-1] - named[0] == len(named) - 1:
                assert isinstance(moved, slice)
            else:
                assert isinstance(moved, np.ndarray) and np.array_equal(moved, named)

    def test_a_served_decode_step_reads_every_group_as_a_view(
            self, model, monkeypatch):
        """16 running rows of 8..158-token prompts, admitted in an order
        that is not their length order: one decode step splits them into
        several groups, each a token run over a view of the step's tables."""
        lengths = [8 + 10 * ((7 * row) % 16) for row in range(16)]
        server = InferenceServer(model, _policy(max_batch_size=16, speculation="off",
                                                prefill_chunk_size=64,
                                                step_token_budget=256))
        for row, length in enumerate(lengths):
            server.submit(GenerateRequest(prompt=_long_prompt(f"row {row}", length),
                                          max_new_tokens=64, stop_on_eos=False,
                                          temperature=0.8, seed=row))
        manager = server._manager
        while manager.num_running < 16 or manager.prefilling:
            server.step()
        slots = sorted(manager.running)
        assert [manager.cache.length(slot) for slot in slots] != sorted(
            manager.cache.length(slot) for slot in slots), "admitted in length order"
        plans, length_groups = [], pc._length_groups

        def spy(tables, *args):
            groups, keep, last = length_groups(tables, *args)
            plans.append((tables, groups))
            return groups, keep, last

        monkeypatch.setattr(pc, "_length_groups", spy)
        server.step()
        monkeypatch.undo()
        [(tables, groups)] = plans
        assert len(groups) >= 3
        runs = []
        for tokens, group_tables, _, valid, fresh in groups:
            assert type(tokens) is TokenRun and tokens.width == 1
            assert valid is None and fresh is None
            assert np.shares_memory(group_tables, tables)
            runs.append((tokens.start, tokens.rows))
        position = 0
        for start, rows in sorted(runs):  # the runs tile the batch
            assert start == position
            position += rows
        assert position == 16
        server.run_until_idle()
        manager.cache.check_invariants()


class TestPaddingTelemetry:
    def test_window_padding_share_sums_the_window(self):
        aggregator = WindowAggregator(window_s=1.0)
        aggregator.observe(StepRecord(seq=0, started_at=0.0, ended_at=0.1,
                                      kv_positions_gathered=1000,
                                      kv_positions_live=400, kv_groups=1))
        aggregator.observe(StepRecord(seq=1, started_at=0.1, ended_at=0.2,
                                      kv_positions_gathered=1000,
                                      kv_positions_live=800, kv_groups=2))
        aggregator.observe(StepRecord(seq=2, started_at=1.1, ended_at=1.2))
        first, second = aggregator.windows()
        assert first.kv_padding_share == pytest.approx(0.4)
        assert second.kv_padding_share == 0.0  # nothing gathered: no share
        assert first.to_dict()["kv_padding_share"] == pytest.approx(0.4)

    def test_step_records_carry_what_each_step_added(self):
        telemetry = ServeTelemetry()
        totals = [(1000, 300, 1), (1000, 300, 1), (1600, 800, 4)]
        records = []
        for index, kv_totals in enumerate(totals):
            telemetry.begin_step(float(index))
            telemetry.step.decode_sessions.extend([1, 2])
            records.append(telemetry.commit_step(
                index + 0.5, True, 0, {}, 0, 0, kv_totals=kv_totals))
        assert [(r.kv_positions_gathered, r.kv_positions_live, r.kv_groups)
                for r in records] == [(1000, 300, 1), (0, 0, 0), (600, 500, 3)]
        assert records[0].kv_padding_share == pytest.approx(0.7)
        assert records[0].to_dict()["kv_groups"] == 1

    def test_explain_request_names_the_longer_neighbour(self):
        """The worst gap sits on a step that gathered mostly padding."""
        telemetry = ServeTelemetry()
        running = [0, 0, 0]
        for index, added in enumerate([(160, 150, 1), (1088, 240, 1),
                                       (200, 180, 2)]):
            running = [total + new for total, new in zip(running, added)]
            telemetry.begin_step(1.0 + index)
            telemetry.step.decode_sessions.extend([7, 8])
            telemetry.commit_step(1.0 + index + (0.9 if index == 1 else 0.1),
                                  True, 0, {}, 0, 0, kv_totals=tuple(running))
        metrics = RequestMetrics(task="generate", request_id=7, submitted_at=0.5)
        metrics.first_token_at = 1.1
        metrics.token_seconds = [0.6, 1.8, 0.2]  # tokens at 1.1, 2.9, 3.1
        metrics.finished_at = 3.1
        explanation = telemetry.explain_request(metrics)
        worst = explanation.worst_gaps[0]
        assert worst.culprit.seq == 1
        assert worst.kv_padding_share == pytest.approx(1 - 240 / 1088)
        assert worst.long_neighbour
        assert worst.to_dict()["co_batched_with_longer_session"] is True
        mild = explanation.worst_gaps[1]
        assert mild.culprit.seq == 2 and not mild.long_neighbour
