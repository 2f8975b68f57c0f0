"""Speculative multi-token decode suite (``repro.serve.speculative``).

Covers the drafting layer (:class:`NgramProposer` / :class:`AdaptiveK`),
the paged multi-token substrate (``prepare_multi_step`` / ``forward_step``
with ragged ``counts`` / ``truncate_session`` rollback, fork/CoW safety),
and the headline acceptance property: the speculative engine's emitted
token streams are **exactly** the sequential engine's, at every draft
length and at temperature 0 and temperature > 0 (seeded), while the pool
invariants hold after every step — interleaved with chunked prefill,
prefix-cache hits and random cancels.  Multi-row prefill is pinned the same
way: several sessions' chunks in one forward — at equal or different
committed lengths, with equal or different takes — must emit the tokens of
the one-at-a-time path.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import Twin, always_draft, decode, standalone

from repro.llm import LanguageModel
from repro.llm.config import LLMConfig
from repro.nn import no_grad
from repro.serve import (
    AdaptiveK,
    GenerateRequest,
    InferenceServer,
    NgramProposer,
    SchedulerPolicy,
)
from repro.serve import session as session_module
from repro.serve.session import SessionManager
from repro.serve.speculative import BREAK_EVEN_ROWS


@pytest.fixture(scope="module")
def model():
    config = LLMConfig(name="spec-test", family="test", d_model=48,
                       num_layers=2, num_heads=4, max_seq_len=256)
    return LanguageModel(config, seed=11)


def _invariants(server):
    manager = server._manager
    manager.cache.check_invariants()
    if manager.proposer is not None:
        # Slot ids are never reused: state kept for a slot that is no longer
        # running is kept for the life of the server.  Once the server has
        # drained, both maps are empty.
        assert set(manager.proposer._tokens) <= set(manager.running)
        assert set(manager._adaptive._k) <= set(manager.running)
        assert set(manager.proposer._walk) <= set(manager.running)


# ---------------------------------------------------------------------- #
# Drafting layer: NgramProposer / AdaptiveK unit behaviour
# ---------------------------------------------------------------------- #
class TestNgramProposer:
    def test_copies_continuation_of_most_recent_match(self):
        proposer = NgramProposer()
        #          0  1  2  3  4  5  6  7
        history = [5, 6, 7, 8, 5, 6, 7, 9]
        proposer.sync(0, history + [5, 6, 7])
        # Longest (order-3) suffix [5, 6, 7] last occurred at 4..6, so the
        # draft copies from position 7 — the *most recent* continuation.
        assert proposer.propose(0, 4) == [9, 5, 6, 7]

    def test_prefers_longer_orders(self):
        proposer = NgramProposer()
        # order-1 match for [3] points at 10; order-2 match [2, 3] at 20.
        proposer.sync(0, [3, 10, 9, 9, 2, 3, 20, 9, 2, 3])
        assert proposer.propose(0, 1) == [20]

    def test_cyclic_continuation_extends_past_history(self):
        proposer = NgramProposer()
        # The most recent [7, 8, 9] occurrence's continuation runs right up
        # to the present: the session is cycling with period 3, and the
        # draft continues the cycle instead of clamping to 3 tokens.
        proposer.sync(0, [7, 8, 9, 7, 8, 9, 7, 8, 9])
        assert proposer.propose(0, 7) == [7, 8, 9, 7, 8, 9, 7]

    def test_no_match_returns_empty(self):
        proposer = NgramProposer()
        proposer.sync(0, [1, 2, 3, 4, 5])
        assert proposer.propose(0, 4) == []
        assert proposer.propose(99, 4) == []  # unknown session

    def test_incremental_sync_matches_fresh_index(self):
        tokens = [1, 2, 3, 1, 2, 4, 1, 2, 3, 5, 1, 2]
        incremental = NgramProposer()
        for end in range(1, len(tokens) + 1):
            incremental.sync(0, tokens[:end])
        fresh = NgramProposer()
        fresh.sync(0, tokens)
        assert incremental.propose(0, 4) == fresh.propose(0, 4)

    def test_history_must_be_append_only(self):
        proposer = NgramProposer()
        proposer.sync(0, [1, 2, 3])
        with pytest.raises(ValueError, match="append-only"):
            proposer.sync(0, [1, 2])
        with pytest.raises(ValueError, match="append-only"):
            proposer.sync(0, [1], [2])  # judged on the segments' total

    def test_segments_are_one_history(self):
        # The manager passes prompt ids and generated ids unjoined; every
        # split of the same history must index identically, including a
        # prompt segment longer than what was seen so far.
        tokens = [1, 2, 3, 1, 2, 4, 1, 2, 3, 5, 1, 2]
        fresh = NgramProposer()
        fresh.sync(0, tokens)
        for cut in range(len(tokens) + 1):
            split = NgramProposer()
            split.sync(0, tokens[:3], tokens[3:3])       # early, short sync
            split.sync(0, tokens[:cut], tokens[cut:])
            assert split._tokens[0] == tokens
            assert split._index[0] == fresh._index[0]
            assert split.propose(0, 4) == fresh.propose(0, 4)

    def test_sync_after_many_skipped_steps_catches_up(self):
        # An undrafted session syncs only now and then: the one catch-up
        # sync must leave the index, and the replayed totals, that a
        # step-by-step sync would have built.
        rng = np.random.default_rng(0)
        prompt = rng.integers(0, 6, size=10).tolist()
        generated = rng.integers(0, 6, size=3).tolist()
        stepwise, skipping = NgramProposer(), NgramProposer()
        stepwise.sync(0, prompt, generated)
        skipping.sync(0, prompt, generated)
        for _ in range(16):
            generated.append(int(rng.integers(0, 6)))
            stepwise.sync(0, prompt, generated)
        skipping.sync(0, prompt, generated)
        assert skipping._tokens[0] == stepwise._tokens[0] == prompt + generated
        assert skipping._index[0] == stepwise._index[0]
        assert skipping.propose(0, 4) == stepwise.propose(0, 4)
        assert skipping._walk[0] == stepwise._walk[0]
        assert stepwise.replayed(0)[0] > 0, "the walk scored no draft"

    def test_replay_scores_the_always_drafting_walk(self):
        proposer = NgramProposer(cap=3)
        stream = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 9]
        proposer.sync(0, stream[:8])
        assert proposer.replayed(0) == (0, 0)  # the walk starts at 8
        # At 8 the draft is [3, 1, 2]: two of its tokens are out and both
        # match, so it waits for the third.
        proposer.sync(0, stream[:10])
        assert proposer.replayed(0) == (0, 0)
        proposer.sync(0, stream[:11])
        assert proposer.replayed(0) == (3, 3)  # all accepted: next stop 12
        # At 12 the draft is [1, 2, 3] against 1, 9: one accepted, and the
        # mismatch settles it without its tail.
        proposer.sync(0, stream)
        assert proposer.replayed(0) == (6, 4)
        assert proposer._walk[0][:2] == [14, None]

    def test_a_draft_that_accepts_nothing_halves_the_totals(self):
        proposer = NgramProposer(cap=2)
        stream = [4, 5, 4, 5, 4, 5, 9, 9, 4, 5]
        proposer.sync(0, stream[:4])
        proposer.sync(0, stream[:6])           # [4, 5] at 4: accepted
        assert proposer.replayed(0) == (2, 2)
        proposer.sync(0, stream[:8])           # nothing precedes [9] at 7
        assert proposer.replayed(0) == (2, 2)
        # At 8 the cycle [9, 9] meets 4: (2, 2) halves to (1, 1), then adds
        # (2, 0).  At 9 the draft [5, 9] waits behind its matching 5.
        proposer.sync(0, stream)
        assert proposer.replayed(0) == (3, 1)
        assert proposer._walk[0][:2] == [9, [5, 9]]

    def test_forget_drops_all_state(self):
        proposer = NgramProposer()
        proposer.sync(0, [1, 2, 1, 2, 1])
        assert proposer.propose(0, 1)
        proposer.forget(0)
        assert proposer.propose(0, 1) == []
        assert proposer.held(0) is None and proposer.replayed(0) == (0, 0)
        proposer.forget(0)  # idempotent


#: Replayed totals of a session whose every replayed draft was accepted.
PAID = (4, 4)


class TestAdaptiveK:
    def test_full_acceptance_grows_to_cap(self):
        adaptive = AdaptiveK(cap=8)
        adaptive._k[1] = 2
        adaptive.observe(1, drafted=2, accepted=2)
        assert adaptive.current(1, 1, PAID) == 3
        for _ in range(10):
            k = adaptive.current(1, 1, PAID)
            adaptive.observe(1, drafted=k, accepted=k)
        assert adaptive.current(1, 1, PAID) == 8

    def test_full_rejection_halves_to_zero(self):
        adaptive = AdaptiveK(cap=8)
        adaptive._k[1] = 8  # a session that had climbed to the cap
        adaptive.observe(1, drafted=8, accepted=0)
        assert adaptive._k[1] == 4
        # A replay that accepted nothing pays for nothing, at any batch
        # size: the session drafts nothing, while its k keeps halving on
        # misses.
        assert adaptive.current(1, 1, (12, 0)) == 0
        seen = []
        for _ in range(4):
            adaptive.observe(1, drafted=1, accepted=0)
            seen.append(adaptive._k[1])
        assert seen == [2, 1, 0, 0]
        assert adaptive.current(1, 1, (12, 0)) == 0

    def test_sessions_at_zero_start_once_replay_pays(self):
        adaptive = AdaptiveK(cap=4)
        # No replayed evidence, or evidence that does not pay: undrafted.
        for replayed in ((0, 0), (4, 0), (8, 1)):
            assert adaptive.current(1, 1, replayed) == 0
        # At k = 0 the bar is read at k = 1: a quarter of the replayed
        # tokens accepted pays in a one-row batch.
        assert adaptive.current(1, 1, (8, 2)) == 1
        assert adaptive.current(1, 2, (8, 2)) == 0
        # Two sessions at k = 0 start on the step their own replay clears
        # the bar, not on a shared clock.
        assert adaptive.current(2, 2, (4, 4)) == 1
        assert adaptive.current(3, 2, (4, 1)) == 0
        assert adaptive._k == {}  # reading the bar changes no state

    def test_replay_earned_draft_climbs_the_ladder(self):
        adaptive = AdaptiveK(cap=4)
        grown = []
        for _ in range(6):
            grown.append(adaptive.current(1, 1, PAID))
            adaptive.observe(1, drafted=grown[-1], accepted=grown[-1])
        assert grown == [1, 1, 2, 3, 4, 4]

    def test_break_even_scales_with_the_batch(self):
        adaptive = AdaptiveK(cap=4)
        adaptive._k[1] = 3
        adaptive.observe(1, drafted=4, accepted=1)  # settles at k = 1
        adaptive.observe(1, drafted=1, accepted=1)  # grows to k = 2
        # 2 of 5 replayed tokens accepted, at k = 2: the session drafts while
        # 2 * 2 * BREAK_EVEN_ROWS >= rows * 5, and not one row past that.
        rows = 4 * BREAK_EVEN_ROWS // 5
        assert 2 * 2 * BREAK_EVEN_ROWS >= rows * 5
        assert 2 * 2 * BREAK_EVEN_ROWS < (rows + 1) * 5
        assert adaptive.current(1, rows, (5, 2)) == 2
        assert adaptive.current(1, rows + 1, (5, 2)) == 0

    def test_forget_restarts_a_slot_undrafted(self):
        adaptive = AdaptiveK(cap=4)
        adaptive._k[1] = 3
        adaptive.observe(1, drafted=3, accepted=3)
        assert adaptive.current(1, 1, PAID) == 4
        adaptive.forget(1)
        assert 1 not in adaptive._k
        # The slot's next session is unknown: it earns its drafts afresh,
        # from k = 1 once its own replay pays.
        assert adaptive.current(1, 1, (0, 0)) == 0
        assert adaptive.current(1, 1, PAID) == 1
        adaptive.forget(1)  # idempotent

    def test_partial_acceptance_settles_at_accepted(self):
        adaptive = AdaptiveK(cap=8)
        adaptive.observe(1, drafted=6, accepted=3)
        assert adaptive.current(1, 1, PAID) == 3

    def test_zero_draft_is_a_no_op(self):
        adaptive = AdaptiveK(cap=4)
        adaptive.observe(1, drafted=0, accepted=0)
        assert adaptive._k == {}
        assert adaptive.current(1, 1, (0, 0)) == 0

    def test_cap_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            AdaptiveK(cap=0)


# ---------------------------------------------------------------------- #
# Paged multi-token substrate (ragged verification forward + rollback)
# ---------------------------------------------------------------------- #
class TestMultiStepSubstrate:
    @pytest.fixture()
    def setup(self, model):
        cache = model.init_paged_cache(max_sessions=4, block_size=8)
        with no_grad():  # KV-cached forwards are inference-only
            yield model, cache

    def _admit(self, model, cache, prompt_len, seed):
        rng = np.random.default_rng(seed)
        return Twin(model, cache, rng.integers(0, model.tokenizer.vocab_size,
                                               size=prompt_len))

    def test_ragged_multi_step_matches_sequential(self, setup):
        model, cache = setup
        twins = [self._admit(model, cache, 13, seed=0),
                 self._admit(model, cache, 21, seed=1)]
        feeds = [[3, 7, 11, 2], [5, 9]]
        # Ragged multi-token verification forward: both rows in one call.
        # The rows' tokens packed back to back: 4 + 2, nothing padded.
        counts = np.asarray([4, 2], dtype=np.int64)
        logits = model.forward_step(np.asarray(feeds[0] + feeds[1]), cache,
                                    np.asarray([twin.sid for twin in twins]),
                                    counts=counts).data
        assert logits.shape[:2] == (1, 6)
        twins[0].feed(feeds[0], logits[0, :4])
        twins[1].feed(feeds[1], logits[0, 4:])
        for twin in twins:
            twin.check()
        cache.check_invariants()

    def test_truncate_rolls_back_and_decode_continues_exact(self, setup):
        model, cache = setup
        twin = self._admit(model, cache, 11, seed=2)
        base_len = cache.length(twin.sid)
        # Grow by 5 speculative tokens, then reject the last 3.
        logits = model.forward_step(np.asarray([1, 2, 3, 4, 5]), cache,
                                    np.asarray([twin.sid]),
                                    counts=np.asarray([5])).data[0]
        twin.feed([1, 2, 3, 4, 5], logits)
        assert cache.length(twin.sid) == base_len + 5
        twin.truncate(base_len + 2)
        assert cache.length(twin.sid) == base_len + 2
        cache.check_invariants()
        # Post-rollback decode is the graph forward over the kept tokens.
        twin.next_token = 9
        decode(model, cache, [twin], steps=1)

    def test_truncate_is_cow_safe_under_forks(self, setup):
        model, cache = setup
        sid = self._admit(model, cache, 10, seed=3).sid
        fork = cache.fork(sid)
        fork_tables = list(cache.table(fork))
        fork_len = cache.length(fork)
        # Speculate on the parent (CoW-splits the shared partial tail), then
        # roll everything back.
        counts = np.asarray([4], dtype=np.int64)
        model.forward_step(np.asarray([[1, 2, 3, 4]], dtype=np.int64), cache,
                           np.asarray([sid], dtype=np.int64), counts=counts)
        cache.truncate_session(sid, 10)
        cache.check_invariants()
        # The fork is untouched: same blocks, same length, still decodable.
        assert list(cache.table(fork)) == fork_tables
        assert cache.length(fork) == fork_len
        model.forward_step(np.asarray([7], dtype=np.int64), cache,
                           np.asarray([fork], dtype=np.int64))
        cache.check_invariants()

    def test_truncate_validation(self, setup):
        model, cache = setup
        sid = self._admit(model, cache, 9, seed=4).sid
        with pytest.raises(ValueError):
            cache.truncate_session(sid, 0)
        with pytest.raises(ValueError):
            cache.truncate_session(sid, 10)  # beyond current length
        cache.truncate_session(sid, 9)  # no-op at current length


# ---------------------------------------------------------------------- #
# Engine parity: speculative output == sequential output, exactly
# ---------------------------------------------------------------------- #
#: Repetitive/templated prompts the n-gram drafter feeds on, plus an
#: incompressible one that forces rejections and adaptive back-off.
PROMPTS = [
    "the quick brown fox jumps over the lazy dog. the quick brown fox",
    "status: ok; status: ok; status: ok; status:",
    "zqxjkvbw ylfmd ghpt",
]


def _collect(speculation, k, temps, seeds, policy_kwargs=None, model=None,
             max_new_tokens=24, eager=False):
    """Serve :data:`PROMPTS`; ``eager`` drafts the cap on every step
    (:func:`always_draft`), so parity is checked on verify steps whether or
    not drafting would pay for them."""
    policy = SchedulerPolicy(max_batch_size=8, block_size=16,
                             speculation=speculation, speculation_k=k,
                             **(policy_kwargs or {}))
    server = InferenceServer(model=model, policy=policy)
    if eager:
        always_draft(server)
    handles = [server.submit(GenerateRequest(
        prompt=prompt, max_new_tokens=max_new_tokens, temperature=temps[i],
        seed=seeds[i], stop_on_eos=False))
        for i, prompt in enumerate(PROMPTS)]
    server.run_until_idle()
    streams = [handle.result(timeout=60).token_ids for handle in handles]
    _invariants(server)
    assert server._manager.cache.num_sessions == 0
    return streams, server


class TestEngineParity:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_greedy_parity_at_every_draft_length(self, model, k):
        temps = [0.0] * len(PROMPTS)
        seeds = [0] * len(PROMPTS)
        base, _ = _collect("off", k, temps, seeds, model=model)
        assert _collect("ngram", k, temps, seeds, model=model)[0] == base
        spec, server = _collect("ngram", k, temps, seeds, model=model,
                                eager=True)
        assert spec == base
        stats = server.stats()
        assert stats.tokens_drafted > 0  # speculation actually ran
        assert 0.0 <= stats.acceptance_rate <= 1.0

    def test_seeded_sampled_parity(self, model):
        temps = [0.9, 0.7, 1.1]
        seeds = [101, 202, 303]
        base, _ = _collect("off", 4, temps, seeds, model=model)
        assert _collect("ngram", 4, temps, seeds, model=model)[0] == base
        spec, server = _collect("ngram", 4, temps, seeds, model=model,
                                eager=True)
        # The acceptance rule replays the session's own seeded sampling, so
        # parity is exact even at temperature > 0.
        assert spec == base
        assert server.stats().tokens_drafted > 0

    def test_parity_under_token_budget(self, model):
        temps = [0.0] * len(PROMPTS)
        seeds = [0] * len(PROMPTS)
        budget = dict(prefill_chunk_size=8, step_token_budget=24)
        base, _ = _collect("off", 4, temps, seeds, budget, model=model)
        spec, server = _collect("ngram", 4, temps, seeds, budget, model=model,
                                eager=True)
        assert spec == base
        assert server.stats().tokens_drafted > 0
        # The budget is a hard per-step bound on planned decode tokens plus
        # prefill grants: no committed step may exceed it.
        for record in server.telemetry.records():
            charged = (len(record.decode_sessions) + record.tokens_drafted
                       + record.prefill_tokens)
            assert charged <= 24 + len(record.decode_sessions)

    def test_a_row_promoted_into_an_empty_batch_stays_inside_the_budget(
            self, model, monkeypatch):
        """The plan made while nothing was running is still the plan: the row
        its prefill promotes takes the one decode token the prefill grant
        paid for, not ``speculation_k`` unbudgeted drafts on top."""
        # A period-2 prompt continued by the script: the drafter always has a
        # match to copy, from the first decode step on.
        script = model.tokenizer.encode("ab" * 12)
        monkeypatch.setattr(session_module, "draw_token",
                            _scripted_sampler([script]))
        server = InferenceServer(model=model, policy=SchedulerPolicy(
            max_batch_size=2, block_size=16, prefill_chunk_size=32,
            step_token_budget=32, speculation="ngram", speculation_k=4))
        handle = server.submit(GenerateRequest(
            prompt="ab" * 15, max_new_tokens=len(script), temperature=1.0,
            stop_on_eos=False))
        server.run_until_idle()
        assert handle.result(timeout=60).token_ids == script
        records = server.telemetry.records()
        assert records[0].prefill_tokens == 31  # 30 characters and BOS
        assert len(records[0].decode_sessions) == 1  # promoted the same step
        for record in records:
            assert (record.prefill_tokens + len(record.decode_sessions)
                    + record.tokens_drafted) <= 32
        assert server.stats().tokens_accepted > 0  # later steps did draft
        _invariants(server)

    def test_acceptance_counters_on_stats_and_records(self, model):
        temps = [0.0] * len(PROMPTS)
        seeds = [0] * len(PROMPTS)
        _, server = _collect("ngram", 4, temps, seeds, model=model, eager=True)
        stats = server.stats()
        assert stats.tokens_accepted <= stats.tokens_drafted
        report = stats.report()
        assert report["tokens_drafted"] == stats.tokens_drafted
        assert report["tokens_accepted"] == stats.tokens_accepted
        assert report["acceptance_rate"] == pytest.approx(
            stats.tokens_accepted / stats.tokens_drafted)
        records = [r for r in server.telemetry.records() if r.tokens_drafted]
        assert records, "no speculative step was recorded"
        assert sum(r.tokens_drafted for r in records) == stats.tokens_drafted
        assert sum(r.tokens_accepted for r in records) == stats.tokens_accepted
        for record in records:
            assert record.decode_tokens == (len(record.decode_sessions)
                                            + record.tokens_accepted)
            row = record.to_dict()
            assert row["tokens_drafted"] == record.tokens_drafted
            assert row["tokens_accepted"] == record.tokens_accepted


def _scripted_sampler(scripts):
    """A ``draw_token`` stand-in that ignores the sampling table: the i-th
    session to draw emits ``scripts[i]``, token by token.  ``draw_token``
    runs once per emitted token and a draft is accepted iff it equals the
    drawn token, so the script *is* the session's output and decides
    acceptance.  Sessions are told apart by the per-session generator they
    pass in."""
    streams = {}

    def sample(table, row, rng):
        if id(rng) not in streams:
            streams[id(rng)] = iter(scripts[len(streams)])
        return next(streams[id(rng)])

    return sample


def _decode_records(server):
    """Records of the steps that ran decode rows.  The first decode step runs
    rows its own prefill just promoted, with nothing planned (record 0)."""
    return [r for r in server.telemetry.records() if r.decode_sessions]


#: Draft cap of the engine-level runs below.
CAP = 4
#: The decode step on which a session whose stream pays first drafts:
#: record 0 runs with no plan, record 1's plan syncs it and starts its
#: replay walk there, and its first cap-length replayed draft is scored on
#: the catch-up sync once ``CAP + 1`` more tokens are unsynced.
FIRST_DRAFT = CAP + 2
#: ... and the one on which it first drafts the cap: the ladder from ``k =
#: 0`` drafts 1, 1, 2, 3, 4.
AT_CAP = FIRST_DRAFT + CAP


#: Per-session template lines, no trigram twice in a line: a session that
#: repeats its own line has every draft copied from the previous one
#: accepted.
TEMPLATE_LINES = [f"row {s}: abcdefghijklmnopqrstuvwxyz; "
                  for s in range(BREAK_EVEN_ROWS + 1)]


def _scripted_run(model, monkeypatch, speculation, prompts, scripts,
                  eager=False):
    """Serve ``prompts`` with the sampler replaced by ``scripts`` (so the
    script is the output and decides acceptance); assert every stream is its
    script — the same with speculation off — and return the server.
    ``eager`` drafts the cap on every step (:func:`always_draft`)."""
    monkeypatch.setattr(session_module, "draw_token",
                        _scripted_sampler(scripts))
    server = InferenceServer(model=model, policy=SchedulerPolicy(
        max_batch_size=16, block_size=16, speculation=speculation,
        speculation_k=CAP))
    if eager:
        always_draft(server)
    handles = [server.submit(GenerateRequest(
        prompt=prompt, max_new_tokens=len(script), temperature=1.0,
        stop_on_eos=False)) for prompt, script in zip(prompts, scripts)]
    server.run_until_idle()
    assert [h.result(timeout=60).token_ids for h in handles] == scripts
    _invariants(server)
    return server


def _templated(model, sessions):
    """Prompts and scripts of ``sessions`` sessions repeating their lines."""
    lines = TEMPLATE_LINES[:sessions]
    return ([line * 2 for line in lines],
            [model.tokenizer.encode(line) * 4 for line in lines])


class TestSelfDisablingSpeculation:
    def test_incompressible_batch_never_drafts_and_stays_exact(self, model):
        rng = np.random.default_rng(5)
        alphabet = list("abcdefghijklmnopqrstuvwxyz0123456789 .,;")
        prompts = ["".join(rng.choice(alphabet, size=int(rng.integers(8, 32))))
                   for _ in range(16)]

        def run(speculation):
            server = InferenceServer(model=model, policy=SchedulerPolicy(
                max_batch_size=16, block_size=16, speculation=speculation,
                speculation_k=CAP))
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=96, temperature=1.0, seed=i,
                stop_on_eos=False)) for i, prompt in enumerate(prompts)]
            server.run_until_idle()
            _invariants(server)
            return [h.result(timeout=60).token_ids for h in handles], server

        base, _ = run("off")
        spec, server = run("ngram")
        assert spec == base
        records = _decode_records(server)
        assert all(len(r.decode_sessions) == 16 for r in records)
        # The replayed stream never pays: no row ever drafts a token.
        assert server.stats().tokens_drafted == 0
        assert not any(r.tokens_drafted for r in records)

    def test_templated_batch_is_untouched(self, model, monkeypatch):
        # A batch as large as an accepted replay pays for, each session
        # repeating its own line: every draft copied from the previous line
        # is accepted.  Starting undrafted costs them the replay's catch-up
        # and the climb to the cap — and nothing after: once there, every
        # row drafts at the cap every step.
        rows = BREAK_EVEN_ROWS
        prompts, scripts = _templated(model, rows)
        _scripted_run(model, monkeypatch, "off", prompts, scripts)
        eager = _scripted_run(model, monkeypatch, "ngram", prompts, scripts,
                              eager=True)
        stats = eager.stats()
        assert stats.tokens_accepted > 0.7 * stats.tokens_drafted, \
            "fixture is not templated"
        server = _scripted_run(model, monkeypatch, "ngram", prompts, scripts)
        records = _decode_records(server)
        assert not any(r.tokens_drafted for r in records[:FIRST_DRAFT])
        assert [r.tokens_drafted for r in records[FIRST_DRAFT:AT_CAP]] == [
            rows * k for k in (1, 1, 2, 3)]
        steady = records[AT_CAP:-1]  # the last step ends the scripts
        assert steady and all(r.tokens_drafted == r.tokens_accepted == CAP * rows
                              for r in steady)
        assert len(records) <= len(_decode_records(eager)) + AT_CAP

    def test_templated_stream_climbs_to_the_cap(self, model, monkeypatch):
        prompts, scripts = _templated(model, 1)
        _scripted_run(model, monkeypatch, "off", prompts, scripts)
        server = _scripted_run(model, monkeypatch, "ngram", prompts, scripts)
        records = _decode_records(server)
        assert not any(r.tokens_drafted for r in records[:FIRST_DRAFT])
        # The replay earns k = 1, and each fully accepted draft grows it by
        # one up to the cap, where it stays.
        ladder = records[FIRST_DRAFT:FIRST_DRAFT + 8]
        assert [r.tokens_drafted for r in ladder] == [1, 1, 2, 3, 4, 4, 4, 4]
        assert all(r.tokens_accepted == r.tokens_drafted for r in ladder)

    def test_break_even_boundary_pair(self, model, monkeypatch):
        # The same replay — every replayed draft accepted, read at k = 1 —
        # pays for a draft in a batch of BREAK_EVEN_ROWS rows and not in one
        # row more: there no row drafts at all.
        for sessions, drafts in ((BREAK_EVEN_ROWS, True),
                                 (BREAK_EVEN_ROWS + 1, False)):
            prompts, scripts = _templated(model, sessions)
            _scripted_run(model, monkeypatch, "off", prompts, scripts)
            server = _scripted_run(model, monkeypatch, "ngram", prompts, scripts)
            records = _decode_records(server)
            assert all(len(r.decode_sessions) == sessions for r in records)
            if drafts:
                first = records[FIRST_DRAFT]
                assert first.tokens_drafted == first.tokens_accepted == sessions
                assert all(r.tokens_drafted >= sessions
                           for r in records[FIRST_DRAFT:-1])
            else:
                assert not any(r.tokens_drafted for r in records)

    def test_stream_turning_repetitive_is_back_at_the_cap(
            self, model, monkeypatch):
        # Noise over six symbols, then a period-3 cycle.
        rng = np.random.default_rng(2)
        noise, cycle = 80, 90
        script = (rng.integers(10, 16, size=noise).tolist()
                  + [20, 21, 22] * (cycle // 3))
        monkeypatch.setattr(session_module, "draw_token",
                            _scripted_sampler([script]))
        server = InferenceServer(model=model, policy=SchedulerPolicy(
            max_batch_size=2, block_size=16, speculation="ngram",
            speculation_k=CAP))
        handle = server.submit(GenerateRequest(
            prompt="x", max_new_tokens=len(script), temperature=1.0,
            stop_on_eos=False))
        server.run_until_idle()
        assert handle.result(timeout=60).token_ids == script
        records = _decode_records(server)
        # The step that emitted the first cycle token (prefill emitted one).
        done = np.cumsum([1] + [r.decode_tokens for r in records])
        turn = int(np.searchsorted(done, noise, side="right")) - 1
        assert not any(r.tokens_drafted for r in records[:turn]), \
            "speculation drafted on the noise"
        # The replay sees the cycle within a catch-up or two of the turn and
        # the ladder climbs from there: at the cap 16 steps after it.
        recovery = records[turn:turn + 20]
        assert any(r.tokens_drafted == r.tokens_accepted == CAP
                   for r in recovery), "not back at the cap within 20 steps"


def _fold(steps):
    """Replayed ``(drafted, accepted)`` after verify steps ``steps``: a
    draft that accepts nothing halves the totals before it is added."""
    drafted = accepted = 0
    for step_drafted, step_accepted in steps:
        if not step_accepted:
            drafted, accepted = drafted // 2, accepted // 2
        drafted, accepted = drafted + step_drafted, accepted + step_accepted
    return drafted, accepted


@st.composite
def _noise_and_cycles(draw):
    """One to four scripted streams, each a run of noise and cycles."""
    noise = st.lists(st.integers(10, 15), min_size=1, max_size=10)
    cycle = st.builds(lambda period, times: period * times,
                      st.lists(st.integers(16, 23), min_size=1, max_size=4),
                      st.integers(2, 6))
    parts = st.lists(st.one_of(noise, cycle), min_size=1, max_size=5)
    return [[token for part in draw(parts) for token in part][:48]
            for _ in range(draw(st.integers(1, 4)))]


class TestReplayProperty:
    @settings(max_examples=15, deadline=None)
    @given(streams=_noise_and_cycles(), data=st.data())
    def test_replay_equals_what_always_draft_verifies(self, model, streams,
                                                      data):
        """Over random streams, a fresh proposer fed a session's stream in
        random cuts replays, at every cut, exactly the verify steps a server
        drafting the cap on every step recorded for it, once each is
        settled (its mismatch or its whole draft emitted)."""
        prompts = [data.draw(st.text("abc", min_size=1, max_size=6))
                   for _ in streams]
        server = InferenceServer(model=model, policy=SchedulerPolicy(
            max_batch_size=4, block_size=16, speculation="ngram",
            speculation_k=CAP))
        always_draft(server)
        manager = server._manager
        steps, histories = {}, {}  # slot -> [position, draft, accepted]
        propose, observe = manager.proposer.propose, manager._adaptive.observe

        def logged_propose(slot, k):
            draft = propose(slot, k)
            steps.setdefault(slot, []).append([manager.proposer.held(slot),
                                               draft, None])
            session = manager.running[slot]
            histories[slot] = (session.prompt_ids, session.generated)
            return draft

        def logged_observe(slot, drafted, accepted):
            steps[slot][-1][2] = accepted
            observe(slot, drafted, accepted)

        manager.proposer.propose = logged_propose
        manager._adaptive.observe = logged_observe
        with mock.patch.object(session_module, "draw_token",
                               _scripted_sampler(streams)):
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=len(stream), temperature=1.0,
                stop_on_eos=False)) for prompt, stream in zip(prompts, streams)]
            server.run_until_idle()
        assert [h.result(timeout=60).token_ids for h in handles] == streams
        for slot, log in steps.items():
            prompt, generated = histories[slot]
            history = [*prompt, *generated]
            verified = [(at, len(draft), accepted)
                        for at, draft, accepted in log
                        if accepted is not None
                        and at + len(draft) <= len(history)]
            if not verified:
                continue
            settled = [at + min(accepted + 1, drafted)
                       for at, drafted, accepted in verified]
            start = log[0][0]
            replay = NgramProposer(CAP)
            replay.sync(0, history[:start])
            cuts = data.draw(st.lists(st.integers(start, settled[-1]),
                                      max_size=8))
            for cut in sorted({*cuts, *settled,
                               *(at for at, _, _ in verified)}):
                replay.sync(0, history[:cut])
                expected = _fold((drafted, accepted) for (_, drafted, accepted),
                                 at in zip(verified, settled) if at <= cut)
                assert replay.replayed(0) == expected, (slot, cut)


class TestInterleavedChaosFreeProperty:
    def test_speculative_parity_with_prefill_prefix_and_cancels(self, model):
        """The randomized interleaving property (fault-free).

        A seeded workload of templated prompts sharing a registered prefix
        head runs against both engines with chunked prefill and a step
        token budget; a seeded subset is cancelled mid-flight.  Every
        surviving request's token stream must match the sequential engine
        exactly, and the pool invariants must hold after every step.
        """
        rng = np.random.default_rng(42)
        head = "system: answer briefly. "
        prompts = []
        for i in range(10):
            body = " ".join(["alpha beta gamma", "delta delta delta",
                             "alpha beta gamma"][j % 3]
                            for j in range(2 + int(rng.integers(0, 3))))
            prompts.append(head + body)
        cancel_at = {3: 2, 7: 5}  # request index -> cancel after N steps

        def run(speculation):
            policy = SchedulerPolicy(max_batch_size=4, block_size=16,
                                     prefill_chunk_size=8,
                                     step_token_budget=32,
                                     speculation=speculation, speculation_k=4)
            server = InferenceServer(model=model, policy=policy)
            server.register_prefix(head)
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=16,
                temperature=(0.8 if i % 2 else 0.0), seed=1000 + i,
                stop_on_eos=False)) for i, prompt in enumerate(prompts)]
            steps = 0
            while server.has_pending_work():
                server.step()
                _invariants(server)  # pool sound after *every* step
                steps += 1
                for index, when in cancel_at.items():
                    if steps == when:
                        handles[index].cancel()
                assert steps < 2000
            outputs = {}
            for i, handle in enumerate(handles):
                if i in cancel_at:
                    continue
                outputs[i] = handle.result(timeout=60).token_ids
            assert server._manager.cache.sessions == server._manager.prefix.sessions
            return outputs, server

        base, _ = run("off")
        spec, server = run("ngram")
        assert spec == base
        assert server.stats().tokens_drafted > 0
        assert server.stats().prefix_hits > 0  # prefix cache engaged


# ---------------------------------------------------------------------- #
# Multi-row prefill: several sessions' chunks in one forward, exact parity
# ---------------------------------------------------------------------- #
class TestFusedPrefill:
    def test_fused_groups_fire_and_match_solo_chunks(self, model, monkeypatch):
        prompt_forwards = []  # rows of every forward that carries a prompt row
        original = SessionManager._forward

        def spy(self, slots, fed, group, takes):
            if group:
                prompt_forwards.append(len(slots) + len(group))
            return original(self, slots, fed, group, takes)

        def solo_only(self, slots, fed, group, takes):
            if group and len(slots) + len(group) > 1:
                raise RuntimeError("solo only")
            return spy(self, slots, fed, group, takes)

        # Five equal-length prompts: after admission they are PREFILLING
        # with equal committed history, so every later chunk wave fuses.
        prompts = [f"w{i} " * 24 for i in range(5)]

        def run(fused):
            policy = SchedulerPolicy(max_batch_size=8, block_size=16,
                                     prefill_chunk_size=8)
            server = InferenceServer(model=model, policy=policy)
            # Solo: a prompt row beside any other raises pre-commit, in
            # prefill_step and in the decode step it would ride alike.
            monkeypatch.setattr(SessionManager, "_forward",
                                spy if fused else solo_only)
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=8, temperature=0.0,
                stop_on_eos=False)) for prompt in prompts]
            server.run_until_idle()
            streams = [h.result(timeout=60).token_ids for h in handles]
            _invariants(server)
            return streams

        fused_streams = run(fused=True)
        assert prompt_forwards and max(prompt_forwards) >= 4  # >= 4 sessions fused
        prompt_forwards.clear()
        solo_streams = run(fused=False)
        assert prompt_forwards and max(prompt_forwards) == 1  # really solo
        # The fused forward raising pre-commit falls back to solo chunks, so
        # the run completes either way — and the streams are identical.
        assert fused_streams == solo_streams

    def test_unequal_histories_and_takes_match_generate(self, model):
        """One call, four rows: two mid-prompt at different committed lengths,
        one behind a prefix hit, one brand new — each with its own take."""
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=4, block_size=16))
        head = "system: answer briefly. "
        manager.register_prefix(head)

        check = manager.cache.check_invariants

        prompts = ["x " * 30, "a different and shorter prompt",
                   head + "alpha beta gamma delta", "brand new row"]
        sessions = [session_module.GenerationSession(
            session_id=i, prompt=prompt, max_new_tokens=5, stop_on_eos=False)
            for i, prompt in enumerate(prompts)]
        manager.prefill_chunk(sessions[0], 17)  # past a block boundary
        manager.prefill_chunk(sessions[1], 4)
        assert [manager.cache.length(s.slot) for s in sessions[:2]] == [17, 4]
        for session in sessions[2:]:
            manager._prepare_prompt(session)  # tokenize + match, as admission does
        takes = [9, 20, 7, 14]  # the last one is the new row's whole tail
        manager.prefill_chunk_group(sessions, takes)
        assert sessions[2].metrics.prefix_tokens == len(head) + 1
        assert [s.state for s in sessions] == ["prefilling"] * 3 + ["running"]
        assert [manager.cache.length(s.slot) for s in sessions] == [
            26, 24, len(head) + 1 + 7, 14]
        check()
        while manager.prefilling:
            group = list(manager.prefilling.values())
            manager.prefill_chunk_group(
                group, [min(11, len(s.prompt_ids) - s.prompt_pos) for s in group])
            check()
        while manager.running:
            manager.step()
            check()
        for session in sessions:
            assert session.generated == standalone(model, session), session.prompt
        assert manager.cache.sessions == manager.prefix.sessions
