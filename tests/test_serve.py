"""Serving engine tests: paged parity with the graph forward, continuous batching,
block-pool invariants, prefix sharing, scheduler behaviour, the typed
request/lifecycle surface (streaming, cancellation, deadlines, priorities),
pluggable task runtimes and the metrics surface."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from reference import Twin, always_draft, decode, fill, standalone

from repro.llm import LanguageModel, build_llm, generate
from repro.llm.config import LLMConfig
from repro.nn import BlockAllocator, PagedKVCache, no_grad
from repro.serve import (
    ContinuousBatchingScheduler,
    DeadlineExceeded,
    DecisionRequest,
    GenerateRequest,
    GenerationSession,
    InferenceServer,
    PrefixCache,
    RequestCancelled,
    RequestMetrics,
    SchedulerPolicy,
    ServerStats,
    SessionManager,
)


class _DoublerRuntime:
    """Minimal custom TaskRuntime used by the plugin-registration tests."""

    def __init__(self) -> None:
        self.batches = []

    def group_key(self, request):
        return ()

    def execute_batch(self, requests):
        self.batches.append(len(requests))
        return [request.payload * 2 for request in requests]


@pytest.fixture(scope="module")
def model():
    config = LLMConfig(name="serve-test", family="test", d_model=32, num_layers=2,
                       num_heads=2, max_seq_len=64)
    return LanguageModel(config, seed=3)


# ---------------------------------------------------------------------- #
# Paged batched decoding parity with the graph forward (tests/reference.py)
# ---------------------------------------------------------------------- #
class TestPagedDecodeParity:
    def test_ragged_batch_matches_sequential(self, model):
        """N sessions with different prompt lengths decode identically."""
        rng = np.random.default_rng(0)
        vocab = model.tokenizer.vocab_size
        paged = model.init_paged_cache(max_sessions=8, block_size=4)
        with no_grad():
            twins = [Twin(model, paged, rng.integers(0, vocab, size=n))
                     for n in (3, 11, 7, 1, 18)]
            decode(model, paged, twins, steps=8)

    def test_interleaved_admission_eviction_parity(self, model):
        """Evicting mid-flight and admitting into freed blocks keeps parity."""
        rng = np.random.default_rng(7)
        vocab = model.tokenizer.vocab_size
        paged = model.init_paged_cache(max_sessions=3, block_size=4)

        with no_grad():
            twins = [Twin(model, paged, rng.integers(0, vocab, size=length))
                     for length in (5, 9, 2)]
            decode(model, paged, twins, steps=2)
            # Evict the 9-token session; its blocks must return to the pool.
            victim = twins.pop(1)
            held = paged.blocks_in_use
            victim_blocks = len(paged.table(victim.sid))
            paged.evict(victim.sid)
            assert paged.blocks_in_use == held - victim_blocks
            paged.check_invariants()
            decode(model, paged, twins, steps=1)
            before = paged.allocator.high_water
            reusable = before - paged.blocks_in_use  # freed, not yet reassigned
            needed = paged.blocks_needed(13)
            twins.append(Twin(model, paged, rng.integers(0, vocab, size=13)))
            # Freed blocks are reused first; the pool only grows by the deficit.
            assert paged.allocator.high_water == before + max(0, needed - reusable)
            decode(model, paged, twins, steps=2)

    def test_block_exhaustion_and_errors(self, model):
        # Pool with room for exactly 2 blocks of 4 tokens.
        paged = model.backbone.init_paged_cache(2, block_size=4)
        with no_grad():
            sid, _ = fill(model, paged, [5, 6, 7, 1, 2])  # 2 blocks
            other = paged.open_session()
            with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
                fill(model, paged, [9], session=other)
            assert paged.length(other) == 0 and paged.table(other) == ()
            paged.check_invariants()  # a refused step must not leak blocks
            paged.evict(sid)
            # Every entry keyed by a session id refuses a dead one alike.
            for call in (paged.evict, paged.length, paged.table, paged.fork,
                         lambda dead: paged.truncate_session(dead, 1)):
                with pytest.raises(ValueError, match=f"session {sid} is not live"):
                    call(sid)
            assert paged.blocks_in_use == 0
            fill(model, paged, [9], session=other)  # freed blocks are usable again
        mismatched = PagedKVCache(5, 4, block_size=4, num_heads=2, head_dim=16,
                                  dtype=np.float64)
        with pytest.raises(ValueError, match="layers"):
            with no_grad():
                fill(model, mismatched, [1])
        assert mismatched.sessions == ()  # the refused prompt's row is gone

    def test_admit_rows_validates_rows_without_leaking(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        source = model.init_paged_cache(max_sessions=1, block_size=4)
        with no_grad():
            fill(model, source, [1, 2, 3])
            for bad in (3, -1):  # no such session in the source pool
                with pytest.raises(ValueError, match="not live"):
                    paged.admit_rows(source, sessions=[bad])
            source.open_session()  # empty
            with pytest.raises(ValueError, match="prefill first"):
                paged.admit_rows(source)
            assert paged.blocks_in_use == 0  # nothing leaked
            paged.check_invariants()

    def test_sharing_a_dead_block_takes_no_reference(self, model):
        """A shared-block list with a block that is not live refuses the
        whole call before any reference is taken: the live blocks ahead of
        it keep their refcounts (regression: they used to keep an extra
        one each, failing ``check_invariants``)."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            owner, _ = fill(model, paged, list(range(1, 13)))  # three full blocks
        live, dead = paged.table(owner)[0], paged.allocator.num_blocks - 1
        with pytest.raises(ValueError, match=f"block {dead}: it is not allocated"):
            paged.open_session([live, dead], 8)
        assert paged.allocator.refcounts[live] == 1
        assert paged.sessions == (owner,)
        paged.check_invariants()

    def test_simultaneous_cow_rezeros_the_freed_block(self, model):
        """When every holder of a shared tail block copy-on-writes in the same
        step, the orphaned original returns to the pool zero-filled."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            sid_a, _ = fill(model, paged, [1, 2, 3])  # partial tail block
            shared_block = paged.table(sid_a)[-1]
            sid_b = paged.fork(sid_a)
            model.forward_step(np.asarray([4, 4]), paged,
                               np.asarray([sid_a, sid_b]))
            # Both sessions split off private copies; the original freed.
            assert shared_block not in paged.table(sid_a)
            assert shared_block not in paged.table(sid_b)
            for layer in paged.layers:
                assert not np.any(layer._keys[shared_block])
                assert not np.any(layer._values[shared_block])
            paged.check_invariants()

    def test_register_at_entry_cap_evicts_before_allocating(self, model):
        """Registration at max_entries frees the LRU head *first*, so it
        succeeds even when the resident heads occupy the whole reservation."""
        paged = model.backbone.init_paged_cache(max_blocks=2, block_size=4)
        prefix = PrefixCache(model, paged, max_entries=1)
        first = prefix.register("abcdefg")   # 8 tokens with BOS -> both blocks
        assert len(paged.table(first.session)) == 2 and paged.blocks_free == 0
        second = prefix.register("hijklmn")  # must evict `first` to fit
        assert len(prefix) == 1 and len(paged.table(second.session)) == 2
        assert paged.sessions == prefix.sessions == (second.session,)
        paged.check_invariants()

    @pytest.mark.parametrize("count", [1, 3])
    def test_prepare_step_exhaustion_is_atomic(self, model, count):
        """Pool exhaustion mid-step must not leave orphan tail blocks.

        When two sessions both need a fresh block but only one is left, the
        step fails *without touching any table*, so evicting a session and
        retrying decodes correctly (regression: a partial allocation used to
        leave an appended block that shifted the next write out of the
        attention window).  ``count`` tokens per row: the plain step and the
        ragged multi-token step allocate through the same all-or-nothing
        call."""
        paged = model.backbone.init_paged_cache(3, block_size=4)
        counts = None if count == 1 else np.asarray([count, count])
        with no_grad():
            twin = Twin(model, paged, [1, 2, 3, 4])  # exactly 1 block
            sid_b, _ = fill(model, paged, [5, 6, 7, 8])
            with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
                model.forward_step(np.tile([[1], [2]], count), paged,
                                   np.asarray([twin.sid, sid_b]), counts=counts)
            # No table was mutated and the pool balances.
            assert len(paged.table(twin.sid)) == 1 and len(paged.table(sid_b)) == 1
            paged.check_invariants()
            paged.evict(sid_b)
            decode(model, paged, [twin], steps=1)

    def test_forward_step_validation(self, model):
        paged = model.init_paged_cache(max_sessions=4)
        with no_grad():
            sid, _ = fill(model, paged, [5, 6])
            with pytest.raises(ValueError, match="duplicate"):
                model.forward_step(np.asarray([1, 2]), paged,
                                   np.asarray([sid, sid]))
            with pytest.raises(ValueError, match="one token per session"):
                model.backbone.forward_step(
                    model.token_embedding.apply(np.asarray([1, 2])), paged,
                    np.asarray([sid]))
            with pytest.raises(ValueError, match="3 packed tokens for a step "
                                                 "that feeds 2"):
                model.forward_step(np.asarray([1, 2, 3]), paged,
                                   np.asarray([sid]), counts=np.asarray([2]))
            with pytest.raises(ValueError, match="at least one token"):
                model.forward_step(np.asarray([], dtype=np.int64), paged,
                                   np.asarray([sid]), counts=np.asarray([0]))
            assert paged.length(sid) == 2  # every refusal left the pool alone
            paged.check_invariants()

    def test_forward_step_respects_max_seq_len(self):
        config = LLMConfig(name="cap", family="test", d_model=32, num_layers=1,
                           num_heads=2, max_seq_len=6)
        capped = LanguageModel(config, seed=0)
        # Block size 3: the refused token would have opened a third block.
        paged = capped.init_paged_cache(max_sessions=2, block_size=3)
        with no_grad():
            sid, _ = fill(capped, paged, [1, 2, 3, 4, 5])
            capped.forward_step(np.asarray([1]), paged, np.asarray([sid]))  # -> 6
            with pytest.raises(ValueError, match="exceeds maximum"):
                capped.forward_step(np.asarray([1]), paged, np.asarray([sid]))
            paged.check_invariants()  # refused before any table grew

    @pytest.mark.parametrize("history", [0, 4])
    def test_overflow_is_refused_before_anything_grows(self, history):
        """The bound is checked from lengths + counts, ahead of the plan: an
        empty row (nothing to truncate back to) and a row with history alike
        keep exactly the blocks they had."""
        config = LLMConfig(name="cap", family="test", d_model=32, num_layers=1,
                           num_heads=2, max_seq_len=6)
        capped = LanguageModel(config, seed=0)
        paged = capped.init_paged_cache(max_sessions=2, block_size=3)
        with no_grad():
            sid = paged.open_session()
            if history:
                fill(capped, paged, np.arange(history), session=sid)
            blocks, table = paged.blocks_in_use, paged.table(sid)
            feed = config.max_seq_len - history + 1
            with pytest.raises(ValueError, match="sequence length 7 exceeds maximum 6"):
                fill(capped, paged, np.zeros(feed), session=sid)
            assert paged.blocks_in_use == blocks and paged.table(sid) == table
            assert paged.length(sid) == history
            paged.check_invariants()
            # One token fewer fits, from the same untouched row.
            fill(capped, paged, np.zeros(feed - 1), session=sid)
            assert paged.length(sid) == config.max_seq_len
            paged.check_invariants()

    def test_forward_step_requires_no_grad(self, model):
        paged = model.init_paged_cache(max_sessions=2)
        with no_grad():
            sid, _ = fill(model, paged, [4, 2])
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward_step(np.asarray([1]), paged, np.asarray([sid]))

    def test_fork_copy_on_write_parity(self, model):
        """A forked session shares blocks until the first divergent write."""
        rng = np.random.default_rng(11)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=7)  # partial tail block
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            original = Twin(model, paged, prompt)
            blocks_before = paged.blocks_in_use
            fork = original.fork()
            # Fork is free: same blocks, higher refcounts.
            assert paged.blocks_in_use == blocks_before
            assert paged.table(fork.sid) == paged.table(original.sid)
            paged.check_invariants()

            # Diverge: feed different tokens to original and fork.
            original.next_token, fork.next_token = 3, 9
            decode(model, paged, [original, fork], steps=1)
            # Copy-on-write split the shared tail block.
            assert paged.table(fork.sid)[-1] != paged.table(original.sid)[-1]
            assert paged.table(fork.sid)[:-1] == paged.table(original.sid)[:-1]
            # Continue decoding both; they must stay exact.
            decode(model, paged, [original, fork], steps=4)

            # Evicting the original must not free blocks the fork still maps.
            paged.evict(original.sid)
            paged.check_invariants()
            fork.next_token = 1
            decode(model, paged, [fork], steps=1)


# ---------------------------------------------------------------------- #
# Randomized stress/property test: paged serving vs the graph forward
# ---------------------------------------------------------------------- #
class TestPagedStressParity:
    def test_random_interleavings_match_sequential(self, model):
        """200+ randomized admit/decode/evict steps keep logit parity.

        Every live session is a :class:`Twin`; after every batched step the
        block pool must satisfy all accounting invariants, and every
        session's logits, from its prompt to its eviction, must be the graph
        forward's over its tokens within the policy bound.
        """
        rng = np.random.default_rng(1234)
        vocab = model.tokenizer.vocab_size
        max_live = 6
        paged = model.init_paged_cache(max_sessions=max_live, block_size=4)
        live = {}  # sid -> Twin
        admitted = evicted = decode_steps = 0

        def evict(sid):
            live.pop(sid).check()
            paged.evict(sid)

        with no_grad():
            for step in range(220):
                action = rng.random()
                if (action < 0.25 and len(live) < max_live) or not live:
                    length = int(rng.integers(1, 24))
                    twin = Twin(model, paged, rng.integers(0, vocab, size=length))
                    live[twin.sid] = twin
                    admitted += 1
                elif action < 0.35 and len(live) > 1:
                    evict(int(rng.choice(list(live))))
                    evicted += 1
                else:
                    # Sessions near the model's context limit must retire
                    # (mirrors the engine's context_full eviction).
                    for sid in [s for s in live
                                if paged.length(s) + 1 > model.config.max_seq_len]:
                        evict(sid)
                        evicted += 1
                    if not live:
                        continue
                    twins = [live[sid] for sid in sorted(live)]
                    out = model.forward_step(
                        np.asarray([twin.next_token for twin in twins]), paged,
                        np.asarray(sorted(live), dtype=np.int64)).data[0]
                    for twin, row in zip(twins, out):
                        twin.feed([twin.next_token], row[None])
                    decode_steps += 1
                paged.check_invariants()
        # The interleaving actually exercised all three operations.
        assert admitted >= 10 and evicted >= 5 and decode_steps >= 100
        for sid in list(live):
            evict(sid)
        paged.check_invariants()
        assert paged.blocks_in_use == 0

    def test_manager_stress_with_prefix_and_ragged_prefill(self, model):
        """Engine-level stress: random mixed-length traffic with prefix hits.

        Every served stream must equal standalone ``generate`` on the same
        prompt, under randomized admission order, ragged bucketed prefill,
        prefix sharing and slot churn.
        """
        rng = np.random.default_rng(7)
        preamble = "predict the bandwidth: "
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4))
        server.register_prefix(preamble)
        prompts = []
        for i in range(12):
            body = "".join(rng.choice(list("abcdef 0123.")) for _ in range(int(rng.integers(1, 30))))
            prompts.append(preamble + body if rng.random() < 0.5 else body)
        handles = [server.submit_generation(p, max_new_tokens=int(rng.integers(2, 8)),
                                 stop_on_eos=False) for p in prompts]
        server.run_until_idle()
        for handle in handles:
            served = handle.result()
            assert served.token_ids == standalone(
                model, handle.request, max_new_tokens=served.num_inferences)
        stats = server.stats()
        assert stats.prefix_hits > 0 and stats.prefix_misses > 0
        assert stats.prefix_tokens_reused >= stats.prefix_hits
        manager = server._manager
        manager.cache.check_invariants()
        assert manager.cache.sessions == manager.prefix.sessions


# ---------------------------------------------------------------------- #
# The one prefill body, driven through every entry point
# ---------------------------------------------------------------------- #
def _drive_band(manager, sessions, check):
    manager.admit_many(sessions)
    check()


def _drive_solo_chunks(manager, sessions, check):
    for session in sessions:
        while session.state in ("queued", "prefilling"):
            manager.prefill_chunk(session, 5)
            check()


def _drive_fused_groups(manager, sessions, check):
    """First chunk solo, then every session still prefilling in one call."""
    for session in sessions:
        manager.prefill_chunk(session, 5)
        check()
    while manager.prefilling:
        group = list(manager.prefilling.values())
        take = min([5] + [len(s.prompt_ids) - s.prompt_pos for s in group])
        manager.prefill_chunk_group(group, [take] * len(group))
        check()


class TestOnePrefillBody:
    """Every entry point is ``_prefill_rows``: token-exact, pool sound."""

    PREAMBLE = "bitrate selection task: "  # 25 tokens with BOS: 6 blocks + 1

    @pytest.mark.parametrize("prompts,prefix,drive,tokens", [
        # One-shot tails of 3/8/10/35 tokens: one packed forward, no padding.
        (["ab", "abcdefg", "abcdefghi", "a much longer prompt than the rest"],
         False, _drive_band, [56]),
        # ... two tails behind a prefix hit beside a miss, still one forward.
        ([PREAMBLE + "now", PREAMBLE + "a longer", "no head here"],
         True, _drive_band, [24]),
        # Solo chunks of a long prompt, cold and behind a prefix hit.
        (["a considerably longer prompt spanning many chunks",
          PREAMBLE + "history 1.0 2.0 3.0 4.0"], True, _drive_solo_chunks,
         [5] * 10 + [5, 5, 5, 5, 3]),
        # A group of three advancing (and completing) in lockstep.
        (["p0 " * 7, "p1 " * 7, "p2 " * 7], False, _drive_fused_groups,
         [5, 5, 5, 15, 15, 15, 6]),
        # A group in which one row completes while the others continue.
        (["q0 q0 q0 q0 q0", "q1 " * 7, "q2 " * 7], False, _drive_fused_groups,
         [5, 5, 5, 15, 15, 10, 4]),
    ], ids=["band", "band-prefix-hit", "solo-chunks", "fused-three",
            "fused-one-completes"])
    def test_every_entry_matches_generate(self, model, monkeypatch, prompts,
                                          prefix, drive, tokens):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=4, block_size=4, enable_prefix_cache=prefix))
        if prefix:
            manager.register_prefix(self.PREAMBLE)
        forwards = []  # packed tokens of every prefill forward, in call order
        forward = model.forward_step

        def spy(ids, cache, slots, counts=None, prompt_from=None):
            assert len(ids) == int(np.sum(counts)) and len(slots) == len(counts)
            assert prompt_from == 0  # prompt rows alone
            forwards.append(len(ids))
            return forward(ids, cache, slots, counts=counts, prompt_from=prompt_from)

        monkeypatch.setattr(model, "forward_step", spy)

        check = manager.cache.check_invariants

        sessions = [GenerationSession(session_id=i, prompt=prompt,
                                      max_new_tokens=6, stop_on_eos=False)
                    for i, prompt in enumerate(prompts)]
        drive(manager, sessions, check)
        monkeypatch.undo()
        # One forward per drive step, carrying exactly the tokens it took.
        assert forwards == tokens
        assert not manager.prefilling
        assert all(s.state == "running" and len(s.generated) == 1
                   for s in sessions)
        if prefix:
            hits = [s for s in sessions if s.prompt.startswith(self.PREAMBLE)]
            assert manager.telemetry.totals()["prefix_hits"] == len(hits)
            assert all(s.metrics.prefix_tokens == 25 for s in hits)
        while manager.running:
            manager.step()
            check()
        for session in sessions:
            assert session.generated == standalone(model, session), session.prompt
        assert manager.cache.sessions == (manager.prefix.sessions if prefix else ())

    def test_default_policy_is_the_chunked_route_with_the_whole_context(self, model):
        """No fork: ``prefill_chunk_size=None`` == a chunk of ``max_context``."""
        preamble = "predict the bandwidth: "
        prompts = ["ab", preamble + "history 1.0 2.0 3.0", "x",
                   "a considerably longer prompt spanning many blocks",
                   preamble + "now", "mid size prompt"]

        def run(chunk):
            server = InferenceServer(model, SchedulerPolicy(
                max_batch_size=3, block_size=4, prefill_chunk_size=chunk))
            server.register_prefix(preamble)
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=5, stop_on_eos=False))
                for prompt in prompts]
            server.run_until_idle()
            assert server.stats().prefix_hits == 2
            return ([h.result().token_ids for h in handles],
                    [r.prefill_chunks for r in server.telemetry.records()])

        default_tokens, default_chunks = run(None)
        whole_tokens, whole_chunks = run(model.config.max_seq_len)
        assert default_tokens == whole_tokens
        assert default_chunks == whole_chunks
        # One-shot either way: every prompt tail is exactly one chunk.
        assert sorted(rid for step in default_chunks for rid, _ in step) \
            == list(range(1, len(prompts) + 1))


class TestNoContiguousCacheOnTheServedPath:
    def test_mixed_run_with_the_staging_route_removed(self, model, monkeypatch):
        """One-shot, chunked, prefix-hit and speculative traffic, with
        ``forward_incremental`` made to raise: every served
        stream still equals what ``generate()`` recorded beforehand."""
        preamble = "predict the bandwidth: "
        prompts = ["ab", preamble + "history 1.0 2.0 3.0 1.0 2.0 3.0",
                   "a considerably longer prompt spanning many chunks",
                   preamble + "now", "status: ok; status: ok; status: ok; status:"]
        requests = [GenerateRequest(prompt=prompt, max_new_tokens=8,
                                    temperature=0.7 * (i % 2), seed=40 + i,
                                    stop_on_eos=False)
                    for i, prompt in enumerate(prompts)]
        expected = [standalone(model, request) for request in requests]

        def removed(*args, **kwargs):
            raise AssertionError("the served path took generate()'s one-session route")

        monkeypatch.setattr(LanguageModel, "forward_incremental", removed)
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4, prefill_chunk_size=6,
            step_token_budget=24, speculation="ngram", speculation_k=3))
        server.register_prefix(preamble)
        handles = [server.submit(request) for request in requests]
        while server.has_pending_work():
            server.step()
            server._manager.cache.check_invariants()
        assert [handle.result().token_ids for handle in handles] == expected
        stats = server.stats()
        assert stats.prefix_hits == 2 and stats.tokens_drafted > 0
        assert any(len(chunks) > 1 for chunks in _chunks_by_request(server).values())
        assert server._manager.cache.sessions == server._manager.prefix.sessions


def _chunks_by_request(server):
    """request id -> the prefill chunk sizes the flight recorder saw for it."""
    chunks = {}
    for record in server.telemetry.records():
        for request_id, take in record.prefill_chunks:
            chunks.setdefault(request_id, []).append(take)
    return chunks


# ---------------------------------------------------------------------- #
# Shared prompt-prefix cache
# ---------------------------------------------------------------------- #
class TestPrefixCache:
    def test_prefix_hit_shares_blocks_and_keeps_parity(self, model):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=4, block_size=4))
        preamble = "bitrate selection task: "  # 25 tokens with BOS
        entry = manager.register_prefix(preamble)
        assert entry.length == len(model.tokenizer.encode(preamble, add_bos=True))
        # The whole head lives in pool blocks, its partial last one included.
        head = manager.cache.table(entry.session)
        assert len(head) == manager.cache.blocks_needed(entry.length) == 7
        blocks_before = manager.cache.blocks_in_use

        session = GenerationSession(session_id=1, prompt=preamble + "now",
                                    max_new_tokens=6, stop_on_eos=False)
        manager.admit_many([session])
        # The session's table starts with the cached head's full blocks,
        # shared; the head's partial last block was copied before the tail
        # landed in it, so the entry's copy still holds the head alone.
        table = manager.cache.table(session.slot)
        assert table[:6] == head[:6]
        assert table[6] != head[6]
        assert session.metrics.prefix_tokens == entry.length
        # Shared mapping allocated only the blocks past the head's full ones.
        assert (manager.cache.blocks_in_use - blocks_before
                == manager.cache.blocks_needed(len(session.prompt_ids) - 6 * 4))
        manager.cache.check_invariants()

        # Decode to completion; the stream must match standalone generate().
        while manager.num_running:
            manager.step()
        assert session.generated == standalone(model, session)
        # Eviction returned the tail blocks but kept the cached head resident.
        assert manager.cache.blocks_in_use == blocks_before
        manager.cache.check_invariants()

    def test_unaligned_head_is_split_once_and_never_written(self, model, monkeypatch):
        """A hit on a head that ends mid-block maps every block by reference;
        the session's first write copies exactly that one block, and the
        head's own K/V never change."""
        from repro.nn.paged_cache import PagedLayerKVCache

        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, prefill_chunk_size=3))
        manager = server._manager
        preamble = "bitrate selection task: "  # 25 tokens with BOS: 6 blocks + 1
        entry = manager.register_prefix(preamble)
        head = manager.cache.table(entry.session)
        assert entry.length % 4 == 1 and len(head) == 7
        tables = np.asarray([head])

        def head_bytes():
            return [tuple(array[:, :, :entry.length].tobytes()
                          for array in layer.gather(tables))
                    for layer in manager.cache.layers]

        registered = head_bytes()
        splits = set()
        copy_block = PagedLayerKVCache.copy_block
        monkeypatch.setattr(
            PagedLayerKVCache, "copy_block",
            lambda self, source, target: (splits.add((int(source), int(target))),
                                          copy_block(self, source, target))[1])
        handle = server.submit(GenerateRequest(
            prompt=preamble + "history 1.0 2.0", max_new_tokens=6,
            stop_on_eos=False))
        server.step()  # first chunk: the first write behind the head
        [(source, target)] = splits
        assert source == head[-1] and target not in head
        while server.has_pending_work():
            server.step()
            manager.cache.check_invariants()
            assert head_bytes() == registered
        assert len(splits) == 1
        assert handle.result().token_ids == standalone(model, handle.request)
        assert server.telemetry.totals()["prefix_hits"] == 1
        assert manager.cache.sessions == manager.prefix.sessions

    def test_registration_runs_the_last_layer_at_one_token(self, model, monkeypatch):
        """A head is registered as a prompt row: its forward returns one
        logits row, and every layer's K/V of its blocks are those an
        untrimmed registration (``prompt_from=None``) writes, bit for bit."""
        preamble = "bitrate selection task: "  # 25 tokens with BOS
        forward = model.forward_step
        rows = []

        def untrimmed(ids, cache, slots, counts=None, prompt_from=None):
            return forward(ids, cache, slots, counts=counts)

        def spy(ids, cache, slots, counts=None, prompt_from=None):
            logits = forward(ids, cache, slots, counts=counts, prompt_from=prompt_from)
            rows.append(logits.shape[1])
            return logits

        managers = []
        for stand_in in (untrimmed, spy):
            monkeypatch.setattr(model, "forward_step", stand_in)
            managers.append(SessionManager(model, SchedulerPolicy(
                max_batch_size=2, block_size=4)))
            managers[-1].register_prefix(preamble)
            monkeypatch.undo()
        assert rows == [1]
        reference, trimmed = [manager.prefix.match(model.tokenizer.encode(
            preamble + "now", add_bos=True)) for manager in managers]
        want_blocks = managers[0].cache.table(reference.session)
        got_blocks = managers[1].cache.table(trimmed.session)
        assert got_blocks == want_blocks
        for manager in managers:
            manager.cache.check_invariants()
        for want, got in zip(managers[0].cache.layers, managers[1].cache.layers):
            for want_half, got_half in zip(want.read_blocks(want_blocks),
                                           got.read_blocks(got_blocks)):
                assert np.array_equal(want_half[:, :reference.length],
                                      got_half[:, :trimmed.length])

    def test_prefix_miss_and_strictness(self, model):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4))
        preamble = "shared head 123"
        entry = manager.register_prefix(preamble)
        # A prompt equal to the head is NOT a hit (no tail to prefill).
        assert manager.prefix.match(entry.token_ids) is None
        # A prompt diverging in the head is not a hit either.
        other = model.tokenizer.encode("shared head 999 tail", add_bos=True)
        assert manager.prefix.match(other) is None
        # A longer prompt starting with the head is.
        longer = model.tokenizer.encode(preamble + " tail", add_bos=True)
        assert manager.prefix.match(longer) is entry
        # A lookup counts nothing.  Admission counts each prompt that matched
        # no head as a miss; a hit counts once a forked row commits, not at
        # the match.
        totals = manager.telemetry.totals
        assert totals()["prefix_hits"] == totals()["prefix_misses"] == 0
        manager.admit_many([
            GenerationSession(session_id=i, prompt=prompt, max_new_tokens=2)
            for i, prompt in enumerate((preamble, "shared head 999 tail"))])
        assert (totals()["prefix_hits"], totals()["prefix_misses"]) == (0, 2)

    @pytest.mark.parametrize("second,reused", [("head B ", 0), ("head ", 6)])
    def test_reuse_is_counted_at_the_fork(self, model, second, reused):
        """A matched request whose head is LRU-evicted before its first
        chunk matches again against the heads registered now, and reuse
        counts only the rows really forked from a head (regression: the hit
        and its tokens were counted at the first match)."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=4, block_size=4, max_context=64, max_prefixes=1,
            prefill_chunk_size=4, step_token_budget=4))
        server.register_prefix("head A ")
        handles = [server.submit_generation(prompt, max_new_tokens=4,
                                            stop_on_eos=False)
                   for prompt in ("x" * 20, "head A tail")]
        server.step()  # the budget defers the matched request
        server.register_prefix(second)  # LRU-evicts head A
        server.run_until_idle()
        assert [handle.metrics.prefix_tokens for handle in handles] == [0, reused]
        stats = server.stats()
        assert stats.prefix_tokens_reused == reused
        assert stats.prefix_hits == (reused > 0)
        for handle in handles:
            assert handle.result().token_ids == standalone(model, handle.request)

    def test_reuse_is_not_counted_for_a_raised_forward(self, model, monkeypatch):
        """Two rows forked from a head prefill in one forward, which raises;
        retried alone, the first raises again and is aborted.  Only the
        second row reused the head (regression: every fork counted, the
        raised ones too)."""
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4,
                                                        block_size=4))
        server.register_prefix("head A ")
        [length] = {entry.length for entry in server._manager.prefix._entries.values()}
        handles = [server.submit_generation(f"head A tail {i}", max_new_tokens=4,
                                            stop_on_eos=False) for i in range(2)]
        forward, calls = model.forward_step, []

        def flaky(*args, **kwargs):
            calls.append(len(args[2]))
            if len(calls) <= 2:
                raise RuntimeError("injected prefill fault")
            return forward(*args, **kwargs)

        monkeypatch.setattr(model, "forward_step", flaky)
        server.run_until_idle()
        monkeypatch.undo()
        assert calls[:3] == [2, 1, 1]  # the group, then each row alone
        assert [handle.metrics.prefix_tokens for handle in handles] == [0, length]
        stats = server.stats()
        assert (stats.prefix_hits, stats.prefix_tokens_reused) == (1, length)
        with pytest.raises(Exception, match="injected prefill fault"):
            handles[0].result()
        assert handles[1].result().token_ids == standalone(model, handles[1].request)
        server._manager.cache.check_invariants()

    def test_longest_prefix_wins(self, model):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4))
        short = manager.register_prefix("abcd")
        long = manager.register_prefix("abcdefgh")
        prompt = model.tokenizer.encode("abcdefghij", add_bos=True)
        assert manager.prefix.match(prompt) is long
        assert manager.prefix.match(
            model.tokenizer.encode("abcdef", add_bos=True)) is short

    def test_lru_eviction_releases_blocks(self, model):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, max_prefixes=2))
        first = manager.register_prefix("first preamble text")
        first_blocks = manager.cache.table(first.session)
        second = manager.register_prefix("second preamble text")
        held = manager.cache.blocks_in_use
        third = manager.register_prefix("third preamble text!")  # evicts "first" (LRU)
        # The evicted head's session is gone with it; the pool holds the rest.
        assert manager.cache.sessions == manager.prefix.sessions == (
            second.session, third.session)
        assert len(manager.prefix) == 2
        assert manager.prefix.match(
            model.tokenizer.encode("first preamble text plus", add_bos=True)) is None
        # first's blocks (5 full) were released; third's (5 full and a
        # partial one) were allocated.
        assert (manager.cache.blocks_in_use
                == held - len(first_blocks) + len(manager.cache.table(third.session))
                == held + 1)
        manager.cache.check_invariants()

    def test_head_evicted_under_a_running_session(self, model):
        """A head LRU-evicted while a session forked from it still decodes:
        the session keeps the head's full blocks mapped and decodes to
        ``generate()``'s tokens, and those blocks free only when it ends."""
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, max_prefixes=1))
        preamble = "bitrate selection task: "  # 25 tokens with BOS: 6 blocks + 1
        entry = manager.register_prefix(preamble)
        full = manager.cache.table(entry.session)[:6]
        session = GenerationSession(session_id=1, prompt=preamble + "now",
                                    max_new_tokens=6, stop_on_eos=False)
        manager.admit_many([session])
        other = manager.register_prefix("a different preamble")  # evicts `entry`
        assert not manager.prefix.is_live(entry)
        assert manager.cache.sessions == (session.slot, other.session)
        refcounts = manager.cache.allocator.refcounts
        while manager.num_running:
            manager.cache.check_invariants()
            # The running session is the full blocks' one holder now.
            assert manager.cache.table(session.slot)[:6] == full
            assert refcounts[list(full)].tolist() == [1] * 6
            manager.step()
        manager.cache.check_invariants()
        assert not refcounts[list(full)].any()
        assert manager.cache.sessions == (other.session,)
        assert session.generated == standalone(model, session)

    def test_register_validation(self, model):
        manager = SessionManager(model, SchedulerPolicy(max_batch_size=2))
        with pytest.raises(ValueError, match="empty"):
            manager.prefix.register_ids(())
        with pytest.raises(ValueError, match="no room for a tail"):
            manager.prefix.register("x" * model.config.max_seq_len)
        # A head that can never match a prompt truncated to max_context must
        # be rejected too — otherwise it would hold unmatchable pool blocks.
        capped = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, max_context=32, block_size=4))
        with pytest.raises(ValueError, match="no room for a tail"):
            capped.register_prefix("y" * 40)
        capped.register_prefix("y" * 20)  # within the serving context: fine
        disabled = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, enable_prefix_cache=False))
        assert disabled.prefix is None
        with pytest.raises(ValueError, match="disabled"):
            disabled.register_prefix("head")

    def test_server_register_prefix_requires_model(self):
        with pytest.raises(ValueError, match="no language model"):
            InferenceServer().register_prefix("head")


# ---------------------------------------------------------------------- #
# Block-pool invariants (allocator-level)
# ---------------------------------------------------------------------- #
class TestBlockAllocator:
    def test_free_list_accounting_balances(self):
        allocator = BlockAllocator(num_blocks=8, block_size=4)
        blocks = [allocator.allocate() for _ in range(5)]
        assert allocator.blocks_in_use == 5 and allocator.high_water == 5
        for block in blocks[1:4]:
            assert allocator.release(block)
        assert allocator.blocks_in_use == 2
        # Reuse is lowest-id-first and does not grow the high-water mark.
        assert allocator.allocate() == blocks[1]
        assert allocator.high_water == 5

    def test_refcount_share_release(self):
        allocator = BlockAllocator(num_blocks=4, block_size=4)
        block = allocator.allocate()
        allocator.share([block])
        assert not allocator.release(block)  # still referenced
        assert allocator.release(block)      # last reference frees it
        with pytest.raises(ValueError, match="double free"):
            allocator.release(block)
        with pytest.raises(ValueError, match="not allocated"):
            allocator.share([block])

    def test_exhaustion_is_loud(self):
        allocator = BlockAllocator(num_blocks=2, block_size=4)
        allocator.allocate(), allocator.allocate()
        with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
            allocator.allocate()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_blocks"):
            BlockAllocator(0, 4)
        with pytest.raises(ValueError, match="block_size"):
            BlockAllocator(4, 0)

    def test_no_block_owned_by_two_sessions(self, model):
        """Two independently admitted sessions never map the same block."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            sid_a, _ = fill(model, paged, [1, 2, 3, 4, 5])
            sid_b, _ = fill(model, paged, [6, 7, 8])
        assert not set(paged.table(sid_a)) & set(paged.table(sid_b))
        paged.check_invariants()


# ---------------------------------------------------------------------- #
# Metrics aggregation (pure numeric code)
# ---------------------------------------------------------------------- #
class TestMetricsAggregation:
    def _request(self, task, submitted, admitted, finished, tokens=0,
                 batch_sizes=(), first_token=None):
        metrics = RequestMetrics(task=task, submitted_at=submitted)
        metrics.admitted_at = admitted
        metrics.finished_at = finished
        metrics.first_token_at = first_token
        metrics.tokens_generated = tokens
        metrics.batch_sizes = list(batch_sizes)
        return metrics

    def test_request_metrics_phases(self):
        request = self._request("generate", submitted=10.0, admitted=10.5,
                                finished=12.0, tokens=8, batch_sizes=[2, 4],
                                first_token=10.75)
        assert request.queue_seconds == pytest.approx(0.5)
        assert request.decode_seconds == pytest.approx(1.5)
        assert request.total_seconds == pytest.approx(2.0)
        assert request.ttft_s == pytest.approx(0.75)
        assert request.mean_batch_size == pytest.approx(3.0)

    def test_request_metrics_defaults_before_completion(self):
        request = RequestMetrics(task="vp")
        assert request.queue_seconds == 0.0
        assert request.decode_seconds == 0.0
        assert request.total_seconds == 0.0
        assert request.ttft_s == 0.0
        assert request.mean_batch_size == 0.0

    def test_server_stats_percentiles_and_counts(self):
        # 20 requests with total latencies 1..20s and queue 0.1..2.0s.
        requests = []
        for i in range(1, 21):
            task = "generate" if i % 2 else "vp"
            requests.append(self._request(task, submitted=0.0, admitted=0.1 * i,
                                          finished=float(i), tokens=i))
        # One unfinished request must be excluded from every aggregate.
        unfinished = RequestMetrics(task="generate", submitted_at=0.0)
        stats = ServerStats.from_requests(
            requests + [unfinished], wall_seconds=10.0,
            occupancy_samples=[1, 2, 3, 4], queue_depth_samples=[0, 5, 2],
            block_usage_samples=[4, 8, 12], block_capacity=16,
            counts={"finished": 10, "decisions": 10,
                    "tokens_generated": sum(range(1, 21)),
                    "prefix_hits": 3, "prefix_misses": 1,
                    "prefix_tokens_reused": 75})
        assert stats.requests_completed == 20
        assert stats.tokens_generated == sum(range(1, 21))
        assert stats.tokens_per_second == pytest.approx(stats.tokens_generated / 10.0)
        latencies = [float(i) for i in range(1, 21)]
        assert stats.latency_p50_s == pytest.approx(np.percentile(latencies, 50))
        assert stats.latency_p95_s == pytest.approx(np.percentile(latencies, 95))
        queues = [0.1 * i for i in range(1, 21)]
        assert stats.queue_p50_s == pytest.approx(np.percentile(queues, 50))
        assert stats.queue_p95_s == pytest.approx(np.percentile(queues, 95))
        assert stats.mean_batch_occupancy == pytest.approx(2.5)
        assert stats.max_queue_depth == 5
        assert stats.per_task == {"generate": 10, "vp": 10}
        assert stats.mean_blocks_in_use == pytest.approx(8.0)
        assert stats.peak_blocks_in_use == 12
        assert stats.block_occupancy == pytest.approx(0.5)
        assert stats.prefix_hits == 3 and stats.prefix_misses == 1
        assert stats.prefix_tokens_reused == 75

    def test_ttft_and_inter_token_latency_aggregation(self):
        # Request 1: first token 0.3s after submit, then decode gaps
        # 0.01/0.02/0.03s.  Request 2: first token at 0.5s, gaps 0.1/0.2s.
        first = self._request("generate", submitted=0.0, admitted=0.1,
                              finished=1.0, tokens=4, first_token=0.3)
        first.token_seconds = [0.2, 0.01, 0.02, 0.03]
        second = self._request("generate", submitted=0.0, admitted=0.2,
                               finished=1.5, tokens=3, first_token=0.5)
        second.token_seconds = [0.3, 0.1, 0.2]
        assert first.ttft_s == pytest.approx(0.3)
        assert first.inter_token_seconds == [0.01, 0.02, 0.03]
        # A request that never produced a token contributes no TTFT/ITL.
        tokenless = self._request("generate", submitted=0.0, admitted=0.1,
                                  finished=0.2)
        assert tokenless.ttft_s == 0.0 and tokenless.inter_token_seconds == []

        stats = ServerStats.from_requests([first, second, tokenless],
                                          wall_seconds=2.0,
                                          occupancy_samples=[2],
                                          queue_depth_samples=[0])
        ttfts = [0.3, 0.5]
        itls = [0.01, 0.02, 0.03, 0.1, 0.2]
        assert stats.ttft_p50_s == pytest.approx(np.percentile(ttfts, 50))
        assert stats.ttft_p95_s == pytest.approx(np.percentile(ttfts, 95))
        assert stats.itl_p50_s == pytest.approx(np.percentile(itls, 50))
        assert stats.itl_p95_s == pytest.approx(np.percentile(itls, 95))
        report = stats.report()
        for key in ("ttft_p50_s", "ttft_p95_s", "itl_p50_s", "itl_p95_s"):
            assert report[key] == pytest.approx(getattr(stats, key))

    def test_report_spells_every_field(self, check_export_surface):
        check_export_surface(
            ServerStats, ServerStats.report,
            dict(per_task={"generate": 3, "vp": 1}, health="degraded",
                 queue_by_priority={0: {"count": 2, "queue_p50_s": 0.1,
                                        "queue_p95_s": 0.2}},
                 telemetry={"window_s": 1.0, "windows": []}),
            derived=("block_occupancy", "acceptance_rate"))

    def test_ttft_itl_empty_defaults(self):
        stats = ServerStats.from_requests([], wall_seconds=0.0,
                                          occupancy_samples=[],
                                          queue_depth_samples=[])
        assert stats.ttft_p50_s == 0.0 and stats.ttft_p95_s == 0.0
        assert stats.itl_p50_s == 0.0 and stats.itl_p95_s == 0.0

    def test_per_priority_queue_stats_and_outcome_counts(self):
        from repro.serve.metrics import OUTCOME_CANCELLED, OUTCOME_EXPIRED

        requests = []
        # Priority 0: queue waits 0.1..1.0s; priority 2: waits 2.0 and 4.0s.
        for i in range(1, 11):
            metrics = self._request("generate", submitted=0.0, admitted=0.1 * i,
                                    finished=float(i), tokens=1)
            requests.append(metrics)
        for wait in (2.0, 4.0):
            metrics = self._request("generate", submitted=0.0, admitted=wait,
                                    finished=wait + 1.0, tokens=1)
            metrics.priority = 2
            requests.append(metrics)
        # One cancelled mid-decode, one expired in-queue (never admitted).
        cancelled = self._request("generate", submitted=0.0, admitted=0.5,
                                  finished=1.0)
        cancelled.outcome = OUTCOME_CANCELLED
        expired = RequestMetrics(task="generate", submitted_at=0.0)
        expired.outcome = OUTCOME_EXPIRED
        expired.finished_at = 3.0
        assert expired.queue_seconds == pytest.approx(3.0)  # queued lifetime
        requests += [cancelled, expired]

        stats = ServerStats.from_requests(
            requests, wall_seconds=10.0, occupancy_samples=[1],
            queue_depth_samples=[0],
            counts={"finished": 12, "cancelled": 1, "expired": 1})
        assert stats.requests_completed == 12  # ok outcomes only
        assert stats.cancelled == 1 and stats.expired == 1
        assert set(stats.queue_by_priority) == {0, 2}
        zero = stats.queue_by_priority[0]
        assert zero["count"] == 12  # 10 ok + cancelled + expired
        waits = [0.1 * i for i in range(1, 11)] + [0.5, 3.0]
        assert zero["queue_p50_s"] == pytest.approx(np.percentile(waits, 50))
        assert zero["queue_p95_s"] == pytest.approx(np.percentile(waits, 95))
        two = stats.queue_by_priority[2]
        assert two["count"] == 2
        assert two["queue_p50_s"] == pytest.approx(3.0)
        report = stats.report()
        assert report["cancelled"] == 1 and report["expired"] == 1
        assert report["queue_by_priority"]["2"]["count"] == 2

    def test_server_stats_empty_and_report_roundtrip(self):
        stats = ServerStats.from_requests([], wall_seconds=0.0,
                                          occupancy_samples=[],
                                          queue_depth_samples=[])
        assert stats.requests_completed == 0
        assert stats.tokens_per_second == 0.0
        assert stats.latency_p50_s == 0.0 and stats.queue_p95_s == 0.0
        assert stats.mean_batch_occupancy == 0.0 and stats.max_queue_depth == 0
        assert stats.block_occupancy == 0.0  # capacity 0 must not divide
        report = stats.report()
        for key in ("tokens_per_second", "latency_p95_s", "block_occupancy",
                    "prefix_hits", "prefix_tokens_reused", "mean_blocks_in_use",
                    "per_task"):
            assert key in report

    def test_stats_aggregates_outside_the_engine_lock(self, model, monkeypatch):
        """``stats()`` snapshots under the lock and sorts the retained
        requests' gaps after releasing it: a polled long-lived server used
        to stall its decode loop for the whole aggregation."""
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2))
        server.submit_generation("poll me", max_new_tokens=3).result()
        from_requests = ServerStats.from_requests
        owned = []

        def watched(*args, **kwargs):
            owned.append(server._lock._is_owned())
            return from_requests(*args, **kwargs)

        monkeypatch.setattr(ServerStats, "from_requests", watched)
        stats = server.stats()
        assert owned == [False]
        assert stats.requests_completed == 1 and stats.tokens_generated == 3


# ---------------------------------------------------------------------- #
# Served generation end to end
# ---------------------------------------------------------------------- #
class TestServedGeneration:
    #: Seeds whose ``generate()`` stream, at temperature 1 and 40 new tokens,
    #: stops on EOS; the last two run their whole budget.
    EOS_SEEDS = (0, 5, 7, 8, 15, 22, 1, 2)

    @pytest.mark.parametrize("speculation", ["off", "ngram"])
    @pytest.mark.parametrize("chunk", [None, 4], ids=["one-shot", "chunked"])
    def test_served_streams_stop_on_eos_like_generate(self, model, speculation,
                                                      chunk):
        prompt = "abc abc abc"
        references = [generate(model, prompt, max_new_tokens=40, temperature=1.0,
                               seed=seed) for seed in self.EOS_SEEDS]
        assert [r.stopped_by_eos for r in references] == [True] * 6 + [False] * 2
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=4, block_size=4, prefill_chunk_size=chunk,
            step_token_budget=chunk and 8, speculation=speculation))
        if speculation == "ngram":
            always_draft(server)  # EOS met on verify steps, whatever pays
        handles = [server.submit(GenerateRequest(
            prompt=prompt, max_new_tokens=40, temperature=1.0, seed=seed,
            stream=True)) for seed in self.EOS_SEEDS]
        server.run_until_idle()
        for handle, reference in zip(handles, references):
            result = handle.result()
            assert result.token_ids == reference.token_ids
            assert result.stopped_by_eos == reference.stopped_by_eos
            assert handle._session.finish_reason == (
                "eos" if reference.stopped_by_eos else "max_tokens")
            assert "".join(handle.stream()) == result.text == reference.text
        assert server._manager.cache.sessions == ()
        server._manager.cache.check_invariants()

    def test_served_streams_match_standalone_generate(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=3))
        prompts = ["abc 1.0 2.0", "x", "hello world", "bitrate:", "zz 9 9 9", "k"]
        handles = [server.submit_generation(prompt, max_new_tokens=10,
                                 stop_on_eos=False) for prompt in prompts]
        server.run_until_idle()
        for prompt, handle in zip(prompts, handles):
            served = handle.result()
            reference = generate(model, prompt, max_new_tokens=10, stop_on_eos=False)
            assert served.token_ids == reference.token_ids
            assert served.num_inferences == reference.num_inferences
            assert served.text == reference.text
            assert len(served.token_seconds) == served.num_inferences

    def test_served_sampling_with_seed_matches_generate(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4))
        handles = [server.submit_generation("sample me", max_new_tokens=12,
                                 temperature=0.8, seed=s, stop_on_eos=False)
                   for s in range(4)]
        server.run_until_idle()
        for handle in handles:
            assert handle.result().token_ids == standalone(model, handle.request)

    def test_continuous_batching_reuses_slots(self, model):
        # 6 requests over 2 slots: completions must free slots for the queue.
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2))
        handles = [server.submit_generation(f"p{i}", max_new_tokens=4,
                                 stop_on_eos=False) for i in range(6)]
        server.run_until_idle()
        assert all(h.done() for h in handles)
        stats = server.stats()
        assert stats.requests_completed == 6
        assert stats.per_task == {"generate": 6}
        assert 0 < stats.mean_batch_occupancy <= 2
        assert stats.max_queue_depth >= 1
        assert stats.tokens_generated == 6 * 4

    def test_context_cap_finishes_session(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2, max_context=12,
                                                        block_size=4))
        handle = server.submit_generation("0123456789", max_new_tokens=50,
                               stop_on_eos=False)
        result = handle.result()
        # Context cap (12) bounds prompt + generated tokens.
        assert 0 < len(result.token_ids) < 50

    def test_threaded_serve_loop(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4))
        with server:
            assert server.is_serving
            handles = [server.submit_generation(f"t{i}", max_new_tokens=6,
                                     stop_on_eos=False) for i in range(8)]
            results = [h.result(timeout=60) for h in handles]
        assert not server.is_serving
        for handle, result in zip(handles, results):
            assert result.token_ids == standalone(model, handle.request)

    def test_queue_full_rejection(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1, max_queue=1))
        first = server.submit_generation("a", max_new_tokens=2, stop_on_eos=False)
        server.step()  # admit `first` into the (single) slot
        second = server.submit_generation("b", max_new_tokens=2, stop_on_eos=False)
        third = server.submit_generation("c", max_new_tokens=2, stop_on_eos=False)
        assert third.done()  # rejected immediately: the waiting queue is full
        with pytest.raises(RuntimeError, match="queue full"):
            third.result()
        server.run_until_idle()
        assert first.result().token_ids and second.result().token_ids

    def test_stop_without_drain_fails_pending_handles(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        server.start()
        handles = [server.submit_generation(f"long {i}", max_new_tokens=400,
                                 stop_on_eos=False) for i in range(6)]
        server.stop(drain=False)
        # Every handle resolves (possibly with the shutdown error) — no hangs.
        for handle in handles:
            try:
                handle.result(timeout=10)
            except RuntimeError as error:
                assert "server stopped" in str(error)

    def test_serves_training_mode_model(self):
        # The engine neither reads nor sets the mode: greedy and sampled
        # requests batched on a model left in training mode get
        # generate()'s streams, and the model stays in training mode.
        config = LLMConfig(name="serve-train", family="test", d_model=32,
                           num_layers=2, num_heads=2, max_seq_len=64)
        trained = LanguageModel(config, lora_rank=4, seed=0)
        assert trained.training
        server = InferenceServer(trained, SchedulerPolicy(max_batch_size=2))
        handles = [server.submit_generation(prompt, max_new_tokens=8,
                                            temperature=temperature, seed=9,
                                            stop_on_eos=False)
                   for prompt, temperature in (("abc", 0.0), ("abd", 0.8))]
        server.run_until_idle()
        assert trained.training
        for handle in handles:
            assert handle.result().token_ids == standalone(trained, handle.request)
        assert trained.training

    def test_no_mode_flips_without_active_dropout(self, monkeypatch):
        # No layer of the model reads its train/eval mode, so a
        # training-mode model serves as it stands: a registered prefix,
        # chunked and budgeted prefill, never a walk of the module tree
        # around a forward.
        from repro.nn import Module

        config = LLMConfig(name="serve-nodrop", family="test", d_model=32,
                           num_layers=2, num_heads=2, max_seq_len=64)
        plain = LanguageModel(config, seed=0)
        assert plain.training
        reference = generate(plain, "abc", max_new_tokens=8, stop_on_eos=False)
        server = InferenceServer(plain, SchedulerPolicy(
            max_batch_size=2, prefill_chunk_size=2, step_token_budget=8))
        server.register_prefix("ab")
        flips = []
        original = Module.train
        monkeypatch.setattr(Module, "train", lambda self, mode=True: (
            flips.append(mode), original(self, mode))[1])
        served = server.submit(GenerateRequest(
            prompt="abc", max_new_tokens=8, stop_on_eos=False)).result()
        assert served.token_ids == reference.token_ids
        assert flips == []
        assert plain.training

    def test_long_prompt_first_token_matches_generate(self, model):
        # Prompt longer than the context: the engine prefills the same
        # trailing window generate() uses, so the first token agrees; the
        # session then finishes at the context cap instead of sliding.
        request = GenerateRequest(prompt="x" * (model.config.max_seq_len + 20),
                                  max_new_tokens=30, stop_on_eos=False)
        served = InferenceServer(model).submit(request).result()
        assert served.token_ids[0] == standalone(model, request)[0]
        assert 0 < len(served.token_ids) < 30  # bounded by the context cap

    def test_server_without_model_rejects_generation(self):
        server = InferenceServer()
        with pytest.raises(ValueError, match="no language model"):
            server.submit_generation("hi")
        with pytest.raises(ValueError, match="no task runtime registered"):
            server.submit(DecisionRequest(task="nope", payload=object()))
        with pytest.raises(TypeError, match="GenerateRequest or DecisionRequest"):
            server.submit(object())


# ---------------------------------------------------------------------- #
# Scheduler smoke tests (fast lane)
# ---------------------------------------------------------------------- #
class TestScheduler:
    def _session(self, i):
        return GenerationSession(session_id=i, prompt=f"s{i}")

    def test_fifo_admission_order(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(max_batch_size=8))
        for i in range(5):
            assert scheduler.enqueue(self._session(i))
        admitted = scheduler.admissions(free_slots=3)
        assert [s.session_id for s in admitted] == [0, 1, 2]
        assert scheduler.queue_depth == 2
        admitted = scheduler.admissions(free_slots=8)
        assert [s.session_id for s in admitted] == [3, 4]
        assert scheduler.queue_depth == 0

    def test_queue_bound(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(max_queue=2))
        assert scheduler.enqueue(self._session(0))
        assert scheduler.enqueue(self._session(1))
        assert not scheduler.enqueue(self._session(2))
        assert scheduler.queue_depth == 2  # the rejected session never entered
        scheduler.admissions(free_slots=1)
        assert scheduler.enqueue(self._session(3))  # a freed place is taken

    def test_step_sampling(self):
        scheduler = ContinuousBatchingScheduler()
        scheduler.enqueue(self._session(0))
        scheduler.record_step(batch_size=4)
        assert list(scheduler.occupancy_samples) == [4]
        assert list(scheduler.queue_depth_samples) == [1]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="positive batch width, got 0"):
            SchedulerPolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="positive batch width, got -3"):
            SchedulerPolicy(max_batch_size=-3)
        with pytest.raises(ValueError, match="max_context must be >= 2"):
            SchedulerPolicy(max_context=1, block_size=1)
        with pytest.raises(ValueError):
            SchedulerPolicy(max_queue=0)
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            SchedulerPolicy(block_size=0)
        with pytest.raises(ValueError, match="max_prefixes"):
            SchedulerPolicy(max_prefixes=0)

    def test_policy_rejects_unaligned_max_context(self):
        with pytest.raises(ValueError, match=r"max_context \(50\) must be a "
                                             r"multiple of block_size \(16\)"):
            SchedulerPolicy(max_context=50)
        # Aligned contexts (and the model-default None) are accepted.
        SchedulerPolicy(max_context=48)
        SchedulerPolicy(max_context=50, block_size=10)
        SchedulerPolicy(max_context=None)

    def test_session_manager_requires_capacity(self, model):
        with pytest.raises(ValueError, match="max_batch_size"):
            SessionManager(model, SchedulerPolicy(max_batch_size=0))


# ---------------------------------------------------------------------- #
# Decision-request serving (the three task adapters)
# ---------------------------------------------------------------------- #
class TestDecisionServing:
    def test_vp_requests_batch_and_match_direct_predict(self, vp_data):
        from repro.core import VPAdapter

        setting, _, test = vp_data
        llm = build_llm("tiny-test", lora_rank=0, pretrained=False, seed=0)
        adapter = VPAdapter(llm, prediction_steps=setting.prediction_steps, seed=0)
        server = InferenceServer(adapters={"vp": adapter})
        samples = test[:6]
        handles = [server.submit(DecisionRequest(task="vp", payload=sample))
                   for sample in samples]
        server.run_until_idle()
        for sample, handle in zip(samples, handles):
            np.testing.assert_allclose(handle.result().viewport,
                                       adapter.predict(sample),
                                       atol=1e-9, rtol=0)
        stats = server.stats()
        assert stats.per_task == {"vp": 6}
        assert stats.mean_batch_occupancy > 1  # they actually shared forwards

    def test_abr_requests_match_direct_act(self, abr_setup, tiny_llm):
        from repro.abr.env import ABRObservation
        from repro.core import DecisionAdapter

        video, traces, _ = abr_setup
        state_dim = ABRObservation.flat_size(video.num_bitrates)
        adapter = DecisionAdapter(tiny_llm, state_dim=state_dim,
                                  action_dims=(video.num_bitrates,),
                                  context_window=4, head="abr", seed=0)
        server = InferenceServer(adapters={"abr": adapter})
        rng = np.random.default_rng(0)
        payloads = []
        for _ in range(5):
            window = 3
            payloads.append({
                "returns": rng.normal(size=(window, 1)),
                "states": rng.normal(size=(window, state_dim)),
                "actions": rng.integers(0, video.num_bitrates, size=(window, 1)),
            })
        handles = [server.submit(DecisionRequest(task="abr", payload=payload))
                   for payload in payloads]
        server.run_until_idle()
        for payload, handle in zip(payloads, handles):
            direct = adapter.act(payload["returns"], payload["states"], payload["actions"])
            assert handle.result().action == direct
            assert handle.result().bitrate == direct[0]

    def test_served_vp_predictor_wrapper_matches_direct(self, vp_data):
        from repro.core import VPAdapter
        from repro.serve import ServedVPPredictor

        setting, _, test = vp_data
        llm = build_llm("tiny-test", lora_rank=0, pretrained=False, seed=1)
        adapter = VPAdapter(llm, prediction_steps=setting.prediction_steps, seed=0)
        server = InferenceServer(adapters={"vp": adapter})
        predictor = ServedVPPredictor(server)
        sample = test[0]
        np.testing.assert_allclose(predictor.predict(sample), adapter.predict(sample),
                                   atol=1e-9, rtol=0)

    def test_predict_batch_rejects_mixed_saliency(self, vp_data):
        from repro.core import VPAdapter

        setting, _, test = vp_data
        llm = build_llm("tiny-test", lora_rank=0, pretrained=False, seed=1)
        adapter = VPAdapter(llm, prediction_steps=setting.prediction_steps, seed=0)
        import copy
        stripped = copy.copy(test[1])
        stripped.saliency = None
        with pytest.raises(ValueError, match="uniform saliency"):
            adapter.predict_batch([test[0], stripped])

    def test_serve_loop_failure_fails_pending_handles(self, model):
        # A model whose decode step raises must not hang clients: the serve
        # loop fails every pending handle with the original error.
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2))
        boom = RuntimeError("injected decode failure")

        def exploding_step():
            raise boom

        server._manager.step = exploding_step
        with server:
            handles = [server.submit_generation(f"x{i}", max_new_tokens=4,
                                     stop_on_eos=False) for i in range(4)]
            for handle in handles:
                with pytest.raises(RuntimeError, match="injected decode failure"):
                    handle.result(timeout=30)
        assert not server.is_serving

    def test_serve_loop_crash_fails_queued_and_decision_requests(self, model):
        """The crash guard fails *everything* pending: queued generation
        sessions that were never admitted and undelivered decision requests,
        not only the sessions in flight when the loop died."""
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        boom = RuntimeError("injected decode failure")

        def exploding_step():
            raise boom

        server._manager.step = exploding_step
        # With one slot, three of these stay queued when the loop dies.
        handles = [server.submit_generation(f"q{i}", max_new_tokens=2,
                                 stop_on_eos=False) for i in range(4)]
        with server:
            for handle in handles:
                with pytest.raises(RuntimeError, match="injected decode failure"):
                    handle.result(timeout=30)
        assert not server.is_serving
        # The crash guard evicted the admitted session: no blocks leak.
        assert server._manager.cache.num_sessions == 0
        server._manager.cache.check_invariants()

    def test_adapter_registration_guard(self):
        server = InferenceServer()
        with pytest.raises(ValueError, match="no task runtime registered"):
            server.submit(DecisionRequest(task="abr", payload={}))
        with pytest.raises(ValueError, match="unknown decision task"):
            server.register_adapter("generate", object())
        with pytest.raises(ValueError, match="reserved for"):
            server.register_task("generate", _DoublerRuntime())
        with pytest.raises(TypeError, match="must implement"):
            server.register_task("broken", object())


# ---------------------------------------------------------------------- #
# Typed request surface
# ---------------------------------------------------------------------- #
class TestTypedRequests:
    def test_generate_request_validation(self):
        with pytest.raises(ValueError, match="max_new_tokens"):
            GenerateRequest(prompt="x", max_new_tokens=0)
        with pytest.raises(ValueError, match="temperature"):
            GenerateRequest(prompt="x", temperature=-0.1)
        # NaN compares False both ways: it would decode greedily / never expire.
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            GenerateRequest(prompt="x", temperature=float("nan"))
        with pytest.raises(ValueError, match="deadline_s"):
            GenerateRequest(prompt="x", deadline_s=0.0)
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            GenerateRequest(prompt="x", deadline_s=float("nan"))
        with pytest.raises(TypeError, match="priority"):
            GenerateRequest(prompt="x", priority="high")
        with pytest.raises(TypeError, match="prompt"):
            GenerateRequest(prompt=123)

    def test_decision_request_validation(self):
        with pytest.raises(TypeError, match="task"):
            DecisionRequest(task="")
        with pytest.raises(ValueError, match="deadline_s"):
            DecisionRequest(task="vp", deadline_s=-1.0)
        with pytest.raises(ValueError, match="deadline_s"):
            DecisionRequest(task="vp", deadline_s=float("nan"))

    def test_requests_are_frozen(self):
        request = GenerateRequest(prompt="x")
        with pytest.raises(AttributeError):
            request.prompt = "y"
        decision = DecisionRequest(task="vp", payload=object())
        with pytest.raises(AttributeError):
            decision.priority = 3

    def test_submit_takes_one_typed_request_only(self, model):
        server = InferenceServer(model)
        # The stringly pre-typed surface is gone, not shimmed.
        with pytest.raises(TypeError, match="takes a GenerateRequest or "
                                            "DecisionRequest, got str"):
            server.submit("generate")
        with pytest.raises(TypeError):
            server.submit(GenerateRequest(prompt="x"), max_new_tokens=4)
        with pytest.raises(TypeError):
            server.submit(DecisionRequest(task="vp", payload=1), "extra")
        assert not server.has_pending_work()


# ---------------------------------------------------------------------- #
# Streaming handles
# ---------------------------------------------------------------------- #
class TestStreaming:
    def test_stream_pieces_equal_result_text_sync(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2))
        handles = [server.submit(GenerateRequest(prompt=f"stream {i}",
                                                 max_new_tokens=8,
                                                 stop_on_eos=False, stream=True))
                   for i in range(3)]
        for i, handle in enumerate(handles):
            pieces = list(handle.stream(timeout=60))  # sync: drives the engine
            result = handle.result()
            assert "".join(pieces) == result.text
            # One piece per committed token (special tokens decode to "").
            assert len(pieces) == len(result.token_ids)
            assert result.token_ids == standalone(model, handle.request)

    def test_stream_with_background_loop(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4))
        with server:
            handle = server.submit(GenerateRequest(prompt="bg stream",
                                                   max_new_tokens=10,
                                                   stop_on_eos=False, stream=True))
            pieces = list(handle.stream(timeout=60))
        assert "".join(pieces) == handle.result().text

    def test_stream_many_consumers_threaded(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4))
        texts = {}

        def consume(index, handle):
            texts[index] = "".join(handle.stream(timeout=60))

        with server:
            handles = [server.submit(GenerateRequest(prompt=f"c{i}",
                                                     max_new_tokens=6,
                                                     stop_on_eos=False,
                                                     stream=True))
                       for i in range(6)]
            threads = [threading.Thread(target=consume, args=(i, h))
                       for i, h in enumerate(handles)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for i, handle in enumerate(handles):
            assert texts[i] == handle.result().text

    def test_stream_requires_stream_flag(self, model):
        server = InferenceServer(model)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))
        with pytest.raises(RuntimeError, match="stream=True"):
            next(handle.stream())
        handle.result()

    def test_stream_surfaces_failure(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        boom = RuntimeError("injected decode failure")

        def exploding_step():
            raise boom

        server._manager.step = exploding_step
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=4,
                                               stop_on_eos=False, stream=True))
        with server:
            with pytest.raises(RuntimeError, match="injected decode failure"):
                list(handle.stream(timeout=30))


# ---------------------------------------------------------------------- #
# Cancellation
# ---------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_queued_request(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        first = server.submit(GenerateRequest(prompt="first", max_new_tokens=6,
                                              stop_on_eos=False))
        server.step()  # admit `first` into the single slot
        queued = server.submit(GenerateRequest(prompt="queued", max_new_tokens=6,
                                               stop_on_eos=False))
        assert queued.cancel() is True
        assert queued.cancel() is False  # already terminal
        with pytest.raises(RequestCancelled):
            queued.result()
        assert queued.cancelled()
        server.run_until_idle()
        assert first.result().token_ids
        stats = server.stats()
        assert stats.cancelled == 1
        assert stats.requests_completed == 1  # cancelled one not counted

    def test_cancel_running_releases_blocks(self, model):
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, enable_prefix_cache=False))
        handle = server.submit(GenerateRequest(prompt="a long prompt 123",
                                               max_new_tokens=200,
                                               stop_on_eos=False))
        for _ in range(3):
            server.step()
        manager = server._manager
        assert manager.cache.blocks_in_use > 0
        assert handle.cancel() is True
        assert manager.cache.num_sessions == 0
        assert manager.cache.blocks_in_use == 0
        manager.cache.check_invariants()
        with pytest.raises(RequestCancelled):
            handle.result()
        # The engine keeps serving after the cancellation.
        after = server.submit(GenerateRequest(prompt="after", max_new_tokens=3,
                                              stop_on_eos=False))
        server.run_until_idle()
        assert after.result().token_ids == standalone(model, after.request)

    def test_cancel_pending_decision(self):
        runtime = _DoublerRuntime()
        server = InferenceServer(runtimes={"double": runtime})
        keep = server.submit(DecisionRequest(task="double", payload=21))
        dropped = server.submit(DecisionRequest(task="double", payload=5))
        assert dropped.cancel() is True
        server.run_until_idle()
        assert keep.result() == 42
        with pytest.raises(RequestCancelled):
            dropped.result()
        assert runtime.batches == [1]  # the cancelled request never executed

    def test_randomized_admit_cancel_decode_interleaving(self, model):
        """Pool invariants hold at every point of a random admit/cancel/decode
        interleaving, and surviving streams still match standalone generate."""
        rng = np.random.default_rng(42)
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4))
        manager = server._manager
        handles = []
        check = manager.cache.check_invariants

        for step in range(150):
            action = rng.random()
            open_handles = [h for h in handles if not h.done()]
            if action < 0.3 and len(handles) < 20:
                prompt = "".join(rng.choice(list("abc 123."))
                                 for _ in range(int(rng.integers(1, 20))))
                handles.append(server.submit(GenerateRequest(
                    prompt=prompt, max_new_tokens=int(rng.integers(2, 10)),
                    stop_on_eos=False)))
            elif action < 0.45 and open_handles:
                victim = open_handles[int(rng.integers(len(open_handles)))]
                victim.cancel()
            else:
                server.step()
            check()
        server.run_until_idle()
        check()
        assert manager.cache.num_sessions == 0
        cancelled = finished = 0
        for handle in handles:
            assert handle.done()
            try:
                result = handle.result()
            except RequestCancelled:
                cancelled += 1
                continue
            finished += 1
            assert result.token_ids == standalone(
                model, handle.request, max_new_tokens=result.num_inferences)
        # The interleaving really exercised both exits.
        assert cancelled >= 3 and finished >= 3
        stats = server.stats()
        assert stats.cancelled == cancelled


# ---------------------------------------------------------------------- #
# Deadlines
# ---------------------------------------------------------------------- #
class TestDeadlines:
    def test_deadline_expires_in_queue(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        blocker = server.submit(GenerateRequest(prompt="blocker",
                                                max_new_tokens=40,
                                                stop_on_eos=False))
        server.step()  # occupy the single slot
        doomed = server.submit(GenerateRequest(prompt="doomed", max_new_tokens=4,
                                               stop_on_eos=False,
                                               deadline_s=0.005))
        time.sleep(0.02)
        server.run_until_idle()
        with pytest.raises(DeadlineExceeded, match="while queued"):
            doomed.result()
        assert doomed.metrics.admitted_at is None  # never admitted
        assert doomed.metrics.queue_seconds > 0  # queued lifetime reported
        assert blocker.result().token_ids
        stats = server.stats()
        assert stats.expired == 1

    def test_deadline_expires_mid_decode(self, model):
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, enable_prefix_cache=False))
        handle = server.submit(GenerateRequest(prompt="slow", max_new_tokens=10000,
                                               stop_on_eos=False,
                                               deadline_s=0.02))
        server.step()  # admit + commit at least one token before the deadline
        time.sleep(0.05)  # let the deadline pass mid-flight
        with pytest.raises(DeadlineExceeded, match="mid-decode"):
            handle.result(timeout=30)
        assert handle.metrics.tokens_generated > 0  # it really decoded first
        manager = server._manager
        assert manager.cache.num_sessions == 0  # blocks reclaimed on expiry
        assert manager.cache.blocks_in_use == 0
        manager.cache.check_invariants()
        assert server.stats().expired == 1

    def test_decision_deadline_expires(self):
        runtime = _DoublerRuntime()
        server = InferenceServer(runtimes={"double": runtime})
        handle = server.submit(DecisionRequest(task="double", payload=1,
                                               deadline_s=0.005))
        time.sleep(0.02)
        server.run_until_idle()
        with pytest.raises(DeadlineExceeded):
            handle.result()
        assert runtime.batches == []  # expired before execution


# ---------------------------------------------------------------------- #
# Priority-aware admission
# ---------------------------------------------------------------------- #
class TestPriorityAdmission:
    def _session(self, i, priority=0):
        return GenerationSession(session_id=i, prompt=f"s{i}", priority=priority)

    def test_higher_class_admitted_first_fifo_within_class(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(max_batch_size=8))
        for i, priority in enumerate([0, 2, 0, 1, 2]):
            assert scheduler.enqueue(self._session(i, priority))
        order = [s.session_id for s in scheduler.admissions(free_slots=5)]
        # Classes high→low; submission order inside each class.
        assert order == [1, 4, 3, 0, 2]

    def test_aging_prevents_starvation(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(
            max_batch_size=8, priority_aging_s=0.1))
        assert scheduler.enqueue(self._session(0, priority=0))
        assert scheduler.enqueue(self._session(1, priority=2))
        # Simulate the low-priority request having waited 0.5s: its effective
        # class (0 + 5) now outranks the fresh high-priority one.
        scheduler._queue[0].enqueued_at -= 0.5
        order = [s.session_id for s in scheduler.admissions(free_slots=2)]
        assert order == [0, 1]

    def test_aging_disabled_keeps_strict_classes(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(
            max_batch_size=8, priority_aging_s=None))
        scheduler.enqueue(self._session(0, priority=0))
        scheduler.enqueue(self._session(1, priority=1))
        scheduler._queue[0].enqueued_at -= 1e6  # ancient, but no aging
        order = [s.session_id for s in scheduler.admissions(free_slots=2)]
        assert order == [1, 0]

    def test_policy_rejects_bad_aging(self):
        with pytest.raises(ValueError, match="priority_aging_s"):
            SchedulerPolicy(priority_aging_s=0.0)
        SchedulerPolicy(priority_aging_s=None)  # explicit off is fine

    def test_engine_priority_over_fifo(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        blocker = server.submit(GenerateRequest(prompt="blk", max_new_tokens=2,
                                                stop_on_eos=False))
        server.step()  # admit the blocker; everything below queues behind it
        low_a = server.submit(GenerateRequest(prompt="la", max_new_tokens=2,
                                              stop_on_eos=False, priority=0))
        low_b = server.submit(GenerateRequest(prompt="lb", max_new_tokens=2,
                                              stop_on_eos=False, priority=0))
        high = server.submit(GenerateRequest(prompt="hi", max_new_tokens=2,
                                             stop_on_eos=False, priority=2))
        server.run_until_idle()
        finished = {name: handle.metrics.finished_at
                    for name, handle in [("blocker", blocker), ("low_a", low_a),
                                         ("low_b", low_b), ("high", high)]}
        assert finished["blocker"] < finished["high"] < finished["low_a"]
        assert finished["low_a"] < finished["low_b"]  # FIFO within a class
        stats = server.stats()
        assert set(stats.queue_by_priority) == {0, 2}
        assert stats.queue_by_priority[0]["count"] == 3


# ---------------------------------------------------------------------- #
# Pluggable task runtimes
# ---------------------------------------------------------------------- #
class TestCustomTaskRuntime:
    def test_register_task_serves_novel_task(self):
        runtime = _DoublerRuntime()
        server = InferenceServer()
        server.register_task("double", runtime)
        handles = [server.submit(DecisionRequest(task="double", payload=i))
                   for i in range(4)]
        server.run_until_idle()
        assert [h.result() for h in handles] == [0, 2, 4, 6]
        assert runtime.batches == [4]  # one grouped batch, not 4 calls
        assert server.stats().per_task == {"double": 4}

    def test_runtimes_constructor_argument(self):
        server = InferenceServer(runtimes={"double": _DoublerRuntime()})
        handle = server.submit(DecisionRequest(task="double", payload=8))
        server.run_until_idle()
        assert handle.result() == 16

    def test_outcome_counts_outlive_the_retained_metrics_window(self):
        # stats() keeps a bounded window of per-request metrics for its
        # percentiles; how many requests ended how must not saturate with it.
        from collections import deque

        server = InferenceServer(runtimes={"double": _DoublerRuntime()})
        server._completed = deque(maxlen=8)
        handles = [server.submit(DecisionRequest(task="double", payload=i))
                   for i in range(20)]
        assert handles[3].cancel()
        server.run_until_idle()
        stats = server.stats()
        assert (stats.requests_completed, stats.cancelled, stats.failed) == (19, 1, 0)
        assert stats.per_task == {"double": 8}  # the window, as documented

    def test_token_throughput_outlives_the_retained_metrics_window(self, model):
        # wall_seconds spans the server's life, so the tokens it divides
        # must too: the retained window's tokens over whole-life seconds
        # reads ever lower the longer a server runs.
        from collections import deque

        server = InferenceServer(model, SchedulerPolicy(max_batch_size=4))
        server._completed = deque(maxlen=4)
        handles = [server.submit(GenerateRequest(prompt=f"r{i}", max_new_tokens=8,
                                                 stop_on_eos=False))
                   for i in range(20)]
        server.run_until_idle()
        assert all(len(handle.result().token_ids) == 8 for handle in handles)
        stats = server.stats()
        assert (stats.requests_completed, stats.tokens_generated) == (20, 160)
        assert stats.tokens_per_second == pytest.approx(160 / stats.wall_seconds)
        assert stats.per_task == {"generate": 4}  # the window, as documented

    def test_blocking_result_on_the_serve_loop_makes_its_event_on_demand(self):
        # The handle's event is made by the first waiter; a waiter racing the
        # loop's settle must neither miss the set nor hang.  More client
        # threads than cores, each reading results the moment it submits.
        import sys
        import threading

        server = InferenceServer(runtimes={"double": _DoublerRuntime()})
        answers, errors = {}, []

        def client(base: int) -> None:
            try:
                for i in range(base, base + 40):
                    handle = server.submit(DecisionRequest(task="double", payload=i))
                    answers[i] = handle.result(timeout=10.0)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=client, args=(1000 * t,))
                           for t in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert answers == {i: 2 * i for t in range(6)
                           for i in range(1000 * t, 1000 * t + 40)}
        late = server.submit(DecisionRequest(task="double", payload=21))
        server.run_until_idle()
        assert late._event is None and late.result() == 42  # never waited on

    def test_unhashable_group_key_fails_at_submit_not_in_the_loop(self):
        class ListKey:
            def group_key(self, request):
                return [1, 2]  # unhashable

            def execute_batch(self, requests):
                return [None] * len(requests)

        server = InferenceServer(runtimes={"bad": ListKey(),
                                           "ok": _DoublerRuntime()})
        with pytest.raises(TypeError, match="unhashable"):
            server.submit(DecisionRequest(task="bad", payload=1))
        # The engine is unharmed: unrelated traffic still serves.
        healthy = server.submit(DecisionRequest(task="ok", payload=3))
        server.run_until_idle()
        assert healthy.result() == 6

    def test_runtime_result_count_mismatch_fails_group(self):
        class Broken:
            def group_key(self, request):
                return ()

            def execute_batch(self, requests):
                return []  # wrong length

        server = InferenceServer(runtimes={"bad": Broken()})
        handle = server.submit(DecisionRequest(task="bad", payload=1))
        server.run_until_idle()
        with pytest.raises(RuntimeError, match="returned 0 results"):
            handle.result()


# ---------------------------------------------------------------------- #
# stop() semantics
# ---------------------------------------------------------------------- #
class TestStopSemantics:
    def test_stop_drain_completes_queued_work_without_loop(self, model):
        # Never-started server: drain must still run the queue down.
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        handles = [server.submit(GenerateRequest(prompt=f"q{i}", max_new_tokens=3,
                                                 stop_on_eos=False))
                   for i in range(4)]
        server.stop(drain=True)
        for handle in handles:
            assert handle.result().token_ids == standalone(model, handle.request)

    def test_stop_drain_completes_queued_work_with_loop(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        server.start()
        handles = [server.submit(GenerateRequest(prompt=f"d{i}", max_new_tokens=3,
                                                 stop_on_eos=False))
                   for i in range(5)]
        server.stop(drain=True)
        assert all(handle.result().token_ids for handle in handles)

    def test_stop_no_drain_fails_queued_fast(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        server.start()
        handles = [server.submit(GenerateRequest(prompt=f"n{i}",
                                                 max_new_tokens=400,
                                                 stop_on_eos=False))
                   for i in range(6)]
        server.stop(drain=False)
        for handle in handles:
            assert handle.done()  # nothing left hanging
            with pytest.raises(RuntimeError, match="server stopped"):
                handle.result(timeout=10)


# ---------------------------------------------------------------------- #
# Review regressions: stream re-iteration, inactivity timeout, decision
# priority ordering
# ---------------------------------------------------------------------- #
class TestStreamLifecycleEdges:
    def test_reiterating_a_drained_stream_terminates(self, model):
        server = InferenceServer(model)
        handle = server.submit(GenerateRequest(prompt="again", max_new_tokens=4,
                                               stop_on_eos=False, stream=True))
        first = list(handle.stream(timeout=60))
        assert "".join(first) == handle.result().text
        # A second iteration must return immediately (no busy-loop), empty.
        assert list(handle.stream(timeout=60)) == []

    def test_drained_stream_reraises_failure(self, model):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        handle = server.submit(GenerateRequest(prompt="gone", max_new_tokens=4,
                                               stop_on_eos=False, stream=True))
        assert handle.cancel() is True
        for _ in range(2):  # both the sentinel pass and the drained pass
            with pytest.raises(RequestCancelled):
                list(handle.stream(timeout=10))

    def test_sync_stream_does_not_throttle_decoding(self, model):
        # Sync drive must step the engine immediately on an empty queue, not
        # sleep a poll interval per token (regression: 50ms/token throttle).
        server = InferenceServer(model)
        handle = server.submit(GenerateRequest(prompt="fast", max_new_tokens=30,
                                               stop_on_eos=False, stream=True))
        start = time.perf_counter()
        pieces = list(handle.stream(timeout=60))
        elapsed = time.perf_counter() - start
        assert len(pieces) == 30
        assert elapsed < 0.5, f"sync streaming took {elapsed:.2f}s for 30 tokens"

    def test_stream_timeout_bounds_inactivity_not_duration(self, model):
        # A stalled engine (never stepped, no background loop would be the
        # hang case; here we fake stall by exhausting a done handle's twin):
        # timeout measures the gap since the last piece, so a drained-but-
        # unfinished stream raises once nothing arrives for `timeout`.
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        handle = server.submit(GenerateRequest(prompt="slowly", max_new_tokens=4,
                                               stop_on_eos=False, stream=True))

        # Swap in a pump that never makes progress to simulate a stall.
        server._pump = lambda h: None
        start = time.perf_counter()
        with pytest.raises(TimeoutError, match="produced nothing"):
            list(handle.stream(timeout=0.2))
        assert time.perf_counter() - start < 5.0
        server.run_until_idle()
        assert handle.result().token_ids


# ---------------------------------------------------------------------- #
# Chunked prefill: exact parity with one-shot prefill, lifecycle, budgets
# ---------------------------------------------------------------------- #
class TestChunkedPrefill:
    #: Chunk sizes deliberately straddle the block size (4 in these tests):
    #: smaller than a block, equal, not a divisor of the block, larger and
    #: non-divisible, and larger than the whole prompt (degenerate one-shot).
    CHUNKS = (1, 3, 4, 6, 64)

    def test_chunked_admission_exact_logit_parity(self, model):
        """Chunked prefill + decode == one-shot prefill + decode == the
        graph forward, at every position."""
        rng = np.random.default_rng(5)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=23)
        for chunk in self.CHUNKS:
            paged = model.init_paged_cache(max_sessions=4, block_size=4)
            with no_grad():
                twins = [Twin(model, paged, prompt),
                         Twin(model, paged, prompt, chunk=chunk)]
                # Both sessions now decode together; every step must agree.
                decode(model, paged, twins, steps=6)
                np.testing.assert_allclose(twins[1].logits, twins[0].logits,
                                           atol=1e-12, rtol=0,
                                           err_msg=f"chunk={chunk}")

    def test_prompt_chunk_copy_on_write_on_forked_tail(self, model):
        """A prompt chunk into a session whose partial tail is shared splits
        it first."""
        rng = np.random.default_rng(9)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=10)
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            part = Twin(model, paged, prompt[:6])
            shared_tail = paged.table(part.sid)[-1]
            # The rest of the prompt lands on a fork sharing the partial tail.
            full = Twin(model, paged, prompt, session=paged.fork(part.sid))
            # The fork got its own tail copy; the original kept the old one.
            assert paged.table(full.sid)[1] != shared_tail
            assert paged.table(part.sid)[-1] == shared_tail
            paged.check_invariants()
            # Both decode exactly like independent references.
            for token in (3, 7):
                full.next_token = part.next_token = token
                decode(model, paged, [full, part], steps=1)

    def test_extend_session_validation(self, model):
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        source = model.init_paged_cache(max_sessions=1, block_size=4)
        with no_grad():
            fill(model, source, [1, 2, 3])
            [sid] = paged.admit_rows(source)
            with pytest.raises(ValueError, match="cannot extend"):
                paged.extend_session(sid, source)  # nothing new in the source
            with pytest.raises(ValueError, match="not live"):
                paged.extend_session(sid + 999, source)
            paged.check_invariants()

    @pytest.mark.parametrize("chunk,budget", [(1, None), (3, 8), (4, 6), (6, None)])
    def test_served_chunked_streams_match_generate(self, model, chunk, budget):
        """Engine-level: chunked policies reproduce standalone generate()."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4, prefill_chunk_size=chunk,
            step_token_budget=budget))
        prompts = ["ab", "a considerably longer prompt spanning many chunks",
                   "mid size prompt", "x", "another long one 0123456789 qrstuv"]
        handles = [server.submit(GenerateRequest(prompt=p, max_new_tokens=6,
                                                 stop_on_eos=False))
                   for p in prompts]
        server.run_until_idle()
        for handle in handles:
            assert handle.result().token_ids == standalone(model, handle.request)
        manager = server._manager
        manager.cache.check_invariants()
        assert manager.cache.num_sessions == 0 and manager.num_prefilling == 0

    def test_long_prompt_does_not_stall_in_flight_decode(self, model):
        """Decode sessions keep committing tokens between prefill chunks."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, prefill_chunk_size=4,
            enable_prefix_cache=False))
        short = server.submit(GenerateRequest(prompt="hi", max_new_tokens=40,
                                              stop_on_eos=False))
        server.step()  # admit + first decode of the short session
        long_prompt = "z" * 40  # 41 tokens with BOS: many chunks of 4
        long = server.submit(GenerateRequest(prompt=long_prompt,
                                             max_new_tokens=4,
                                             stop_on_eos=False))
        manager = server._manager
        tokens_before = short._session.metrics.tokens_generated
        prefilling_steps = 0
        for _ in range(30):
            server.step()
            if long._session.state == "prefilling":
                prefilling_steps += 1
            if long._session.state in ("running", "finished"):
                break
        # The long prompt really was admitted across several steps, and the
        # short session kept producing a token on every one of them.
        assert prefilling_steps >= 5
        assert (short._session.metrics.tokens_generated - tokens_before
                >= prefilling_steps)
        server.run_until_idle()
        assert long.result().token_ids == standalone(model, long.request)
        assert short.result().token_ids
        manager.cache.check_invariants()

    def test_stream_first_token_arrives_when_chunked_prefill_completes(self, model):
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, prefill_chunk_size=4,
            step_token_budget=8, enable_prefix_cache=False))
        handle = server.submit(GenerateRequest(prompt="s" * 30, max_new_tokens=6,
                                               stop_on_eos=False, stream=True))
        pieces = list(handle.stream(timeout=60))  # sync drive
        result = handle.result()
        assert "".join(pieces) == result.text
        assert len(pieces) == len(result.token_ids)
        assert result.token_ids == standalone(model, handle.request)

    def test_step_token_budget_bounds_per_step_prefill(self, model):
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, prefill_chunk_size=4,
            step_token_budget=4, enable_prefix_cache=False))
        handle = server.submit(GenerateRequest(prompt="y" * 20, max_new_tokens=2,
                                               stop_on_eos=False))
        session = handle._session
        progress = []
        while session.state in ("queued", "prefilling") and len(progress) < 20:
            server.step()
            progress.append(session.prompt_pos)
        # 21 prompt tokens at <= 4 per step: at least 6 prefill steps, each
        # advancing by at most the chunk/budget grant.
        deltas = [b - a for a, b in zip([0] + progress, progress)]
        assert max(deltas) <= 4
        assert sum(1 for d in deltas if d) >= 6
        server.run_until_idle()
        assert handle.result().token_ids

    def test_cancel_and_deadline_during_prefill_release_blocks(self, model):
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, prefill_chunk_size=4,
            enable_prefix_cache=False))
        cancelled = server.submit(GenerateRequest(prompt="c" * 40,
                                                  max_new_tokens=4,
                                                  stop_on_eos=False))
        server.step()
        assert cancelled._session.state == "prefilling"
        assert server._manager.cache.blocks_in_use > 0
        assert cancelled.cancel() is True
        assert server._manager.cache.blocks_in_use == 0
        assert server._manager.num_prefilling == 0
        server._manager.cache.check_invariants()
        with pytest.raises(RequestCancelled):
            cancelled.result()

        doomed = server.submit(GenerateRequest(prompt="d" * 40,
                                               max_new_tokens=4,
                                               stop_on_eos=False,
                                               deadline_s=0.01))
        server.step()
        assert doomed._session.state == "prefilling"
        time.sleep(0.02)
        server.run_until_idle()
        with pytest.raises(DeadlineExceeded):
            doomed.result()
        assert server._manager.cache.blocks_in_use == 0
        server._manager.cache.check_invariants()

    def test_randomized_chunked_admit_decode_cancel_evict(self, model):
        """Pool invariants hold through a random chunked-prefill interleaving
        and every surviving stream still matches standalone generate."""
        rng = np.random.default_rng(77)
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4, prefill_chunk_size=3,
            step_token_budget=10))
        manager = server._manager
        handles = []
        saw_prefilling = 0
        check = manager.cache.check_invariants

        for _ in range(180):
            action = rng.random()
            open_handles = [h for h in handles if not h.done()]
            if action < 0.3 and len(handles) < 24:
                length = int(rng.integers(1, 40))  # many prompts span chunks
                prompt = "".join(rng.choice(list("abc 123.")) for _ in range(length))
                handles.append(server.submit(GenerateRequest(
                    prompt=prompt, max_new_tokens=int(rng.integers(2, 8)),
                    stop_on_eos=False)))
            elif action < 0.45 and open_handles:
                victim = open_handles[int(rng.integers(len(open_handles)))]
                victim.cancel()
            else:
                server.step()
            saw_prefilling += manager.num_prefilling
            check()
        server.run_until_idle()
        check()
        assert manager.cache.num_sessions == 0 and manager.num_prefilling == 0
        assert saw_prefilling > 0  # chunked admission really interleaved
        cancelled = finished = 0
        for handle in handles:
            assert handle.done()
            try:
                result = handle.result()
            except RequestCancelled:
                cancelled += 1
                continue
            finished += 1
            assert result.token_ids == standalone(
                model, handle.request, max_new_tokens=result.num_inferences)
        assert cancelled >= 3 and finished >= 5

    def test_prefix_eviction_between_match_and_first_chunk_falls_back(self, model):
        """Review regression: a budget-starved session whose matched head is
        LRU-evicted before its first chunk must cold-prefill, not seed from
        pool blocks that now hold a different head's K/V."""
        from repro.serve.session import PREFILLING

        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, max_prefixes=1))
        entry = manager.register_prefix("shared head abc ")
        prompt = "shared head abc tail 12345"
        session = GenerationSession(session_id=1, prompt=prompt,
                                    max_new_tokens=4, stop_on_eos=False)
        manager._prepare_prompt(session)
        assert session.prefix_entry is entry and session.prompt_pos > 0
        # Simulate the grant-0 window: the session sits PREFILLING with no
        # chunk admitted while another registration evicts its head.
        session.state = PREFILLING
        manager.prefilling[session.session_id] = session
        manager.register_prefix("a different head!")  # LRU-evicts `entry`
        assert not manager.prefix.is_live(entry)
        while session.state == PREFILLING:
            manager.prefill_chunk(session, 5)
        assert session.metrics.prefix_tokens == 0  # reuse lost, not corrupted
        while manager.num_running:
            manager.step()
        assert session.generated == standalone(model, session)
        manager.cache.check_invariants()

    def test_budget_pressure_defers_admission_instead_of_zero_grants(self, model):
        """Review regression: while the budget is consumed by an in-flight
        prefill, later arrivals stay in the priority queue (where aging and
        priority ordering apply) instead of being admitted with zero-token
        grants that hoard batch slots in FIFO order."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=4, block_size=4, prefill_chunk_size=4,
            step_token_budget=4, enable_prefix_cache=False))
        first = server.submit(GenerateRequest(prompt="f" * 30, max_new_tokens=2,
                                              stop_on_eos=False))
        server.step()
        assert first._session.state == "prefilling"
        low = server.submit(GenerateRequest(prompt="low", max_new_tokens=2,
                                            stop_on_eos=False, priority=0))
        high = server.submit(GenerateRequest(prompt="high", max_new_tokens=2,
                                             stop_on_eos=False, priority=2))
        # While `first`'s chunks consume the whole budget, neither arrival
        # may leave the queue: every admitted session must make progress.
        while first._session.state == "prefilling":
            server.step()
            for handle in (low, high):
                session = handle._session
                assert (session.state == "queued"
                        or session.prompt_pos > 0), (
                    "session admitted without receiving any prefill tokens")
        server.run_until_idle()
        # The high-priority arrival overtook the earlier low-priority one.
        assert high.metrics.finished_at < low.metrics.finished_at
        for handle in (low, high):
            assert handle.result().token_ids == standalone(model, handle.request)

    def test_deep_queue_under_a_small_budget_drains_in_rank_order(self, model):
        """The grant loop is the admission rule: with more queued sessions
        than free slots and a budget that funds only a few chunks a step,
        candidates the budget cannot start come back deferred — and who
        starts first is still the scheduler's order, nothing else's."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=8, block_size=4, prefill_chunk_size=4,
            step_token_budget=12, priority_aging_s=None,
            enable_prefix_cache=False))
        prompts = [f"request {i} " + "ab" * (1 + i % 7) for i in range(40)]
        handles = [server.submit(GenerateRequest(
            prompt=prompt, max_new_tokens=3, stop_on_eos=False,
            temperature=0.8 if i % 3 else 0.0, seed=100 + i, priority=i % 2))
            for i, prompt in enumerate(prompts)]
        server.run_until_idle()
        for handle in handles:
            assert handle.result().token_ids == standalone(model, handle.request)
        records = server.telemetry.records()
        assert not any(set(r.admitted) & set(r.deferred) for r in records)
        assert any(r.deferred for r in records), "the budget never pushed back"
        started = [rid for r in records for rid in r.admitted]
        # Each exactly once; the higher class first, FIFO inside a class.
        priority = {h.request_id: h.request.priority for h in handles}
        assert started == sorted(priority, key=lambda rid: (-priority[rid], rid))
        server._manager.cache.check_invariants()

    def test_prefix_eviction_before_one_shot_readmission_falls_back(self, model):
        """Review regression: a deferred session re-admitted through the
        banded one-shot path must also re-validate its matched head."""
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4, max_prefixes=1))
        entry = manager.register_prefix("shared head abc ")
        prompt = "shared head abc Z"
        session = GenerationSession(session_id=1, prompt=prompt,
                                    max_new_tokens=3, stop_on_eos=False)
        manager._prepare_prompt(session)  # matched, then deferred by budget
        assert session.prefix_entry is entry
        manager.register_prefix("another head entirely")  # LRU-evicts it
        manager.admit_many([session])  # one-shot path must cold-prefill
        assert session.metrics.prefix_tokens == 0
        while manager.num_running:
            manager.step()
        assert session.generated == standalone(model, session)
        manager.cache.check_invariants()

    def test_requeue_front_preserves_wait_and_fifo_position(self):
        """Review regression: a budget-deferred session goes back to the
        *front* of its class with its original wait, so priority aging and
        FIFO ties are not reset by the deferral."""
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(
            max_batch_size=8, max_queue=2))
        first = GenerationSession(session_id=1, prompt="a")
        second = GenerationSession(session_id=2, prompt="b")
        assert scheduler.enqueue(first) and scheduler.enqueue(second)
        popped = scheduler.admissions(2)
        assert popped == [first, second]
        later = GenerationSession(session_id=3, prompt="c")
        assert scheduler.enqueue(later)
        # Requeue as the engine does: reversed, so `first` keeps the
        # earliest effective seq.  The queue bound does not apply.
        scheduler.requeue_front(second)
        scheduler.requeue_front(first)
        assert scheduler.queue_depth == 3
        entries = {e.session.session_id: e for e in scheduler._queue}
        # Aging resumes from the original submission time, not from now.
        assert entries[1].enqueued_at == first.metrics.submitted_at
        order = [s.session_id for s in scheduler.admissions(3)]
        assert order == [1, 2, 3]

    def test_one_token_tail_with_one_budget_token_defers(self, model):
        """Review regression: a new session whose whole remaining tail is one
        token needs TWO budget tokens (prefill + same-step decode row); with
        only one left it must stay QUEUED — deferred, holding no slot — not
        enter PREFILLING at zero progress."""
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=4, block_size=4))
        manager.register_prefix("head text ")
        session = GenerationSession(session_id=1, prompt="head text X",
                                    max_new_tokens=2, stop_on_eos=False)
        spent, terminal, failures, deferred = manager.prefill_step(
            [session], chunk_size=4, token_budget=1)
        assert deferred == [session] and not terminal and not failures
        assert session.state == "queued" and session.slot is None
        assert manager.num_prefilling == 0 and spent == 0
        # With two tokens of budget the same session completes one-shot.
        spent, terminal, failures, deferred = manager.prefill_step(
            [session], chunk_size=4, token_budget=2)
        assert not deferred and session.state == "running" and spent == 2
        while manager.num_running:
            manager.step()
        assert session.generated == standalone(model, session)
        manager.cache.check_invariants()

    def test_budget_policy_validation_and_math(self):
        with pytest.raises(ValueError, match="prefill_chunk_size"):
            SchedulerPolicy(prefill_chunk_size=0)
        with pytest.raises(ValueError, match="step_token_budget"):
            SchedulerPolicy(prefill_chunk_size=4, step_token_budget=0)
        # A budget of 1 can never admit (prefill + same-step decode is 2).
        with pytest.raises(ValueError, match="step_token_budget must be >= 2"):
            SchedulerPolicy(prefill_chunk_size=4, step_token_budget=1)
        SchedulerPolicy(prefill_chunk_size=4, step_token_budget=2)
        with pytest.raises(ValueError, match="requires prefill_chunk_size"):
            SchedulerPolicy(step_token_budget=32)
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(
            prefill_chunk_size=8, step_token_budget=24))
        # Decode rows spend one token each before prefill sees the budget.
        assert scheduler.prefill_budget(decode_rows=0) == 24
        assert scheduler.prefill_budget(decode_rows=10) == 14
        assert scheduler.prefill_budget(decode_rows=30) == 0
        unbounded = ContinuousBatchingScheduler(SchedulerPolicy(
            prefill_chunk_size=8))
        assert unbounded.prefill_budget(decode_rows=10) is None


# ---------------------------------------------------------------------- #
# The step plan is read off the table matrix afresh every step: the moments a
# remembered plan would have gone stale (a row crossing into a new block, the
# batch changing, a neighbour leaving) must stay exact against the oracle.
# ---------------------------------------------------------------------- #
class TestPrepareStepPlanCache:
    def test_steady_decode_then_a_batch_change_stay_exact(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=8)
        with no_grad():
            twins = [Twin(model, paged, [1, 2, 3]), Twin(model, paged, [4, 5, 6, 7])]
            # Lengths 3 and 4: four steps inside the current tail blocks, then
            # session A (length 8) and session B cross into a second block.
            decode(model, paged, twins, steps=7)
            assert [len(paged.table(twin.sid)) for twin in twins] == [2, 2]
            # A different batch composition on the very next step, and back.
            decode(model, paged, twins[:1], steps=2)
            decode(model, paged, twins, steps=2)

    def test_boundary_crossing_updates_single_row(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            twins = [Twin(model, paged, [1, 2]),                 # length 2
                     Twin(model, paged, [3, 4, 5, 6, 7, 8])]     # length 6
            decode(model, paged, twins, steps=2)  # lengths 4, 8
            table_a = paged.table(twins[0].sid)
            # Next step A writes position 4 and B position 8: each appends a
            # block, B's table becomes the widest the batch has had.
            decode(model, paged, twins, steps=1)
            assert paged.table(twins[0].sid)[:-1] == table_a
            assert [len(paged.table(twin.sid)) for twin in twins] == [2, 3]
            decode(model, paged, twins, steps=4)

    def test_plan_survives_unrelated_eviction(self, model):
        """Evicting a session outside the batch must not corrupt the plan."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            twins = [Twin(model, paged, [1, 2, 3]), Twin(model, paged, [4, 5])]
            sid_c, _ = fill(model, paged, [6, 7, 8, 9, 10])
            decode(model, paged, twins, steps=1)
            paged.evict(sid_c)  # frees a table row; the batch's rows are unchanged
            decode(model, paged, twins, steps=1)

    def test_stepping_an_evicted_session_still_raises(self, model):
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        with no_grad():
            sid, _ = fill(model, paged, [1, 2, 3])
            model.forward_step(np.asarray([4]), paged,
                               np.asarray([sid], dtype=np.int64))
            paged.evict(sid)
            with pytest.raises(ValueError, match="not live"):
                model.forward_step(np.asarray([4]), paged,
                                   np.asarray([sid], dtype=np.int64))


class TestDecisionPriorityOrdering:
    def test_higher_priority_groups_execute_first_in_a_flush(self):
        order = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def group_key(self, request):
                return ()

            def execute_batch(self, requests):
                order.append(self.name)
                return [None] * len(requests)

        server = InferenceServer(runtimes={"low": Recorder("low"),
                                           "high": Recorder("high")})
        low = server.submit(DecisionRequest(task="low", payload=1, priority=0))
        high = server.submit(DecisionRequest(task="high", payload=1, priority=2))
        server.run_until_idle()
        low.result(), high.result()
        assert order == ["high", "low"]
