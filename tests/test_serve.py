"""Serving engine tests: paged batched/sequential parity, continuous batching,
block-pool invariants, prefix sharing, scheduler behaviour, the typed
request/lifecycle surface (streaming, cancellation, deadlines, priorities),
pluggable task runtimes and the metrics surface."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

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
    ServeCounters,
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


def _prefill(model, prompt_ids):
    """Single-session reference prefill: (cache, greedy first token)."""
    cache = model.init_cache()
    logits = model.forward_incremental(
        np.asarray(prompt_ids, dtype=np.int64)[None, :], cache)
    return cache, int(np.argmax(logits.data[0, -1]))


# ---------------------------------------------------------------------- #
# Paged batched decoding parity with sequential single-session decoding
# ---------------------------------------------------------------------- #
class TestPagedDecodeParity:
    # Parity is asserted at atol=1e-9/rtol=0 (the repo's "machine precision"
    # convention): BLAS rounds batched GEMMs differently from single-row ones
    # at the ~1e-15 level, so bit-exactness across batch shapes is impossible
    # by construction — 1e-9 is ~6 orders of magnitude tighter than any
    # difference that could flip a sampled token in practice.

    def test_ragged_batch_matches_sequential(self, model):
        """N sessions with different prompt lengths decode identically."""
        rng = np.random.default_rng(0)
        vocab = model.tokenizer.vocab_size
        prompts = [rng.integers(0, vocab, size=n).tolist() for n in (3, 11, 7, 1, 18)]

        with no_grad():
            reference_caches = []
            reference_logits = []
            for prompt in prompts:
                cache = model.init_cache()
                logits = model.forward_incremental(
                    np.asarray(prompt, dtype=np.int64)[None, :], cache)
                reference_caches.append(cache)
                reference_logits.append(logits.data[0, -1])

            paged = model.init_paged_cache(max_sessions=8, block_size=4)
            sessions = []
            for prompt in prompts:
                cache, _ = _prefill(model, prompt)
                sessions.append(paged.admit(cache))
            sessions = np.asarray(sessions, dtype=np.int64)

            tokens = [int(np.argmax(l)) for l in reference_logits]
            for _ in range(8):
                out = model.forward_step(np.asarray(tokens), paged, sessions).data[0]
                for row, cache in enumerate(reference_caches):
                    expected = model.forward_incremental(
                        np.asarray([[tokens[row]]], dtype=np.int64), cache).data[0, -1]
                    np.testing.assert_allclose(out[row], expected, atol=1e-9, rtol=0)
                tokens = [int(np.argmax(out[row])) for row in range(len(prompts))]
                paged.check_invariants()

    def test_interleaved_admission_eviction_parity(self, model):
        """Evicting mid-flight and admitting into freed blocks keeps parity."""
        rng = np.random.default_rng(7)
        vocab = model.tokenizer.vocab_size
        paged = model.init_paged_cache(max_sessions=3, block_size=4)

        with no_grad():
            sessions = {}
            for length in (5, 9, 2):
                prompt = rng.integers(0, vocab, size=length)
                cache, token = _prefill(model, prompt)
                sid = paged.admit(cache)
                sessions[sid] = {"cache": cache, "token": token}

            def step(ids):
                ids = np.asarray(sorted(ids), dtype=np.int64)
                tokens = np.asarray([sessions[int(s)]["token"] for s in ids])
                out = model.forward_step(tokens, paged, ids).data[0]
                for row, sid in enumerate(ids):
                    state = sessions[int(sid)]
                    expected = model.forward_incremental(
                        np.asarray([[state["token"]]], dtype=np.int64),
                        state["cache"]).data[0, -1]
                    np.testing.assert_allclose(out[row], expected, atol=1e-9, rtol=0)
                    state["token"] = int(np.argmax(expected))
                paged.check_invariants()

            step(list(sessions))
            step(list(sessions))
            # Evict the 9-token session; its blocks must return to the pool.
            victim = list(sessions)[1]
            held = paged.blocks_in_use
            victim_blocks = len(paged.table(victim))
            paged.evict(victim)
            del sessions[victim]
            assert paged.blocks_in_use == held - victim_blocks
            paged.check_invariants()
            step(list(sessions))
            prompt = rng.integers(0, vocab, size=13)
            cache, token = _prefill(model, prompt)
            before = paged.allocator.high_water
            reusable = before - paged.blocks_in_use  # freed, not yet reassigned
            needed = paged.blocks_needed(13)
            sid = paged.admit(cache)
            # Freed blocks are reused first; the pool only grows by the deficit.
            assert paged.allocator.high_water == before + max(0, needed - reusable)
            sessions[sid] = {"cache": cache, "token": token}
            step(list(sessions))
            step(list(sessions))

    def test_block_exhaustion_and_errors(self, model):
        # Pool with room for exactly 2 blocks of 4 tokens.
        paged = PagedKVCache(model.config.num_layers,
                             max_blocks=2, block_size=4)
        with no_grad():
            cache = model.init_cache()
            model.forward_incremental(np.asarray([[5, 6, 7, 1, 2]]), cache)  # 2 blocks
            sid = paged.admit(cache)
            other = model.init_cache()
            model.forward_incremental(np.asarray([[9]]), other)
            with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
                paged.admit(other)
            paged.check_invariants()  # failed admit must not leak blocks
            paged.evict(sid)
            # Every entry keyed by a session id refuses a dead one alike.
            for call in (paged.evict, paged.length, paged.table, paged.fork,
                         paged.detach, lambda dead: paged.truncate_session(dead, 1)):
                with pytest.raises(ValueError, match=f"session {sid} is not live"):
                    call(sid)
            assert paged.blocks_in_use == 0
            paged.admit(other)  # freed blocks are usable again
        with pytest.raises(ValueError, match="prefill first"):
            paged.admit(model.init_cache())
        mismatched = PagedKVCache(5, max_blocks=4, block_size=4)
        with pytest.raises(ValueError, match="layers"):
            with no_grad():
                cache2 = model.init_cache()
                model.forward_incremental(np.asarray([[1]]), cache2)
                mismatched.admit(cache2)

    def test_admit_rows_validates_rows_without_leaking(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache, _ = _prefill(model, [1, 2, 3])
            for bad in (3, -1):  # no such session in the source pool
                with pytest.raises(ValueError, match="not live"):
                    paged.admit_rows(cache, sessions=[bad])
            assert paged.blocks_in_use == 0  # nothing leaked
            paged.check_invariants()

    def test_simultaneous_cow_rezeros_the_freed_block(self, model):
        """When every holder of a shared tail block copy-on-writes in the same
        step, the orphaned original returns to the pool zero-filled."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache, token = _prefill(model, [1, 2, 3])  # partial tail block
            sid_a = paged.admit(cache)
            shared_block = paged.table(sid_a)[-1]
            sid_b = paged.fork(sid_a)
            model.forward_step(np.asarray([token, token]), paged,
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
        assert len(first.block_ids) == 2 and paged.blocks_free == 0
        second = prefix.register("hijklmn")  # must evict `first` to fit
        assert len(prefix) == 1 and len(second.block_ids) == 2
        paged.check_invariants(external_refs=prefix.external_refs())

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
        paged = PagedKVCache(model.config.num_layers,
                             max_blocks=3, block_size=4)
        counts = None if count == 1 else np.asarray([count, count])
        with no_grad():
            cache_a, token_a = _prefill(model, [1, 2, 3, 4])  # exactly 1 block
            cache_b, _ = _prefill(model, [5, 6, 7, 8])
            sid_a = paged.admit(cache_a)
            sid_b = paged.admit(cache_b)
            with pytest.raises(RuntimeError, match="out of KV-cache blocks"):
                model.forward_step(np.tile([[1], [2]], count), paged,
                                   np.asarray([sid_a, sid_b]), counts=counts)
            # No table was mutated and the pool balances.
            assert len(paged.table(sid_a)) == 1 and len(paged.table(sid_b)) == 1
            paged.check_invariants()
            paged.evict(sid_b)
            out = model.forward_step(np.asarray([token_a]), paged,
                                     np.asarray([sid_a])).data[0, -1, :]
            expected = model.forward_incremental(
                np.asarray([[token_a]], dtype=np.int64), cache_a).data[0, -1]
            np.testing.assert_allclose(out, expected, atol=1e-9, rtol=0)
            paged.check_invariants()

    def test_forward_step_validation(self, model):
        paged = model.init_paged_cache(max_sessions=4)
        with no_grad():
            cache = model.init_cache()
            model.forward_incremental(np.asarray([[5, 6]]), cache)
            sid = paged.admit(cache)
            with pytest.raises(ValueError, match="duplicate"):
                model.forward_step(np.asarray([1, 2]), paged,
                                   np.asarray([sid, sid]))
            with pytest.raises(ValueError, match="one token per session"):
                model.backbone.forward_step(
                    model.token_embedding(np.asarray([1, 2])), paged,
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
            cache = capped.init_cache()
            capped.forward_incremental(np.asarray([[1, 2, 3, 4, 5]]), cache)
            sid = paged.admit(cache)
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
                capped.forward_step(np.arange(history), paged, np.asarray([sid]),
                                    counts=np.asarray([history]))
            blocks, table = paged.blocks_in_use, paged.table(sid)
            feed = config.max_seq_len - history + 1
            with pytest.raises(ValueError, match="sequence length 7 exceeds maximum 6"):
                capped.forward_step(np.zeros(feed, dtype=np.int64), paged,
                                    np.asarray([sid]), counts=np.asarray([feed]))
            assert paged.blocks_in_use == blocks and paged.table(sid) == table
            assert paged.length(sid) == history
            paged.check_invariants()
            # One token fewer fits, from the same untouched row.
            capped.forward_step(np.zeros(feed - 1, dtype=np.int64), paged,
                                np.asarray([sid]), counts=np.asarray([feed - 1]))
            assert paged.length(sid) == config.max_seq_len
            paged.check_invariants()

    def test_forward_step_requires_no_grad(self, model):
        paged = model.init_paged_cache(max_sessions=2)
        with no_grad():
            cache = model.init_cache()
            model.forward_incremental(np.asarray([[4, 2]]), cache)
            sid = paged.admit(cache)
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward_step(np.asarray([1]), paged, np.asarray([sid]))

    def test_fork_copy_on_write_parity(self, model):
        """A forked session shares blocks until the first divergent write."""
        rng = np.random.default_rng(11)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=7).tolist()  # partial tail block
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache_a, _ = _prefill(model, prompt)
            cache_b, _ = _prefill(model, prompt)  # independent reference twin
            sid_a = paged.admit(cache_a)
            blocks_before = paged.blocks_in_use
            sid_b = paged.fork(sid_a)
            # Fork is free: same blocks, higher refcounts.
            assert paged.blocks_in_use == blocks_before
            assert paged.table(sid_b) == paged.table(sid_a)
            paged.check_invariants()

            # Diverge: feed different tokens to original and fork.
            token_a, token_b = 3, 9
            out = model.forward_step(np.asarray([token_a, token_b]), paged,
                                     np.asarray([sid_a, sid_b])).data[0]
            # Copy-on-write split the shared tail block.
            assert paged.table(sid_b)[-1] != paged.table(sid_a)[-1]
            assert paged.table(sid_b)[:-1] == paged.table(sid_a)[:-1]
            paged.check_invariants()
            expected_a = model.forward_incremental(
                np.asarray([[token_a]], dtype=np.int64), cache_a).data[0, -1]
            expected_b = model.forward_incremental(
                np.asarray([[token_b]], dtype=np.int64), cache_b).data[0, -1]
            np.testing.assert_allclose(out[0], expected_a, atol=1e-9, rtol=0)
            np.testing.assert_allclose(out[1], expected_b, atol=1e-9, rtol=0)

            # Continue decoding both; they must stay exact.
            for _ in range(4):
                token_a = int(np.argmax(expected_a))
                token_b = int(np.argmax(expected_b))
                out = model.forward_step(np.asarray([token_a, token_b]), paged,
                                         np.asarray([sid_a, sid_b])).data[0]
                expected_a = model.forward_incremental(
                    np.asarray([[token_a]], dtype=np.int64), cache_a).data[0, -1]
                expected_b = model.forward_incremental(
                    np.asarray([[token_b]], dtype=np.int64), cache_b).data[0, -1]
                np.testing.assert_allclose(out[0], expected_a, atol=1e-9, rtol=0)
                np.testing.assert_allclose(out[1], expected_b, atol=1e-9, rtol=0)
                paged.check_invariants()

            # Evicting the original must not free blocks the fork still maps.
            paged.evict(sid_a)
            paged.check_invariants()
            expected_b = model.forward_incremental(
                np.asarray([[1]], dtype=np.int64), cache_b).data[0, -1]
            out = model.forward_step(np.asarray([1]), paged,
                                     np.asarray([sid_b])).data[0, -1, :]
            np.testing.assert_allclose(out, expected_b, atol=1e-9, rtol=0)


# ---------------------------------------------------------------------- #
# Randomized stress/property test: paged serving vs sequential decoding
# ---------------------------------------------------------------------- #
class TestPagedStressParity:
    def test_random_interleavings_match_sequential(self, model):
        """200+ randomized admit/decode/evict steps keep exact logit parity.

        Every live session is shadowed by its own single-session
        ``forward_incremental`` reference; after every batched step the paged
        logits must match each shadow exactly (atol=1e-9/rtol=0) and the
        block pool must satisfy all accounting invariants.
        """
        rng = np.random.default_rng(1234)
        vocab = model.tokenizer.vocab_size
        max_live = 6
        paged = model.init_paged_cache(max_sessions=max_live, block_size=4)
        live = {}  # sid -> {"cache": reference KVCache, "token": next token}
        admitted = evicted = decode_steps = 0

        with no_grad():
            for step in range(220):
                action = rng.random()
                if (action < 0.25 and len(live) < max_live) or not live:
                    length = int(rng.integers(1, 24))
                    prompt = rng.integers(0, vocab, size=length)
                    cache, token = _prefill(model, prompt)
                    sid = paged.admit(cache)
                    live[sid] = {"cache": cache, "token": token}
                    admitted += 1
                elif action < 0.35 and len(live) > 1:
                    victim = int(rng.choice(list(live)))
                    paged.evict(victim)
                    del live[victim]
                    evicted += 1
                else:
                    # Sessions near the model's context limit must retire
                    # (mirrors the engine's context_full eviction).
                    for sid in [s for s in live
                                if paged.length(s) + 1 > model.config.max_seq_len]:
                        paged.evict(sid)
                        del live[sid]
                        evicted += 1
                    if not live:
                        continue
                    ids = np.asarray(sorted(live), dtype=np.int64)
                    tokens = np.asarray([live[int(s)]["token"] for s in ids])
                    out = model.forward_step(tokens, paged, ids).data[0]
                    for row, sid in enumerate(ids):
                        state = live[int(sid)]
                        expected = model.forward_incremental(
                            np.asarray([[state["token"]]], dtype=np.int64),
                            state["cache"]).data[0, -1]
                        np.testing.assert_allclose(
                            out[row], expected, atol=1e-9, rtol=0,
                            err_msg=f"step {step}, session {int(sid)}")
                        state["token"] = int(np.argmax(expected))
                    decode_steps += 1
                paged.check_invariants()
        # The interleaving actually exercised all three operations.
        assert admitted >= 10 and evicted >= 5 and decode_steps >= 100
        for sid in list(live):
            paged.evict(sid)
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
        for prompt, handle in zip(prompts, handles):
            served = handle.result()
            reference = generate(model, prompt,
                                 max_new_tokens=served.num_inferences,
                                 stop_on_eos=False)
            assert served.token_ids == reference.token_ids
        stats = server.stats()
        assert stats.prefix_hits > 0 and stats.prefix_misses > 0
        assert stats.prefix_tokens_reused >= stats.prefix_hits
        manager = server._manager
        manager.cache.check_invariants(external_refs=manager.prefix.external_refs())
        assert manager.cache.num_sessions == 0


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
        manager = SessionManager(model, max_slots=4, block_size=4,
                                 prefix_cache=prefix)
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
        # The served path never takes generate()'s one-session route.
        monkeypatch.setattr(model, "forward_incremental", None)
        monkeypatch.setattr(model, "init_cache", None)

        def check():
            manager.cache.check_invariants(
                external_refs=manager.prefix.external_refs() if prefix else None)

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
            assert manager.prefix.hits == len(hits)
            assert all(s.metrics.prefix_tokens == 25 for s in hits)
        while manager.running:
            manager.step()
            check()
        for session in sessions:
            reference = generate(model, session.prompt, max_new_tokens=6,
                                 stop_on_eos=False)
            assert session.generated == reference.token_ids, session.prompt
        assert manager.cache.num_sessions == 0

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
        ``init_cache`` and ``forward_incremental`` made to raise: every served
        stream still equals what ``generate()`` recorded beforehand."""
        preamble = "predict the bandwidth: "
        prompts = ["ab", preamble + "history 1.0 2.0 3.0 1.0 2.0 3.0",
                   "a considerably longer prompt spanning many chunks",
                   preamble + "now", "status: ok; status: ok; status: ok; status:"]
        requests = [GenerateRequest(prompt=prompt, max_new_tokens=8,
                                    temperature=0.7 * (i % 2), seed=40 + i,
                                    stop_on_eos=False)
                    for i, prompt in enumerate(prompts)]
        expected = [generate(model, r.prompt, max_new_tokens=r.max_new_tokens,
                             temperature=r.temperature, seed=r.seed,
                             stop_on_eos=False).token_ids for r in requests]

        def removed(*args, **kwargs):
            raise AssertionError("the served path took generate()'s one-session route")

        monkeypatch.setattr(LanguageModel, "init_cache", removed)
        monkeypatch.setattr(LanguageModel, "forward_incremental", removed)
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=3, block_size=4, prefill_chunk_size=6,
            step_token_budget=24, speculation="ngram", speculation_k=3))
        server.register_prefix(preamble)
        handles = [server.submit(request) for request in requests]
        while server.has_pending_work():
            server.step()
            server._manager.cache.check_invariants(
                external_refs=server._manager.prefix.external_refs())
        assert [handle.result().token_ids for handle in handles] == expected
        stats = server.stats()
        assert stats.prefix_hits == 2 and stats.tokens_drafted > 0
        assert any(len(chunks) > 1 for chunks in _chunks_by_request(server).values())
        assert server._manager.cache.num_sessions == 0


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
        manager = SessionManager(model, max_slots=4, block_size=4)
        preamble = "bitrate selection task: "  # 25 tokens with BOS
        entry = manager.register_prefix(preamble)
        assert entry.length == len(model.tokenizer.encode(preamble, add_bos=True))
        # The whole head lives in pool blocks, its partial last one included.
        assert len(entry.block_ids) == manager.cache.blocks_needed(entry.length) == 7
        blocks_before = manager.cache.blocks_in_use

        session = GenerationSession(session_id=1, prompt=preamble + "now",
                                    max_new_tokens=6, stop_on_eos=False)
        manager.admit_many([session])
        # The session's table starts with the cached head's full blocks,
        # shared; the head's partial last block was copied before the tail
        # landed in it, so the entry's copy still holds the head alone.
        table = manager.cache.table(session.slot)
        assert table[:6] == entry.block_ids[:6]
        assert table[6] != entry.block_ids[6]
        assert session.metrics.prefix_tokens == entry.length
        # Shared mapping allocated only the blocks past the head's full ones.
        assert (manager.cache.blocks_in_use - blocks_before
                == manager.cache.blocks_needed(len(session.prompt_ids) - 6 * 4))
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())

        # Decode to completion; the stream must match standalone generate().
        while manager.num_running:
            manager.step()
        reference = generate(model, preamble + "now", max_new_tokens=6,
                             stop_on_eos=False)
        assert session.generated == reference.token_ids
        # Eviction returned the tail blocks but kept the cached head resident.
        assert manager.cache.blocks_in_use == blocks_before
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())

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
        assert entry.length % 4 == 1 and len(entry.block_ids) == 7
        tables = np.asarray([entry.block_ids])

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
        assert source == entry.block_ids[-1] and target not in entry.block_ids
        while server.has_pending_work():
            server.step()
            manager.cache.check_invariants(
                external_refs=manager.prefix.external_refs())
            assert head_bytes() == registered
        assert len(splits) == 1
        assert handle.result().token_ids == generate(
            model, preamble + "history 1.0 2.0", max_new_tokens=6,
            stop_on_eos=False).token_ids
        assert manager.prefix.hits == 1 and manager.cache.num_sessions == 0

    def test_prefix_miss_and_strictness(self, model):
        manager = SessionManager(model, max_slots=2, block_size=4)
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
        assert manager.prefix.hits == 1 and manager.prefix.misses == 2

    def test_longest_prefix_wins(self, model):
        manager = SessionManager(model, max_slots=2, block_size=4)
        short = manager.register_prefix("abcd")
        long = manager.register_prefix("abcdefgh")
        prompt = model.tokenizer.encode("abcdefghij", add_bos=True)
        assert manager.prefix.match(prompt) is long
        assert manager.prefix.match(
            model.tokenizer.encode("abcdef", add_bos=True)) is short

    def test_lru_eviction_releases_blocks(self, model):
        manager = SessionManager(model, max_slots=2, block_size=4,
                                 max_prefixes=2)
        first = manager.register_prefix("first preamble text")
        manager.register_prefix("second preamble text")
        held = manager.cache.blocks_in_use
        third = manager.register_prefix("third preamble text!")  # evicts "first" (LRU)
        assert len(manager.prefix) == 2
        assert manager.prefix.match(
            model.tokenizer.encode("first preamble text plus", add_bos=True)) is None
        # first's blocks (5 full) were released; third's (5 full and a
        # partial one) were allocated.
        assert (manager.cache.blocks_in_use
                == held - len(first.block_ids) + len(third.block_ids) == held + 1)
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())
        assert manager.cache.blocks_in_use == manager.prefix.blocks_held

    def test_register_validation(self, model):
        manager = SessionManager(model, max_slots=2)
        with pytest.raises(ValueError, match="empty"):
            manager.prefix.register_ids(())
        with pytest.raises(ValueError, match="no room for a tail"):
            manager.prefix.register("x" * model.config.max_seq_len)
        # A head that can never match a prompt truncated to max_context must
        # be rejected too — otherwise it would hold unmatchable pool blocks.
        capped = SessionManager(model, max_slots=2, max_context=32, block_size=4)
        with pytest.raises(ValueError, match="no room for a tail"):
            capped.register_prefix("y" * 40)
        capped.register_prefix("y" * 20)  # within the serving context: fine
        disabled = SessionManager(model, max_slots=2, prefix_cache=False)
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
        allocator.share(block)
        assert not allocator.release(block)  # still referenced
        assert allocator.release(block)      # last reference frees it
        with pytest.raises(ValueError, match="double free"):
            allocator.release(block)
        with pytest.raises(ValueError, match="not allocated"):
            allocator.share(block)

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
            cache_a, _ = _prefill(model, [1, 2, 3, 4, 5])
            cache_b, _ = _prefill(model, [6, 7, 8])
            sid_a = paged.admit(cache_a)
            sid_b = paged.admit(cache_b)
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
            counters=ServeCounters(prefix_hits=3, prefix_misses=1,
                                   prefix_tokens_reused=75))
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
                 telemetry={"enabled": True, "windows": []}),
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

        stats = ServerStats.from_requests(requests, wall_seconds=10.0,
                                          occupancy_samples=[1],
                                          queue_depth_samples=[0])
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
        for seed, handle in enumerate(handles):
            reference = generate(model, "sample me", max_new_tokens=12,
                                 temperature=0.8, seed=seed, stop_on_eos=False)
            assert handle.result().token_ids == reference.token_ids

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
        for i, result in enumerate(results):
            reference = generate(model, f"t{i}", max_new_tokens=6, stop_on_eos=False)
            assert result.token_ids == reference.token_ids

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

    def test_serves_training_mode_dropout_model(self):
        # generate() switches to eval and restores; the engine must do the
        # same or KV-cached attention rejects the dropout model.
        config = LLMConfig(name="serve-drop", family="test", d_model=32,
                           num_layers=2, num_heads=2, max_seq_len=64, dropout=0.2)
        dropout_model = LanguageModel(config, seed=0)
        assert dropout_model.training
        server = InferenceServer(dropout_model, SchedulerPolicy(max_batch_size=2))
        handle = server.submit_generation("abc", max_new_tokens=8, stop_on_eos=False)
        served = handle.result()
        reference = generate(dropout_model, "abc", max_new_tokens=8, stop_on_eos=False)
        assert served.token_ids == reference.token_ids
        assert dropout_model.training  # mode restored

    def test_no_mode_flips_without_active_dropout(self, monkeypatch):
        # A training-mode model whose dropouts are all p = 0 computes the
        # same thing in either mode: the manager decides that once and never
        # walks the module tree around a forward.  Dropout switched on
        # *after* that decision must fail loudly, not serve dropped tokens.
        from repro.nn import Dropout, Module
        from repro.serve import RequestFailed

        config = LLMConfig(name="serve-nodrop", family="test", d_model=32,
                           num_layers=2, num_heads=2, max_seq_len=64)
        plain = LanguageModel(config, seed=0)
        assert plain.training and not plain.has_active_dropout()
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
        for module in plain.modules():
            if isinstance(module, Dropout):
                module.p = 0.2
        assert plain.has_active_dropout()
        late = server.submit(GenerateRequest(prompt="abd", max_new_tokens=4))
        with pytest.raises(RequestFailed, match="dropout"):
            late.result()

    def test_long_prompt_first_token_matches_generate(self, model):
        # Prompt longer than the context: the engine prefills the same
        # trailing window generate() uses, so the first token agrees; the
        # session then finishes at the context cap instead of sliding.
        prompt = "x" * (model.config.max_seq_len + 20)
        served = InferenceServer(model).submit(GenerateRequest(
            prompt=prompt, max_new_tokens=30, stop_on_eos=False)).result()
        reference = generate(model, prompt, max_new_tokens=30, stop_on_eos=False)
        assert served.token_ids[0] == reference.token_ids[0]
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
        assert scheduler.admitted_total == 5

    def test_queue_bound(self):
        scheduler = ContinuousBatchingScheduler(SchedulerPolicy(max_queue=2))
        assert scheduler.enqueue(self._session(0))
        assert scheduler.enqueue(self._session(1))
        assert not scheduler.enqueue(self._session(2))
        assert scheduler.rejected_total == 1

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
        with pytest.raises(ValueError, match="max_slots"):
            SessionManager(model, max_slots=0)


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
        server._manager.cache.check_invariants(
            external_refs=server._manager.prefix.external_refs()
            if server._manager.prefix else None)

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
        with pytest.raises(ValueError, match="deadline_s"):
            GenerateRequest(prompt="x", deadline_s=0.0)
        with pytest.raises(TypeError, match="priority"):
            GenerateRequest(prompt="x", priority="high")
        with pytest.raises(TypeError, match="prompt"):
            GenerateRequest(prompt=123)

    def test_decision_request_validation(self):
        with pytest.raises(TypeError, match="task"):
            DecisionRequest(task="")
        with pytest.raises(ValueError, match="deadline_s"):
            DecisionRequest(task="vp", deadline_s=-1.0)

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
            reference = generate(model, f"stream {i}", max_new_tokens=8,
                                 stop_on_eos=False)
            assert result.token_ids == reference.token_ids

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
        reference = generate(model, "after", max_new_tokens=3, stop_on_eos=False)
        assert after.result().token_ids == reference.token_ids

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
        prompts = {}
        handles = {}
        next_id = 0

        def check():
            manager.cache.check_invariants(
                external_refs=manager.prefix.external_refs()
                if manager.prefix else None)

        for step in range(150):
            action = rng.random()
            open_handles = [h for h in handles.values() if not h.done()]
            if action < 0.3 and len(handles) < 20:
                prompt = "".join(rng.choice(list("abc 123."))
                                 for _ in range(int(rng.integers(1, 20))))
                prompts[next_id] = prompt
                handles[next_id] = server.submit(GenerateRequest(
                    prompt=prompt, max_new_tokens=int(rng.integers(2, 10)),
                    stop_on_eos=False))
                next_id += 1
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
        for key, handle in handles.items():
            assert handle.done()
            try:
                result = handle.result()
            except RequestCancelled:
                cancelled += 1
                continue
            finished += 1
            reference = generate(model, prompts[key],
                                 max_new_tokens=result.num_inferences,
                                 stop_on_eos=False)
            assert result.token_ids == reference.token_ids
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
        for i, handle in enumerate(handles):
            reference = generate(model, f"q{i}", max_new_tokens=3,
                                 stop_on_eos=False)
            assert handle.result().token_ids == reference.token_ids

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


def _admit_chunked(model, paged, prompt_ids, chunk):
    """Prefill ``prompt_ids`` into ``paged`` chunk by chunk; return the
    session id, the resumable prefill cache and the final-position logits."""
    cache = model.init_cache()
    sid = None
    logits = None
    for start in range(0, len(prompt_ids), chunk):
        piece = np.asarray(prompt_ids[start:start + chunk], dtype=np.int64)[None, :]
        logits = model.forward_incremental(piece, cache)
        if sid is None:
            sid = paged.admit_rows(cache, lengths=[min(chunk, len(prompt_ids))])[0]
        else:
            paged.extend_session(sid, cache)
        paged.check_invariants()
    return sid, cache, logits.data[0, -1]


# ---------------------------------------------------------------------- #
# Chunked prefill: exact parity with one-shot prefill, lifecycle, budgets
# ---------------------------------------------------------------------- #
class TestChunkedPrefill:
    #: Chunk sizes deliberately straddle the block size (4 in these tests):
    #: smaller than a block, equal, not a divisor of the block, larger and
    #: non-divisible, and larger than the whole prompt (degenerate one-shot).
    CHUNKS = (1, 3, 4, 6, 64)

    def test_chunked_admission_exact_logit_parity(self, model):
        """Chunked prefill + decode == one-shot prefill + decode, exactly."""
        rng = np.random.default_rng(5)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=23).tolist()
        for chunk in self.CHUNKS:
            paged = model.init_paged_cache(max_sessions=4, block_size=4)
            with no_grad():
                one_shot_cache, _ = _prefill(model, prompt)
                reference = model.forward_incremental(
                    np.asarray(prompt, dtype=np.int64)[None, :],
                    model.init_cache()).data[0, -1]
                sid_ref = paged.admit(one_shot_cache)
                sid_chunked, _, last_logits = _admit_chunked(
                    model, paged, prompt, chunk)
                np.testing.assert_allclose(last_logits, reference, atol=1e-9,
                                           rtol=0, err_msg=f"chunk={chunk}")
                # Both sessions now decode together; every step must agree.
                token = int(np.argmax(last_logits))
                ids = np.asarray([sid_ref, sid_chunked], dtype=np.int64)
                for _ in range(6):
                    out = model.forward_step(np.asarray([token, token]),
                                             paged, ids).data[0]
                    np.testing.assert_allclose(out[1], out[0], atol=1e-9,
                                               rtol=0, err_msg=f"chunk={chunk}")
                    token = int(np.argmax(out[0]))
                    paged.check_invariants()

    def test_extend_session_copy_on_write_on_forked_tail(self, model):
        """Extending a session whose partial tail is shared splits it first."""
        rng = np.random.default_rng(9)
        vocab = model.tokenizer.vocab_size
        prompt = rng.integers(0, vocab, size=10).tolist()
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache = model.init_cache()
            model.forward_incremental(
                np.asarray(prompt[:6], dtype=np.int64)[None, :], cache)
            sid = paged.admit_rows(cache, lengths=[6])[0]
            clone = paged.fork(sid)  # shares the partially filled tail block
            shared_tail = paged.table(sid)[-1]
            model.forward_incremental(
                np.asarray(prompt[6:], dtype=np.int64)[None, :], cache)
            paged.extend_session(sid, cache)
            # The original got its own tail copy; the clone kept the old one.
            assert paged.table(sid)[1] != shared_tail
            assert paged.table(clone)[-1] == shared_tail
            paged.check_invariants()
            # Both decode exactly like independent references.
            ref_full, _ = _prefill(model, prompt)
            ref_part, _ = _prefill(model, prompt[:6])
            for token in (3, 7):
                out = model.forward_step(np.asarray([token, token]), paged,
                                         np.asarray([sid, clone])).data[0]
                exp_full = model.forward_incremental(
                    np.asarray([[token]], dtype=np.int64), ref_full).data[0, -1]
                exp_part = model.forward_incremental(
                    np.asarray([[token]], dtype=np.int64), ref_part).data[0, -1]
                np.testing.assert_allclose(out[0], exp_full, atol=1e-9, rtol=0)
                np.testing.assert_allclose(out[1], exp_part, atol=1e-9, rtol=0)
                paged.check_invariants()

    def test_extend_session_validation(self, model):
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        with no_grad():
            cache, _ = _prefill(model, [1, 2, 3])
            sid = paged.admit(cache)
            with pytest.raises(ValueError, match="cannot extend"):
                paged.extend_session(sid, cache)  # nothing new in the cache
            with pytest.raises(ValueError, match="not live"):
                paged.extend_session(sid + 999, cache)
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
        for prompt, handle in zip(prompts, handles):
            reference = generate(model, prompt, max_new_tokens=6,
                                 stop_on_eos=False)
            assert handle.result().token_ids == reference.token_ids
        manager = server._manager
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs()
            if manager.prefix else None)
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
        reference = generate(model, long_prompt, max_new_tokens=4,
                             stop_on_eos=False)
        assert long.result().token_ids == reference.token_ids
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
        reference = generate(model, "s" * 30, max_new_tokens=6,
                             stop_on_eos=False)
        assert result.token_ids == reference.token_ids

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
        prompts, handles = {}, {}
        next_id = 0
        saw_prefilling = 0

        def check():
            manager.cache.check_invariants(
                external_refs=manager.prefix.external_refs()
                if manager.prefix else None)

        for _ in range(180):
            action = rng.random()
            open_handles = [h for h in handles.values() if not h.done()]
            if action < 0.3 and len(handles) < 24:
                length = int(rng.integers(1, 40))  # many prompts span chunks
                prompt = "".join(rng.choice(list("abc 123.")) for _ in range(length))
                prompts[next_id] = prompt
                handles[next_id] = server.submit(GenerateRequest(
                    prompt=prompt, max_new_tokens=int(rng.integers(2, 8)),
                    stop_on_eos=False))
                next_id += 1
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
        for key, handle in handles.items():
            assert handle.done()
            try:
                result = handle.result()
            except RequestCancelled:
                cancelled += 1
                continue
            finished += 1
            reference = generate(model, prompts[key],
                                 max_new_tokens=result.num_inferences,
                                 stop_on_eos=False)
            assert result.token_ids == reference.token_ids
        assert cancelled >= 3 and finished >= 5

    def test_prefix_eviction_between_match_and_first_chunk_falls_back(self, model):
        """Review regression: a budget-starved session whose matched head is
        LRU-evicted before its first chunk must cold-prefill, not seed from
        pool blocks that now hold a different head's K/V."""
        from repro.serve.session import PREFILLING

        manager = SessionManager(model, max_slots=2, block_size=4,
                                 max_prefixes=1)
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
        reference = generate(model, prompt, max_new_tokens=4, stop_on_eos=False)
        assert session.generated == reference.token_ids
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())

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
        for handle, prompt in ((low, "low"), (high, "high")):
            reference = generate(model, prompt, max_new_tokens=2,
                                 stop_on_eos=False)
            assert handle.result().token_ids == reference.token_ids

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
        for i, (handle, prompt) in enumerate(zip(handles, prompts)):
            reference = generate(model, prompt, max_new_tokens=3,
                                 stop_on_eos=False,
                                 temperature=0.8 if i % 3 else 0.0, seed=100 + i)
            assert handle.result().token_ids == reference.token_ids
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
        manager = SessionManager(model, max_slots=2, block_size=4,
                                 max_prefixes=1)
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
        reference = generate(model, prompt, max_new_tokens=3, stop_on_eos=False)
        assert session.generated == reference.token_ids
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())

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
        manager = SessionManager(model, max_slots=4, block_size=4)
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
        reference = generate(model, "head text X", max_new_tokens=2,
                             stop_on_eos=False)
        assert session.generated == reference.token_ids
        manager.cache.check_invariants(
            external_refs=manager.prefix.external_refs())

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
def _decode_against_oracles(model, paged, ids, caches, tokens, steps):
    """Greedy-decode the batch ``steps`` times; every row must match its own
    sequential ``forward_incremental`` cache.  ``tokens`` is advanced in place."""
    for _ in range(steps):
        out = model.forward_step(np.asarray(tokens), paged,
                                 np.asarray(ids, dtype=np.int64)).data[0]
        for row, cache in enumerate(caches):
            expected = model.forward_incremental(
                np.asarray([[tokens[row]]], dtype=np.int64), cache).data[0, -1]
            np.testing.assert_allclose(out[row], expected, atol=1e-9, rtol=0)
            tokens[row] = int(np.argmax(expected))
        paged.check_invariants()


class TestPrepareStepPlanCache:
    def test_steady_decode_then_a_batch_change_stay_exact(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=8)
        with no_grad():
            cache_a, token_a = _prefill(model, [1, 2, 3])
            cache_b, token_b = _prefill(model, [4, 5, 6, 7])
            ids = [paged.admit(cache_a), paged.admit(cache_b)]
            tokens = [token_a, token_b]
            # Lengths 3 and 4: four steps inside the current tail blocks, then
            # session A (length 8) and session B cross into a second block.
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=7)
            assert [len(paged.table(sid)) for sid in ids] == [2, 2]
            # A different batch composition on the very next step, and back.
            solo = tokens[:1]
            _decode_against_oracles(model, paged, ids[:1], [cache_a], solo, steps=2)
            tokens[0] = solo[0]
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=2)

    def test_boundary_crossing_updates_single_row(self, model):
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache_a, token_a = _prefill(model, [1, 2])        # length 2
            cache_b, token_b = _prefill(model, [3, 4, 5, 6, 7, 8])  # length 6
            ids = [paged.admit(cache_a), paged.admit(cache_b)]
            tokens = [token_a, token_b]
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=2)  # lengths 4, 8
            table_a = paged.table(ids[0])
            # Next step A writes position 4 and B position 8: each appends a
            # block, B's table becomes the widest the batch has had.
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=1)
            assert paged.table(ids[0])[:-1] == table_a
            assert [len(paged.table(sid)) for sid in ids] == [2, 3]
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=4)

    def test_plan_survives_unrelated_eviction(self, model):
        """Evicting a session outside the batch must not corrupt the plan."""
        paged = model.init_paged_cache(max_sessions=4, block_size=4)
        with no_grad():
            cache_a, token_a = _prefill(model, [1, 2, 3])
            cache_b, token_b = _prefill(model, [4, 5])
            cache_c, _ = _prefill(model, [6, 7, 8, 9, 10])
            ids = [paged.admit(cache_a), paged.admit(cache_b)]
            sid_c = paged.admit(cache_c)
            tokens = [token_a, token_b]
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=1)
            paged.evict(sid_c)  # frees a table row; the batch's rows are unchanged
            _decode_against_oracles(model, paged, ids, [cache_a, cache_b],
                                    tokens, steps=1)

    def test_stepping_an_evicted_session_still_raises(self, model):
        paged = model.init_paged_cache(max_sessions=2, block_size=4)
        with no_grad():
            cache, token = _prefill(model, [1, 2, 3])
            sid = paged.admit(cache)
            model.forward_step(np.asarray([token]), paged,
                               np.asarray([sid], dtype=np.int64))
            paged.evict(sid)
            with pytest.raises(ValueError, match="not live"):
                model.forward_step(np.asarray([token]), paged,
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
