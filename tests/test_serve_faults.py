"""Chaos suite for the fault-isolated serving engine.

Covers the deterministic :class:`FaultInjector` (env gating, scripted
triggers, seeded replay), per-request quarantine (blast radius, pool
soundness, escalation), bounded retries, overload shedding, the health
surface, and the randomized seeded chaos property test that pins exact
parity between a faulty run's survivors and the fault-free reference run.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from reference import always_draft, standalone

from repro.llm import LanguageModel, build_llm
from repro.llm.config import LLMConfig
from repro.serve import (
    FAULT_SITES,
    DeadlineExceeded,
    DecisionRequest,
    FaultInjector,
    FaultSpec,
    GenerateRequest,
    InferenceServer,
    InjectedFault,
    RequestCancelled,
    RequestFailed,
    RetryPolicy,
    SchedulerPolicy,
    ServerHealth,
    ServerOverloaded,
    TransientFault,
)
from repro.serve.faults import injection_allowed
from repro.serve.session import GenerationSession, SessionManager


@pytest.fixture(scope="module")
def model():
    config = LLMConfig(name="faults-test", family="test", d_model=32,
                       num_layers=2, num_heads=2, max_seq_len=64)
    return LanguageModel(config, seed=3)


@pytest.fixture(autouse=True)
def _arm_faults(monkeypatch):
    """Arm the REPRO_FAULTS gate for every test in this module."""
    monkeypatch.setenv("REPRO_FAULTS", "1")


def _invariants(server):
    server._manager.cache.check_invariants()


class _EchoRuntime:
    """Trivial decision runtime: one shared group, echoes payloads doubled."""

    def group_key(self, request):
        return ()

    def execute_batch(self, requests):
        return [request.payload * 2 for request in requests]


# ---------------------------------------------------------------------- #
# FaultInjector unit behaviour
# ---------------------------------------------------------------------- #
class TestFaultInjector:
    def test_env_gate_blocks_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not injection_allowed()
        with pytest.raises(RuntimeError, match="REPRO_FAULTS"):
            FaultInjector([FaultSpec(site="decode.step", at=1)])
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert not injection_allowed()
        monkeypatch.setenv("REPRO_FAULTS", "true")
        assert injection_allowed()
        FaultInjector([])  # armed: constructs fine

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope.nope", at=1)
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(site="decode.step", action="explode", at=1)
        with pytest.raises(ValueError, match="exactly one trigger"):
            FaultSpec(site="decode.step")
        with pytest.raises(ValueError, match="exactly one trigger"):
            FaultSpec(site="decode.step", at=1, every=2)
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(site="decode.step", at=0)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(site="decode.step", rate=1.5)
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultInjector(["decode.step"])

    def test_at_and_every_triggers(self):
        injector = FaultInjector([
            FaultSpec(site="decode.step", at=2),
            FaultSpec(site="prefill.rows", every=3, max_fires=2),
        ])
        fired = []
        for visit in range(1, 10):
            try:
                injector.fire("decode.step")
            except InjectedFault as fault:
                fired.append(("decode.step", fault.occurrence))
            try:
                injector.fire("prefill.rows")
            except InjectedFault as fault:
                fired.append(("prefill.rows", fault.occurrence))
        # at=2 fires exactly once; every=3 fires on visits 3 and 6 only
        # (max_fires=2 suppresses visit 9).
        assert fired == [("decode.step", 2), ("prefill.rows", 3),
                         ("prefill.rows", 6)]
        assert injector.visit_count("decode.step") == 9
        assert injector.total_fired == 3

    def test_rate_trigger_is_seeded_deterministic(self):
        def run(seed):
            injector = FaultInjector(
                [FaultSpec(site="decode.step", rate=0.3)], seed=seed)
            fires = []
            for _ in range(50):
                try:
                    injector.fire("decode.step")
                except InjectedFault:
                    fires.append(injector.visit_count("decode.step"))
            return fires

        assert run(7) == run(7)  # same seed: identical fault sequence
        assert run(7) != run(8)  # different seed: different sequence
        assert 0 < len(run(7)) < 50

    def test_transient_classification(self):
        injector = FaultInjector([
            FaultSpec(site="decode.step", at=1, transient=True)])
        with pytest.raises(TransientFault) as info:
            injector.fire("decode.step")
        assert info.value.transient
        assert isinstance(info.value, InjectedFault)
        assert RetryPolicy().is_retryable(info.value)
        assert not RetryPolicy().is_retryable(InjectedFault("decode.step", 1))

    def test_corrupt_perturbs_payload_deterministically(self):
        payload_a = np.zeros(8)
        payload_b = np.zeros(8)
        for payload in (payload_a, payload_b):
            injector = FaultInjector(
                [FaultSpec(site="decode.logits", action="corrupt", at=1,
                           corrupt_scale=0.5)], seed=11)
            injector.fire("decode.logits", payload=payload)
        assert np.any(payload_a != 0)
        np.testing.assert_array_equal(payload_a, payload_b)
        # No payload at the site: corrupt is a no-op, not an error.
        injector = FaultInjector(
            [FaultSpec(site="decode.logits", action="corrupt", at=1)])
        injector.fire("decode.logits")

    def test_delay_action_sleeps(self):
        injector = FaultInjector(
            [FaultSpec(site="decode.step", action="delay", at=1,
                       delay_s=0.05)])
        start = time.perf_counter()
        injector.fire("decode.step")
        assert time.perf_counter() - start >= 0.05

    def test_site_catalog_is_documented(self):
        assert set(FAULT_SITES) == {
            "runtime.execute_batch", "prefill.rows", "draft.propose",
            "decode.step", "decode.logits"}
        for site, where in FAULT_SITES.items():
            assert "on a raise" in where, f"site {site!r} states no recovery"

    def test_every_catalog_site_is_reached(self, model):
        """REP003 proves a ``fire`` literal exists for every catalog entry;
        this proves a served run reaches each one: a decision through a
        stub runtime, n-gram speculation over decoding rows, a chunked
        prompt and a prefix hit."""
        injector = FaultInjector([])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=4, prefill_chunk_size=8,
                                   speculation="ngram"),
            runtimes={"echo": _EchoRuntime()}, fault_injector=injector)
        head = "a shared head "
        server.register_prefix(head)
        handles = [server.submit(GenerateRequest(prompt=prompt, max_new_tokens=6,
                                                 stop_on_eos=False))
                   for prompt in ("tok " * 12, head + "tail", "ab ab ab ab")]
        handles.append(server.submit(DecisionRequest(task="echo", payload=21)))
        server.run_until_idle()
        assert handles[-1].result(timeout=5) == 42
        assert all(len(h.result(timeout=5).token_ids) == 6 for h in handles[:3])
        assert server.stats().prefix_hits == 1
        assert len([sid for record in server.telemetry.records()
                    for sid, _ in record.prefill_chunks
                    if sid == handles[0].request_id]) > 1  # chunked
        assert set(injector.visits) == set(FAULT_SITES)


# ---------------------------------------------------------------------- #
# Quarantine: fault isolation with pool soundness
# ---------------------------------------------------------------------- #
class TestQuarantine:
    def test_decode_fault_quarantines_batch_and_keeps_serving(self, model):
        injector = FaultInjector([FaultSpec(site="decode.step", at=2)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2),
                                 fault_injector=injector)
        doomed = [server.submit(GenerateRequest(prompt=f"d{i}",
                                                max_new_tokens=4,
                                                stop_on_eos=False))
                  for i in range(2)]
        server.run_until_idle()
        for handle in doomed:
            with pytest.raises(RequestFailed, match="decode step"):
                handle.result(timeout=5)
        _invariants(server)
        assert server._manager.cache.num_sessions == 0  # blocks reclaimed
        # The engine keeps serving: a fresh request completes normally.
        survivor = server.submit(GenerateRequest(prompt="ok",
                                                 max_new_tokens=4,
                                                 stop_on_eos=False))
        server.run_until_idle()
        assert len(survivor.result(timeout=5).token_ids) == 4
        stats = server.stats()
        assert stats.failed == 2
        assert stats.faults_quarantined == 1
        assert stats.requests_completed == 1

    def test_nan_decode_logits_quarantine_the_sampled_batch(self, model):
        """A sampled decode row whose logits are NaN cannot be drawn: the step
        raises ``ValueError`` and the engine quarantines the decode batch
        like any decode fault, with the pool sound."""
        injector = FaultInjector([FaultSpec(
            site="decode.logits", action="corrupt", at=1,
            corrupt_scale=float("nan"))])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2),
                                 fault_injector=injector)
        doomed = [server.submit(GenerateRequest(
            prompt=f"n{i}", max_new_tokens=4, temperature=1.0,
            stop_on_eos=False)) for i in range(2)]
        server.run_until_idle()
        assert injector.total_fired == 1
        for handle in doomed:
            with pytest.raises(RequestFailed, match="decode step") as info:
                handle.result(timeout=5)
            assert isinstance(info.value.cause, ValueError)
            assert "NaN" in str(info.value.cause)
        _invariants(server)
        assert server._manager.cache.num_sessions == 0
        assert server.stats().faults_quarantined == 1

    def test_request_failed_chains_original_error(self, model):
        injector = FaultInjector([FaultSpec(site="decode.step", at=1)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1),
                                 fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed) as info:
            handle.result(timeout=5)
        assert isinstance(info.value.cause, InjectedFault)
        assert info.value.__cause__ is info.value.cause
        assert "injected fault at 'decode.step'" in str(info.value)

    def test_single_prefill_fault_is_absorbed_by_per_session_retry(self, model):
        # A batched prefill forward that faults once is retried session by
        # session (the admission fallback); one prefill fault is absorbed
        # transparently and the request still completes.
        injector = FaultInjector([FaultSpec(site="prefill.rows", at=1)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2),
                                 fault_injector=injector)
        first = server.submit(GenerateRequest(prompt="aaa", max_new_tokens=3,
                                              stop_on_eos=False))
        server.run_until_idle()
        assert len(first.result(timeout=5).token_ids) == 3
        assert injector.total_fired == 1
        _invariants(server)

    def test_persistent_prefill_fault_quarantines_only_that_admission(self, model):
        # Both the batched forward and the per-session retry fault: now the
        # admission is quarantined, its pool session gone — and only this
        # admission, the next submission (fires exhausted) completes.
        injector = FaultInjector(
            [FaultSpec(site="prefill.rows", every=1, max_fires=2)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2),
                                 fault_injector=injector)
        first = server.submit(GenerateRequest(prompt="aaa", max_new_tokens=3,
                                              stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed, match="prefill"):
            first.result(timeout=5)
        _invariants(server)
        assert server._manager.cache.num_sessions == 0
        second = server.submit(GenerateRequest(prompt="bbb", max_new_tokens=3,
                                               stop_on_eos=False))
        server.run_until_idle()
        assert len(second.result(timeout=5).token_ids) == 3

    def test_chunked_prefill_fault_quarantined(self, model):
        # Visit 1 is the short prompt's one-shot forward.  Visit 2 is the
        # decode forward its first token rides into with the long prompt's
        # first chunk: it faults, and so does the chunk row retried alone
        # (visit 3).  The blast radius is that one request — the short one,
        # whose decode row then runs alone, completes.
        injector = FaultInjector([FaultSpec(site="prefill.rows", at=2),
                                  FaultSpec(site="prefill.rows", at=3)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=2, prefill_chunk_size=4),
            fault_injector=injector)
        long_prompt = "tok " * 12  # several chunks
        doomed = server.submit(GenerateRequest(prompt=long_prompt,
                                               max_new_tokens=3,
                                               stop_on_eos=False))
        short = server.submit(GenerateRequest(prompt="hi", max_new_tokens=3,
                                              stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed, match="prefill"):
            doomed.result(timeout=5)
        assert len(short.result(timeout=5).token_ids) == 3
        assert injector.fired_log == [("prefill.rows", 2, "raise"),
                                      ("prefill.rows", 3, "raise")]
        _invariants(server)

    def test_single_chunk_fault_is_absorbed_by_the_one_at_a_time_retry(self, model):
        # Visit 1 is the first chunk's forward, visit 2 the second's.
        injector = FaultInjector([FaultSpec(site="prefill.rows", at=2)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=2, prefill_chunk_size=4),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="tok " * 12,
                                               max_new_tokens=3,
                                               stop_on_eos=False))
        server.run_until_idle()
        assert len(handle.result(timeout=5).token_ids) == 3
        assert injector.total_fired == 1
        _invariants(server)

    def test_a_raise_inside_the_riding_forward_rolls_every_row_back(
            self, model, monkeypatch):
        """A decode forward carrying a riding chunk raises after its plan
        grew every row's table (both decoders cross a block boundary, the
        new chunk row holds two blocks): every row is rolled back, the chunk
        is retried alone, the decode rows run alone — nobody fails and every
        stream is token-exact."""
        from repro.nn import MultiHeadAttention

        greedy = dict(max_new_tokens=6, stop_on_eos=False)
        prompts = ["abcdef", "ghijkl", "tok " * 12]  # 7, 7 and 49 tokens
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=4, block_size=4, prefill_chunk_size=8))
        handles = [server.submit(GenerateRequest(prompt=p, **greedy))
                   for p in prompts[:2]]
        server.step()  # both one-shot, then one decode token: length 8
        handles.append(server.submit(GenerateRequest(prompt=prompts[2], **greedy)))
        forward_step, raised = MultiHeadAttention.forward_step, []
        prefill_alone, retried = SessionManager._prefill_alone, []

        def flaky(self, x, layer_cache, step):
            if not raised:
                raised.append(len(step.session_ids))
                raise RuntimeError("mid-forward failure")
            return forward_step(self, x, layer_cache, step)

        def checked(self, rows):
            _invariants(server)  # all rolled back before anything is retried
            retried.append(len(rows))
            return prefill_alone(self, rows)

        monkeypatch.setattr(MultiHeadAttention, "forward_step", flaky)
        monkeypatch.setattr(SessionManager, "_prefill_alone", checked)
        server.step()
        monkeypatch.undo()
        assert raised == [3] and retried == [1]  # decoders and chunk, together
        _invariants(server)
        assert handles[2]._session.prompt_pos == 8
        server.run_until_idle()
        assert not any(r.quarantines for r in server.telemetry.records())
        for handle in handles:
            assert handle.result(timeout=5).token_ids == standalone(model, handle.request)
        _invariants(server)
        assert server._manager.cache.num_sessions == 0

    def test_prefill_site_fires_before_any_pool_mutation(self, model):
        """A mixed forward — a new one-shot row behind a prefix hit beside a
        row mid-prompt — raises at ``prefill.rows``: sessions and pool are as
        they were, and the same call then succeeds."""
        # Visit 1 is the first chunk's forward; visit 2 the mixed one.
        injector = FaultInjector([FaultSpec(site="prefill.rows", at=2)])
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4), fault_injector=injector)
        head = "shared head 123"
        manager.register_prefix(head)
        resumed = GenerationSession(session_id=1, prompt="a prompt in two chunks",
                                    max_new_tokens=3, stop_on_eos=False)
        manager.prefill_chunk(resumed, 6)  # visit 1: no fault
        hit = GenerationSession(session_id=2, prompt=head + " tail",
                                max_new_tokens=3, stop_on_eos=False)
        manager._prepare_prompt(hit)
        rows = [resumed, hit]
        takes = [len(s.prompt_ids) - s.prompt_pos for s in rows]

        def facts():
            cache = manager.cache
            return (cache.blocks_in_use, cache.num_sessions, cache.length(resumed.slot),
                    cache.table(resumed.slot), cache.allocator.refcounts.tolist(),
                    [(s.state, s.slot, s.prompt_pos) for s in rows])

        before = facts()
        with pytest.raises(InjectedFault, match="prefill.rows"):
            manager.prefill_chunk_group(rows, takes)
        assert facts() == before
        manager.cache.check_invariants()
        manager.prefill_chunk_group(rows, takes)
        while manager.running:
            manager.step()
        for session in rows:
            assert session.generated == standalone(model, session)
        manager.cache.check_invariants()
        assert manager.cache.sessions == manager.prefix.sessions

    def test_decision_fault_blast_radius_is_one_batch(self, model):
        """Satellite regression test: a runtime raising inside one decision
        batch fails exactly that batch's handles — the concurrently queued
        generation session and later decision batches are untouched."""
        injector = FaultInjector(
            [FaultSpec(site="runtime.execute_batch", at=1)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=2),
                                 runtimes={"echo": _EchoRuntime()},
                                 fault_injector=injector)
        generation = server.submit(GenerateRequest(prompt="gen",
                                                   max_new_tokens=4,
                                                   stop_on_eos=False))
        doomed = [server.submit(DecisionRequest(task="echo", payload=i))
                  for i in range(3)]
        server.run_until_idle()
        for handle in doomed:  # the faulted batch: exactly these fail
            with pytest.raises(RequestFailed, match="decision batch"):
                handle.result(timeout=5)
        assert len(generation.result(timeout=5).token_ids) == 4
        after = server.submit(DecisionRequest(task="echo", payload=21))
        server.run_until_idle()
        assert after.result(timeout=5) == 42
        stats = server.stats()
        assert stats.failed == 3
        assert stats.faults_quarantined == 1
        _invariants(server)

    def test_invariant_violation_escalates_to_crash_guard(self, model):
        """Quarantine that cannot prove the pool sound must fail everything:
        the engine turns FAILED and the error reaches the driver."""
        injector = FaultInjector([FaultSpec(site="decode.step", at=1)])
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1),
                                 fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))

        def violated():
            raise AssertionError("refcount mismatch (simulated)")

        server._manager.cache.check_invariants = violated
        with pytest.raises(RuntimeError, match="unrecoverable fault"):
            server.run_until_idle()
        assert handle.done()
        with pytest.raises(RuntimeError, match="unrecoverable fault"):
            handle.result(timeout=5)
        assert server.health == ServerHealth.FAILED
        assert server.stats().health == ServerHealth.FAILED

    def test_health_degrades_after_quarantine_then_recovers(self, model):
        injector = FaultInjector([FaultSpec(site="decode.step", at=1)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1, health_window_s=0.2),
            fault_injector=injector)
        assert server.health == ServerHealth.HEALTHY
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed):
            handle.result(timeout=5)
        assert server.health == ServerHealth.DEGRADED
        time.sleep(0.25)  # the fault ages out of the health window
        assert server.health == ServerHealth.HEALTHY


# ---------------------------------------------------------------------- #
# Bounded retries
# ---------------------------------------------------------------------- #
class TestRetries:
    def test_transient_generation_fault_retries_to_completion(self, model):
        injector = FaultInjector(
            [FaultSpec(site="decode.step", at=1, transient=True)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=2,
                                   retry_policy=RetryPolicy(max_attempts=2)),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="retry me",
                                               max_new_tokens=4,
                                               stop_on_eos=False))
        server.run_until_idle()
        assert len(handle.result(timeout=10).token_ids) == 4
        assert handle.metrics.attempts == 2
        stats = server.stats()
        assert stats.retries == 1
        assert stats.faults_quarantined == 1
        assert stats.failed == 0
        assert stats.requests_completed == 1
        _invariants(server)

    def test_retry_result_matches_fault_free_run(self, model):
        reference = InferenceServer(model, SchedulerPolicy(max_batch_size=2))
        expected = reference.submit(GenerateRequest(
            prompt="parity", max_new_tokens=5, stop_on_eos=False))
        reference.run_until_idle()
        injector = FaultInjector(
            [FaultSpec(site="decode.step", at=2, transient=True)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=2,
                                   retry_policy=RetryPolicy(max_attempts=3)),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(
            prompt="parity", max_new_tokens=5, stop_on_eos=False))
        server.run_until_idle()
        assert handle.result(timeout=10).token_ids \
            == expected.result(timeout=10).token_ids

    def test_attempts_are_bounded(self, model):
        # Every decode step faults transiently: with max_attempts=2 the
        # request fails after its retry — retries never loop unbounded.
        injector = FaultInjector(
            [FaultSpec(site="decode.step", every=1, transient=True)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1,
                                   retry_policy=RetryPolicy(max_attempts=2)),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed):
            handle.result(timeout=10)
        assert handle.metrics.attempts == 2
        assert server.stats().retries == 1

    def test_permanent_fault_is_not_retried(self, model):
        injector = FaultInjector([FaultSpec(site="decode.step", at=1)])
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1,
                                   retry_policy=RetryPolicy(max_attempts=3)),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=2,
                                               stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed):
            handle.result(timeout=5)
        assert handle.metrics.attempts == 1
        assert server.stats().retries == 0

    def test_retry_on_classifies_custom_errors(self, model):
        policy = RetryPolicy(max_attempts=2, retry_on=(KeyError,))
        assert policy.is_retryable(KeyError("missing"))
        assert not policy.is_retryable(ValueError("other"))
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(TypeError, match="exception types"):
            RetryPolicy(retry_on=("KeyError",))

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1,
                             backoff_multiplier=3.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.3)
        assert policy.backoff_for(3) == pytest.approx(0.9)
        assert RetryPolicy(backoff_s=0.0).backoff_for(2) == 0.0

    def test_backoff_parks_then_completes(self, model):
        injector = FaultInjector(
            [FaultSpec(site="decode.step", at=1, transient=True)])
        server = InferenceServer(
            model, SchedulerPolicy(
                max_batch_size=1,
                retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.05)),
            fault_injector=injector)
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=3,
                                               stop_on_eos=False))
        # After the quarantine the retry is parked: step() finds no runnable
        # work, but run_until_idle waits out the backoff instead of failing.
        server.run_until_idle()
        assert len(handle.result(timeout=10).token_ids) == 3
        assert handle.metrics.attempts == 2

    def test_transient_decision_fault_retries(self, model):
        injector = FaultInjector(
            [FaultSpec(site="runtime.execute_batch", at=1, transient=True)])
        server = InferenceServer(
            model, SchedulerPolicy(retry_policy=RetryPolicy(max_attempts=2)),
            runtimes={"echo": _EchoRuntime()}, fault_injector=injector)
        handles = [server.submit(DecisionRequest(task="echo", payload=i))
                   for i in range(3)]
        server.run_until_idle()
        assert [h.result(timeout=10) for h in handles] == [0, 2, 4]
        assert all(h.metrics.attempts == 2 for h in handles)
        assert server.stats().retries == 3  # one re-enqueue per entry


# ---------------------------------------------------------------------- #
# Overload shedding
# ---------------------------------------------------------------------- #
class TestShedding:
    def test_depth_shedding_rejects_with_typed_error(self, model):
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1, shed_queue_depth=2))
        handles = [server.submit(GenerateRequest(prompt=f"p{i}",
                                                 max_new_tokens=2,
                                                 stop_on_eos=False))
                   for i in range(4)]
        # Shed handles fail immediately, before any engine step.
        assert handles[2].done() and handles[3].done()
        for handle in handles[2:]:
            with pytest.raises(ServerOverloaded, match="queue depth"):
                handle.result(timeout=5)
        server.run_until_idle()
        for handle in handles[:2]:  # admitted work is protected, not shed
            assert len(handle.result(timeout=5).token_ids) == 2
        stats = server.stats()
        assert stats.shed == 2
        assert stats.requests_completed == 2

    def test_age_shedding_and_degraded_health(self, model):
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1, shed_queue_age_s=0.02))
        server.submit(GenerateRequest(prompt="old", max_new_tokens=2,
                                      stop_on_eos=False))
        blocked = server.submit(GenerateRequest(prompt="wait", max_new_tokens=2,
                                                stop_on_eos=False))
        time.sleep(0.05)  # the queued request ages past the shed bound
        assert server.health == ServerHealth.DEGRADED
        shed = server.submit(GenerateRequest(prompt="new", max_new_tokens=2,
                                             stop_on_eos=False))
        with pytest.raises(ServerOverloaded, match="waited"):
            shed.result(timeout=5)
        server.run_until_idle()
        assert blocked.result(timeout=5).token_ids  # queued work survived
        assert server.health == ServerHealth.HEALTHY

    def test_decision_depth_shedding(self, model):
        server = InferenceServer(
            policy=SchedulerPolicy(shed_queue_depth=2),
            runtimes={"echo": _EchoRuntime()})
        handles = [server.submit(DecisionRequest(task="echo", payload=i))
                   for i in range(4)]
        for handle in handles[2:]:
            with pytest.raises(ServerOverloaded):
                handle.result(timeout=5)
        server.run_until_idle()
        assert [h.result(timeout=5) for h in handles[:2]] == [0, 2]
        assert server.stats().shed == 2

    def test_shed_outcome_in_stats(self, model):
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=1, shed_queue_depth=1))
        ok = server.submit(GenerateRequest(prompt="a", max_new_tokens=2,
                                           stop_on_eos=False))
        shed = server.submit(GenerateRequest(prompt="b", max_new_tokens=2,
                                             stop_on_eos=False))
        server.run_until_idle()
        ok.result(timeout=5)
        with pytest.raises(ServerOverloaded):
            shed.result(timeout=5)
        report = server.stats().report()
        assert report["shed"] == 1
        assert report["failed"] == 0
        assert report["health"] == ServerHealth.HEALTHY


# ---------------------------------------------------------------------- #
# Engine shutdown diagnostics (satellite fixes)
# ---------------------------------------------------------------------- #
class TestShutdownDiagnostics:
    def test_stop_raises_loudly_on_wedged_loop_thread(self, model, monkeypatch):
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        monkeypatch.setattr(InferenceServer, "JOIN_TIMEOUT_S", 0.1)
        release = time.perf_counter() + 1.0

        def wedged_step():
            while time.perf_counter() < release:
                time.sleep(0.01)
            return False

        monkeypatch.setattr(server, "step", wedged_step)
        server.start()
        time.sleep(0.02)  # let the loop enter the wedged step
        with pytest.raises(RuntimeError, match="did not exit within"):
            server.stop(drain=False)
        # Cleanup: the wedge releases itself and the thread exits.
        time.sleep(1.1)

    def test_fail_all_pending_does_not_mask_original_error(self, model):
        """Satellite regression test: a failing per-session evict inside the
        crash guard must not replace the error every handle reports."""
        server = InferenceServer(model, SchedulerPolicy(max_batch_size=1))
        handle = server.submit(GenerateRequest(prompt="x", max_new_tokens=4,
                                               stop_on_eos=False))
        server.step()  # admit the session so the crash guard must evict it
        assert server._manager.num_running == 1

        def exploding_evict(session, reason="failed"):
            raise RuntimeError("evict exploded too")

        server._manager.evict = exploding_evict
        original = RuntimeError("the original fault")
        server._fail_all_pending(original)
        with pytest.raises(RuntimeError, match="the original fault"):
            handle.result(timeout=5)


# ---------------------------------------------------------------------- #
# One request lifecycle: every terminal route, both request kinds
# ---------------------------------------------------------------------- #
class _Abort(BaseException):
    """Escapes the per-phase ``except Exception`` quarantines: a step crash."""


def _gen(prompt, tokens=40, **options):
    return GenerateRequest(prompt=prompt, max_new_tokens=tokens,
                           stop_on_eos=False, **options)


def _echo(payload=21, **options):
    return DecisionRequest(task="echo", payload=payload, **options)


def _server(model, faults=(), **policy):
    policy.setdefault("max_batch_size", 1)
    return InferenceServer(
        model, SchedulerPolicy(**policy), runtimes={"echo": _EchoRuntime()},
        fault_injector=FaultInjector(list(faults)) if faults else None)


def _in_flight(server, request):
    """Submit ``request`` and take one step, so it holds the batch slot."""
    handle = server.submit(request)
    server.step()
    return handle


def _crash_step(server, attribute, owner):
    """Make the next step die of a BaseException raised from ``owner``."""
    def abort(*args, **kwargs):
        raise _Abort("step crashed")
    setattr(owner, attribute, abort)
    with pytest.raises(_Abort):
        server.step()


def _then(handle, *actions):
    """``act()`` for a route: run ``actions`` in order, hand back ``handle``."""
    def act():
        for action in actions:
            action()
        return handle
    return act


# Each route builds a server and returns ``(server, act)``; ``act()`` ends
# exactly one request — nothing else reaches a terminal state meanwhile —
# and returns its handle.
def _ok_generation(model):
    server = _server(model)
    handle = server.submit(_gen("ok", tokens=3))
    return server, _then(handle, server.run_until_idle)


def _ok_decision(model):
    server = _server(model)
    handle = server.submit(_echo())
    return server, _then(handle, server.run_until_idle)


def _cancel_queued(model):
    server = _server(model)
    _in_flight(server, _gen("blocker"))
    handle = server.submit(_gen("queued"))
    return server, _then(handle, handle.cancel)


def _cancel_running(model):
    server = _server(model)
    handle = _in_flight(server, _gen("running"))
    return server, _then(handle, handle.cancel)


def _cancel_decision(model):
    server = _server(model)
    handle = server.submit(_echo())
    return server, _then(handle, handle.cancel)


def _overdue(server, handle):
    return server, _then(handle, lambda: time.sleep(0.03), server.step)


def _expire_queued(model):
    server = _server(model)
    _in_flight(server, _gen("blocker"))
    return _overdue(server, server.submit(_gen("doomed", deadline_s=0.01)))


def _expire_running(model):
    server = _server(model)
    return _overdue(server, _in_flight(server, _gen("slow", deadline_s=0.02)))


def _expire_decision(model):
    server = _server(model)
    return _overdue(server, server.submit(_echo(deadline_s=0.01)))


def _fail_generation(model):
    server = _server(model, [FaultSpec(site="decode.step", at=1)])
    handle = server.submit(_gen("x", tokens=4))
    return server, _then(handle, server.run_until_idle)


def _fail_decision(model):
    server = _server(model, [FaultSpec(site="runtime.execute_batch", at=1)])
    handle = server.submit(_echo())
    return server, _then(handle, server.run_until_idle)


def _shed_generation(model):
    server = _server(model, shed_queue_depth=1)
    server.submit(_gen("waiting"))
    return server, lambda: server.submit(_gen("one too many"))


def _shed_decision(model):
    server = _server(model, shed_queue_depth=1)
    server.submit(_gen("waiting"))
    return server, lambda: server.submit(_echo())


def _shed_lone_decision(model):
    server = _server(model, shed_queue_depth=1)
    server.submit(_echo())
    return server, lambda: server.submit(_echo())


def _retried_decision(model, faults):
    server = _server(
        model, [FaultSpec(site="runtime.execute_batch", at=visit, transient=True)
                for visit in faults],
        retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.01))
    handle = server.submit(_echo())
    return server, _then(handle, server.run_until_idle)


def _retry_decision_ok(model):
    return _retried_decision(model, faults=(1,))


def _retry_decision_fail(model):
    return _retried_decision(model, faults=(1, 2))


def _stop_queued(model):
    server = _server(model)
    handle = server.submit(_gen("never admitted"))
    return server, _then(handle, lambda: server.stop(drain=False))


def _stop_running(model):
    server = _server(model)
    handle = _in_flight(server, _gen("admitted"))
    return server, _then(handle, lambda: server.stop(drain=False))


def _stop_decision(model):
    server = _server(model)
    handle = server.submit(_echo())
    return server, _then(handle, lambda: server.stop(drain=False))


def _crash_generation(model):
    server = _server(model)
    handle = _in_flight(server, _gen("admitted"))
    return server, _then(
        handle, lambda: _crash_step(server, "step", server._manager))


def _crash_decision(model):
    server = _server(model)
    handle = server.submit(_echo())
    return server, _then(handle, lambda: _crash_step(
        server, "execute_batch", server._runtimes["echo"]))


#: (route, raises, message, outcome, StepRecord counter — None where the
#: route has no step to land in).  ``metrics.outcome`` names the
#: ``ServerStats`` counter too, except that ``ok`` is ``requests_completed``.
_ROUTES = [
    (_ok_generation, None, None, "ok", "finished"),
    (_ok_decision, None, None, "ok", "decisions"),
    (_cancel_queued, RequestCancelled, "cancelled", "cancelled", "cancelled"),
    (_cancel_running, RequestCancelled, "cancelled", "cancelled", "cancelled"),
    (_cancel_decision, RequestCancelled, "cancelled", "cancelled", "cancelled"),
    (_expire_queued, DeadlineExceeded, "while queued", "expired", "expired"),
    (_expire_running, DeadlineExceeded, "mid-decode", "expired", "expired"),
    (_expire_decision, DeadlineExceeded, "while queued", "expired", "expired"),
    (_fail_generation, RequestFailed, "failed during decode step",
     "failed", "failed"),
    (_fail_decision, RequestFailed, "decision batch failed", "failed", "failed"),
    (_shed_generation, ServerOverloaded, "queue depth", "shed", "shed"),
    (_shed_decision, ServerOverloaded, "queue depth", "shed", "shed"),
    (_stop_queued, RuntimeError, "stopped before admitting", "failed", None),
    (_stop_running, RuntimeError, "stopped before completing", "failed", None),
    (_stop_decision, RuntimeError, "stopped before admitting", "failed", None),
    (_crash_generation, _Abort, "step crashed", "failed", "failed"),
    (_crash_decision, _Abort, "step crashed", "failed", "failed"),
]

_COUNTERS = ("requests_completed", "cancelled", "expired", "failed", "shed")


def _counts(server):
    stats = server.stats()
    return {name: getattr(stats, name) for name in _COUNTERS}


class TestRequestLifecycle:
    @pytest.mark.parametrize(
        "route, raises, message, outcome, record_counter", _ROUTES,
        ids=[route[0].__name__.strip("_") for route in _ROUTES])
    def test_every_terminal_route_leaves_the_same_facts(
            self, model, route, raises, message, outcome, record_counter):
        server, act = route(model)
        counter = "requests_completed" if outcome == "ok" else outcome
        before = _counts(server)
        seen = {record.seq for record in server.telemetry.records()}
        handle = act()
        # 1. the handle is terminal, 2. with the route's result or error,
        assert handle.done()
        if raises is None:
            result = handle.result(timeout=5)
            assert result == 42 or len(result.token_ids) == 3
        else:
            with pytest.raises(raises, match=message):
                handle.result(timeout=5)
        # 3. its metrics say how it ended and 4. when,
        assert handle.metrics.outcome == outcome
        assert handle.metrics.finished_at is not None
        # 5. and it is counted once, under that outcome alone.
        assert _counts(server) == {**before, counter: before[counter] + 1}
        if record_counter is None:
            return
        # Out-of-step endings (cancel, shed) fold into the next working step;
        # a crashed engine has already committed its last record.
        if server.health != ServerHealth.FAILED:
            if not server.has_pending_work():
                server.submit(_gen("filler"))
            server.step()
        landed = [getattr(record, record_counter)
                  for record in server.telemetry.records()
                  if record.seq not in seen]
        assert sum(len(value) if isinstance(value, tuple) else value
                   for value in landed) == 1
        if record_counter == "finished":
            assert (handle.request_id,) in landed

    def test_stop_and_crash_failures_are_accounted(self, model):
        """Regression: handles failed by ``stop(drain=False)`` or the crash
        guard used to keep ``outcome == "ok"``, never reached ``_completed``
        and left ``stats().failed`` at 0."""
        server = _server(model)
        handles = [_in_flight(server, _gen("admitted")),
                   server.submit(_gen("queued")), server.submit(_echo())]
        server.stop(drain=False)
        for handle in handles:
            with pytest.raises(RuntimeError, match="server stopped"):
                handle.result(timeout=5)
            assert handle.metrics.outcome == "failed"
            assert handle.metrics.finished_at is not None
        report = server.stats().report()
        assert report["failed"] == 3 and report["requests_completed"] == 0
        assert sorted(m.request_id for m in server._completed) \
            == sorted(h.request_id for h in handles)
        _invariants(server)

        crashed = _server(model)
        victims = [_in_flight(crashed, _gen("admitted")),
                   crashed.submit(_gen("queued")), crashed.submit(_echo())]
        crashed._fail_all_pending(RuntimeError("the loop went down"))
        assert [h.metrics.outcome for h in victims] == ["failed"] * 3
        assert crashed.stats().failed == 3

    @pytest.mark.parametrize("route", [_shed_generation, _fail_decision],
                             ids=["shed", "failed_decision_group"])
    def test_every_ending_stamps_the_stats_clock(self, model, route):
        """``stats().wall_seconds`` ends at the last terminal transition; a
        shed submission and a failed decision group used not to stamp it."""
        server, act = route(model)
        handle = act()
        assert server._last_finished_at == handle.metrics.finished_at
        wall = server.stats().wall_seconds
        time.sleep(0.01)
        assert server.stats().wall_seconds == wall

    def test_retried_generation_is_a_fresh_submission(self, model):
        """A retry rebuilds the session the way ``submit`` does, so nothing
        of the failed attempt survives — and the tokens match an unfaulted
        run exactly (sampled, chunked prefill, behind a prefix hit)."""
        policy = dict(max_batch_size=2, block_size=4, prefill_chunk_size=4,
                      step_token_budget=8,
                      retry_policy=RetryPolicy(max_attempts=2))
        preamble = "shared preamble: "
        request = _gen(preamble + "and a tail long enough to chunk", tokens=6,
                       temperature=0.9, seed=11)
        reference = _server(model, **policy)
        reference.register_prefix(preamble)
        expected = reference.submit(request)
        reference.run_until_idle()
        fresh = _server(model, **policy).submit(request)._session

        server = _server(
            model, [FaultSpec(site="decode.step", at=3, transient=True)],
            **policy)
        server.register_prefix(preamble)
        handle = server.submit(request)
        metrics, submitted_at = handle.metrics, handle.metrics.submitted_at
        failed_attempt = handle._session
        while server.stats().retries == 0:
            assert server.step()
        assert failed_attempt.generated and failed_attempt.prefix_entry
        retried = handle._session
        assert retried is not failed_attempt
        for spec in dataclasses.fields(GenerationSession):
            if spec.name not in ("metrics", "on_token"):
                assert getattr(retried, spec.name) == getattr(fresh, spec.name), \
                    spec.name
        assert retried.metrics is handle.metrics is metrics
        assert (metrics.attempts, metrics.submitted_at) == (2, submitted_at)
        assert (metrics.admitted_at, metrics.first_token_at,
                metrics.finished_at, metrics.tokens_generated,
                metrics.prefix_tokens, metrics.token_seconds,
                metrics.batch_sizes) == (None, None, None, 0, 0, [], [])
        server.run_until_idle()
        assert handle.result(timeout=10).token_ids \
            == expected.result(timeout=10).token_ids
        assert handle.metrics.tokens_generated == 6
        assert server.stats().requests_completed == 1
        _invariants(server)

    @pytest.mark.parametrize("route, outcome", [
        (_cancel_decision, "cancelled"), (_expire_decision, "expired"),
        (_shed_lone_decision, "shed"), (_retry_decision_ok, "ok"),
        (_retry_decision_fail, "failed"), (_stop_decision, "failed")],
        ids=["cancel", "expire", "shed", "retry_ok", "retry_fail", "stop"])
    def test_a_decision_waits_in_the_live_table_alone(self, model, route,
                                                      outcome):
        """Between ``submit`` and ``_finish`` a decision is held by ``_live``
        and nothing else, so every ending leaves no trace of it."""
        server, act = route(model)
        handle = act()
        assert handle.done() and handle.metrics.outcome == outcome
        server.run_until_idle()
        assert server._live == {} and not server.has_pending_work()

    def test_parked_decision_expires_on_its_deadline(self, model):
        """A retry-parked decision used to be looked at only once its backoff
        had elapsed, outliving ``deadline_s=0.1`` by ``backoff_s=1.0``."""
        server = _server(
            model,
            [FaultSpec(site="runtime.execute_batch", at=1, transient=True)],
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=1.0))
        handle = server.submit(_echo(deadline_s=0.1))
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded, match="while queued"):
            handle.result(timeout=5)
        assert time.perf_counter() - started < 0.3
        assert handle.metrics.attempts == 2  # the retry was granted, parked
        assert server._live == {} and not server.has_pending_work()


# ---------------------------------------------------------------------- #
# Seeded chaos property suite
# ---------------------------------------------------------------------- #
def _mixed_workload(rng, count):
    """A seeded list of (kind, payload) submissions."""
    events = []
    for index in range(count):
        kind = rng.choice(["generate", "echo"])
        if kind == "generate":
            words = " ".join(f"w{rng.integers(0, 50)}"
                             for _ in range(int(rng.integers(1, 6))))
            events.append(("generate", (words, int(rng.integers(2, 6)))))
        else:
            events.append(("echo", int(rng.integers(0, 1000))))
    return events


def _run_workload(server, events, steps_between=2):
    handles = []
    for kind, payload in events:
        if kind == "generate":
            prompt, max_new = payload
            handles.append(server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=max_new, stop_on_eos=False)))
        else:
            handles.append(server.submit(
                DecisionRequest(task="echo", payload=payload)))
        for _ in range(steps_between):
            server.step()
    server.run_until_idle()
    return handles


def _collect(handles):
    """(outcome, value) per handle: 'ok' payload or the failure class name."""
    results = []
    for handle in handles:
        assert handle.done(), "no handle may hang after the run goes idle"
        try:
            value = handle.result(timeout=5)
        except Exception as error:
            results.append(("error", type(error).__name__))
            continue
        value = value.token_ids if hasattr(value, "token_ids") else value
        results.append(("ok", value))
    return results


class TestSpeculativeFaults:
    """Faults at the speculative sites: drafting can never corrupt KV, and a
    verify-phase fault quarantines only the implicated decode batch with its
    speculatively-grown KV provably rolled back (pool invariants hold)."""

    POLICY = dict(max_batch_size=4, speculation="ngram", speculation_k=4)

    def test_verify_fault_quarantines_batch_with_rolled_back_kv(self, model):
        # The adversarial moment: decode.logits on a drafted step fires
        # *after* the multi-token forward grew KV for every draft token but
        # *before* acceptance — the quarantine must reclaim the speculative
        # tails too.
        def serve(injector):
            server = InferenceServer(model, SchedulerPolicy(**self.POLICY),
                                     fault_injector=injector)
            always_draft(server)
            handles = [server.submit(GenerateRequest(
                prompt="loop loop loop loop loop", max_new_tokens=12,
                stop_on_eos=False)) for _ in range(2)]
            server.run_until_idle()
            return server, handles

        # The second drafted decode step's visit, from a fault-free run
        # (runs are deterministic; every decode step visits the site once).
        clean = FaultInjector([])
        drafted = [r.tokens_drafted for r in serve(clean)[0].telemetry.records()
                   if r.decode_sessions]
        assert clean.visit_count("decode.logits") == len(drafted)
        visit = [i for i, count in enumerate(drafted, 1) if count][1]
        injector = FaultInjector([FaultSpec(site="decode.logits", at=visit)])
        server, doomed = serve(injector)
        assert injector.total_fired == 1
        for handle in doomed:
            with pytest.raises(RequestFailed, match="decode step"):
                handle.result(timeout=5)
        _invariants(server)
        assert server._manager.cache.num_sessions == 0  # tails reclaimed
        # Only the implicated batch died: the engine keeps serving.
        survivor = server.submit(GenerateRequest(
            prompt="loop loop loop loop", max_new_tokens=6,
            stop_on_eos=False))
        server.run_until_idle()
        assert len(survivor.result(timeout=5).token_ids) == 6
        assert server.stats().faults_quarantined == 1

    def test_draft_propose_fault_quarantines_only_running_batch(self, model):
        # draft.propose fires in the engine's plan pass (pre-drafting, no KV
        # grown yet); the quarantine implicates the running batch only — a
        # queued request admitted afterwards completes untouched.
        injector = FaultInjector([FaultSpec(site="draft.propose", at=2)])
        server = InferenceServer(
            model, SchedulerPolicy(prefill_chunk_size=8, step_token_budget=32,
                                   **self.POLICY),
            fault_injector=injector)
        doomed = server.submit(GenerateRequest(
            prompt="tick tock tick tock tick", max_new_tokens=12,
            stop_on_eos=False))
        server.run_until_idle()
        with pytest.raises(RequestFailed, match="draft propose"):
            doomed.result(timeout=5)
        _invariants(server)
        survivor = server.submit(GenerateRequest(
            prompt="tick tock tick tock", max_new_tokens=4,
            stop_on_eos=False))
        server.run_until_idle()
        assert len(survivor.result(timeout=5).token_ids) == 4

    def test_verify_corrupt_cannot_break_the_pool(self, model):
        # A corrupt spec perturbs the verification logits in place: emitted
        # tokens may diverge (acceptance resamples from corrupted logits) but
        # the rollback arithmetic is logits-independent — requests complete
        # and the pool stays sound.
        injector = FaultInjector(
            [FaultSpec(site="decode.logits", action="corrupt", every=2,
                       corrupt_scale=5.0)])
        server = InferenceServer(model, SchedulerPolicy(**self.POLICY),
                                 fault_injector=injector)
        always_draft(server)
        handles = [server.submit(GenerateRequest(
            prompt="repeat repeat repeat repeat", max_new_tokens=10,
            stop_on_eos=False)) for _ in range(3)]
        server.run_until_idle()
        # Corrupted steps that verified drafts: the verification payload.
        assert any(record.tokens_drafted
                   for record in server.telemetry.records() if record.faults)
        for handle in handles:
            assert len(handle.result(timeout=5).token_ids) == 10
        _invariants(server)
        assert server._manager.cache.num_sessions == 0

    def test_speculative_chaos_survivors_match_sequential_reference(self, model):
        """Seeded chaos over a speculative engine: survivors must match the
        fault-free *non-speculative* run exactly — speculation plus faults
        plus rollback still never changes a single emitted token."""
        rng = np.random.default_rng(7)
        prompts = []
        for i in range(12):
            word = f"w{int(rng.integers(0, 4))}"
            prompts.append(" ".join([word] * int(rng.integers(3, 8))))

        def run(policy_extra, injector=None):
            server = InferenceServer(
                model, SchedulerPolicy(max_batch_size=4, **policy_extra),
                fault_injector=injector)
            if server._manager.proposer is not None:
                always_draft(server)
            handles = [server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=8,
                temperature=(0.7 if i % 2 else 0.0), seed=500 + i,
                stop_on_eos=False)) for i, prompt in enumerate(prompts)]
            server.run_until_idle()
            outcomes = []
            for handle in handles:
                try:
                    outcomes.append(("ok", handle.result(timeout=5).token_ids))
                except RequestFailed:
                    outcomes.append(("failed", None))
            _invariants(server)
            return outcomes, server

        reference, _ = run(dict())  # sequential, fault-free
        injector = FaultInjector([
            FaultSpec(site="decode.logits", rate=0.10, transient=True),
            FaultSpec(site="draft.propose", at=4, transient=True),
        ], seed=21)
        observed, server = run(
            dict(speculation="ngram", speculation_k=4,
                 retry_policy=RetryPolicy(max_attempts=3)),
            injector=injector)
        assert injector.total_fired > 0
        assert server.stats().tokens_drafted > 0
        survivors = 0
        for (kind, tokens), (_, expected) in zip(observed, reference):
            if kind == "ok":
                survivors += 1
                assert tokens == expected  # exact cross-engine parity
        assert survivors > 0
        assert server._manager.cache.num_sessions == 0


class TestChaosSmoke:
    def test_seeded_chaos_smoke_fast_lane(self, model):
        """Fast-lane chaos: a short seeded fault schedule over a mixed
        workload — survivors match the fault-free reference run exactly."""
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        events = _mixed_workload(rng, count=24)

        reference = InferenceServer(model, SchedulerPolicy(max_batch_size=4),
                                    runtimes={"echo": _EchoRuntime()})
        expected = _collect(_run_workload(reference, events))

        injector = FaultInjector([
            FaultSpec(site="decode.step", rate=0.15, transient=True),
            FaultSpec(site="prefill.rows", at=3),
            FaultSpec(site="runtime.execute_batch", at=2),
        ], seed=42)
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=4,
                                   retry_policy=RetryPolicy(max_attempts=2)),
            runtimes={"echo": _EchoRuntime()}, fault_injector=injector)
        observed = _collect(_run_workload(server, events))

        assert injector.total_fired > 0  # the schedule actually fired
        survivors = failures = 0
        for (kind, value), (_, reference_value) in zip(observed, expected):
            if kind == "ok":
                survivors += 1
                assert value == reference_value  # exact parity
            else:
                failures += 1
                assert value == "RequestFailed"
        assert survivors > 0 and failures > 0
        _invariants(server)
        stats = server.stats()
        assert stats.faults_quarantined > 0
        assert stats.requests_completed == survivors
        assert stats.failed == failures
        assert time.perf_counter() - start < 60  # fast-lane guard


@pytest.mark.slow
class TestChaosProperty:
    def test_200_step_chaos_parity_with_real_adapters(self, model, vp_data,
                                                      tiny_llm, abr_setup):
        """The tentpole property test: a 200-submission seeded chaos run over
        mixed generate+vp/abr traffic.  Every non-implicated request finishes
        with exact parity against the fault-free reference run, pool
        invariants hold after every quarantine (the engine re-proves them
        internally; re-checked here at the end), no handle hangs, and the
        engine keeps progressing throughout."""
        from repro.abr.env import ABRObservation
        from repro.core import DecisionAdapter, VPAdapter

        setting, _, vp_test = vp_data
        video, _, _ = abr_setup
        vp_llm = build_llm("tiny-test", lora_rank=0, pretrained=False, seed=0)
        vp_adapter = VPAdapter(vp_llm,
                               prediction_steps=setting.prediction_steps,
                               seed=0)
        state_dim = ABRObservation.flat_size(video.num_bitrates)
        abr_adapter = DecisionAdapter(tiny_llm, state_dim=state_dim,
                                      action_dims=(video.num_bitrates,),
                                      context_window=4, head="abr", seed=0)

        rng = np.random.default_rng(1234)
        events = []
        for _ in range(200):
            kind = rng.choice(["generate", "vp", "abr", "echo"])
            if kind == "generate":
                words = " ".join(f"w{rng.integers(0, 50)}"
                                 for _ in range(int(rng.integers(1, 8))))
                events.append(("generate", (words, int(rng.integers(2, 6)))))
            elif kind == "vp":
                events.append(("vp", int(rng.integers(0, len(vp_test)))))
            elif kind == "abr":
                window = 3
                events.append(("abr", {
                    "returns": rng.normal(size=(window, 1)),
                    "states": rng.normal(size=(window, state_dim)),
                    "actions": rng.integers(0, video.num_bitrates,
                                            size=(window, 1)),
                }))
            else:
                events.append(("echo", int(rng.integers(0, 1000))))

        def build_server(injector=None, retry=None):
            return InferenceServer(
                model,
                SchedulerPolicy(max_batch_size=4, prefill_chunk_size=8,
                                retry_policy=retry),
                adapters={"vp": vp_adapter, "abr": abr_adapter},
                runtimes={"echo": _EchoRuntime()},
                fault_injector=injector)

        def run(server):
            handles = []
            progressed = 0
            for kind, payload in events:
                if kind == "generate":
                    prompt, max_new = payload
                    handles.append(server.submit(GenerateRequest(
                        prompt=prompt, max_new_tokens=max_new,
                        stop_on_eos=False)))
                elif kind == "vp":
                    handles.append(server.submit(DecisionRequest(
                        task="vp", payload=vp_test[payload])))
                elif kind == "abr":
                    handles.append(server.submit(DecisionRequest(
                        task="abr", payload=payload)))
                else:
                    handles.append(server.submit(DecisionRequest(
                        task="echo", payload=payload)))
                server.step()
                progressed += sum(h.done() for h in handles)
            server.run_until_idle()
            assert progressed > 0  # the engine progressed throughout
            return handles

        expected = run(build_server())

        injector = FaultInjector([
            FaultSpec(site="decode.step", rate=0.05, transient=True),
            FaultSpec(site="prefill.rows", rate=0.07),
            FaultSpec(site="prefill.rows", rate=0.03, transient=True),
            FaultSpec(site="runtime.execute_batch", rate=0.05),
        ], seed=99)
        observed = run(build_server(injector=injector,
                                    retry=RetryPolicy(max_attempts=2)))

        assert injector.total_fired > 0
        survivors = failures = 0
        for expected_handle, handle in zip(expected, observed):
            assert handle.done()
            reference = expected_handle.result(timeout=5)
            try:
                value = handle.result(timeout=5)
            except RequestFailed:
                failures += 1
                continue
            survivors += 1
            if hasattr(value, "token_ids"):  # generation: exact token parity
                assert value.token_ids == reference.token_ids
            elif hasattr(value, "viewport"):  # vp: repo parity convention
                np.testing.assert_allclose(value.viewport,
                                           reference.viewport,
                                           atol=1e-9, rtol=0)
            elif hasattr(value, "action"):  # abr: exact greedy action
                assert value.action == reference.action
            else:
                assert value == reference
        assert survivors > 100  # most traffic survives the chaos
        assert failures > 0     # and the schedule really implicated some
        server = observed[0]._server
        _invariants(server)
        stats = server.stats()
        assert stats.faults_quarantined > 0
        assert stats.failed == failures
        assert stats.requests_completed == survivors
