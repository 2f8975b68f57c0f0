"""Flight-recorder observability suite (``repro.serve.telemetry``).

Covers the trace ring buffer (O(1) seq lookup, wraparound), the wall-clock
window aggregator (empty windows, boundary landing, bounded retention), the
lifetime totals that make the recorder the engine's one ledger (exact past
every ring and window bound, and equal to what a faulty run's handles and
injector say happened), the engine integration (step records, JSONL
export, ``ServerStats.report()["telemetry"]``), and the headline acceptance
test:
a seeded ``decode.step`` delay fault produces an ITL spike that
``explain_request`` attributes to the correct step record — right seq,
right co-batched session set, right fault event.
"""

from __future__ import annotations

import json

import pytest
from reference import always_draft

from repro.llm import LanguageModel
from repro.llm.config import LLMConfig
from repro.serve import (
    DecisionRequest,
    FaultInjector,
    FaultSpec,
    GenerateRequest,
    GenerationSession,
    InferenceServer,
    RetryPolicy,
    SchedulerPolicy,
    ServeTelemetry,
    SessionManager,
    StepRecord,
    TraceLog,
    WindowAggregator,
    WindowStats,
)
from repro.serve.scheduler import ContinuousBatchingScheduler


@pytest.fixture(scope="module")
def model():
    config = LLMConfig(name="telemetry-test", family="test", d_model=32,
                       num_layers=2, num_heads=2, max_seq_len=64)
    return LanguageModel(config, seed=3)


class _EchoRuntime:
    """One decision group; echoes each payload."""

    def group_key(self, request):
        return ()

    def execute_batch(self, requests):
        return [request.payload for request in requests]


def _record(seq, start, end, **fields):
    return StepRecord(seq=seq, started_at=start, ended_at=end, **fields)


# ---------------------------------------------------------------------- #
# TraceLog ring buffer
# ---------------------------------------------------------------------- #
class TestTraceLog:
    def test_append_and_seq_lookup(self):
        log = TraceLog(capacity=8)
        for seq in range(5):
            log.append(_record(seq, float(seq), float(seq) + 0.5))
        assert len(log) == 5 and log.dropped == 0
        assert [r.seq for r in log.records()] == [0, 1, 2, 3, 4]
        assert log.for_seq(3).started_at == 3.0
        assert log.for_seq(5) is None  # never appended
        assert log.for_seq(-1) is None

    def test_wraparound_drops_oldest(self):
        # A long run: 20 records through a 6-slot ring.
        log = TraceLog(capacity=6)
        for seq in range(20):
            log.append(_record(seq, float(seq), float(seq) + 0.5))
        assert log.total == 20 and len(log) == 6
        assert log.dropped == 14
        assert [r.seq for r in log.records()] == list(range(14, 20))
        # Rotated-out seqs resolve to None, never to a wrong record.
        assert log.for_seq(13) is None
        assert log.for_seq(14).seq == 14 and log.for_seq(19).seq == 19

    def test_covering_interval_overlap(self):
        log = TraceLog(capacity=8)
        for seq in range(4):
            log.append(_record(seq, float(seq), float(seq) + 1.0))
        assert [r.seq for r in log.covering(1.5, 2.5)] == [1, 2]
        assert [r.seq for r in log.covering(0.0, 10.0)] == [0, 1, 2, 3]
        assert log.covering(8.0, 9.0) == []

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceLog(capacity=0)

    def test_export_jsonl(self, tmp_path):
        log = TraceLog(capacity=4)
        for seq in range(3):
            log.append(_record(seq, float(seq), float(seq) + 0.5,
                               decode_sessions=(1, 2)))
        path = tmp_path / "trace.jsonl"
        assert log.export_jsonl(str(path)) == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["seq"] for row in rows] == [0, 1, 2]
        assert rows[0]["decode_sessions"] == [1, 2]
        assert rows[0]["decode_tokens"] == 2


# ---------------------------------------------------------------------- #
# The export surface: derived from the dataclasses, pinned field by field
# ---------------------------------------------------------------------- #
class TestExportSurface:
    def test_step_record_to_dict_spells_every_field(self, check_export_surface):
        check_export_surface(
            StepRecord, StepRecord.to_dict,
            dict(decode_sessions=(1, 2), prefill_chunks=((3, 8), (4, 5)),
                 admitted=(3,), deferred=(4,), finished=(5,), quarantined=(6,),
                 faults=(("decode.step", 1, "delay"),),
                 queue_depth_by_priority={0: 2, 1: 1}),
            derived=("duration_s", "decode_tokens", "prefill_tokens",
                     "kv_padding_share"))

    def test_window_stats_to_dict_spells_every_field(self, check_export_surface):
        check_export_surface(
            WindowStats, WindowStats.to_dict,
            derived=("queue_depth_mean", "batch_occupancy_mean",
                     "kv_padding_share"))


# ---------------------------------------------------------------------- #
# Window aggregation edge cases
# ---------------------------------------------------------------------- #
class TestWindowAggregator:
    def test_empty_windows_materialized(self):
        agg = WindowAggregator(window_s=1.0)
        agg.observe(_record(0, 0.0, 0.5, decode_sessions=(1,)))
        agg.observe(_record(1, 3.2, 3.5, decode_sessions=(1,)))
        windows = agg.windows()
        assert [w.index for w in windows] == [0, 1, 2, 3]
        assert windows[1].steps == 0 and windows[2].steps == 0
        assert windows[0].decode_tokens == 1 and windows[3].decode_tokens == 1
        # The sparse view skips the quiet gap entirely.
        assert [w.index for w in agg.windows(fill_empty=False)] == [0, 3]

    def test_record_on_window_boundary(self):
        # A record ending exactly at the boundary lands in the next window
        # (windows are [start, start + window_s) half-open).
        agg = WindowAggregator(window_s=1.0)
        agg.observe(_record(0, 0.0, 0.5))
        agg.observe(_record(1, 0.9, 1.0, decode_sessions=(7,)))
        windows = agg.windows()
        assert windows[0].steps == 1 and windows[1].steps == 1
        assert windows[1].decode_tokens == 1

    def test_request_spanning_boundary_splits_tokens(self):
        # One request decoding across a boundary: each window counts only
        # the steps that ended inside it; nothing is lost or double-counted.
        agg = WindowAggregator(window_s=1.0)
        spans = [(0.0, 0.4), (0.5, 0.8), (0.9, 1.2), (1.3, 1.6)]
        for seq, (start, end) in enumerate(spans):
            agg.observe(_record(seq, start, end, decode_sessions=(42,)))
        windows = agg.windows()
        assert [w.decode_tokens for w in windows] == [2, 2]
        assert sum(w.decode_tokens for w in windows) == 4

    def test_bounded_retention_drops_oldest(self):
        agg = WindowAggregator(window_s=1.0, max_windows=3)
        for seq in range(6):  # one record per window 0..5
            agg.observe(_record(seq, float(seq), float(seq) + 0.1))
        assert agg.windows_dropped == 3
        assert [w.index for w in agg.windows()] == [3, 4, 5]

    def test_aggregate_sums_and_means(self):
        agg = WindowAggregator(window_s=10.0)
        agg.observe(_record(0, 0.0, 0.1, decode_sessions=(1, 2),
                            prefill_chunks=((3, 8),), queue_depth=4,
                            admitted=(3,), finished=(9,), shed=1,
                            retries=2, quarantines=1,
                            faults=(("decode.step", 5, "delay"),),
                            blocks_in_use=7))
        agg.observe(_record(1, 0.2, 0.3, decode_sessions=(1,),
                            queue_depth=2, cancelled=1, blocks_in_use=3))
        (window,) = agg.windows()
        assert window.steps == 2
        assert window.queue_depth_mean == pytest.approx(3.0)
        assert window.queue_depth_max == 4
        assert window.batch_occupancy_mean == pytest.approx(2.0)  # (3 + 1) / 2
        assert window.decode_tokens == 3 and window.prefill_tokens == 8
        assert window.admissions == 1
        assert window.evictions == 2  # finished + cancelled
        assert window.sheds == 1 and window.retries == 2
        assert window.faults == 2  # one quarantine + one injector fire
        assert window.blocks_in_use_max == 7

    def test_summary_builds_only_the_windows_it_reports(self):
        """Two records 10^9 s of idle apart: ``summary()`` is the newest 16
        rows (gaps filled), not every second in between cut down to 16."""
        telemetry = ServeTelemetry()
        for start in (0.0, 1e9):
            telemetry.begin_step(start)
            telemetry.step.decode_sessions.extend([1])
            telemetry.commit_step(start + 0.5, True, 0, {}, 0)
        rows = telemetry.summary()["windows"]
        assert len(rows) == 16
        assert [row["index"] for row in rows] == list(
            range(10**9 - 15, 10**9 + 1))
        assert rows[-1]["steps"] == 1 and rows[-1]["decode_tokens"] == 1
        assert all(row["steps"] == 0 for row in rows[:-1])
        # A short span reads as it always did, with or without the cut.
        agg = WindowAggregator(window_s=1.0)
        agg.observe(_record(0, 0.0, 0.5))
        agg.observe(_record(1, 3.2, 3.5))
        assert [w.index for w in agg.windows()] == [0, 1, 2, 3]
        assert [w.index for w in agg.windows(last=16)] == [0, 1, 2, 3]
        assert [w.index for w in agg.windows(last=2)] == [2, 3]
        assert [w.index for w in agg.windows(fill_empty=False, last=1)] == [3]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="window_s"):
            WindowAggregator(window_s=0.0)
        with pytest.raises(ValueError, match="max_windows"):
            WindowAggregator(max_windows=0)


# ---------------------------------------------------------------------- #
# ServeTelemetry step lifecycle
# ---------------------------------------------------------------------- #
class TestServeTelemetry:
    def test_idle_steps_discarded(self):
        telemetry = ServeTelemetry()
        for _ in range(5):
            telemetry.begin_step(0.0)
            assert telemetry.commit_step(0.1, did_work=False, queue_depth=0,
                                         queue_depth_by_priority={},
                                         blocks_in_use=0) is None
        assert telemetry.idle_steps == 5 and len(telemetry.records()) == 0

    def test_out_of_step_events_fold_into_next_record(self):
        telemetry = ServeTelemetry()
        # Shed at submit time and a client-thread cancel, both between steps.
        telemetry.step.shed += 1
        telemetry.step.cancelled += 1
        telemetry.begin_step(1.0)
        record = telemetry.commit_step(1.1, did_work=False, queue_depth=0,
                                       queue_depth_by_priority={},
                                       blocks_in_use=0)
        assert record is not None  # pending events rescue an idle step
        assert record.shed == 1 and record.cancelled == 1
        # Folded exactly once.
        telemetry.step.decode_sessions.extend([1])
        telemetry.begin_step(2.0)
        second = telemetry.commit_step(2.1, did_work=True, queue_depth=0,
                                       queue_depth_by_priority={},
                                       blocks_in_use=0)
        assert second.shed == 0 and second.cancelled == 0

    def test_workless_step_is_kept_for_an_event_not_for_a_stamp(self):
        telemetry = ServeTelemetry()
        idle = dict(did_work=False, queue_depth=0, queue_depth_by_priority={},
                    blocks_in_use=0)
        # A budget stamped on a step that then found nothing to do is not an
        # event: the step is discarded, and the stamp with it.
        telemetry.begin_step(0.0)
        telemetry.step.prefill_budget = 7
        assert telemetry.commit_step(0.1, **idle) is None
        assert telemetry.idle_steps == 1
        # A quarantine with nothing admitted (a draft-proposal fault) did no
        # work either, but the record carries an event: it is kept.
        telemetry.begin_step(1.0)
        telemetry.step.quarantines += 1
        telemetry.step.quarantined.extend([3])
        record = telemetry.commit_step(1.1, **idle)
        assert record is not None and record.seq == 0
        assert record.quarantines == 1 and record.quarantined == (3,)
        assert record.prefill_budget is None  # the discarded stamp did not leak
        assert telemetry.idle_steps == 1 and telemetry.records() == [record]

    def test_prefix_hits_are_the_steps_own(self):
        """A hit written to the open record is that step's, not cumulative."""
        telemetry = ServeTelemetry()
        records = []
        for index, hits in enumerate((3, 1)):
            telemetry.begin_step(float(index))
            telemetry.step.decode_sessions.extend([1])
            telemetry.step.prefix_hits += hits
            records.append(telemetry.commit_step(index + 0.5, True, 0, {}, 0))
        first, second = records
        assert first.prefix_hits == 3 and second.prefix_hits == 1
        assert telemetry.totals()["prefix_hits"] == 4

    def test_totals_outlive_the_ring_and_the_windows(self):
        # 12 records through a 3-slot ring and 2 retained one-second
        # windows: the totals still sum every committed record, plus the
        # open one.
        telemetry = ServeTelemetry(trace_capacity=3, max_windows=2)
        committed = []
        for i in range(12):
            telemetry.begin_step(float(i))
            step = telemetry.step
            step.finished.extend(range(i % 3))
            step.decisions += i % 2
            step.failed += i % 4 == 0
            step.cancelled += i % 5 == 0
            step.expired += i % 6 == 0
            step.shed += i % 7 == 0
            step.quarantines += i % 3 == 1
            step.retries += i % 3 == 2
            step.tokens_drafted += i
            step.tokens_accepted += i // 2
            step.prefix_hits += i % 2
            step.prefix_tokens_reused += 5 * (i % 2)
            step.prefix_misses += i % 3 == 0
            step.tokens_generated += 2 * i
            committed.append(telemetry.commit_step(float(i) + 0.5, True, 0,
                                                   {}, 0))
        telemetry.step.shed += 1  # between steps: counted before it commits
        telemetry.step.finished.append(99)
        assert telemetry.trace.dropped == 9
        assert telemetry.aggregator.windows_dropped == 10
        expected = {name: sum(getattr(r, name) for r in committed)
                    for name in ("decisions", "failed", "cancelled",
                                 "expired", "shed", "quarantines", "retries",
                                 "tokens_drafted", "tokens_accepted",
                                 "prefix_hits", "prefix_tokens_reused",
                                 "prefix_misses", "tokens_generated")}
        expected["finished"] = sum(len(r.finished) for r in committed) + 1
        expected["shed"] += 1
        assert telemetry.totals() == expected

    def test_has_no_off_switch(self):
        with pytest.raises(TypeError):
            ServeTelemetry(enabled=False)
        assert "enabled" not in ServeTelemetry().summary()


# ---------------------------------------------------------------------- #
# Engine integration
# ---------------------------------------------------------------------- #
class TestEngineTelemetry:
    def test_step_records_cover_a_generation(self, model):
        server = InferenceServer(model=model)
        first = server.submit_generation("the quick brown fox",
                                         max_new_tokens=6)
        second = server.submit_generation("jumps over the lazy dog",
                                          max_new_tokens=6)
        server.run_until_idle()
        first.result(); second.result()
        records = server.telemetry.records()
        assert records, "an enabled recorder must capture the run"
        assert [r.seq for r in records] == list(range(len(records)))
        admitted = [sid for r in records for sid in r.admitted]
        assert set(admitted) == {first.request_id, second.request_id}
        prefilled = {sid for r in records for sid, _ in r.prefill_chunks}
        assert prefilled == {first.request_id, second.request_id}
        # Mid-run steps decode both sessions batched together.
        assert any(set(r.decode_sessions) == {first.request_id,
                                             second.request_id}
                   for r in records)
        finished = [sid for r in records for sid in r.finished]
        assert set(finished) == {first.request_id, second.request_id}
        # The window view sees every decode token the trace recorded.
        assert (sum(w.decode_tokens for w in server.telemetry.windows())
                == sum(r.decode_tokens for r in records))

    def test_prefix_and_token_counts_are_the_records(self, model):
        """Prefix hits, misses and reused tokens and generated tokens are
        written to the step records where they happen: the totals are the
        records' sums and ``stats()``'s fields, and a hit reused its head."""
        server = InferenceServer(model, SchedulerPolicy(
            max_batch_size=4, block_size=4))
        head = "task: "
        server.register_prefix(head)
        length = len(model.tokenizer.encode(head, add_bos=True))
        prompts = [head + "a b", "other 1", head + "c d e", "plain 2", head + "f"]
        handles = [server.submit(GenerateRequest(
            prompt=prompt, max_new_tokens=4, temperature=0.7, seed=index,
            stop_on_eos=False)) for index, prompt in enumerate(prompts)]
        server.run_until_idle()
        assert [len(handle.result().token_ids) for handle in handles] == [4] * 5
        names = ("prefix_hits", "prefix_misses", "prefix_tokens_reused",
                 "tokens_generated")
        totals = {name: server.telemetry.totals()[name] for name in names}
        assert totals == {name: sum(getattr(record, name) for record
                                    in server.telemetry.records())
                          for name in names}
        stats = server.stats()
        assert totals == {name: getattr(stats, name) for name in names}
        assert totals == {"prefix_hits": 3, "prefix_misses": 2,
                          "prefix_tokens_reused": 3 * length,
                          "tokens_generated": 5 * 4}
        assert [handle.metrics.prefix_tokens for handle in handles] == [
            length, 0, length, 0, length]

    def test_standalone_manager_records_its_prefill_chunks(self, model):
        manager = SessionManager(model, SchedulerPolicy(
            max_batch_size=2, block_size=4))
        sessions = [GenerationSession(session_id=index, prompt=prompt,
                                      max_new_tokens=2)
                    for index, prompt in enumerate(("abc", "hello there"))]
        manager.admit_many(sessions)
        assert manager.telemetry.step.prefill_chunks == [
            (session.session_id, len(session.prompt_ids)) for session in sessions]
        assert manager.telemetry.totals()["prefix_misses"] == 2

    def test_recorder_cannot_be_turned_off(self, model):
        for value in (False, True, "off"):
            with pytest.raises(TypeError, match="ServeTelemetry or None"):
                InferenceServer(model=model, telemetry=value)
        recorder = ServeTelemetry(trace_capacity=8)
        server = InferenceServer(model=model, telemetry=recorder)
        assert server.telemetry is recorder
        assert server._manager.telemetry is recorder

    def test_trace_ring_wraps_during_long_run(self, model):
        telemetry = ServeTelemetry(trace_capacity=4)
        server = InferenceServer(model=model, telemetry=telemetry)
        handle = server.submit_generation("count with me", max_new_tokens=12)
        server.run_until_idle()
        handle.result()
        assert telemetry.trace.total > 4
        records = server.telemetry.records()
        assert len(records) == 4
        assert [r.seq for r in records] == list(
            range(telemetry.trace.total - 4, telemetry.trace.total))
        assert telemetry.trace.dropped == telemetry.trace.total - 4

    def test_jsonl_export_roundtrips(self, model, tmp_path):
        server = InferenceServer(model=model)
        server.submit_generation("export me", max_new_tokens=4).result()
        path = tmp_path / "steps.jsonl"
        count = server.telemetry.export_jsonl(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == count == len(server.telemetry.records())
        assert all("decode_sessions" in row and "queue_depth" in row
                   for row in rows)

    def test_stats_report_carries_telemetry_and_stays_compatible(self, model):
        server = InferenceServer(model=model)
        server.submit_generation("stats please", max_new_tokens=4).result()
        report = server.stats().report()
        # The counters read from the recorder keep their report names.
        for key in ("tokens_per_second", "prefix_hits", "faults_quarantined",
                    "retries", "shed", "health", "itl_p95_s"):
            assert key in report
        telemetry = report["telemetry"]
        assert telemetry["steps_recorded"] > 0
        assert telemetry["windows"], "at least one window must be live"
        assert "queue_depth_mean" in telemetry["windows"][-1]

    def test_shed_lands_in_trace(self, model):
        server = InferenceServer(
            model=model, policy=SchedulerPolicy(shed_queue_depth=1))
        first = server.submit_generation("one", max_new_tokens=4)
        shed = server.submit_generation("two", max_new_tokens=4)
        server.run_until_idle()
        first.result()
        assert shed.done() and not shed.cancelled()
        assert sum(r.shed for r in server.telemetry.records()) == 1

    def test_shed_at_submit_counts_before_any_step(self, model):
        server = InferenceServer(
            model=model, policy=SchedulerPolicy(shed_queue_depth=1))
        server.submit_generation("one", max_new_tokens=4)
        shed = server.submit_generation("two", max_new_tokens=4)
        assert shed.done() and server.telemetry.records() == []
        stats = server.stats()
        assert stats.shed == 1 and stats.requests_completed == 0

    def test_stats_counts_every_event_once_past_the_ring(self, model,
                                                          monkeypatch):
        """A chaos run through a 4-record ring: a permanent decode fault, a
        transient decision fault retried, a cancel, a deadline expiry, a
        shed and speculative drafts — every counter ``stats()`` reports
        equals what the handles and the injector say happened."""
        monkeypatch.setenv("REPRO_FAULTS", "1")
        injector = FaultInjector([
            FaultSpec(site="decode.step", at=2),
            FaultSpec(site="runtime.execute_batch", at=1, transient=True)])
        telemetry = ServeTelemetry(trace_capacity=4)
        server = InferenceServer(
            model, SchedulerPolicy(max_batch_size=2, max_queue=6,
                                   speculation="ngram",
                                   retry_policy=RetryPolicy(max_attempts=2)),
            runtimes={"echo": _EchoRuntime()}, fault_injector=injector,
            telemetry=telemetry)
        always_draft(server)  # drafts whether or not they would pay
        committed = []
        commit = telemetry.commit_step

        def spy(*args, **kwargs):
            record = commit(*args, **kwargs)
            if record is not None:
                committed.append(record)
            return record

        monkeypatch.setattr(telemetry, "commit_step", spy)
        handles = [server.submit(GenerateRequest(
            prompt="ok; ok; ok; ok;", max_new_tokens=40, stop_on_eos=False))
            for _ in range(5)]
        handles.append(server.submit(GenerateRequest(
            prompt="too late", max_new_tokens=4, deadline_s=1e-6)))
        handles.append(server.submit(GenerateRequest(prompt="no room")))
        handles += [server.submit(DecisionRequest(task="echo", payload=i))
                    for i in range(3)]
        for _ in range(3):
            server.step()
        running = [h for h in handles[:5] if not h.done()
                   and h._session.state == "running"]
        assert running and running[0].cancel()
        server.run_until_idle()

        outcomes = [h.metrics.outcome for h in handles]
        assert {"ok", "failed", "cancelled", "expired", "shed"} <= set(outcomes)
        assert telemetry.trace.dropped > 0  # the ring wrapped
        stats = server.stats()
        assert stats.requests_completed == outcomes.count("ok")
        for outcome in ("failed", "cancelled", "expired", "shed"):
            assert getattr(stats, outcome) == outcomes.count(outcome), outcome
        assert stats.retries == sum(h.metrics.attempts - 1 for h in handles) > 0
        assert stats.faults_quarantined == sum(
            action == "raise" for _, _, action in injector.fired_log) == 2
        assert stats.tokens_generated == sum(
            h.metrics.tokens_generated for h in handles
            if h.metrics.outcome == "ok")
        assert stats.tokens_accepted <= stats.tokens_drafted
        assert stats.tokens_drafted > 0
        assert stats.tokens_drafted == sum(r.tokens_drafted for r in committed)
        assert stats.tokens_accepted == sum(r.tokens_accepted
                                            for r in committed)

    def test_deferred_admission_not_counted_admitted(self, model):
        """A deferral never started: the step that bounced it lists it under
        ``deferred`` only, and the step that later runs it under ``admitted``."""
        server = InferenceServer(model=model, policy=SchedulerPolicy(
            prefill_chunk_size=4, step_token_budget=4))
        first = server.submit_generation("a prompt of many tokens",
                                         max_new_tokens=2)
        second = server.submit_generation("another long prompt",
                                          max_new_tokens=2)
        # Both are candidates for the free slots; the grant loop funds them
        # in rank order and the first one's chunk is the whole budget.
        server.step()
        (starved,) = server.telemetry.records()
        assert starved.admitted == (first.request_id,)
        assert starved.deferred == (second.request_id,)
        assert starved.prefill_budget == 4 and starved.prefill_tokens == 4
        server.run_until_idle()
        first.result(); second.result()
        later = server.telemetry.records()[1:]
        assert any(second.request_id in r.admitted for r in later)
        for request in (first, second):
            assert sum(request.request_id in r.admitted
                       for r in server.telemetry.records()) == 1

    def test_queue_depth_by_priority_gauge(self):
        scheduler = ContinuousBatchingScheduler()
        for priority in (0, 0, 2):
            scheduler.enqueue(GenerationSession(session_id=priority + 10,
                                                prompt="x",
                                                priority=priority))
        assert scheduler.queue_depth_by_priority() == {0: 2, 2: 1}


# ---------------------------------------------------------------------- #
# Tail-latency attribution (the acceptance test)
# ---------------------------------------------------------------------- #
class TestExplainRequest:
    def test_fault_delay_attributed_to_culprit_step(self, model, monkeypatch):
        """A seeded decode.step delay must be fingered by explain_request.

        The injector stalls decode visit 5 for 80ms — an ITL spike two
        orders of magnitude above this model's ~1ms steps.  The recorder
        must attribute each victim's worst gap to exactly that step record:
        correct seq, the co-batched sibling session, and the fault event.
        """
        monkeypatch.setenv("REPRO_FAULTS", "1")
        injector = FaultInjector(
            [FaultSpec(site="decode.step", at=5, action="delay",
                       delay_s=0.08)], seed=11)
        server = InferenceServer(model=model, fault_injector=injector)
        first = server.submit_generation("tell me a story",
                                         max_new_tokens=12)
        second = server.submit_generation("sing me a song",
                                          max_new_tokens=12)
        server.run_until_idle()
        first.result(); second.result()

        assert injector.total_fired == 1
        fault_steps = [r for r in server.telemetry.records() if r.faults]
        assert len(fault_steps) == 1, "the delay fires inside exactly one step"
        culprit_step = fault_steps[0]
        assert culprit_step.faults == (("decode.step", 5, "delay"),)
        assert set(culprit_step.decode_sessions) == {first.request_id,
                                                     second.request_id}

        for victim, sibling in ((first, second), (second, first)):
            explanation = server.explain_request(victim.request_id)
            assert explanation.request_id == victim.request_id
            assert explanation.outcome == "ok"
            worst = explanation.worst_gaps[0]
            # The spike dwarfs ordinary steps and sits on the delayed step.
            assert worst.gap_s >= 0.08
            assert worst.culprit is not None
            assert worst.culprit.seq == culprit_step.seq
            assert sibling.request_id in worst.co_sessions
            assert victim.request_id not in worst.co_sessions
            assert ("decode.step", 5, "delay") in worst.faults
            # The JSON view names the culprit too.
            as_dict = explanation.to_dict()
            assert as_dict["worst_gaps"][0]["culprit_seq"] == culprit_step.seq

    def test_ttft_attribution_names_own_prefill(self, model):
        # Chunked prefill: a long prompt's TTFT is explained by its own
        # PREFILLING chunks across several step records.
        policy = SchedulerPolicy(prefill_chunk_size=4, step_token_budget=8)
        server = InferenceServer(model=model, policy=policy)
        prompt = "a much longer prompt that certainly spans several chunks"
        handle = server.submit_generation(prompt, max_new_tokens=3)
        server.run_until_idle()
        handle.result()
        explanation = server.explain_request(handle.request_id)
        assert explanation.ttft is not None
        assert explanation.ttft.token_index == 0
        assert handle.request_id in explanation.ttft.prefill_sessions
        chunked = [r for r in explanation.ttft.steps
                   if any(sid == handle.request_id
                          for sid, _ in r.prefill_chunks)]
        assert len(chunked) >= 2, "chunked prefill spans multiple steps"

    def test_unknown_or_inflight_request_raises(self, model):
        server = InferenceServer(model=model)
        with pytest.raises(KeyError, match="no completed request"):
            server.explain_request(999)
