"""Per-layer metrics of the traced repetition.

Times come from the tracer's spans (on the reference clock like every other
time), counts from the same spans, and counters from the
server's public surface: ``stats().report()`` before and after the window,
``telemetry.records()`` inside it, and ``resource.getrusage``.  The layer
prefix of a metric is the module it measures.  A workload that never enters
a layer reports that layer's metrics as 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from .measure import Window, ms, pct, us
from .spec import PER_LAYER_NAMES
from .trace import SpanTable

_FORWARDS = ("model.forward_step.", "model.forward_incremental",
             "model.forward_embeddings")


@dataclass
class RunFacts:
    """Everything one measured window left behind."""

    table: SpanTable
    window: Window
    records: List[Any]            # StepRecords that started inside the window
    report_before: Dict[str, Any]  # server.stats().report() at clock start
    report_after: Dict[str, Any]
    rusage_before: Any
    rusage_after: Any
    gc_before: int
    gc_after: int
    numbers: Dict[str, float]     # request-level numbers (bench.measure)
    samples: Dict[str, int]
    queue_wait_s: List[float]
    sent: int
    succeeded: int
    failed: int
    backlog_at_last_arrival: int
    probe_median_s: float


def _ratio(top: float, bottom: float) -> float:
    return float(top) / float(bottom) if bottom else 0.0


def per_layer_metrics(facts: RunFacts) -> Dict[str, float]:
    table = facts.table
    dur, self_t, values = table.durations, table.self_times, table.values

    def delta(key: str) -> float:
        return float(facts.report_after[key] - facts.report_before[key])

    steps = table.where("engine.step")
    working = steps[values[steps] > 0]           # step() returned True
    busy_s = float(dur[working].sum())
    wall_s = facts.window.seconds
    tokens = facts.samples["tokens"]
    forwards = table.where(*_FORWARDS)
    in_step_forwards = forwards[table.steps[forwards] >= 0]
    token_forwards = table.where("model.forward_step.", "model.forward_incremental")
    verify_tokens = float(values[table.where("paged_cache.prepare_multi_step")].sum())
    drafted, accepted = delta("tokens_drafted"), delta("tokens_accepted")
    budgeted = [r for r in facts.records if r.prefill_budget]
    decoding = [len(r.decode_sessions) for r in facts.records if r.decode_sessions]
    blocks = [r.blocks_in_use for r in facts.records]
    batches = table.where("runtimes.execute_batch")
    flush_steps = np.unique(table.steps[batches])
    flush_self = self_t[steps][np.isin(table.steps[steps], flush_steps)]
    user = facts.rusage_after.ru_utime - facts.rusage_before.ru_utime
    system = facts.rusage_after.ru_stime - facts.rusage_before.ru_stime

    metrics = {
        "engine.busy_share": _ratio(busy_s, wall_s),
        "engine.steps": float(working.size),
        "engine.step_ms_p50": pct(ms(dur[working]), 50),
        "engine.step_ms_p99": pct(ms(dur[working]), 99),
        "engine.step_self_us_p50": pct(us(self_t[working]), 50),
        "engine.step_self_share": _ratio(self_t[working].sum(), busy_s),
        "engine.submit_us_p50": pct(us(dur[table.where("engine.submit")]), 50),
        "engine.idle_steps": float(steps.size - working.size),
        "scheduler.queue_wait_ms_p50": pct(ms(facts.queue_wait_s), 50),
        "scheduler.queue_wait_ms_p95": pct(ms(facts.queue_wait_s), 95),
        "scheduler.max_queue_depth": float(facts.report_after["max_queue_depth"]),
        "scheduler.batch_occupancy_mean": float(
            facts.report_after["mean_batch_occupancy"]),
        "scheduler.admissions_self_us_p50": pct(
            us(self_t[table.where("scheduler.admissions")]), 50),
        "scheduler.deferred_admissions": float(
            sum(len(r.deferred) for r in facts.records)),
        "scheduler.prefill_budget_used_share": _ratio(
            sum(r.prefill_tokens for r in budgeted),
            sum(r.prefill_budget for r in budgeted)),
        "session.step_self_us_p50": pct(us(self_t[table.where("session.step")]), 50),
        "session.prefill_step_calls": float(table.where("session.prefill_step").size),
        "session.prefill_chunk_calls": float(table.where("session.prefill_chunk").size),
        "session.prefill_chunk_group_calls": float(
            table.where("session.prefill_chunk_group").size),
        "session.prefill_ms_total": float(
            ms(dur[table.where("session.prefill_step")]).sum()),
        "session.decode_rows_per_step_mean": float(np.mean(decoding)) if decoding else 0.0,
        "session.tokens_per_forward": _ratio(tokens, token_forwards.size),
        "speculative.tokens_drafted": float(drafted),
        "speculative.tokens_accepted": float(accepted),
        "speculative.acceptance_rate": _ratio(accepted, drafted),
        "speculative.wasted_verify_share": _ratio(drafted - accepted, verify_tokens),
        "speculative.propose_us_p50": pct(
            us(dur[table.where("speculative.propose")]), 50),
        "speculative.rollbacks": float(
            table.where("paged_cache.truncate_session").size),
        "prefix.hits": delta("prefix_hits"),
        "prefix.misses": delta("prefix_misses"),
        "prefix.tokens_reused_share": _ratio(
            delta("prefix_tokens_reused"), facts.samples.get("prompt_tokens_started", 0)),
        "prefix.match_us_p50": pct(us(dur[table.where("prefix.match")]), 50),
        "paged_cache.prepare_us_per_step_p50": pct(us(table.per_step(
            dur, "paged_cache.prepare_step", "paged_cache.prepare_multi_step")), 50),
        "paged_cache.gather_ms_per_step_p50": pct(
            ms(table.per_step(dur, "paged_cache.gather")), 50),
        # Computed from the shapes of the arrays gather() returned.
        "paged_cache.gather_bytes_per_token": _ratio(
            values[table.where("paged_cache.gather")].sum(), tokens),
        "paged_cache.commit_us_p50": pct(us(dur[table.where(
            "paged_cache.commit_step", "paged_cache.commit_multi_step")]), 50),
        "paged_cache.admit_ms_total": float(ms(dur[table.where(
            "paged_cache.admit_rows", "paged_cache.extend_session")]).sum()),
        "paged_cache.truncate_calls": float(
            table.where("paged_cache.truncate_session").size),
        "paged_cache.blocks_in_use_peak": float(max(blocks, default=0)),
        "paged_cache.block_occupancy_mean": _ratio(
            np.mean(blocks) if blocks else 0.0, facts.report_after["block_capacity"]),
        "model.forward_share": _ratio(dur[in_step_forwards].sum(), busy_s),
        "model.forward_calls": float(in_step_forwards.size),
        "model.decode_forward_ms_p50": pct(
            ms(dur[table.where("model.forward_step.decode")]), 50),
        "model.verify_forward_ms_p50": pct(
            ms(dur[table.where("model.forward_step.verify")]), 50),
        "model.prefill_forward_ms_p50": pct(
            ms(dur[table.where("model.forward_incremental")]), 50),
        # Rows pushed through lm_head (from logits shapes) per sampled row.
        "model.lm_head_rows_per_sampled_row": _ratio(
            values[token_forwards].sum(),
            table.where("generation.sample_token").size),
        "transformer.block_self_us_p50": pct(us(self_t[table.where(
            "transformer.block_step", "transformer.block_forward")]), 50),
        "attention.step_self_us_p50": pct(
            us(self_t[table.where("attention.step")]), 50),
        "layers.linear_ms_per_step": _ratio(
            ms(dur[table.where("layers.linear")]).sum(), working.size),
        "layers.layernorm_ms_per_step": _ratio(
            ms(dur[table.where("layers.layernorm")]).sum(), working.size),
        "generation.sample_token_us_p50": pct(
            us(dur[table.where("generation.sample_token")]), 50),
        "runtimes.execute_batch_ms_p50": pct(ms(dur[batches]), 50),
        "runtimes.groups_per_round_mean": _ratio(batches.size, flush_steps.size),
        "runtimes.batch_size_mean": float(values[batches].mean()) if batches.size else 0.0,
        "runtimes.flush_self_us_p50": pct(us(flush_self), 50),
        "adapter.forward_ms_p50": pct(ms(dur[table.where("adapter.forward")]), 50),
        "telemetry.step_overhead_us_p50": pct(us(table.per_step(
            dur, "telemetry.begin_step", "telemetry.commit_step")), 50),
        "telemetry.records": float(len(facts.records)),
        "proc.user_cpu_s": float(user),
        "proc.sys_cpu_s": float(system),
        "proc.sys_cpu_share": _ratio(system, user + system),
        "proc.minor_faults_per_token": _ratio(
            facts.rusage_after.ru_minflt - facts.rusage_before.ru_minflt, tokens),
        "proc.gc_collections": float(facts.gc_after - facts.gc_before),
        "driver.sent": float(facts.sent),
        "driver.succeeded": float(facts.succeeded),
        "driver.failed": float(facts.failed),
        "driver.failed_share": _ratio(facts.failed, facts.sent),
        "driver.backlog_at_last_arrival": float(facts.backlog_at_last_arrival),
        "driver.probe_ms_p50": facts.probe_median_s * 1e3,
        # Filled in by the driver process, which also holds the untraced run.
        "trace.overhead_ratio": 0.0,
    }
    metrics.update({name: value for name, value in facts.numbers.items()
                    if name.startswith("driver.")})
    missing = set(PER_LAYER_NAMES) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(metrics[name]) for name in PER_LAYER_NAMES}
