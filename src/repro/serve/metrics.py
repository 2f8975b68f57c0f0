"""Per-request and server-level metrics for the serving engine.

The metrics surface follows the queue-level performance-diagnosis framing the
serving literature converges on: every request records how long it queued, how
long it decoded and which batch sizes it rode in, and the server aggregates
those into throughput / tail-latency / occupancy statistics.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence

from ..utils import percentile


def export(record: object, derived: Sequence[str] = ()) -> Dict[str, object]:
    """JSON-friendly form of a dataclass: a field is exported by being declared.

    Every field under its own name — tuples as lists, mapping keys as
    strings, at any depth — then the ``derived`` properties named.  The one
    body behind ``StepRecord.to_dict``, ``WindowStats.to_dict`` and
    ``ServerStats.report``.
    """
    out = {f.name: _jsonable(getattr(record, f.name)) for f in fields(record)}
    for name in derived:
        out[name] = getattr(record, name)
    return out


def _jsonable(value: object) -> object:
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


#: Request outcomes (``RequestMetrics.outcome``).
OUTCOME_OK = "ok"
OUTCOME_CANCELLED = "cancelled"
OUTCOME_EXPIRED = "expired"
OUTCOME_FAILED = "failed"  # quarantined after a fault, or live at a stop/crash
OUTCOME_SHED = "shed"      # rejected at submission under overload


class ServerHealth:
    """Coarse engine health surfaced through ``ServerStats.health``.

    ``HEALTHY``: serving normally.  ``DEGRADED``: still serving, but the
    engine recently quarantined a fault or retried a request (within
    ``SchedulerPolicy.health_window_s``), or is currently shedding load.
    ``FAILED``: the serve loop escalated an unrecoverable fault (pool
    invariants violated) and failed everything pending — the state a replica
    manager reads to trigger failover.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class RequestMetrics:
    """Lifecycle timing of one request through the engine."""

    task: str
    priority: int = 0
    #: Engine-assigned request id (joins this request to the telemetry
    #: trace; ``None`` for metrics constructed outside the engine).
    request_id: Optional[int] = None
    #: How the request ended: completed (``"ok"``), ``handle.cancel()``-ed
    #: (``"cancelled"``), past its ``deadline_s`` (``"expired"``),
    #: fault-quarantined or cut off by ``stop(drain=False)`` / a crashed
    #: step (``"failed"``), or overload-rejected (``"shed"``).
    outcome: str = OUTCOME_OK
    #: Execution attempts so far (1 = first attempt; bumped per retry).
    attempts: int = 1
    submitted_at: float = field(default_factory=time.perf_counter)
    # Everything below is recorded per execution attempt (see begin_retry).
    admitted_at: Optional[float] = None
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None
    tokens_generated: int = 0
    #: Per-token wall-clock seconds (prefill token first) — the same breakdown
    #: :func:`repro.llm.generation.generate` returns with ``collect_timing``.
    token_seconds: List[float] = field(default_factory=list)
    #: Batch occupancy of each engine step this request participated in.
    batch_sizes: List[int] = field(default_factory=list)
    #: Prompt-head tokens served from the shared-prefix cache (0 on a miss).
    prefix_tokens: int = 0

    def begin_retry(self) -> None:
        """Start another execution attempt: what the last one recorded goes.

        Identity, ``submitted_at`` (queue aging and the deadline run from
        it) and ``outcome`` span attempts; a per-attempt field added above
        must be cleared here too.
        """
        self.attempts += 1
        self.admitted_at = self.first_token_at = self.finished_at = None
        self.tokens_generated = self.prefix_tokens = 0
        self.token_seconds, self.batch_sizes = [], []

    def mark_admitted(self) -> None:
        self.admitted_at = time.perf_counter()

    def mark_finished(self) -> None:
        self.finished_at = time.perf_counter()

    @property
    def queue_seconds(self) -> float:
        """Time spent waiting before the scheduler admitted the request.

        A request that ended *in the queue* (cancelled or deadline-expired
        before admission) reports its full queued lifetime.
        """
        if self.admitted_at is not None:
            return self.admitted_at - self.submitted_at
        if self.finished_at is not None:
            return self.finished_at - self.submitted_at
        return 0.0

    @property
    def decode_seconds(self) -> float:
        """Time from admission to completion (prefill + all decode steps)."""
        if self.admitted_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.admitted_at

    @property
    def total_seconds(self) -> float:
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    @property
    def ttft_s(self) -> float:
        """Time to first token: submission until the first token committed.

        Covers queueing *and* prefill — with chunked prefill a long prompt's
        TTFT spans every chunk, which is exactly the head-latency the
        serving benchmarks gate.  0.0 while no token has been produced.
        """
        if self.first_token_at is None:
            return 0.0
        return self.first_token_at - self.submitted_at

    @property
    def inter_token_seconds(self) -> List[float]:
        """Wall-clock gap before each token after the first (ITL samples).

        ``token_seconds[0]`` is the prefill-to-first-token time (part of
        TTFT, not ITL); every later entry is the gap since the previous
        committed token — the per-request inter-token latency distribution.
        """
        return self.token_seconds[1:]

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


@dataclass
class ServerStats:
    """Aggregate serving statistics over the completed requests.

    The counters come from ``from_requests``' ``counts`` mapping — from an
    engine, the flight recorder's lifetime totals
    (:meth:`~repro.serve.telemetry.ServeTelemetry.totals`) — and so cover
    the server's whole life (``tokens_per_second`` divides by the whole-life
    ``wall_seconds``); the timing percentiles and ``per_task`` cover the
    requests it still retains (the latest 16384).
    """

    requests_completed: int
    tokens_generated: int
    wall_seconds: float
    tokens_per_second: float
    latency_p50_s: float
    latency_p95_s: float
    queue_p50_s: float
    queue_p95_s: float
    #: Time-to-first-token percentiles over completed generation requests
    #: that produced at least one token (queue wait + prefill included).
    ttft_p50_s: float
    ttft_p95_s: float
    #: Inter-token latency percentiles over every decode gap of every
    #: completed request (the tail the chunked-prefill scheduler bounds).
    itl_p50_s: float
    itl_p95_s: float
    mean_batch_occupancy: float
    max_queue_depth: int
    per_task: Dict[str, int]
    #: Queue-wait p50/p95 (and count) per priority class, over every request
    #: that reached a terminal state — including ones that died in the queue.
    queue_by_priority: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Requests that ended without completing: ``handle.cancel()``-ed and
    #: ``deadline_s``-expired (both excluded from ``requests_completed``).
    cancelled: int = 0
    expired: int = 0
    #: Mean/peak KV-cache blocks live across decode steps, and the pool cap.
    mean_blocks_in_use: float = 0.0
    peak_blocks_in_use: int = 0
    block_capacity: int = 0
    #: Shared prompt-prefix cache counters (0 when the cache is disabled).
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_tokens_reused: int = 0
    #: Fault-tolerance counters: requests that ended ``"failed"``,
    #: quarantine events contained without crashing the loop, retry
    #: re-enqueues, and submissions shed under overload.  All stay zero in a
    #: fault-free run — the serving benchmarks assert that.
    failed: int = 0
    faults_quarantined: int = 0
    retries: int = 0
    shed: int = 0
    #: Speculative decoding counters: draft tokens proposed, draft tokens
    #: accepted (emitted without their own forward).  Both zero with
    #: ``speculation="off"``.
    tokens_drafted: int = 0
    tokens_accepted: int = 0
    #: Engine health at report time (see :class:`ServerHealth`).
    health: str = ServerHealth.HEALTHY
    #: Flight-recorder summary (``ServeTelemetry.summary()``): window width,
    #: step counts and the most recent time-window aggregates.  Empty when
    #: the stats were built outside an engine.
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def block_occupancy(self) -> float:
        """Mean fraction of the block pool in use during decode steps."""
        if self.block_capacity <= 0:
            return 0.0
        return self.mean_blocks_in_use / self.block_capacity

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the verification forward accepted."""
        if self.tokens_drafted <= 0:
            return 0.0
        return self.tokens_accepted / self.tokens_drafted

    @classmethod
    def from_requests(cls, requests: List[RequestMetrics], wall_seconds: float,
                      occupancy_samples: List[int],
                      queue_depth_samples: List[int], *,
                      block_usage_samples: List[int] = (),
                      block_capacity: int = 0,
                      counts: Optional[Mapping[str, int]] = None,
                      health: str = ServerHealth.HEALTHY,
                      telemetry: Optional[Dict[str, object]] = None
                      ) -> "ServerStats":
        """``counts`` is the flight recorder's totals
        (:meth:`~repro.serve.telemetry.ServeTelemetry.totals`), under its
        names; a missing key is 0.
        ``requests`` feed only the timing percentiles and ``per_task``."""
        count = Counter(counts or {})
        terminal = [r for r in requests if r.finished_at is not None]
        finished = [r for r in terminal if r.outcome == OUTCOME_OK]
        tokens = count["tokens_generated"]
        latencies = [r.total_seconds for r in finished]
        queues = [r.queue_seconds for r in finished]
        ttfts = [r.ttft_s for r in finished if r.first_token_at is not None]
        itls = [gap for r in finished for gap in r.inter_token_seconds]
        per_task: Dict[str, int] = {}
        for request in finished:
            per_task[request.task] = per_task.get(request.task, 0) + 1
        queue_by_priority: Dict[int, Dict[str, float]] = {}
        for priority in sorted({r.priority for r in terminal}):
            waits = [r.queue_seconds for r in terminal if r.priority == priority]
            queue_by_priority[priority] = {
                "count": len(waits),
                "queue_p50_s": percentile(waits, 50),
                "queue_p95_s": percentile(waits, 95),
            }
        block_usage = list(block_usage_samples)
        return cls(
            requests_completed=count["finished"] + count["decisions"],
            tokens_generated=tokens,
            wall_seconds=wall_seconds,
            tokens_per_second=tokens / wall_seconds if wall_seconds > 0 else 0.0,
            latency_p50_s=percentile(latencies, 50) if latencies else 0.0,
            latency_p95_s=percentile(latencies, 95) if latencies else 0.0,
            queue_p50_s=percentile(queues, 50) if queues else 0.0,
            queue_p95_s=percentile(queues, 95) if queues else 0.0,
            ttft_p50_s=percentile(ttfts, 50) if ttfts else 0.0,
            ttft_p95_s=percentile(ttfts, 95) if ttfts else 0.0,
            itl_p50_s=percentile(itls, 50) if itls else 0.0,
            itl_p95_s=percentile(itls, 95) if itls else 0.0,
            mean_batch_occupancy=(sum(occupancy_samples) / len(occupancy_samples)
                                  if occupancy_samples else 0.0),
            max_queue_depth=max(queue_depth_samples) if queue_depth_samples else 0,
            per_task=per_task,
            queue_by_priority=queue_by_priority,
            cancelled=count["cancelled"],
            expired=count["expired"],
            mean_blocks_in_use=(sum(block_usage) / len(block_usage)
                                if block_usage else 0.0),
            peak_blocks_in_use=max(block_usage) if block_usage else 0,
            block_capacity=block_capacity,
            prefix_hits=count["prefix_hits"],
            prefix_misses=count["prefix_misses"],
            prefix_tokens_reused=count["prefix_tokens_reused"],
            failed=count["failed"],
            faults_quarantined=count["quarantines"],
            retries=count["retries"],
            shed=count["shed"],
            tokens_drafted=count["tokens_drafted"],
            tokens_accepted=count["tokens_accepted"],
            health=health,
            telemetry=dict(telemetry or {}),
        )

    def report(self) -> Dict[str, object]:
        """JSON-friendly summary (used by the serving benchmark)."""
        return export(self, derived=("block_occupancy", "acceptance_rate"))
