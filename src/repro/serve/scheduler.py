"""Continuous-batching scheduler: request queue + admission/eviction policy.

The scheduler owns the request queue and decides, between decode steps, which
queued sessions join the in-flight batch (vLLM-style continuous batching:
admissions happen whenever slots free up, never only at batch boundaries).
Admission is **priority-class** ordered: a higher ``priority`` leaves the
queue first, FIFO within a class, and waiting requests *age* into higher
effective classes (``priority_aging_s``) so a busy high-priority stream can
never starve background work.  The scheduler also samples the queue depth and
batch occupancy that feed the :class:`~repro.serve.metrics.ServerStats`
report.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Type

from ..nn import DEFAULT_BLOCK_SIZE
from .session import GenerationSession


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded re-execution of transiently-failed requests.

    ``max_attempts`` counts *executions* (first attempt included), so the
    default of 2 means one retry.  An error is retryable when it carries a
    truthy ``transient`` attribute (e.g.
    :class:`~repro.serve.faults.TransientFault`) or is an instance of one of
    the ``retry_on`` exception types — everything else fails the request
    immediately with :class:`~repro.serve.requests.RequestFailed`.  Retried
    generation sessions re-enter the queue at the *front* with their
    original submission time (priority aging and deadlines carry over), and
    ``backoff_for`` spaces attempts exponentially:
    ``backoff_s * backoff_multiplier ** (failures - 1)`` seconds after the
    ``failures``-th failure.
    """

    max_attempts: int = 2
    backoff_s: float = 0.0
    backoff_multiplier: float = 2.0
    retry_on: Tuple[Type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts counts executions, so it must be >= 1; "
                f"got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_multiplier < 1:
            raise ValueError(
                f"backoff_multiplier must be >= 1 (exponential spacing), "
                f"got {self.backoff_multiplier}")
        for exc in self.retry_on:
            if not (isinstance(exc, type) and issubclass(exc, BaseException)):
                raise TypeError(
                    f"retry_on entries must be exception types, got {exc!r}")

    def is_retryable(self, error: BaseException) -> bool:
        """Whether ``error`` classifies as transient under this policy."""
        if self.retry_on and isinstance(error, self.retry_on):
            return True
        return bool(getattr(error, "transient", False))

    def backoff_for(self, failures: int) -> float:
        """Seconds to park before the attempt after the N-th failure."""
        if self.backoff_s <= 0 or failures < 1:
            return 0.0
        return self.backoff_s * self.backoff_multiplier ** (failures - 1)


@dataclass(frozen=True)
class SchedulerPolicy:
    """Knobs bounding the in-flight batch, per-session context and KV paging.

    ``max_batch_size`` caps how many sessions decode together per engine
    step.  ``max_context`` caps each session's total context length (prompt +
    generated); ``None`` defers to the model's ``max_seq_len``.  ``max_queue``
    bounds the waiting queue — submissions beyond it are rejected, which is
    the backpressure signal a load balancer in front of the engine would
    consume.  ``priority_aging_s`` makes priority admission starvation-free:
    a queued request's effective class grows by one per ``priority_aging_s``
    seconds waited, so any request eventually outranks fresh higher-priority
    traffic (``None`` disables aging: strict classes).  ``block_size`` is the
    paged KV-cache block granularity (an explicit ``max_context`` must be a
    whole number of blocks so the context cap and the pool reservation
    agree).  ``enable_prefix_cache`` turns shared prompt-head caching on;
    ``max_prefixes`` bounds how many heads stay resident (LRU beyond that).

    **Chunked prefill / token-budget stepping** (Sarathi-style stall-free
    batching):

    ``prefill_chunk_size`` caps how many prompt tokens one session prefills
    per engine step.  A prompt longer than the chunk is admitted across
    several steps — the session sits in the ``PREFILLING`` state with a
    resumable offset — so in-flight decode sessions keep producing tokens
    *between* the chunks of a long prompt instead of stalling for its whole
    prefill (the head-of-line stall that blows up inter-token p95 exactly
    when the server is busiest).  A step's chunks and whole tails, of however
    many sessions, ride one token-packed forward, nothing padded.  ``None``
    (default) means the chunk is the whole context: the same route, with
    every prompt tail admitted in a single forward — the baseline the
    latency benchmark compares against.

    ``step_token_budget`` bounds the *total* tokens one engine step schedules:
    every in-flight decode row spends one token first, and only the remaining
    budget is granted to prefill chunks / new admissions.  The bound is
    exact: a prompt that *completes* its prefill joins the same step's decode
    batch, so completion is charged one extra token — a grant that cannot
    afford it stops one token short instead.  A small budget
    keeps step wall-time (and therefore inter-token latency) flat under
    prompt bursts; ``None`` leaves steps unbounded (prefill work is still
    chunked per session when ``prefill_chunk_size`` is set).  Setting a
    budget requires ``prefill_chunk_size`` — the budget is spent in chunk
    grants.

    **Speculative decoding**:

    ``speculation="ngram"`` turns on draft-and-verify multi-token decoding:
    each decode row proposes up to ``speculation_k`` draft tokens copied
    from its own prompt/generated history (no second model — see
    :mod:`repro.serve.speculative`), verifies them in one ragged
    multi-token forward, and keeps the longest accepted prefix.  Output is
    token-exact versus ``speculation="off"`` at any temperature (the
    acceptance rule replays the session's own sampling, RNG draws
    included); only the forwards-per-token ratio changes.  Draft length
    adapts per session between 0 and ``speculation_k``: a session starts
    at 0 and earns its first draft through an accepted one-token probe on
    every 16th planned step; fully accepted drafts grow it, rejected drafts
    halve it; and a session drafts only while its own acceptance pays for a
    verify at the current batch size — otherwise it takes the plain decode
    step until the next probe (see ``docs/speculative.md``).  Under
    ``step_token_budget`` each speculative row is charged ``1 + drafted``
    tokens — draft lengths are trimmed, longest first, to fit the budget —
    so prefill chunks and speculation share one token-accounting regime.

    **Fault tolerance / graceful degradation**:

    ``retry_policy`` re-enqueues transiently-failed requests (see
    :class:`RetryPolicy`); ``None`` (default) fails them on the first fault.
    ``shed_queue_depth`` / ``shed_queue_age_s`` shed *new* submissions with
    :class:`~repro.serve.requests.ServerOverloaded` once the waiting queue
    (generation + pending decisions) reaches that depth / once its oldest
    waiter exceeds that age — admitting more work past either bound only
    pushes everything queued past its deadline.  ``health_window_s`` is how
    long after a quarantined fault or retry the engine still reports
    ``DEGRADED`` health (see :class:`~repro.serve.metrics.ServerHealth`).
    """

    max_batch_size: int = 16
    max_context: Optional[int] = None
    max_queue: Optional[int] = None
    priority_aging_s: Optional[float] = 30.0
    block_size: int = DEFAULT_BLOCK_SIZE
    enable_prefix_cache: bool = True
    max_prefixes: int = 8
    prefill_chunk_size: Optional[int] = None
    step_token_budget: Optional[int] = None
    retry_policy: Optional[RetryPolicy] = None
    shed_queue_depth: Optional[int] = None
    shed_queue_age_s: Optional[float] = None
    health_window_s: float = 5.0
    speculation: str = "off"
    speculation_k: int = 4

    def __post_init__(self) -> None:
        if self.speculation not in ("off", "ngram"):
            raise ValueError(
                f"speculation must be 'off' or 'ngram', got "
                f"{self.speculation!r}")
        if self.speculation_k < 1:
            raise ValueError(
                f"speculation_k must be >= 1 draft tokens, got "
                f"{self.speculation_k}")
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be a positive batch width, got "
                f"{self.max_batch_size}")
        if self.prefill_chunk_size is not None and self.prefill_chunk_size < 1:
            raise ValueError(
                f"prefill_chunk_size must be >= 1 tokens (or None for "
                f"one-shot prefill), got {self.prefill_chunk_size}")
        if self.step_token_budget is not None:
            if self.step_token_budget < 2:
                # Admitting any prompt costs at least 2 tokens (one prefill
                # token plus its same-step decode row), so a budget of 1 can
                # never admit anything — starvation, not throttling.
                raise ValueError(
                    f"step_token_budget must be >= 2 tokens (or None for "
                    f"unbounded steps), got {self.step_token_budget}")
            if self.prefill_chunk_size is None:
                raise ValueError(
                    "step_token_budget requires prefill_chunk_size: the "
                    "budget is spent in prefill-chunk grants")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.max_prefixes < 1:
            raise ValueError(f"max_prefixes must be >= 1, got {self.max_prefixes}")
        if self.priority_aging_s is not None and self.priority_aging_s <= 0:
            raise ValueError(
                f"priority_aging_s must be positive seconds (or None to "
                f"disable aging), got {self.priority_aging_s}")
        if self.max_context is not None:
            if self.max_context < 2:
                raise ValueError("max_context must be >= 2")
            if self.max_context % self.block_size:
                raise ValueError(
                    f"max_context ({self.max_context}) must be a multiple of "
                    f"block_size ({self.block_size}) so the context cap is a "
                    f"whole number of KV blocks")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.retry_policy is not None \
                and not isinstance(self.retry_policy, RetryPolicy):
            raise TypeError(
                f"retry_policy must be a RetryPolicy (or None), got "
                f"{type(self.retry_policy).__name__}")
        if self.shed_queue_depth is not None and self.shed_queue_depth < 1:
            raise ValueError(
                f"shed_queue_depth must be >= 1 (or None to disable "
                f"depth-based shedding), got {self.shed_queue_depth}")
        if self.shed_queue_age_s is not None and self.shed_queue_age_s <= 0:
            raise ValueError(
                f"shed_queue_age_s must be positive seconds (or None to "
                f"disable age-based shedding), got {self.shed_queue_age_s}")
        if self.health_window_s < 0:
            raise ValueError(
                f"health_window_s must be >= 0, got {self.health_window_s}")


@dataclass
class _QueueEntry:
    seq: int
    enqueued_at: float
    session: GenerationSession


class ContinuousBatchingScheduler:
    """Priority-class admission of queued sessions into freed batch slots."""

    #: Per-step samples retained for stats (bounded for long-lived servers).
    MAX_SAMPLES = 65536

    def __init__(self, policy: Optional[SchedulerPolicy] = None) -> None:
        self.policy = policy or SchedulerPolicy()
        self._queue: List[_QueueEntry] = []
        self._seq = 0
        self._front_seq = 0  # decreasing seqs for requeued (deferred) sessions
        self.queue_depth_samples: Deque[int] = deque(maxlen=self.MAX_SAMPLES)
        self.occupancy_samples: Deque[int] = deque(maxlen=self.MAX_SAMPLES)
        self.block_usage_samples: Deque[int] = deque(maxlen=self.MAX_SAMPLES)

    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def queue_depth_by_priority(self) -> Dict[int, int]:
        """Waiting sessions per *raw* priority class (telemetry gauge).

        Raw, not aged: the flight recorder wants the submitted class mix
        (aging is derivable from the record timestamps when needed).
        """
        depths: Dict[int, int] = {}
        for entry in self._queue:
            priority = entry.session.priority
            depths[priority] = depths.get(priority, 0) + 1
        return depths

    def enqueue(self, session: GenerationSession) -> bool:
        """Queue a session for admission; False when the queue is full."""
        if (self.policy.max_queue is not None
                and len(self._queue) >= self.policy.max_queue):
            return False
        self._queue.append(_QueueEntry(seq=self._seq,
                                       enqueued_at=time.perf_counter(),
                                       session=session))
        self._seq += 1
        return True

    def requeue_front(self, session: GenerationSession) -> None:
        """Return a popped-but-never-started session to the queue.

        Used for an admission candidate the step token budget could not give
        a first prefill token to (``prefill_step``'s ``deferred``), and for a
        retried request's fresh session.  Unlike :meth:`enqueue`, the entry
        keeps the session's full wait: ``enqueued_at`` is its submission time
        (so priority aging resumes where it left off, not from zero) and its seq
        precedes every live entry (so it keeps winning FIFO ties against
        later arrivals).  The queue bound does not apply — the session was
        already accounted for when it first entered.
        """
        self._front_seq -= 1
        self._queue.append(_QueueEntry(seq=self._front_seq,
                                       enqueued_at=session.metrics.submitted_at,
                                       session=session))

    def remove(self, session: GenerationSession) -> bool:
        """Drop a queued session (cancellation); False when not queued."""
        for index, entry in enumerate(self._queue):
            if entry.session is session:
                del self._queue[index]
                return True
        return False

    def effective_priority(self, entry: _QueueEntry, now: float) -> int:
        """The entry's priority class after starvation-free aging."""
        aging = self.policy.priority_aging_s
        if aging is None:
            return entry.session.priority
        return entry.session.priority + int((now - entry.enqueued_at) / aging)

    def prefill_budget(self, decode_rows: int) -> Optional[int]:
        """Prompt tokens this step may spend after decode takes its share.

        The unified token-budget policy: each of the ``decode_rows`` sessions
        already in flight spends one token of ``step_token_budget`` first;
        whatever remains funds prefill chunks and new admissions.  ``None``
        means unbounded (no ``step_token_budget`` configured).

        With speculative decoding on, the caller passes the *planned decode
        tokens* (``sum(1 + drafted)`` over the batch, from
        ``SessionManager.plan_decode_tokens``) instead of the row count, so
        drafts and prefill chunks are charged against the same budget.
        """
        budget = self.policy.step_token_budget
        if budget is None:
            return None
        return max(0, budget - decode_rows)

    def admissions(self, free_slots: int) -> List[GenerationSession]:
        """Pop the sessions to admit into the freed slots.

        Highest effective priority class first; FIFO (submission order)
        within a class.  Sessions parked for retry backoff
        (``session.retry_at`` in the future) are not eligible until their
        backoff elapses.
        """
        if free_slots <= 0 or not self._queue:
            return []
        now = time.perf_counter()
        eligible = [e for e in self._queue
                    if e.session.retry_at is None or e.session.retry_at <= now]
        grant = min(free_slots, len(eligible))
        if grant <= 0:
            return []
        ranked = sorted(eligible,
                        key=lambda e: (-self.effective_priority(e, now), e.seq))
        chosen = ranked[:grant]
        taken = {id(entry) for entry in chosen}
        self._queue = [entry for entry in self._queue if id(entry) not in taken]
        for entry in chosen:
            entry.session.retry_at = None
        return [entry.session for entry in chosen]

    def oldest_wait_s(self) -> float:
        """Seconds the oldest admissible queued session has been waiting.

        Feeds age-based load shedding.  Sessions parked for retry backoff
        are excluded — they wait on purpose, and counting them would make
        one retried straggler shed all fresh traffic.
        """
        if not self._queue:
            return 0.0
        now = time.perf_counter()
        waits = [now - e.enqueued_at for e in self._queue
                 if e.session.retry_at is None or e.session.retry_at <= now]
        return max(waits) if waits else 0.0

    def next_retry_at(self) -> Optional[float]:
        """Earliest ``retry_at`` across parked sessions (None: none parked).

        Idle drivers use this to sleep until backoff work becomes eligible
        instead of declaring the engine stuck.
        """
        times = [e.session.retry_at for e in self._queue
                 if e.session.retry_at is not None]
        return min(times) if times else None

    def reap_expired(self) -> List[GenerationSession]:
        """Pop every queued session whose deadline has already passed."""
        now = time.perf_counter()
        expired = [e.session for e in self._queue if e.session.is_expired(now)]
        if expired:
            dead = set(map(id, expired))
            self._queue = [e for e in self._queue if id(e.session) not in dead]
        return expired

    def drain(self) -> List[GenerationSession]:
        """Pop every queued session (shutdown/fail-fast path)."""
        drained = [entry.session for entry in self._queue]
        self._queue = []
        return drained

    # ------------------------------------------------------------------ #
    def record_step(self, batch_size: int,
                    blocks_in_use: Optional[int] = None) -> None:
        """Sample per-step occupancy, queue depth and KV-block usage."""
        self.occupancy_samples.append(batch_size)
        self.queue_depth_samples.append(len(self._queue))
        if blocks_in_use is not None:
            self.block_usage_samples.append(blocks_in_use)
