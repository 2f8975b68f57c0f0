"""Flight-recorder observability for the serve loop.

``ServerStats`` answers *whether* the engine regressed (end-of-run p50/p95
aggregates); this module answers *why*: it records what the batch looked
like at the moment a request stalled, in the per-queue-state style the
queuing literature shows is what actually explains tail latency (endpoint
averages cannot).  Three layers:

**Step-level tracing.**  Every engine step emits one compact
:class:`StepRecord` — monotonic step seq, start/end timestamps, batch
composition (which sessions were ``DECODING`` and which were
``PREFILLING`` and how many prompt tokens each chunk committed), token-
budget spend and deferrals, the admissions/finishes/cancellations/
expiries/quarantines/retries/sheds of that step, speculative draft/accept
token counts, prefix-cache hits/misses and reused tokens, tokens generated,
queue depth per priority class, KV blocks in use and the key positions
attention gathered against the ones that were live (and in how many length
groups) — into a bounded ring buffer (:class:`TraceLog`) with O(1) append
and JSONL export.  The recorder is always on, and it is the engine's one
ledger: each committed record is folded into lifetime totals
(:meth:`ServeTelemetry.totals`) that no ring or window bound ever trims,
and ``stats()`` reads its counters from there.

**Time-window aggregation.**  A :class:`WindowAggregator` folds step
records into fixed wall-clock windows (PrintQueue-style time-window
diagnostics): per-window queue-depth mean/max, admission/eviction/shed/
retry/fault counts, decode and prefill token totals and mean batch
occupancy, surfaced via ``server.telemetry.windows()`` and summarized in
``ServerStats.report()["telemetry"]``.

**Tail-latency attribution.**  :meth:`ServeTelemetry.explain_request`
joins a finished request's worst inter-token gaps (and its TTFT) to the
step records covering those wall-clock intervals, naming the co-batched
decode sessions, the in-flight prefill chunks and any fault/quarantine/
retry activity — "who was in the batch when my ITL spiked", directly
answerable from the flight recorder instead of from guesswork.

All mutation happens under the engine lock (the engine serializes steps),
so the recorder needs no locking of its own: the engine and the session
manager write the fields of the open record, :attr:`ServeTelemetry.step`,
where the events happen, and a field exists by being declared on its
dataclass (the exports are derived from it).  Readers (``windows()``,
``records()``, ``explain_request``) should be called through the engine's
public surface which takes the lock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from operator import add, attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import export

#: Batch-composition phases a session can occupy within one step record.
PHASE_DECODING = "decoding"
PHASE_PREFILLING = "prefilling"

#: A step whose attention read at least this share of padding (key positions
#: gathered for a row that its own history does not fill) is named in
#: :meth:`ServeTelemetry.explain_request` as "co-batched with a longer
#: session": at least half of what the step gathered was padding.
HIGH_KV_PADDING_SHARE = 0.5

#: One fired fault, exactly as :attr:`repro.serve.faults.FaultInjector.
#: fired_log` records it: ``(site, visit, action)``.
FaultEvent = Tuple[str, int, str]


# Slotted: past CPython's limit on instance dicts that share their keys (about
# 30 attributes) each record of the ring would carry a dict of its own, 1.3 kB.
@dataclass(slots=True)
class StepRecord:
    """One engine step, compactly: who ran, what it cost, what went wrong.

    ``decode_sessions`` lists the request ids advanced one token by this
    step's batched decode forward (phase ``DECODING``); ``prefill_chunks``
    pairs each request id that committed prompt tokens this step with how
    many it committed (phase ``PREFILLING`` — one-shot admissions appear
    here too, with their whole tail as a single chunk).  The
    remaining fields are the step's event counters and end-of-step gauges.

    This class is the only declaration of a field: while the step runs the
    record is open (:attr:`ServeTelemetry.step`) and whoever causes an event
    writes it here; ``commit_step`` stamps the gauges and turns the id lists
    into tuples.  A committed record is not written again.
    """

    seq: int
    started_at: float
    ended_at: float
    #: Request ids advanced by the batched decode forward this step.
    decode_sessions: Sequence[int] = field(default_factory=list)
    #: ``(request_id, prompt_tokens_committed)`` per prefill this step.
    prefill_chunks: Sequence[Tuple[int, int]] = field(default_factory=list)
    #: Prompt-token budget granted to prefill this step (None: unbounded).
    prefill_budget: Optional[int] = None
    #: Request ids popped from the queue into prefill this step.
    admitted: Sequence[int] = field(default_factory=list)
    #: Admissions bounced back to the queue head (budget ran dry first).
    deferred: Sequence[int] = field(default_factory=list)
    #: Request ids that completed (EOS / max tokens / context cap).
    finished: Sequence[int] = field(default_factory=list)
    #: Request ids implicated in a fault quarantine this step.
    quarantined: Sequence[int] = field(default_factory=list)
    #: Quarantine events contained this step (one per failed phase).
    quarantines: int = 0
    retries: int = 0
    #: Requests that ended so, each counted under its outcome's name.
    failed: int = 0
    cancelled: int = 0
    expired: int = 0
    shed: int = 0
    #: Decision requests answered by task runtimes this step.
    decisions: int = 0
    #: Faults fired by the injector during this step (chaos runs only).
    faults: Tuple[FaultEvent, ...] = ()
    #: Speculative decoding: draft tokens proposed / accepted this step.
    #: Zero on non-speculative steps, so existing traces read unchanged.
    tokens_drafted: int = 0
    tokens_accepted: int = 0
    #: Shared-prefix cache: rows forked from a cached head whose first
    #: forward committed this step and the head tokens they reused, and
    #: prompts that matched no head.
    prefix_hits: int = 0
    prefix_tokens_reused: int = 0
    prefix_misses: int = 0
    #: Tokens of the generations that finished ``ok`` this step.
    tokens_generated: int = 0
    #: End-of-step gauges.
    queue_depth: int = 0
    queue_depth_by_priority: Mapping[int, int] = field(default_factory=dict)
    blocks_in_use: int = 0
    #: Paged attention this step, per layer: key positions scored, gathered
    #: or read fresh (every length group's rows x its key width), how many of
    #: them were live history of the row that read them, and the number of
    #: length groups the rows ran in, over the step's prefill and decode
    #: forwards alike.  All zero on a step that ran neither.
    kv_positions_gathered: int = 0
    kv_positions_live: int = 0
    kv_groups: int = 0

    @property
    def duration_s(self) -> float:
        return self.ended_at - self.started_at

    @property
    def kv_padding_share(self) -> float:
        """Share of the scored key positions that were padding."""
        return _padding_share(self.kv_positions_gathered, self.kv_positions_live)

    @property
    def decode_tokens(self) -> int:
        """Tokens committed by the decode phase: one per decode row, plus
        one per accepted draft token on speculative steps."""
        return len(self.decode_sessions) + self.tokens_accepted

    @property
    def prefill_tokens(self) -> int:
        """Prompt tokens committed across every prefill chunk this step."""
        return sum(tokens for _, tokens in self.prefill_chunks)

    @property
    def batch(self) -> Tuple[Tuple[int, str], ...]:
        """Batch composition as ``(request_id, phase)`` pairs."""
        return tuple([(sid, PHASE_DECODING) for sid in self.decode_sessions]
                     + [(sid, PHASE_PREFILLING)
                        for sid, _ in self.prefill_chunks])

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the JSONL export row)."""
        return export(self, derived=("duration_s", "decode_tokens",
                                     "prefill_tokens", "kv_padding_share"))


#: The fields an open record collects ids in; tuples once committed.
_ID_LISTS = tuple(f.name for f in fields(StepRecord)
                  if f.default_factory is list)
#: What ``commit_step`` has not stamped yet when it decides whether a step
#: that did no work still carries an event (all of it falsy by default).
_EVENT_FIELDS = tuple(f.name for f in fields(StepRecord) if f.name not in
                      ("seq", "started_at", "ended_at", "prefill_budget"))
#: The event counters :meth:`ServeTelemetry.totals` keeps for the server's
#: life, beside ``finished`` (the count of its ids).
_COUNTERS = ("decisions", "failed", "cancelled", "expired", "shed",
             "quarantines", "retries", "tokens_drafted", "tokens_accepted",
             "prefix_hits", "prefix_tokens_reused", "prefix_misses",
             "tokens_generated")
_TOTALS = ("finished",) + _COUNTERS
_read_counters = attrgetter(*_COUNTERS)


def _counts(record: StepRecord) -> Tuple[int, ...]:
    """The record's contribution to the lifetime totals, in ``_TOTALS`` order."""
    return (len(record.finished), *_read_counters(record))


def _padding_share(gathered: int, live: int) -> float:
    return 1.0 - live / gathered if gathered else 0.0


class TraceLog:
    """Bounded ring buffer of :class:`StepRecord` with O(1) append.

    The newest ``capacity`` records are retained; older ones are dropped
    (``dropped`` counts them).  Because every committed record's ``seq`` is
    its append index, ``for_seq`` is an O(1) ring lookup.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[StepRecord]] = [None] * capacity
        self.total = 0  # records ever appended (== next record's seq)

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound (oldest-first)."""
        return max(0, self.total - self.capacity)

    def append(self, record: StepRecord) -> None:
        self._ring[self.total % self.capacity] = record
        self.total += 1

    def records(self) -> List[StepRecord]:
        """Retained records, oldest first."""
        if self.total <= self.capacity:
            return [r for r in self._ring[:self.total]]
        head = self.total % self.capacity
        return self._ring[head:] + self._ring[:head]

    def for_seq(self, seq: int) -> Optional[StepRecord]:
        """The record with this step seq, or None when out of the window."""
        if not 0 <= seq < self.total or seq < self.dropped:
            return None
        return self._ring[seq % self.capacity]

    def covering(self, start: float, end: float) -> List[StepRecord]:
        """Retained records whose [started_at, ended_at] overlaps [start, end]."""
        return [r for r in self.records()
                if r.ended_at >= start and r.started_at <= end]

    def export_jsonl(self, path: str) -> int:
        """Write the retained records as JSON lines; returns the line count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        return len(records)


@dataclass
class WindowStats:
    """One fixed wall-clock window of aggregated step activity.

    The row keeps the raw sums its three means come from (``queue_depth_sum``
    and ``occupancy_sum`` over ``steps``, the two ``kv_positions_*``), so two
    rows can be merged by adding them.
    """

    index: int
    start_at: float
    end_at: float
    steps: int = 0
    queue_depth_sum: int = 0
    queue_depth_max: int = 0
    #: Decode rows plus prefill chunks, summed over the window's steps.
    occupancy_sum: int = 0
    decode_tokens: int = 0
    prefill_tokens: int = 0
    admissions: int = 0
    #: Sessions that left the engine: finished + cancelled + expired + failed.
    evictions: int = 0
    sheds: int = 0
    retries: int = 0
    #: Quarantine events plus injector-fired faults inside the window.
    faults: int = 0
    decisions: int = 0
    blocks_in_use_max: int = 0
    #: ``StepRecord.kv_positions_*`` summed over the window.
    kv_positions_gathered: int = 0
    kv_positions_live: int = 0

    @property
    def queue_depth_mean(self) -> float:
        return self.queue_depth_sum / self.steps if self.steps else 0.0

    @property
    def batch_occupancy_mean(self) -> float:
        return self.occupancy_sum / self.steps if self.steps else 0.0

    @property
    def kv_padding_share(self) -> float:
        """Share of the key positions the window's steps gathered that were
        padding."""
        return _padding_share(self.kv_positions_gathered, self.kv_positions_live)

    def to_dict(self) -> Dict[str, object]:
        return export(self, derived=("queue_depth_mean", "batch_occupancy_mean",
                                     "kv_padding_share"))


class WindowAggregator:
    """Fold step records into fixed wall-clock windows.

    Windows are ``window_s`` seconds wide, anchored at the first observed
    record (``epoch``); a record belongs to the window containing its
    ``ended_at``.  At most ``max_windows`` windows are retained (oldest
    dropped), bounding memory on long-lived servers.  Empty windows are
    materialized on read (:meth:`windows`), so a quiet second between two
    bursts shows up as an explicit zero row instead of silently vanishing.
    """

    def __init__(self, window_s: float = 1.0, max_windows: int = 512) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_s = window_s
        self.max_windows = max_windows
        self.epoch: Optional[float] = None
        self._windows: Dict[int, WindowStats] = {}
        self.windows_dropped = 0

    def window_index(self, timestamp: float) -> int:
        """Which window a timestamp falls in (epoch must be set)."""
        return int((timestamp - self.epoch) // self.window_s)

    def _empty(self, index: int) -> WindowStats:
        start = self.epoch + index * self.window_s
        return WindowStats(index, start, start + self.window_s)

    def observe(self, record: StepRecord) -> None:
        if self.epoch is None:
            self.epoch = record.started_at
        index = self.window_index(record.ended_at)
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = self._empty(index)
            if len(self._windows) > self.max_windows:
                del self._windows[min(self._windows)]
                self.windows_dropped += 1
        window.steps += 1
        window.queue_depth_sum += record.queue_depth
        window.queue_depth_max = max(window.queue_depth_max, record.queue_depth)
        window.occupancy_sum += (len(record.decode_sessions)
                                 + len(record.prefill_chunks))
        window.decode_tokens += record.decode_tokens
        window.prefill_tokens += record.prefill_tokens
        window.admissions += len(record.admitted)
        window.evictions += (len(record.finished) + record.cancelled
                             + record.expired + record.failed)
        window.sheds += record.shed
        window.retries += record.retries
        window.faults += record.quarantines + len(record.faults)
        window.decisions += record.decisions
        window.blocks_in_use_max = max(window.blocks_in_use_max,
                                       record.blocks_in_use)
        window.kv_positions_gathered += record.kv_positions_gathered
        window.kv_positions_live += record.kv_positions_live

    def windows(self, fill_empty: bool = True,
                last: Optional[int] = None) -> List[WindowStats]:
        """Retained windows oldest-first (empty gaps materialized by default).

        ``last`` keeps the newest that many and builds no other: with gaps
        filled, the rows between two records number the idle seconds between
        them, and ``stats()`` reads this with the engine lock held.
        """
        if not self._windows:
            return []
        indices = (range(min(self._windows), max(self._windows) + 1)
                   if fill_empty else sorted(self._windows))
        if last is not None:
            indices = indices[max(0, len(indices) - last):]
        # Copies: a window still filling must not change under its reader.
        return [replace(self._windows[index]) if index in self._windows
                else self._empty(index) for index in indices]


@dataclass(frozen=True)
class GapAttribution:
    """One latency interval joined to the step records that covered it."""

    #: The interval (wall clock, ``time.perf_counter`` domain) and its width.
    start_at: float
    end_at: float
    gap_s: float
    #: Which committed token this gap preceded (0 = the first token, i.e. a
    #: TTFT attribution; k >= 1 = the ITL gap before token k).
    token_index: int
    #: Step records overlapping the interval, oldest first.
    steps: Tuple[StepRecord, ...] = ()
    #: Other requests decoding during the interval (the co-batched set).
    co_sessions: Tuple[int, ...] = ()
    #: Requests committing prefill chunks during the interval (the request
    #: itself included — its own chunks are the explanation of its TTFT).
    prefill_sessions: Tuple[int, ...] = ()
    #: Fault/quarantine/retry activity inside the interval.
    faults: Tuple[FaultEvent, ...] = ()
    quarantined: Tuple[int, ...] = ()
    retries: int = 0

    @property
    def culprit(self) -> Optional[StepRecord]:
        """The overlapping step that consumed most of the interval."""
        if not self.steps:
            return None
        return max(self.steps,
                   key=lambda r: (min(self.end_at, r.ended_at)
                                  - max(self.start_at, r.started_at)))

    @property
    def kv_padding_share(self) -> float:
        """Padding share of the culprit step's attention reads."""
        culprit = self.culprit
        return culprit.kv_padding_share if culprit is not None else 0.0

    @property
    def long_neighbour(self) -> bool:
        """The culprit step was co-batched with a longer session: at least
        :data:`HIGH_KV_PADDING_SHARE` of the key positions it gathered were
        padding to a neighbour's length."""
        return self.kv_padding_share >= HIGH_KV_PADDING_SHARE

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_at": self.start_at,
            "end_at": self.end_at,
            "gap_s": self.gap_s,
            "token_index": self.token_index,
            "step_seqs": [record.seq for record in self.steps],
            "culprit_seq": self.culprit.seq if self.culprit else None,
            "co_sessions": list(self.co_sessions),
            "prefill_sessions": list(self.prefill_sessions),
            "faults": [list(event) for event in self.faults],
            "quarantined": list(self.quarantined),
            "retries": self.retries,
            "kv_padding_share": self.kv_padding_share,
            "co_batched_with_longer_session": self.long_neighbour,
        }


@dataclass(frozen=True)
class RequestExplanation:
    """Why a finished request was slow: TTFT and worst-ITL attribution."""

    request_id: int
    task: str
    outcome: str
    ttft_s: float
    #: TTFT joined to the steps between submission and the first token
    #: (None when the request never produced a token).
    ttft: Optional[GapAttribution]
    #: The worst inter-token gaps, largest first.
    worst_gaps: Tuple[GapAttribution, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "task": self.task,
            "outcome": self.outcome,
            "ttft_s": self.ttft_s,
            "ttft": self.ttft.to_dict() if self.ttft is not None else None,
            "worst_gaps": [gap.to_dict() for gap in self.worst_gaps],
        }


class ServeTelemetry:
    """The serve loop's flight recorder (trace + windows + attribution).

    Records every engine step into a bounded :class:`TraceLog`, folds it
    into :class:`WindowAggregator` windows and into lifetime
    :meth:`totals` — the one count of every request ending, quarantine,
    retry, draft, prefix hit and miss and generated token the engine keeps.
    It cannot be turned off: a recorder that might be absent would put an
    ``is None`` guard on every write.
    """

    def __init__(self, trace_capacity: int = 4096, window_s: float = 1.0,
                 max_windows: int = 512) -> None:
        self.trace = TraceLog(capacity=trace_capacity)
        self.aggregator = WindowAggregator(window_s=window_s,
                                           max_windows=max_windows)
        #: The open record (engine lock held to write it): the step in
        #: progress or, between steps, the next one — so a shed at submit or
        #: a client's cancel lands in the next committed record.  Whoever
        #: causes an event writes the field itself (``step.retries += 1``,
        #: ``step.finished.append(rid)``).
        self.step: StepRecord = self._open()
        #: Committed records' counts summed, in ``_TOTALS`` order
        #: (:meth:`totals` adds the open record's).
        self._totals: Tuple[int, ...] = (0,) * len(_TOTALS)
        self._fault_log: Optional[Sequence[FaultEvent]] = None
        self._fault_baseline = 0
        self._last_kv_totals = (0, 0, 0)
        #: Steps begun but discarded as fully idle (nothing to record).
        self.idle_steps = 0

    def _open(self) -> StepRecord:
        # A record's seq is its append index (``TraceLog.for_seq``).
        return StepRecord(self.trace.total, 0.0, 0.0)

    # -- step lifecycle (engine lock held) ------------------------------- #
    def begin_step(self, started_at: float,
                   fault_log: Optional[Sequence[FaultEvent]] = None) -> None:
        self.step.started_at = started_at
        self._fault_log = fault_log
        self._fault_baseline = len(fault_log) if fault_log is not None else 0

    def commit_step(self, ended_at: float, did_work: bool, queue_depth: int,
                    queue_depth_by_priority: Mapping[int, int],
                    blocks_in_use: int,
                    kv_totals: Tuple[int, int, int] = (0, 0, 0)
                    ) -> Optional[StepRecord]:
        """Stamp, append and return the open record, and open the next.

        A step that did no work and whose record carries no event — in-step
        or out-of-step — is discarded (``None``): idle polling must not flood
        the ring, and such a record has nothing to count.  ``kv_totals`` is
        the paged cache's running ``(key_positions_gathered,
        key_positions_live, attention_groups)``; the record keeps what this
        step added.  A committed record's counters are folded into the
        lifetime :meth:`totals`.
        """
        step = self.step
        if not (did_work or any(getattr(step, name) for name in _EVENT_FIELDS)):
            self.idle_steps += 1
            self.step = self._open()  # whatever it was stamped with goes too
            return None
        step.ended_at = ended_at
        for name in _ID_LISTS:
            setattr(step, name, tuple(getattr(step, name)))
        if self._fault_log is not None:
            step.faults = tuple(self._fault_log[self._fault_baseline:])
        step.queue_depth = queue_depth
        step.queue_depth_by_priority = dict(queue_depth_by_priority)
        step.blocks_in_use = blocks_in_use
        step.kv_positions_gathered, step.kv_positions_live, step.kv_groups = (
            max(0, now - before)
            for now, before in zip(kv_totals, self._last_kv_totals))
        self._last_kv_totals = kv_totals
        self._totals = tuple(map(add, self._totals, _counts(step)))
        self.trace.append(step)
        self.aggregator.observe(step)
        self.step = self._open()
        return step

    # -- read side -------------------------------------------------------- #
    def totals(self) -> Dict[str, int]:
        """Lifetime event counts: every committed record plus the open one.

        Keys are the :class:`StepRecord` fields they sum — ``finished``
        (requests that completed generating), ``decisions``, ``failed``,
        ``cancelled``, ``expired``, ``shed``, ``quarantines``, ``retries``,
        ``tokens_drafted``, ``tokens_accepted``, ``prefix_hits``,
        ``prefix_tokens_reused``, ``prefix_misses``, ``tokens_generated``.
        The open record is counted too, so an ending between steps (a shed
        at submit, a client's cancel, ``stop(drain=False)``) shows at once.
        """
        return dict(zip(_TOTALS, map(add, self._totals, _counts(self.step))))

    def records(self) -> List[StepRecord]:
        """Retained step records, oldest first."""
        return self.trace.records()

    def windows(self, fill_empty: bool = True) -> List[WindowStats]:
        """Time-window aggregates, oldest first (gaps materialized)."""
        return self.aggregator.windows(fill_empty=fill_empty)

    def export_jsonl(self, path: str) -> int:
        """Dump the retained trace as JSON lines; returns the line count."""
        return self.trace.export_jsonl(path)

    def summary(self, max_windows: int = 16) -> Dict[str, object]:
        """Compact JSON-friendly state for ``ServerStats.report()``."""
        return {
            "window_s": self.aggregator.window_s,
            "steps_recorded": self.trace.total,
            "steps_retained": len(self.trace),
            "steps_dropped": self.trace.dropped,
            "idle_steps": self.idle_steps,
            "windows": [w.to_dict() for w
                        in self.aggregator.windows(last=max_windows)],
        }

    # -- attribution ------------------------------------------------------ #
    def explain_request(self, metrics, top_gaps: int = 3) -> RequestExplanation:
        """Attribute a finished request's TTFT and worst ITL gaps to steps.

        ``metrics`` is the request's :class:`~repro.serve.metrics.
        RequestMetrics`.  Token commit times are reconstructed from
        ``first_token_at`` plus the recorded inter-token gaps; each
        interval is joined to the step records covering it.  Only the
        trace window is consulted — a gap older than the ring retains
        attributes to zero steps (the explanation says so via empty
        ``steps``), never to wrong ones.
        """
        if metrics.finished_at is None:
            raise ValueError(
                f"request {metrics.request_id} has not finished; "
                f"explain_request attributes completed requests")
        ttft_attr: Optional[GapAttribution] = None
        worst: List[GapAttribution] = []
        if metrics.first_token_at is not None:
            ttft_attr = self._attribute(
                metrics.submitted_at, metrics.first_token_at,
                metrics.first_token_at - metrics.submitted_at,
                token_index=0, request_id=metrics.request_id)
            # Absolute commit time of token k: first_token_at plus the
            # recorded gaps (token_seconds[0] is the prefill gap, part of
            # TTFT; entries 1.. are the ITL gaps).
            commit_at = metrics.first_token_at
            gaps: List[Tuple[float, int, float, float]] = []
            for index, gap in enumerate(metrics.token_seconds[1:], start=1):
                start = commit_at
                commit_at += gap
                gaps.append((gap, index, start, commit_at))
            gaps.sort(key=lambda item: -item[0])
            for gap, index, start, end in gaps[:max(0, top_gaps)]:
                worst.append(self._attribute(start, end, gap, index,
                                             metrics.request_id))
        return RequestExplanation(
            request_id=metrics.request_id,
            task=metrics.task,
            outcome=metrics.outcome,
            ttft_s=metrics.ttft_s,
            ttft=ttft_attr,
            worst_gaps=tuple(worst),
        )

    def _attribute(self, start: float, end: float, gap_s: float,
                   token_index: int, request_id: Optional[int]) -> GapAttribution:
        steps = tuple(self.trace.covering(start, end))
        co = sorted({sid for record in steps
                     for sid in record.decode_sessions} - {request_id})
        prefills = sorted({sid for record in steps
                           for sid, _ in record.prefill_chunks})
        faults = tuple(event for record in steps for event in record.faults)
        quarantined = sorted({sid for record in steps
                              for sid in record.quarantined})
        retries = sum(record.retries for record in steps)
        return GapAttribution(
            start_at=start, end_at=end, gap_s=gap_s, token_index=token_index,
            steps=steps, co_sessions=tuple(co),
            prefill_sessions=tuple(prefills), faults=faults,
            quarantined=tuple(quarantined), retries=retries)
