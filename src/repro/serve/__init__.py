"""``repro.serve`` — batched multi-session inference serving.

The runtime substrate (``repro.nn``'s paged :class:`~repro.nn.PagedKVCache`
and the batched ``forward_step`` path) advances N independent decoding
sessions in one forward over block-granular KV storage; this package adds the
serving machinery on top: a **typed request/response API**
(:class:`GenerateRequest` / :class:`DecisionRequest` and per-task result
types), request handles with the full lifecycle (``result()`` /
``stream()`` / ``cancel()``, deadlines, priority classes), **pluggable task
runtimes** (:class:`TaskRuntime`; ``vp``/``abr``/``cjs`` are the built-in
registrations), a session manager with ragged length-bucketed batched prefill
and a shared prompt-prefix cache (:class:`PrefixCache`), a priority-aware
continuous-batching scheduler, and the :class:`InferenceServer` facade with a
queue-level metrics surface (tokens/s, p50/p95 latency per priority class,
batch occupancy, block occupancy, prefix hits, cancelled/expired counts).

**Fault tolerance**: the engine is fault-isolated and self-healing.  A
failure in one phase of a step is *quarantined* to the requests it
implicates — their KV blocks are reclaimed, the pool is re-proven sound, and
only those handles fail with :class:`RequestFailed` (original error chained)
while serving continues.  Transient failures retry under
:class:`RetryPolicy` (bounded attempts, exponential backoff, original queue
aging); overload sheds new submissions with :class:`ServerOverloaded`;
``server.health`` and the fault counters on :class:`ServerStats` surface the
state.  :mod:`repro.serve.faults` provides the deterministic
:class:`FaultInjector` (gated behind the ``REPRO_FAULTS`` env toggle) whose
named sites (the catalog is :data:`FAULT_SITES`) drive the chaos test suite
through exactly the production quarantine paths.

**Speculative decoding**: ``SchedulerPolicy(speculation="ngram")`` turns on
draft-and-verify multi-token decode — each session drafts up to
``speculation_k`` tokens copied from its own prompt/generated history
(:class:`NgramProposer`; no second model), verifies them in one ragged
multi-token forward, and keeps the longest accepted prefix, with rejected
KV rolled back.  Output is token-exact versus sequential decoding at any
temperature; acceptance counters surface on :class:`ServerStats`
(``tokens_drafted`` / ``tokens_accepted`` / ``acceptance_rate``) and
per-step on :class:`StepRecord`.  See :mod:`repro.serve.speculative` and
``docs/speculative.md``.

**Observability**: every engine step is recorded by a flight recorder
(:class:`ServeTelemetry`, always on) that is also the engine's one ledger —
each request ending, quarantine, retry and draft is written once, to the
open step record, and ``stats()`` reads its counters from the recorder's
lifetime totals (:meth:`ServeTelemetry.totals`).  It keeps step-level :class:`StepRecord`
traces in a bounded ring (:class:`TraceLog`, JSONL-exportable), fixed
wall-clock window aggregates (:class:`WindowAggregator` /
:class:`WindowStats`, surfaced via ``server.telemetry.windows()`` and
``stats().report()["telemetry"]``), and tail-latency attribution:
``server.explain_request(request_id)`` joins a finished request's TTFT and
worst inter-token gaps to the step records covering them
(:class:`RequestExplanation`) — who was co-batched, which prefill chunks
were in flight, and what fault/retry activity hit.
"""

from ..llm.generation import GenerationResult
from .clients import (
    LockstepABRDriver,
    ServedABRPolicy,
    ServedCJSScheduler,
    ServedVPPredictor,
    serve_vp_predictions,
)
from .engine import InferenceServer, RequestHandle
from .faults import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    TransientFault,
)
from .metrics import RequestMetrics, ServerHealth, ServerStats
from .prefix import PrefixCache, PrefixEntry
from .requests import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ABRResult,
    CJSResult,
    DeadlineExceeded,
    DecisionRequest,
    GenerateRequest,
    RequestCancelled,
    RequestFailed,
    ServerOverloaded,
    VPResult,
)
from .runtimes import ABRRuntime, CJSRuntime, TaskRuntime, VPRuntime, build_runtime
from .scheduler import ContinuousBatchingScheduler, RetryPolicy, SchedulerPolicy
from .session import GenerationSession, SessionManager
from .speculative import AdaptiveK, NgramProposer
from .telemetry import (
    GapAttribution,
    RequestExplanation,
    ServeTelemetry,
    StepRecord,
    TraceLog,
    WindowAggregator,
    WindowStats,
)

__all__ = [
    "GenerateRequest", "DecisionRequest",
    "GenerationResult", "VPResult", "ABRResult", "CJSResult",
    "RequestCancelled", "DeadlineExceeded",
    "RequestFailed", "ServerOverloaded",
    "PRIORITY_LOW", "PRIORITY_NORMAL", "PRIORITY_HIGH",
    "TaskRuntime", "VPRuntime", "ABRRuntime", "CJSRuntime", "build_runtime",
    "ContinuousBatchingScheduler", "SchedulerPolicy", "RetryPolicy",
    "GenerationSession", "SessionManager",
    "NgramProposer", "AdaptiveK",
    "PrefixCache", "PrefixEntry",
    "FaultInjector", "FaultSpec", "InjectedFault", "TransientFault",
    "FAULT_SITES",
    "InferenceServer", "RequestHandle",
    "RequestMetrics", "ServerStats", "ServerHealth",
    "ServeTelemetry", "StepRecord", "TraceLog",
    "WindowAggregator", "WindowStats",
    "GapAttribution", "RequestExplanation",
    "LockstepABRDriver", "ServedABRPolicy", "ServedCJSScheduler",
    "ServedVPPredictor", "serve_vp_predictions",
]
