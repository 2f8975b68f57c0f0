"""`InferenceServer` — the batched multi-session serving facade.

One engine serves two kinds of traffic through a single shared model:

* **Generation sessions** (:class:`~repro.serve.requests.GenerateRequest`):
  streaming autoregressive requests decoded with continuous batching over the
  paged KV cache — new sessions are admitted into the in-flight batch
  whenever slots free up, so one ``forward_step`` advances every running
  session at once.  Every step runs the unified token-budget scheduler:
  decode rows spend the step's ``step_token_budget`` first and, with
  ``SchedulerPolicy.prefill_chunk_size`` set, long prompts are prefilled in
  chunks with the remainder, so a long arrival never stalls in-flight decode
  (its first token streams the moment its final chunk commits).
* **Decision requests** (:class:`~repro.serve.requests.DecisionRequest`):
  per-step adapter inferences answered by pluggable
  :class:`~repro.serve.runtimes.TaskRuntime` registrations (built-ins:
  ``vp``/``abr``/``cjs``).  The live requests of a task are grouped by the
  runtime's ``group_key`` between decode steps and executed as one batched
  forward.

``submit`` takes a typed request and returns a :class:`RequestHandle`
immediately.  The handle exposes the full request lifecycle: ``result()``
blocks for the final payload, ``stream()`` yields text pieces as decode steps
commit them, and ``cancel()`` aborts the request — evicting its session and
returning its KV blocks to the pool at the next safe point.  Requests may
carry a ``priority`` class (admitted first, aged against starvation) and a
relative ``deadline_s`` (expiry fails the handle with
:class:`~repro.serve.requests.DeadlineExceeded`, in-queue or mid-decode).

**Request lifecycle and failure semantics** (fault isolation, not fail-all).
Every live request, generation or decision, sits in one table keyed by
request id and leaves it through one terminal function
(:meth:`InferenceServer._finish`) — completed, cancelled, expired, failed,
shed, or still live at ``stop(drain=False)`` / a crashed step — so every
ending is counted once in ``stats()``.  An exception in one phase of a step
is *quarantined* to the requests it implicates — the sessions of the failed
decode batch, the session whose prefill row still raised when retried alone,
or the entries of the failed decision group.  Their blocks are evicted and reclaimed,
:meth:`~repro.nn.PagedKVCache.check_invariants` proves the pool is still
sound, and each implicated request meets the one retry rule
(:meth:`InferenceServer._retry_or_fail`): a transient error under
``SchedulerPolicy.retry_policy``, with attempts left, the deadline not passed
and no token already streamed, earns another attempt after an exponential
backoff — a generation restarts as a fresh session at the front of the queue
with its original aging, a decision stays live until its backoff elapses — and
anything else fails that handle alone
(:class:`~repro.serve.requests.RequestFailed` carrying the original error)
while the loop keeps serving everything else.  Only a violated pool
invariant escalates to the fail-all crash guard, marking the server
``FAILED``.  Under overload, ``shed_queue_depth``/``shed_queue_age_s`` shed
new submissions with :class:`~repro.serve.requests.ServerOverloaded` instead
of letting the queue drown the in-flight work; ``server.health`` summarizes
all of this as HEALTHY/DEGRADED/FAILED.  Deterministic chaos testing hooks
into the same paths via :mod:`repro.serve.faults`.

The engine can be driven synchronously (``step()`` / ``run_until_idle()`` /
``handle.result()``) or by a background thread (``start()`` / ``stop()``, or
the context manager), which lets independent client threads — e.g. a VP
evaluator, several ABR sessions and a CJS workload — share one batched model.
Engine forwards self-wrap in ``repro.nn.no_grad()``, whose flag is
thread-local, so other threads remain free to train concurrently — on *other*
models.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import deque
from typing import (Any, Deque, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from ..llm import LanguageModel
from .faults import FaultInjector
from .metrics import (
    OUTCOME_CANCELLED,
    OUTCOME_EXPIRED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_SHED,
    RequestMetrics,
    ServerHealth,
    ServerStats,
)
from .requests import (
    DeadlineExceeded,
    DecisionRequest,
    GenerateRequest,
    RequestCancelled,
    RequestFailed,
    ServerOverloaded,
)
from .runtimes import TaskRuntime, build_runtime
from .scheduler import ContinuousBatchingScheduler, SchedulerPolicy
from .session import (
    FAILED,
    PREFILLING,
    QUEUED,
    REASON_CANCELLED,
    REASON_DEADLINE,
    RUNNING,
    GenerationSession,
    SessionManager,
)
from .telemetry import RequestExplanation, ServeTelemetry

#: The built-in generation task name (decision tasks are runtime
#: registrations; see :mod:`repro.serve.runtimes`).
GENERATE = "generate"

#: Stream-queue sentinel: no more tokens will arrive.
_STREAM_END = object()


class RequestHandle:
    """Future-style handle for one submitted request.

    Beyond the future surface (``done()`` / ``result()``), the handle is the
    client's side of the request lifecycle: ``stream()`` consumes tokens as
    the engine commits them (``GenerateRequest(stream=True)`` only) and
    ``cancel()`` aborts the request, releasing any KV blocks it holds.
    """

    def __init__(self, server: "InferenceServer", request_id: int,
                 request: Union[GenerateRequest, DecisionRequest],
                 group_key: Hashable = ()) -> None:
        self._server = server
        self.request_id = request_id
        self.request = request
        self.task = request.task
        #: One metrics object for the request's whole life, retries included.
        self.metrics = RequestMetrics(
            task=request.task, priority=request.priority, request_id=request_id)
        #: Absolute ``time.perf_counter()`` completion deadline (None: none).
        self._deadline_at: Optional[float] = (
            None if request.deadline_s is None
            else self.metrics.submitted_at + request.deadline_s)
        # Terminal flag, and the event a blocked ``result()`` waits on — made
        # by the first waiter (under the server lock), because most requests
        # are read after they ended and an Event per request is half of what
        # a kept handle weighs.
        self._done = False
        self._event: Optional[threading.Event] = None
        self._result: Any = None
        self._error: Optional[BaseException] = None
        # Engine side: a generation's session, a decision's batching key, and
        # the retry rule's backoff (not to run before this; None: at once).
        self._session: Optional[GenerationSession] = None
        self._group_key = group_key
        self._retry_at: Optional[float] = None
        self._stream: Optional[queue_module.SimpleQueue] = None
        if isinstance(request, GenerateRequest) and request.stream:
            self._stream = queue_module.SimpleQueue()

    def done(self) -> bool:
        return self._done

    def cancelled(self) -> bool:
        return isinstance(self._error, RequestCancelled)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the request completes and return its payload.

        With the background serve loop running this waits on the loop; in
        synchronous mode it drives the engine until the request resolves.
        Raises :class:`~repro.serve.requests.RequestCancelled` /
        :class:`~repro.serve.requests.DeadlineExceeded` when the request was
        cancelled or expired instead of completing.
        """
        if not self._done:
            self._server._drive(self, timeout)
        if not self._done:
            raise TimeoutError(f"request {self.request_id} ({self.task}) timed out")
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> bool:
        """Abort the request; False when it already reached a terminal state.

        A queued request is dropped before ever touching the model; a running
        generation session is evicted and its KV blocks return to the pool
        immediately.  After a successful cancel, ``result()`` (and an active
        ``stream()``) raise :class:`~repro.serve.requests.RequestCancelled`.
        """
        return self._server._cancel(self)

    def stream(self, timeout: Optional[float] = None) -> Iterator[str]:
        """Yield generated text pieces as decode steps commit them.

        Only available for ``GenerateRequest(stream=True)`` submissions.  The
        concatenation of the yielded pieces equals ``result().text``.  Works
        in both drive modes: with a background serve loop the iterator blocks
        on the token queue; synchronously it steps the engine itself between
        tokens.  ``timeout`` bounds the *inactivity* between consecutive
        pieces (not the total stream duration), so a long but steadily
        producing generation never times out.  A cancelled/expired/failed
        request raises the corresponding error after yielding whatever was
        committed before the failure; iterating a fully-drained stream again
        just re-raises (or returns nothing).  A consumer thread is not free
        to the loop it reads from: each is woken once per token and takes the
        GIL to run, which measured 5-34 % of blocking throughput at 16
        consumers on 2 cores, and a cheaper hand-off (one notify per step,
        decoding moved to the consumer) measured the same
        (``benchmarks/README.md``).
        """
        if self._stream is None:
            raise RuntimeError(
                "this request does not stream; submit a "
                "GenerateRequest(stream=True) to consume tokens incrementally")
        last_progress = time.perf_counter()
        while True:
            try:
                piece = self._stream.get_nowait()
            except queue_module.Empty:
                # Terminal and drained (e.g. the end sentinel went to an
                # earlier iteration/consumer): nothing more will ever arrive.
                if self.done() and self._stream.empty():
                    break
                if timeout is not None \
                        and time.perf_counter() - last_progress > timeout:
                    raise TimeoutError(
                        f"request {self.request_id} ({self.task}) stream "
                        f"produced nothing for {timeout}s")
                if self._server._pump(self):
                    continue  # sync drive: the step may have pushed pieces
                try:  # a background loop produces: block briefly for it
                    piece = self._stream.get(timeout=0.05)
                except queue_module.Empty:
                    continue
            if piece is _STREAM_END:
                break
            last_progress = time.perf_counter()
            yield piece
        if self._error is not None:
            raise self._error

    # -- engine-side plumbing ------------------------------------------- #
    def _past_deadline(self, now: float) -> bool:
        """The engine's one expiry test (sweeps and the retry rule alike)."""
        return self._deadline_at is not None and now > self._deadline_at

    def _settle(self, result: Any, error: Optional[BaseException]) -> None:
        """Reach the terminal state (``InferenceServer._finish`` is the
        caller, with the server lock held)."""
        self._result, self._error = result, error
        self._done = True
        if self._event is not None:
            self._event.set()
        if self._stream is not None:
            self._stream.put(_STREAM_END)


class InferenceServer:
    """Batched multi-session inference engine over one shared model.

    Parameters
    ----------
    model:
        The :class:`LanguageModel` serving generation sessions (optional when
        the engine only serves decision traffic).
    policy:
        Batch/context/queue/priority bounds (:class:`SchedulerPolicy`).
    adapters:
        Optional mapping of built-in task name (``"vp"``/``"abr"``/``"cjs"``)
        to the adapted NetLLM adapter answering that task — shorthand for the
        matching :mod:`repro.serve.runtimes` registration.
    runtimes:
        Optional mapping of task name to a :class:`TaskRuntime`
        implementation, for novel tasks beyond the built-ins.
    fault_injector:
        Optional seeded :class:`~repro.serve.faults.FaultInjector` wired
        through the session manager and paged pool (chaos testing only;
        constructing one requires the ``REPRO_FAULTS`` env toggle).
    telemetry:
        The flight recorder (:class:`~repro.serve.telemetry.ServeTelemetry`),
        always on: ``None`` records with the defaults, and a pre-built
        instance customizes capacity/window width.  It is the engine's one
        ledger — every request ending, quarantine, retry, draft, prefix hit
        and miss and generated token is written to its open step record
        where it happens, and ``stats()`` reads the counters from its
        lifetime :meth:`~repro.serve.telemetry.ServeTelemetry.totals`.  Read it back via ``server.telemetry``
        (``records()``/``windows()``/``export_jsonl()``) and
        :meth:`explain_request`.
    """

    #: Seconds ``stop()`` waits for the loop thread before declaring a leak.
    JOIN_TIMEOUT_S = 5.0

    def __init__(self, model: Optional[LanguageModel] = None,
                 policy: Optional[SchedulerPolicy] = None,
                 adapters: Optional[Dict[str, Any]] = None,
                 runtimes: Optional[Dict[str, TaskRuntime]] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 telemetry: Optional[ServeTelemetry] = None) -> None:
        if telemetry is not None and not isinstance(telemetry, ServeTelemetry):
            raise TypeError(f"telemetry must be a ServeTelemetry or None, got "
                            f"{type(telemetry).__name__}")
        self.policy = policy or SchedulerPolicy()
        self.model = model
        self._faults = fault_injector
        #: The flight recorder and the engine's one ledger: the step path
        #: writes the fields of its open record, ``telemetry.step``, where
        #: the events happen.
        self.telemetry: ServeTelemetry = (
            telemetry if telemetry is not None else ServeTelemetry())
        self._manager = (SessionManager(model, self.policy, self.telemetry,
                                        fault_injector)
                         if model is not None else None)
        self._scheduler = ContinuousBatchingScheduler(self.policy)
        self._runtimes: Dict[str, TaskRuntime] = {}
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        #: request id -> handle of every request not yet terminal.  Where a
        #: generation waits is its ``session.state``; a decision waits here and
        #: nowhere else, so this table is the decision queue.
        self._live: Dict[int, RequestHandle] = {}
        # Bounded retention: a long-lived server keeps the most recent
        # completions for stats() instead of growing without limit.
        self._completed: Deque[RequestMetrics] = deque(maxlen=16384)
        self._started_at: Optional[float] = None
        self._last_finished_at: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._running = False
        # Fault-tolerance bookkeeping (all under self._lock).
        self._crashed = False
        self._last_fault_at: Optional[float] = None
        for task, adapter in (adapters or {}).items():
            self.register_adapter(task, adapter)
        for task, runtime in (runtimes or {}).items():
            self.register_task(task, runtime)

    # ------------------------------------------------------------------ #
    # Registration API
    # ------------------------------------------------------------------ #
    def register_prefix(self, text: str) -> None:
        """Cache a common prompt head so matching prompts skip recomputing it.

        Typical use: register the task adapters' fixed instruction preambles
        once at startup; every generation prompt that starts with a registered
        head then maps its KV blocks by reference and prefills only the tail.
        """
        self._require_model()
        with self._lock:
            self._manager.register_prefix(text)

    def register_task(self, task: str, runtime: TaskRuntime) -> None:
        """Register a :class:`TaskRuntime` answering ``task`` requests.

        This is the extension point for novel tasks: the engine has no
        per-task branches, so a registration is all a new decision task
        needs.
        """
        if task == GENERATE:
            raise ValueError(f"task name {GENERATE!r} is reserved for "
                             f"generation sessions")
        for method in ("group_key", "execute_batch"):
            if not callable(getattr(runtime, method, None)):
                raise TypeError(f"runtime for task {task!r} must implement "
                                f"TaskRuntime.{method}")
        with self._lock:
            self._runtimes[task] = runtime

    def register_adapter(self, task: str, adapter: Any) -> None:
        """Register a built-in NetLLM adapter (``vp``/``abr``/``cjs``)."""
        self.register_task(task, build_runtime(task, adapter))

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #
    def submit(self, request: Union[GenerateRequest, DecisionRequest]
               ) -> RequestHandle:
        """Queue one typed request; returns a future-style handle.

        * :class:`GenerateRequest`: a streaming generation session (continuous
          batching path).  ``stream=True`` enables ``handle.stream()``.
        * :class:`DecisionRequest`: answered by the task's registered
          :class:`TaskRuntime` (built-ins: ``vp``/``abr``/``cjs``).
        """
        if isinstance(request, GenerateRequest):
            self._require_model()
            handle = RequestHandle(self, next(self._ids), request)
            self._new_session(handle)
            return self._enter(handle)
        if isinstance(request, DecisionRequest):
            return self._submit_decision(request)
        raise TypeError(f"submit() takes a GenerateRequest or DecisionRequest, "
                        f"got {type(request).__name__}")

    def submit_generation(self, prompt: str, **options) -> RequestHandle:
        """Typed-convenience shorthand: ``submit(GenerateRequest(prompt, ...))``."""
        return self.submit(GenerateRequest(prompt=prompt, **options))

    def _enter(self, handle: RequestHandle) -> RequestHandle:
        """Make a new request live where its kind waits, or shed it."""
        session = handle._session
        with self._work:
            if self._started_at is None:
                self._started_at = time.perf_counter()
            overload = self._overload_reason()
            if (overload is None and session is not None
                    and not self._scheduler.enqueue(session)):
                overload = (f"request queue full ({self.policy.max_queue}); "
                            f"retry later")
            if overload is not None:
                self._finish(handle, OUTCOME_SHED, error=ServerOverloaded(
                    f"request {handle.request_id} ({handle.task}) shed: "
                    f"{overload}"))
                return handle
            self._live[handle.request_id] = handle
            self._work.notify_all()
        return handle

    def _new_session(self, handle: RequestHandle) -> GenerationSession:
        """A ``QUEUED`` session for ``handle``'s request — first attempt or retry.

        What an attempt accumulates lives on the session, so a retry starts
        from a new one; what spans attempts (metrics object, deadline, the
        stream subscription) comes from the handle.
        """
        request = handle.request
        session = GenerationSession(session_id=handle.request_id,
                                    prompt=request.prompt,
                                    max_new_tokens=request.max_new_tokens,
                                    temperature=request.temperature,
                                    seed=request.seed,
                                    stop_on_eos=request.stop_on_eos,
                                    priority=request.priority,
                                    deadline_at=handle._deadline_at,
                                    retry_at=handle._retry_at,
                                    metrics=handle.metrics)
        if request.stream:
            tokenizer = self.model.tokenizer
            session.on_token = lambda token_id: handle._stream.put(
                tokenizer.decode([token_id]))
        handle._session = session
        return session

    def _submit_decision(self, request: DecisionRequest) -> RequestHandle:
        # register_task() mutates _runtimes under the lock; read it there
        # too so a concurrent registration cannot tear this lookup.
        with self._lock:
            runtime = self._runtimes.get(request.task)
        if runtime is None:
            raise ValueError(
                f"no task runtime registered for {request.task!r} "
                f"(register_adapter for vp/abr/cjs, register_task for "
                f"novel tasks)")
        group_key = runtime.group_key(request)
        try:  # probe now: an unhashable key must fail this submission only,
            hash(group_key)  # not explode inside the serve loop's flush
        except TypeError:
            raise TypeError(
                f"task runtime for {request.task!r} returned an unhashable "
                f"group_key ({type(group_key).__name__}); return e.g. a "
                f"tuple of shapes") from None
        return self._enter(
            RequestHandle(self, next(self._ids), request, group_key))

    def _require_model(self) -> None:
        if self._manager is None:
            raise ValueError("this server has no language model; "
                             "construct it with model=... to serve generation")

    # ------------------------------------------------------------------ #
    # Overload shedding and health
    # ------------------------------------------------------------------ #
    def _overload_reason(self) -> Optional[str]:
        """Why a new submission should be shed right now (lock held).

        ``None`` means the engine is accepting.  Depth counts everything
        waiting (generation queue + pending decisions); age looks at the
        oldest admissible waiter — both are the signals past which admitting
        more work only pushes every queued request past its deadline.
        """
        policy = self.policy
        if policy.shed_queue_depth is not None:
            depth = self._scheduler.queue_depth + len(self._live_decisions())
            if depth >= policy.shed_queue_depth:
                return (f"queue depth {depth} at the shed bound "
                        f"{policy.shed_queue_depth}")
        if policy.shed_queue_age_s is not None:
            oldest = self._scheduler.oldest_wait_s()
            if oldest > policy.shed_queue_age_s:
                return (f"oldest queued request has waited {oldest:.3f}s, "
                        f"past the shed bound {policy.shed_queue_age_s}s")
        return None

    def _live_decisions(self) -> List[RequestHandle]:
        """The decision queue: the live handles that have no session."""
        return [h for h in self._live.values() if h._session is None]

    @property
    def health(self) -> str:
        """Coarse engine health (see :class:`~repro.serve.metrics.ServerHealth`).

        ``FAILED`` once an unrecoverable fault tore the loop down;
        ``DEGRADED`` while the engine is shedding load or within
        ``health_window_s`` of a quarantined fault or retry; ``HEALTHY``
        otherwise.
        """
        with self._lock:
            if self._crashed:
                return ServerHealth.FAILED
            if self._overload_reason() is not None:
                return ServerHealth.DEGRADED
            if (self._last_fault_at is not None
                    and time.perf_counter() - self._last_fault_at
                    < self.policy.health_window_s):
                return ServerHealth.DEGRADED
            return ServerHealth.HEALTHY

    def _note_fault(self, request_ids: Iterable[int]) -> None:
        """Count one quarantine event implicating these requests (lock held)."""
        self._last_fault_at = time.perf_counter()
        step = self.telemetry.step
        step.quarantines += 1
        step.quarantined.extend(request_ids)

    # ------------------------------------------------------------------ #
    # Lifecycle: the terminal transition, cancellation and deadlines
    # ------------------------------------------------------------------ #
    def _finish(self, handle: RequestHandle, outcome: str, *,
                result: Any = None,
                error: Optional[BaseException] = None) -> None:
        """The one terminal transition of a request (lock held).

        Every way a request ends comes through here, and nothing else sets
        ``metrics.outcome``, stamps ``finished_at``, feeds ``stats()`` or
        settles the handle, so each ending is counted exactly once.  The
        caller has already withdrawn the request from where it waited or
        ran.  ``result`` is a decision's payload (a generation's is built
        from its session); ``error`` is raised by ``handle.result()``.
        """
        if handle.done():  # already terminal: the first ending stands
            return
        self._live.pop(handle.request_id, None)
        handle._group_key = None  # clients may keep handles; don't pin the key
        session, metrics = handle._session, handle.metrics
        metrics.outcome = outcome
        metrics.mark_finished()
        self._completed.append(metrics)
        self._last_finished_at = metrics.finished_at
        if session is not None:
            if outcome == OUTCOME_OK:
                result = session.to_result(self.model.tokenizer)
            else:
                session.state = FAILED
        # Between steps (a shed at submit, a client's cancel) the open record
        # is the next step's, which is where the ending shows.
        step = self.telemetry.step
        if outcome != OUTCOME_OK:
            # StepRecord counts each other ending under the outcome's name.
            setattr(step, outcome, getattr(step, outcome) + 1)
        elif session is None:
            step.decisions += 1
        else:
            step.finished.append(handle.request_id)
            step.tokens_generated += metrics.tokens_generated
        handle._settle(result, error)

    def _withdraw(self, handle: RequestHandle, reason: str) -> None:
        """Take a live request out of wherever it waits or runs (lock held)."""
        session = handle._session
        if session is None:
            pass  # a decision waits in ``_live`` alone, which ``_finish`` clears
        elif session.state == QUEUED:
            self._scheduler.remove(session)
        elif session.state in (PREFILLING, RUNNING):
            self._manager.evict(session, reason=reason)

    def _cancel(self, handle: RequestHandle) -> bool:
        with self._work:
            if handle.done():
                return False
            self._withdraw(handle, REASON_CANCELLED)
            self._finish(handle, OUTCOME_CANCELLED, error=RequestCancelled(
                f"request {handle.request_id} ({handle.task}) was cancelled"))
            self._work.notify_all()
        return True

    def _expire(self, handle: RequestHandle, where: str) -> None:
        """Fail an over-deadline request (called with the lock held)."""
        self._finish(handle, OUTCOME_EXPIRED, error=DeadlineExceeded(
            f"request {handle.request_id} ({handle.task}) exceeded its "
            f"deadline of {handle.request.deadline_s}s {where}"))

    def _reap_expired_queued(self) -> bool:
        """Fail queued sessions past ``deadline_at`` (the handle's deadline)."""
        expired = self._scheduler.reap_expired()
        for session in expired:
            self._expire(self._live[session.session_id], "while queued")
        return bool(expired)

    def _reap_expired_running(self) -> bool:
        """Evict running/prefilling sessions whose deadline passed mid-step."""
        now = time.perf_counter()
        expired = [handle for handle in self._live.values()
                   if handle._past_deadline(now) and handle._session is not None
                   and handle._session.state in (PREFILLING, RUNNING)]
        for handle in expired:
            self._withdraw(handle, REASON_DEADLINE)
            self._expire(handle, "mid-decode")
        return bool(expired)

    # ------------------------------------------------------------------ #
    # Engine loop
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """One scheduling round: admit, batched decode, flush decisions.

        Returns True when any work was performed (so drivers can loop until
        the engine goes idle).  Per-phase failures are quarantined to the
        implicated requests inside the phases; an exception escaping a phase
        (e.g. pool invariants violated after a quarantine) is unrecoverable —
        everything pending fails with it, the server turns ``FAILED`` and
        the error propagates to the driver.
        """
        with self._lock:
            self.telemetry.begin_step(
                time.perf_counter(),
                self._faults.fired_log if self._faults is not None else None)
            did_work = False
            try:
                did_work |= self._reap_expired_queued()
                did_work |= self._admit_queued()
                did_work |= self._reap_expired_running()
                did_work |= self._decode_step()
                did_work |= self._flush_decisions()
                return did_work
            except BaseException as error:
                did_work = True  # a crashing step is never discarded as idle
                self._crashed = True
                self._fail_all_pending(error)
                raise
            finally:
                # Commit on the crash path too: the record of the step that
                # tore the server down is the one a post-mortem needs most.
                self._commit_step_trace(did_work)

    def _commit_step_trace(self, did_work: bool) -> None:
        """Commit this step's record with the end-of-step gauges."""
        cache = self._manager.cache if self._manager is not None else None
        self.telemetry.commit_step(
            time.perf_counter(), did_work,
            queue_depth=self._scheduler.queue_depth,
            queue_depth_by_priority=self._scheduler.queue_depth_by_priority(),
            blocks_in_use=cache.blocks_in_use if cache is not None else 0,
            kv_totals=cache.attention_totals if cache is not None else (0, 0, 0))

    def run_until_idle(self) -> None:
        """Drive the engine synchronously until no work remains."""
        while self._drive_round():
            pass

    def _drive_round(self, handle: Optional[RequestHandle] = None) -> bool:
        """One synchronous drive round: step; if idle, park or give up.

        An idle engine with a retry backoff pending sleeps until that
        wake-up (capped at 0.05 s) so retried requests still complete.  With
        nothing left that could ever run, returns False — after failing
        ``handle``, if one is being driven and is still unresolved.
        """
        if self.step() or (handle is not None and handle.done()):
            return True
        wake = self._next_retry_at()
        if wake is None:
            if handle is not None:
                with self._lock:
                    self._finish(handle, OUTCOME_FAILED, error=RuntimeError(
                        f"request {handle.request_id} cannot complete: "
                        f"engine is idle"))
            return False
        time.sleep(min(max(wake - time.perf_counter(), 0.0), 0.05))
        return True

    @property
    def is_serving(self) -> bool:
        """True while the background serve loop is running."""
        return self._thread is not None and self._thread.is_alive()

    def _served_by_loop(self) -> bool:
        """True when a live background loop, not the caller, drives the engine."""
        return self.is_serving and threading.current_thread() is not self._thread

    def has_pending_work(self) -> bool:
        with self._lock:
            running = (self._manager.num_running + self._manager.num_prefilling
                       if self._manager else 0)
            return bool(running or self._live_decisions()
                        or self._scheduler.queue_depth)

    # ------------------------------------------------------------------ #
    # Background serve loop
    # ------------------------------------------------------------------ #
    def start(self) -> "InferenceServer":
        """Run the serve loop on a background thread (idempotent)."""
        with self._lock:
            if self._running:
                return self
            self._running = True
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the background loop.

        With ``drain`` the engine first finishes everything — *queued* work
        included, whether or not the background loop is (still) alive: if the
        loop died or was never started, the remaining work is driven
        synchronously.  Without ``drain``, queued requests are failed
        immediately (fail-fast: nothing new is admitted) and in-flight work
        is failed once the loop exits — either way no client blocks forever
        on a handle whose server has gone away.
        """
        if drain:
            while self.has_pending_work():
                if not self.is_serving:
                    self.run_until_idle()
                    break
                time.sleep(0.001)
        else:
            self._fail_all_pending(RuntimeError(
                "server stopped before admitting this request"),
                in_flight=False)
        with self._work:
            self._running = False
            self._work.notify_all()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
            if thread.is_alive():
                # The loop thread is wedged (very likely holding the engine
                # lock), so the fail-everything path below could deadlock —
                # raise loudly instead of silently leaking a live thread
                # whose pending handles may never resolve.
                raise RuntimeError(
                    f"serve loop thread {thread.name!r} did not exit within "
                    f"{self.JOIN_TIMEOUT_S}s of stop(); leaking it — pending "
                    f"handles may hang and the engine must not be reused")
        # Whatever is still live (or orphaned by a failed eviction) fails now.
        self._fail_all_pending(RuntimeError(
            "server stopped before completing this request"))

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _serve_loop(self) -> None:
        while True:
            with self._work:
                if not self._running:
                    return
            try:
                did_work = self.step()
            except BaseException as error:
                # The loop thread must not die silently: clients blocked in
                # handle.result() would hang forever. Fail everything pending
                # with the original error and shut the loop down.
                self._fail_all_pending(error)
                with self._work:
                    self._running = False
                return
            if not did_work:
                with self._work:
                    if not self._running:
                        return
                    self._work.wait(timeout=0.005)

    def _fail_all_pending(self, error: BaseException,
                          in_flight: bool = True) -> None:
        """Fail every live request with ``error`` (the loop is going down).

        ``in_flight=False`` (the fail-fast half of ``stop(drain=False)``)
        leaves admitted sessions alone until the loop has exited.
        """
        with self._lock:
            self._scheduler.drain()
            for handle in list(self._live.values()):
                session = handle._session
                if session is not None and session.state in (PREFILLING, RUNNING):
                    if not in_flight:
                        continue
                    try:
                        self._manager.evict(session, reason="failed")
                    except Exception:
                        # A corrupted pool must not mask the original error:
                        # every remaining handle still fails with it below.
                        pass
                self._finish(handle, OUTCOME_FAILED, error=error)

    def _drive(self, handle: RequestHandle, timeout: Optional[float]) -> None:
        """Resolve ``handle``: wait on the loop thread or step synchronously."""
        if self._served_by_loop():
            with self._lock:  # _settle runs under it: no set() can be missed
                if handle.done():
                    return
                if handle._event is None:
                    handle._event = threading.Event()
            handle._event.wait(timeout)
            return
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not handle.done():
            if deadline is not None and time.perf_counter() > deadline:
                return
            if not self._drive_round(handle):
                return

    def _pump(self, handle: RequestHandle) -> bool:
        """One drive round for a blocked ``stream()`` consumer.

        With a live background loop this is a no-op returning False (the
        loop produces the tokens; the consumer should block on the queue);
        otherwise the consumer thread steps the engine itself, exactly as
        ``_drive`` does for ``result()``, and returns True.
        """
        if handle.done():
            return True
        if self._served_by_loop():
            return False
        self._drive_round(handle)
        return True

    # ------------------------------------------------------------------ #
    # Step phases (called with the lock held)
    # ------------------------------------------------------------------ #
    def _admit_queued(self) -> bool:
        """Admission/prefill phase of one engine step (see SchedulerPolicy).

        Decode rows are charged against ``step_token_budget`` first; the
        scheduler's best-ranked queued sessions, one per free slot, go to
        ``SessionManager.prefill_step`` with the rest.  Its grant loop is the
        admission rule: in-flight prefills resume a chunk each, the candidates
        start in rank order while the budget lasts, and one it cannot give a
        token to comes back ``deferred``.  ``prefill_chunk_size=None`` runs
        the same route with the whole context as the chunk.
        """
        manager = self._manager
        if manager is None:
            return False
        # Decode's share of the step budget: with speculation on, each row
        # plans its draft now and is charged 1 + drafted tokens; off, the
        # plan degenerates to one token per running row.  A draft-proposal
        # fault implicates the whole decode batch (no KV state exists yet,
        # so the quarantine is purely bookkeeping).
        try:
            planned = manager.plan_decode_tokens(self.policy.step_token_budget)
        except Exception as error:
            self._quarantine_sessions(list(manager.running.values()), error,
                                      phase="draft propose")
            planned = manager.num_running
        budget = self._scheduler.prefill_budget(planned)
        # Candidates for the free slots; none when decode spent the budget.
        admitted = (self._scheduler.admissions(manager.num_free)
                    if manager.num_free and budget != 0 else [])
        if not admitted and not manager.num_prefilling:
            return False
        step = self.telemetry.step
        step.prefill_budget = budget
        step.admitted.extend(s.session_id for s in admitted)
        spent, terminal, failures, deferred = manager.prefill_step(
            admitted, self.policy.prefill_chunk_size, budget)
        for session in terminal:
            self._finish(self._live[session.session_id], OUTCOME_OK)
        for session, error in failures:
            # The manager already aborted the session (abort is idempotent);
            # quarantine re-verifies the pool and retries-or-fails the handle.
            self._quarantine_sessions([session], error, phase="prefill chunk")
        # Budget ran dry before these candidates' first token: put them back
        # at the head of the priority queue with their original wait intact,
        # so aging and FIFO ordering continue as if they had never left.
        # Reversed so the best-ranked deferral keeps the earliest seq.
        for session in reversed(deferred):
            # A deferral never started: it does not count as admitted.
            step.admitted.remove(session.session_id)
            step.deferred.append(session.session_id)
            self._scheduler.requeue_front(session)
        return bool(admitted or spent or terminal or failures)

    def _decode_step(self) -> bool:
        """The decode forward, carrying the prompt chunks that ride it."""
        manager = self._manager
        if manager is None or not (manager.running or manager.riding):
            return False
        batch = list(manager.running.values())
        self.telemetry.step.decode_sessions.extend(s.session_id for s in batch)
        failure = None
        try:
            completed, occupancy = manager.step()
        except Exception as error:
            failure = error
        for session, error in manager.chunk_failures:
            # Failed alone after the joint forward raised: already aborted.
            self._quarantine_sessions([session], error, phase="prefill chunk")
        if failure is not None:
            # The whole decode batch is implicated: a mid-forward failure may
            # have left any of its rows with partially-committed KV state.
            self._quarantine_sessions(batch, failure, phase="decode step")
            return True
        if occupancy:
            self._scheduler.record_step(
                occupancy, blocks_in_use=self._manager.cache.blocks_in_use)
        for session in completed:
            self._finish(self._live[session.session_id], OUTCOME_OK)
        return True

    # ------------------------------------------------------------------ #
    # Fault quarantine and retries (called with the lock held)
    # ------------------------------------------------------------------ #
    def _quarantine_sessions(self, sessions: List[GenerationSession],
                             error: BaseException, phase: str) -> None:
        """Contain a phase failure to the sessions it implicates.

        Evict-first, check-second: the implicated sessions' blocks (possibly
        holding partially-committed state) are reclaimed *before*
        ``check_invariants`` judges the pool, so a clean quarantine leaves a
        provably sound pool and the loop keeps serving.  A violated invariant
        means the fault corrupted shared state — that escalates (raises) into
        the fail-all crash guard in :meth:`step`.
        """
        self._note_fault(s.session_id for s in sessions)
        for session in sessions:
            self._manager.abort(session)
        self._verify_pool_sound(error)
        now = time.perf_counter()
        for session in sessions:
            handle = self._live[session.session_id]
            if self._retry_or_fail(handle, error, now, f"failed during {phase}"):
                # From scratch (the quarantine evicted its KV state), at the
                # front of the queue: submitted_at is kept, so priority
                # aging continues as if it had never been admitted.
                self._scheduler.requeue_front(self._new_session(handle))

    def _verify_pool_sound(self, error: BaseException) -> None:
        """Prove the KV pool survived a quarantine; escalate if it did not."""
        try:
            self._manager.cache.check_invariants()
        except AssertionError as violation:
            raise RuntimeError(
                f"unrecoverable fault: KV-pool invariants violated after "
                f"quarantine ({violation}); original error: {error}") from error

    def _retry_or_fail(self, handle: RequestHandle, error: BaseException,
                       now: float, what: str) -> bool:
        """The one retry rule, for a quarantined request of either kind.

        Granted when the error is transient under the retry policy, attempts
        remain, the deadline has not passed and no token was already streamed
        to the client (a replay would repeat it): the backoff goes on the
        handle, where a decision waits it out and from where a generation's
        caller requeues it as a fresh session.  Otherwise the handle fails
        with :class:`RequestFailed`.
        """
        policy = self.policy.retry_policy
        metrics = handle.metrics
        streamed = (handle._stream is not None
                    and metrics.first_token_at is not None)
        if (policy is not None and policy.is_retryable(error)
                and metrics.attempts < policy.max_attempts
                and not streamed and not handle._past_deadline(now)):
            backoff = policy.backoff_for(metrics.attempts)
            handle._retry_at = (now + backoff) if backoff > 0 else None
            metrics.begin_retry()
            self.telemetry.step.retries += 1
            return True
        self._finish(handle, OUTCOME_FAILED, error=RequestFailed(
            f"request {handle.request_id} ({handle.task}) {what}: {error}",
            cause=error))
        return False

    def _next_retry_at(self) -> Optional[float]:
        """Earliest retry wake-up, parked decisions and the queue (None: none)."""
        with self._lock:
            wakes = [self._scheduler.next_retry_at()]
            wakes += [handle._retry_at for handle in self._live_decisions()]
            return min((at for at in wakes if at is not None), default=None)

    def _flush_decisions(self) -> bool:
        """One pass over the live decisions: past its deadline -> expired,
        retry-parked or not; backoff elapsed (or none) -> into its
        ``(task, group_key)`` batch.  A server without a runtime has none."""
        if not self._runtimes:
            return False
        now = time.perf_counter()
        groups: Dict[Tuple[str, Hashable], List[RequestHandle]] = {}
        expired = False
        for handle in self._live_decisions():
            if handle._past_deadline(now):
                self._expire(handle, "while queued")
                expired = True
            elif handle._retry_at is None or handle._retry_at <= now:
                groups.setdefault((handle.task, handle._group_key),
                                  []).append(handle)
        # Higher-priority groups execute first within the flush round (every
        # eligible decision still runs this step; priority orders the batched
        # forwards, which is what bounds a high-priority request's latency).
        for (task, _), group in sorted(
                groups.items(),
                key=lambda item: -max(h.request.priority for h in item[1])):
            self._execute_decision_group(task, group)
            self._scheduler.record_step(len(group))
        return bool(groups) or expired

    def _execute_decision_group(self, task: str,
                                group: List[RequestHandle]) -> None:
        runtime = self._runtimes[task]
        for handle in group:
            handle.metrics.mark_admitted()
            handle.metrics.batch_sizes.append(len(group))
        try:
            if self._faults is not None:
                self._faults.fire("runtime.execute_batch")
            results = runtime.execute_batch([h.request for h in group])
            if len(results) != len(group):
                raise RuntimeError(
                    f"task runtime {task!r} returned {len(results)} results "
                    f"for a batch of {len(group)}")
        except Exception as error:
            # Blast radius: exactly this decision batch (see satellite test).
            # Runtimes never touch the KV pool, so no invariant check is
            # needed; each entry is retried under the retry policy or failed
            # with RequestFailed.
            self._note_fault(h.request_id for h in group)
            now = time.perf_counter()
            for handle in group:  # a granted retry stays live, parked
                self._retry_or_fail(handle, error, now, "decision batch failed")
            return
        for handle, result in zip(group, results):
            self._finish(handle, OUTCOME_OK, result=result)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> ServerStats:
        """Aggregate throughput/latency/occupancy over completed requests —
        snapshot under the engine lock, percentiles after releasing it
        (terminal metrics are never written again)."""
        with self._lock:
            end = (self._last_finished_at
                   if self._last_finished_at is not None
                   else time.perf_counter())
            wall = (end - self._started_at) if self._started_at is not None else 0.0
            snapshot = dict(
                requests=list(self._completed), wall_seconds=wall,
                occupancy_samples=list(self._scheduler.occupancy_samples),
                queue_depth_samples=list(self._scheduler.queue_depth_samples),
                block_usage_samples=list(self._scheduler.block_usage_samples),
                block_capacity=(self._manager.cache.allocator.num_blocks
                                if self._manager is not None else 0),
                counts=self.telemetry.totals(), health=self.health,
                telemetry=self.telemetry.summary())
        return ServerStats.from_requests(**snapshot)

    def explain_request(self, request_id: int,
                        top_gaps: int = 3) -> RequestExplanation:
        """Attribute a finished request's TTFT and worst inter-token gaps.

        Joins the request's latency intervals to the flight-recorder step
        records covering them (see :meth:`~repro.serve.telemetry.
        ServeTelemetry.explain_request`): which sessions were co-batched,
        which prefill chunks were in flight, and what fault/quarantine/retry
        activity hit — the "who was in the batch when my ITL spiked" answer.
        Raises ``KeyError`` when no completed request has this id (still
        running, or already rotated out of the completion window).
        """
        with self._lock:
            for metrics in reversed(self._completed):
                if metrics.request_id == request_id:
                    return self.telemetry.explain_request(metrics,
                                                          top_gaps=top_gaps)
        raise KeyError(
            f"no completed request with id {request_id} (still running, "
            f"never submitted, or rotated out of the completion window)")
