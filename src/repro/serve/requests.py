"""Typed request/response surface of the serving engine.

The engine's wire format is a pair of frozen dataclasses — a
:class:`GenerateRequest` for streaming autoregressive sessions and a
:class:`DecisionRequest` for per-step adapter inferences — plus per-task
result types.  Freezing the request objects keeps submissions immutable once
queued (the scheduler may hold them arbitrarily long), and separating the
request surface from the engine lets the scheduler/runtime evolve without
breaking clients, the way vLLM's ``SamplingParams``/request objects decouple
its API from its scheduler.

Every request carries the cross-cutting lifecycle fields:

* ``priority`` — admission class.  For generation sessions, higher classes
  leave the waiting queue first (FIFO within a class; starvation-free aging
  is a scheduler policy knob).  Decision requests all execute in the next
  flush round regardless of class — there, priority orders the batched
  forwards within the round and labels the per-class queue statistics.
* ``deadline_s`` — a relative completion deadline.  A request that cannot
  finish in time fails with :class:`DeadlineExceeded` — still in the queue,
  between decode steps, or before a decision batch executes — immediately
  releasing any resources (KV blocks) it holds.

Cancellation (:meth:`~repro.serve.engine.RequestHandle.cancel`) fails the
handle with :class:`RequestCancelled` and likewise releases resources
immediately.

Two further typed failures complete the lifecycle surface:
:class:`RequestFailed` (the engine quarantined this request after a fault in
its prefill/decode/decision phase — the original error rides along as
``cause``) and :class:`ServerOverloaded` (the request was shed at submission
because the queue was full, too deep or too old; see the shedding knobs on
:class:`~repro.serve.scheduler.SchedulerPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional, Tuple

import numpy as np

#: Suggested priority classes.  Priorities are plain ints — any value works;
#: higher means admitted sooner.  These names just anchor the convention.
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2


class RequestCancelled(RuntimeError):
    """The request was cancelled via ``handle.cancel()`` before completing."""


class DeadlineExceeded(TimeoutError):
    """The request's ``deadline_s`` elapsed before it could complete."""


class RequestFailed(RuntimeError):
    """The request was quarantined after a fault in one of its serving phases.

    Raised by ``handle.result()``/``stream()`` when the engine contained a
    fault (prefill, decode or decision-batch failure) to the implicated
    requests instead of crashing the serve loop.  ``cause`` (also chained as
    ``__cause__``) carries the original error; the quarantine already
    reclaimed the request's KV blocks and proved the pool sound, so the
    engine keeps serving everything else.
    """

    def __init__(self, message: str,
                 cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause


class ServerOverloaded(RuntimeError):
    """The engine shed this request at submission to protect those in flight.

    Raised by ``handle.result()`` when the waiting queue was full, deeper
    than ``SchedulerPolicy.shed_queue_depth``, or older than
    ``shed_queue_age_s`` at submission time.  Shedding at the door is the
    backpressure signal a load balancer in front of the engine consumes —
    rejected work costs nothing, whereas admitting it would push every
    queued request past its deadline.
    """


def _validate_lifecycle(priority: int, deadline_s: Optional[float]) -> None:
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise TypeError(f"priority must be an int class, got {priority!r}")
    if deadline_s is not None and not deadline_s > 0:  # NaN fails too
        raise ValueError(f"deadline_s must be positive seconds, got {deadline_s}")


@dataclass(frozen=True)
class GenerateRequest:
    """One streaming autoregressive generation request.

    ``stream=True`` lets the client consume tokens as decode steps commit
    them via :meth:`~repro.serve.engine.RequestHandle.stream`; the final
    :class:`~repro.llm.generation.GenerationResult` is unchanged either way.
    """

    task: ClassVar[str] = "generate"

    prompt: str
    max_new_tokens: int = 64
    temperature: float = 0.0
    seed: int = 0
    stop_on_eos: bool = True
    stream: bool = False
    priority: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.prompt, str):
            raise TypeError(f"prompt must be a string, got {type(self.prompt).__name__}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if not self.temperature >= 0:  # NaN fails too
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        _validate_lifecycle(self.priority, self.deadline_s)


@dataclass(frozen=True)
class DecisionRequest:
    """One per-step decision inference answered by a registered task runtime.

    ``task`` names a runtime registered on the server (the built-ins are
    ``"vp"``/``"abr"``/``"cjs"``, see :mod:`repro.serve.runtimes`); ``payload``
    is whatever that runtime's ``execute_batch`` consumes.
    """

    task: str
    payload: Any = None
    priority: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.task, str) or not self.task:
            raise TypeError(f"task must be a non-empty string, got {self.task!r}")
        _validate_lifecycle(self.priority, self.deadline_s)


# ---------------------------------------------------------------------- #
# Per-task result types
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class VPResult:
    """Viewport prediction answer: the predicted viewport angles."""

    viewport: np.ndarray = field(repr=False)

    @property
    def value(self):
        """The bare payload the pre-typed ``submit(task=str)`` API returned."""
        return self.viewport


@dataclass(frozen=True)
class ABRResult:
    """Adaptive-bitrate answer: the greedy action tuple (bitrate index)."""

    action: Tuple[int, ...]

    @property
    def bitrate(self) -> int:
        return self.action[0]

    @property
    def value(self):
        """The bare payload the pre-typed ``submit(task=str)`` API returned."""
        return self.action


@dataclass(frozen=True)
class CJSResult:
    """Cluster-scheduling answer: the chosen stage and parallelism bucket."""

    stage_index: int
    bucket: int

    @property
    def value(self):
        """The bare payload the pre-typed ``submit(task=str)`` API returned."""
        return (self.stage_index, self.bucket)
