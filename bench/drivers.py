"""Load generators: one thread, wrapped around ``server.step()``.

Closed loops are step-driven (refill free client slots -> ``step()`` ->
collect finished handles), so batch composition does not depend on wall
time; the clock starts on the running system once ``WARMUP_REQUESTS`` have
completed and stops ``seconds`` later, with in-flight requests drained
outside it.  Each client's first request is cut short by a different amount
so the clients never finish in lockstep waves: the timed window sees the
steady-state mix of young and old sessions, not the phase of a wave.  The
open loop submits everything that is due on the reference clock
(``bench/clock.py``), steps, and sleeps (<= 1 ms) only when idle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.serve import DecisionRequest, GenerateRequest, InferenceServer

from .clock import ProbedClock
from .spec import OPEN_LOOP_WALL_CAP, WARMUP_REQUESTS


def succeeded(handle: Any) -> bool:
    """The request behind ``handle`` has finished, and finished well."""
    return handle.done() and handle.metrics.outcome == "ok"


@dataclass
class Sent:
    """One submitted generation request."""

    cls: str
    index: int            # position in its class's input stream
    handle: Any
    #: Open loop: when the request was due, on the reference clock.
    due: Optional[float] = None
    #: Open loop: when ``submit`` returned, on the reference clock.
    submitted: Optional[float] = None


@dataclass
class Round:
    """One lockstep round of decisions."""

    first_submit: float   # raw perf_counter
    last_read: float      # raw perf_counter
    handles: List[Any]


@dataclass
class RunLog:
    clock: ProbedClock
    started: Optional[float] = None   # raw perf_counter at clock start
    stopped: Optional[float] = None   # raw perf_counter at clock stop
    step_ends: List[float] = field(default_factory=list)
    sent: List[Sent] = field(default_factory=list)
    rounds: List[Round] = field(default_factory=list)
    backlog_at_last_arrival: int = 0


@dataclass
class Hooks:
    """Called by the driver when the clock starts and stops."""

    start: Callable[[], None] = lambda: None
    stop: Callable[[], None] = lambda: None


def _start(log: RunLog, hooks: Hooks) -> None:
    hooks.start()
    log.started = time.perf_counter()


def _stop(log: RunLog, hooks: Hooks) -> None:
    log.stopped = time.perf_counter()
    hooks.stop()


def run_closed(server: InferenceServer, inputs: Dict, seconds: float,
               hooks: Hooks) -> RunLog:
    log = RunLog(clock=ProbedClock())
    clock = log.clock
    classes: List[str] = inputs["clients"]
    streams = inputs["streams"]
    cursor = {cls: 0 for cls in streams}
    rank = [classes[:c].count(cls) + 1 for c, cls in enumerate(classes)]
    active: List[Any] = [None] * len(classes)
    first = [True] * len(classes)
    completed = 0
    while True:
        for c, cls in enumerate(classes):
            if active[c] is not None:
                continue
            index = cursor[cls]
            if index >= len(streams[cls]):
                raise RuntimeError(f"inputs exhausted: class {cls!r} ran "
                                   f"through all {index} generated requests")
            cursor[cls] += 1
            spec = streams[cls][index]
            if first[c]:  # desynchronise the clients (see module docstring)
                first[c] = False
                spec = dict(spec, max_new_tokens=max(
                    1, spec["max_new_tokens"] * rank[c] // classes.count(cls)))
            active[c] = server.submit(GenerateRequest(**spec))
            log.sent.append(Sent(cls, index, active[c]))
        server.step()
        log.step_ends.append(time.perf_counter())
        for c, handle in enumerate(active):
            if handle.done():
                active[c] = None
                completed += 1
        clock.maybe_probe()
        if log.started is None:
            if completed >= WARMUP_REQUESTS:
                _start(log, hooks)
                if seconds <= 0:
                    break
        elif time.perf_counter() - log.started >= seconds:
            break
    _stop(log, hooks)
    server.run_until_idle()
    return log


def run_lockstep(server: InferenceServer, inputs: Dict, seconds: float,
                 hooks: Hooks) -> RunLog:
    log = RunLog(clock=ProbedClock())
    clock = log.clock
    clients = inputs["clients"]
    pool = [[DecisionRequest(task=task, payload=payload)
             for (task, _), payload in zip(clients, payloads)]
            for payloads in inputs["rounds"]]
    completed = 0
    while True:
        requests = pool[len(log.rounds) % len(pool)]
        first_submit = time.perf_counter()
        handles = [server.submit(request) for request in requests]
        server.run_until_idle()
        for handle in handles:
            handle.result()
        log.rounds.append(Round(first_submit, time.perf_counter(), handles))
        completed += len(handles)
        clock.maybe_probe()
        if log.started is None:
            if completed >= WARMUP_REQUESTS:
                log.rounds.clear()
                _start(log, hooks)
                if seconds <= 0:
                    break
        elif time.perf_counter() - log.started >= seconds:
            break
    _stop(log, hooks)
    return log


def run_open(server: InferenceServer, inputs: Dict, seconds: float,
             hooks: Hooks) -> RunLog:
    log = RunLog(clock=ProbedClock())
    clock = log.clock
    for spec in inputs["warmup"]:
        server.submit(GenerateRequest(**spec))
    while server.step():
        clock.maybe_probe()
    _start(log, hooks)
    t0 = clock.now()
    # Seconds on the reference clock: a slower machine is offered its
    # arrivals proportionally later, so its utilisation stays the same.
    due = inputs["due"][inputs["due"] < seconds]
    requests = inputs["requests"]
    pending: List[Any] = []
    sent = 0
    while sent < len(due) or pending:
        if time.perf_counter() - log.started >= OPEN_LOOP_WALL_CAP * seconds:
            due = due[:sent]  # out of wall time: offer no more, drain the rest
        now = clock.now() - t0
        while sent < len(due) and due[sent] <= now:
            handle = server.submit(GenerateRequest(**requests[sent]))
            log.sent.append(Sent("short", sent, handle, due=t0 + due[sent],
                                 submitted=clock.now()))
            pending.append(handle)
            sent += 1
            log.backlog_at_last_arrival = len(pending)
        did_work = server.step()
        log.step_ends.append(time.perf_counter())
        pending = [handle for handle in pending if not handle.done()]
        clock.maybe_probe()
        if not did_work and not pending and sent < len(due):
            ahead = (due[sent] - (clock.now() - t0)) / clock.rate
            time.sleep(max(0.0, min(0.001, ahead)))
    _stop(log, hooks)
    return log


DRIVERS = {"closed": run_closed, "lockstep": run_lockstep, "open": run_open}
