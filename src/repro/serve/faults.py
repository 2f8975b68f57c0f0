"""Deterministic fault injection for the serving stack.

Fault tolerance claims are only as good as the faults they were tested
against, so the serve stack carries its own chaos harness: a seeded
:class:`FaultInjector` scripted by :class:`FaultSpec` entries fires at
**named injection sites** threaded through the engine, session manager
and task runtimes.  A fired spec can ``raise`` (a typed
:class:`InjectedFault` / :class:`TransientFault`), ``delay`` (sleep, to
surface timing races and deadline paths) or ``corrupt`` (perturb a numeric
payload in place, e.g. decode logits).  Everything is deterministic: the
schedule is explicit, per-site visit counters drive ``at``/``every``
triggers, and probabilistic ``rate`` triggers draw from the injector's own
seeded RNG — the same seed replays the same fault sequence, which is what
lets the chaos suite assert exact parity between a faulty run's survivors
and the fault-free reference run.

**Site catalog** (see :data:`FAULT_SITES`).  A site is one recovery point:
what the engine does on a raise there is the same whichever forward reaches
it.

``runtime.execute_batch``
    One decision batch about to run through its :class:`TaskRuntime`
    (``InferenceServer._execute_decision_group``).  On a raise: retry or
    fail that decision batch alone.
``prefill.rows``
    A forward carrying prompt rows, before anything is touched
    (``SessionManager._forward``): the forward of the rows that complete
    their prompt (``prefill_step``) and the decode forward that mid-prompt
    chunks ride (``step``, after ``decode.step``), whatever mix of one-shot
    tails, chunks, new sessions and prefix hits it carries.  On a raise:
    nothing to undo; retry the prompt rows one at a time — in the decode
    step, then run the decode rows alone — and a row that raises alone is
    the only request that fails.
``draft.propose``
    Speculative draft proposal for the decode batch, before any drafting or
    KV growth (``SessionManager.plan_decode_tokens``).  On a raise:
    quarantine the decode batch.
``decode.step``
    The batched decode forward, before the model runs
    (``SessionManager.step``); the pool is untouched.  On a raise:
    quarantine the decode batch.
``decode.logits``
    The decode rows' logits after every decode forward, drafted or not — KV
    committed, acceptance not yet decided — as corruptible ``payload``,
    never a riding chunk's (``SessionManager.step``).  On a raise:
    quarantine the decode batch, its speculative KV tails included.

Injection can never be enabled by accident: constructing a
:class:`FaultInjector` raises unless the :data:`REPRO_FAULTS_ENV`
environment variable is set to a truthy value, so perf runs and production
entry points stay fault-free unless explicitly armed.  With no injector
wired in, every instrumented site is a single ``is None`` attribute check —
zero overhead on the hot path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..utils import seeded_rng

#: Environment toggle arming fault injection (truthy: ``1/true/yes/on``).
REPRO_FAULTS_ENV = "REPRO_FAULTS"

#: Named injection sites instrumented across the serve stack (name -> where
#: it fires and what the engine does on a raise there).  ``FaultSpec``
#: rejects unknown names so a schedule can never silently target a site that
#: does not exist.
FAULT_SITES: Dict[str, str] = {
    "runtime.execute_batch": "decision-batch runtime forward "
                             "(InferenceServer._execute_decision_group); "
                             "on a raise, retry or fail that batch alone",
    "prefill.rows": "forward carrying prompt rows, before anything is "
                    "touched (SessionManager._forward; in prefill_step and "
                    "step); on a raise, retry the prompt rows one at a time; "
                    "in the decode step, then run the decode rows alone",
    "draft.propose": "speculative draft proposal, pre-drafting "
                     "(SessionManager.plan_decode_tokens); on a raise, "
                     "quarantine the decode batch",
    "decode.step": "batched decode forward, pre-model (SessionManager.step); "
                   "on a raise, quarantine the decode batch",
    "decode.logits": "decode rows' logits after every decode forward, "
                     "drafted or not, corruptible payload "
                     "(SessionManager.step); on a raise, quarantine the "
                     "decode batch",
}

#: What a fired spec does at its site.
ACTIONS = ("raise", "delay", "corrupt")


def injection_allowed() -> bool:
    """Whether the :data:`REPRO_FAULTS_ENV` toggle arms fault injection."""
    return os.environ.get(REPRO_FAULTS_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


class InjectedFault(RuntimeError):
    """A scripted fault raised at an injection site (permanent by default)."""

    def __init__(self, site: str, occurrence: int,
                 transient: bool = False) -> None:
        kind = "transient" if transient else "injected"
        super().__init__(f"{kind} fault at {site!r} (occurrence {occurrence})")
        self.site = site
        self.occurrence = occurrence
        #: Retry classification consumed by ``RetryPolicy.is_retryable``.
        self.transient = transient


class TransientFault(InjectedFault):
    """An injected fault that a :class:`RetryPolicy` may retry."""

    def __init__(self, site: str, occurrence: int) -> None:
        super().__init__(site, occurrence, transient=True)


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: where it fires, when, and what it does.

    Exactly one trigger must be set: ``at`` (fire on the site's N-th visit,
    1-based), ``every`` (fire on every N-th visit) or ``rate`` (fire each
    visit with this probability, drawn from the injector's seeded RNG).
    ``max_fires`` optionally caps how often the spec fires in total.

    ``action`` is ``"raise"`` (an :class:`InjectedFault`, or a
    :class:`TransientFault` when ``transient`` is set), ``"delay"``
    (``time.sleep(delay_s)``) or ``"corrupt"`` (add seeded Gaussian noise
    scaled by ``corrupt_scale`` to the site's payload array in place; a
    no-op at sites that pass no payload).
    """

    site: str
    action: str = "raise"
    at: Optional[int] = None
    every: Optional[int] = None
    rate: float = 0.0
    transient: bool = False
    delay_s: float = 0.0
    corrupt_scale: float = 1.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(FAULT_SITES)}")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{ACTIONS}")
        triggers = sum((self.at is not None, self.every is not None,
                        self.rate > 0))
        if triggers != 1:
            raise ValueError(
                "exactly one trigger must be set: at=N, every=N or rate>0")
        if self.at is not None and self.at < 1:
            raise ValueError(f"at must be a 1-based visit index, got {self.at}")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if not 0 <= self.rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")


class FaultInjector:
    """Seeded, scripted fault injection over the named serve-stack sites.

    Construction is gated on :data:`REPRO_FAULTS_ENV` so injection can never
    be armed by accident (perf runs assert their fault counters stay zero).
    ``fire(site)`` is called by the instrumented code; it bumps the site's
    visit counter, evaluates every matching :class:`FaultSpec` and performs
    the triggered actions.  ``fired_log`` records ``(site, visit, action)``
    for every fired spec, so tests can assert the exact fault sequence; the
    flight recorder is handed the list at step start and keeps what the step
    appended (every site fires inside ``step()``, under the engine lock).
    """

    def __init__(self, schedule: Sequence[FaultSpec], seed: int = 0) -> None:
        if not injection_allowed():
            raise RuntimeError(
                f"fault injection is disabled: set {REPRO_FAULTS_ENV}=1 to "
                f"arm a FaultInjector (the gate keeps injection out of perf "
                f"runs and production entry points)")
        self.schedule: List[FaultSpec] = list(schedule)
        for spec in self.schedule:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"schedule entries must be FaultSpec, got "
                                f"{type(spec).__name__}")
        self.seed = seed
        self._rng = seeded_rng(seed)
        self.visits: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}  # schedule index -> times fired
        self.fired_log: List[Tuple[str, int, str]] = []

    def visit_count(self, site: str) -> int:
        """How many times ``site`` has been reached so far."""
        return self.visits.get(site, 0)

    @property
    def total_fired(self) -> int:
        return len(self.fired_log)

    def fire(self, site: str, payload: Any = None) -> None:
        """Visit ``site``: trigger every matching scheduled fault.

        ``payload`` is an optional mutable numpy array a ``corrupt`` spec
        perturbs in place.  Raising specs raise out of this call into the
        instrumented code path — exactly like an organic failure there.
        """
        visit = self.visits.get(site, 0) + 1
        self.visits[site] = visit
        for index, spec in enumerate(self.schedule):
            if spec.site != site:
                continue
            fired = self._fires.get(index, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                continue
            if not self._triggers(spec, visit):
                continue
            self._fires[index] = fired + 1
            self.fired_log.append((site, visit, spec.action))
            self._act(spec, site, visit, payload)

    def _triggers(self, spec: FaultSpec, visit: int) -> bool:
        if spec.at is not None:
            return visit == spec.at
        if spec.every is not None:
            return visit % spec.every == 0
        return bool(self._rng.random() < spec.rate)

    def _act(self, spec: FaultSpec, site: str, visit: int,
             payload: Any) -> None:
        if spec.action == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.action == "corrupt":
            if payload is not None:
                payload += spec.corrupt_scale * self._rng.standard_normal(
                    payload.shape).astype(payload.dtype)
            return
        if spec.transient:
            raise TransientFault(site, visit)
        raise InjectedFault(site, visit)
