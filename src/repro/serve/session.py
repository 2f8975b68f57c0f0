"""Generation sessions and the session manager over the paged KV cache.

A :class:`GenerationSession` is one streaming autoregressive request (prompt
in, tokens out).  The :class:`SessionManager` owns the model's
:class:`~repro.nn.PagedKVCache`: it runs every forward through one body
(:meth:`SessionManager._forward` — decode rows, a whole prompt tail, a chunk
of one and chunks of several sessions are rows of one token-packed
``forward_step`` that writes straight into pool blocks), maps cached common
prompt heads in by reference (:class:`~repro.serve.prefix.PrefixCache`),
advances every running session with one batched ``forward_step`` per engine
step — the prompt chunks that emit no token ride it, so a step is one
forward unless a prompt completes — and evicts completed sessions so their
blocks return to the pool: continuous batching over paged storage.

Fault semantics: every failure path here releases the session's slot and
blocks (:meth:`SessionManager.abort`) before surfacing the error, so the
engine's quarantine can prove pool soundness afterwards.  The manager is
also instrumented with named fault-injection sites (the catalog is
:data:`repro.serve.faults.FAULT_SITES`) — each a single ``is None`` check
when no injector is wired in.

There is one decode step (:meth:`SessionManager.step`): every row feeds its
pending token plus whatever the :class:`~repro.serve.speculative.NgramProposer`
drafted for it (``speculation="ngram"``) through one ragged ``forward_step``;
plain decode is the step whose rows all feed one token.  The step samples
its logits rows in one pass (:class:`~repro.llm.generation.SamplingTable`),
and every row it reads draws its token through the same
:meth:`SessionManager._consume_logits`, which is why the emitted stream is
token-identical to ``speculation="off"`` at any temperature
(``docs/speculative.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..llm import LanguageModel
from ..llm.generation import GenerationResult, SamplingTable, draw_token
# Unused here: the benchmark's trace pins this name (ROADMAP 2(b)/(c)).
from ..llm.generation import sample_token
from ..nn import DEFAULT_BLOCK_SIZE
from ..utils import seeded_rng
from .metrics import RequestMetrics
from .prefix import PrefixCache, PrefixEntry, cached_inference
from .speculative import AdaptiveK, NgramProposer

#: Session lifecycle states.
QUEUED = "queued"
PREFILLING = "prefilling"  # prompt partly in the pool (chunked prefill)
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"

#: Completion reasons.
REASON_EOS = "eos"
REASON_MAX_TOKENS = "max_tokens"
REASON_CONTEXT_FULL = "context_full"
REASON_CANCELLED = "cancelled"
REASON_DEADLINE = "deadline"


@dataclass
class GenerationSession:
    """One streaming generation request tracked by the engine."""

    session_id: int
    prompt: str
    max_new_tokens: int = 64
    temperature: float = 0.0
    seed: int = 0
    stop_on_eos: bool = True
    priority: int = 0
    #: Absolute ``time.perf_counter()`` completion deadline (None: none).
    deadline_at: Optional[float] = None
    #: Retry backoff: not admissible before this time (None: immediately).
    retry_at: Optional[float] = None
    state: str = QUEUED
    slot: Optional[int] = None
    prompt_ids: List[int] = field(default_factory=list)
    #: Prompt tokens already committed to the paged cache (chunked prefill
    #: resumes from here; equals ``len(prompt_ids)`` once prefill completes).
    prompt_pos: int = 0
    #: Matched shared-prefix entry (None on a miss), set at prompt preparation.
    prefix_entry: Optional[PrefixEntry] = field(default=None, repr=False)
    generated: List[int] = field(default_factory=list)
    stopped_by_eos: bool = False
    finish_reason: Optional[str] = None
    num_inferences: int = 0
    metrics: RequestMetrics = field(default_factory=lambda: RequestMetrics(task="generate"))
    #: Called with each committed token id (streaming handles subscribe here).
    on_token: Optional[Callable[[int], None]] = field(default=None, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)
    _last_step_at: Optional[float] = field(default=None, repr=False)

    @property
    def prompt_left(self) -> int:
        """Prompt tokens not yet committed to the paged cache."""
        return len(self.prompt_ids) - self.prompt_pos

    def is_expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at

    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = seeded_rng(self.seed)
        return self._rng

    def record_token(self) -> None:
        now = time.perf_counter()
        if self.metrics.first_token_at is None:
            self.metrics.first_token_at = now
        if self._last_step_at is not None:
            reference = self._last_step_at
        elif self.metrics.admitted_at is not None:
            reference = self.metrics.admitted_at
        else:
            reference = self.metrics.submitted_at
        self.metrics.token_seconds.append(now - reference)
        self._last_step_at = now

    def to_result(self, tokenizer) -> GenerationResult:
        """Materialize the standard :class:`GenerationResult` for this session."""
        return GenerationResult(
            text=tokenizer.decode(self.generated),
            token_ids=list(self.generated),
            num_inferences=self.num_inferences,
            elapsed_seconds=self.metrics.total_seconds,
            stopped_by_eos=self.stopped_by_eos,
            token_seconds=list(self.metrics.token_seconds),
        )


class SessionManager:
    """Session bookkeeping and batched decoding over a shared model.

    ``max_slots`` bounds how many sessions decode together (the batch size of
    one engine step); ``max_context`` bounds each session's total context.
    The KV pool is paged (:class:`~repro.nn.PagedKVCache`): a session holds
    exactly the blocks its history needs, so memory follows live tokens
    instead of ``max_slots × max_context``.  Prompts are prefilled together
    — mixed-length tails and chunks ride one token-packed forward, nothing
    padded; a chunk that emits no token rides the decode forward — and
    prompts starting with a registered prefix skip recomputing
    (and re-storing) the shared head entirely.

    Unlike eval-mode :func:`repro.llm.generation.generate`, the engine does
    not re-prime a sliding window when the context fills up — the session is
    completed with ``finish_reason == "context_full"`` instead, which is the
    behaviour a serving deployment wants (bounded per-request work).
    """

    def __init__(self, model: LanguageModel, max_slots: int = 16,
                 max_context: Optional[int] = None,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 prefix_cache: bool = True,
                 max_prefixes: int = 8,
                 fault_injector: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 speculation: str = "off",
                 speculation_k: int = 4) -> None:
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        self.model = model
        #: Decided once: only a model with active dropout needs eval mode
        #: around its KV-cached forwards (see ``cached_inference``).
        self._toggle_eval = model.has_active_dropout()
        self.max_slots = max_slots
        model_limit = model.config.max_seq_len
        self.max_context = min(max_context or model_limit, model_limit)
        if self.max_context < 2:
            raise ValueError("max_context must leave room for at least one new token")
        # Reserve pool capacity for the prefix cache's residents so prompt
        # traffic can never be starved by registered preambles (or vice versa).
        blocks_per_session = -(-self.max_context // block_size)
        self.cache = model.init_paged_cache(
            max_sessions=max_slots, max_context=self.max_context,
            block_size=block_size,
            extra_blocks=max_prefixes * blocks_per_session if prefix_cache else 0)
        self.prefix: Optional[PrefixCache] = (
            PrefixCache(model, self.cache, max_entries=max_prefixes,
                        max_length=self.max_context - 1)
            if prefix_cache else None)
        self.running: Dict[int, GenerationSession] = {}  # cache session id -> session
        #: Sessions mid chunked prefill, keyed by *request* session_id.  They
        #: hold a batch slot and a pool session with part of the prompt in it.
        self.prefilling: Dict[int, GenerationSession] = {}
        #: Optional seeded :class:`~repro.serve.faults.FaultInjector`.
        self.faults = fault_injector
        #: The engine's :class:`~repro.serve.telemetry.ServeTelemetry`, whose
        #: open record, ``telemetry.step``, this writes the prefill chunks
        #: and draft counts to; ``None`` only for a standalone manager.
        self.telemetry = telemetry
        if speculation not in ("off", "ngram"):
            raise ValueError(f"speculation must be 'off' or 'ngram', got "
                             f"{speculation!r}")
        #: Draft proposer for speculative decoding (None: speculation off).
        self.proposer: Optional[NgramProposer] = (
            NgramProposer(speculation_k) if speculation == "ngram" else None)
        self._adaptive = AdaptiveK(speculation_k) if self.proposer else None
        #: Drafts planned for the upcoming decode step, keyed by cache slot
        #: (filled by :meth:`plan_decode_tokens`, consumed by :meth:`step`).
        #: None is "no plan was made"; an empty dict is a plan made while
        #: nothing was running, under which nobody drafts.
        self._planned_drafts: Optional[Dict[int, List[int]]] = None
        #: ``(session, take)`` chunks granted by :meth:`prefill_step` that do
        #: not complete their prompt; they ride the next :meth:`step`.
        self.riding: List[Tuple[GenerationSession, int]] = []
        #: Riding chunks that failed in the last :meth:`step`, each aborted,
        #: with its error (the engine quarantines them).
        self.chunk_failures: List[Tuple[GenerationSession, BaseException]] = []

    # ------------------------------------------------------------------ #
    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def num_prefilling(self) -> int:
        return len(self.prefilling)

    @property
    def num_free(self) -> int:
        return self.max_slots - len(self.running) - len(self.prefilling)

    # ------------------------------------------------------------------ #
    def register_prefix(self, text: str) -> PrefixEntry:
        """Cache a common prompt head (see :class:`PrefixCache`)."""
        if self.prefix is None:
            raise ValueError("the prefix cache is disabled for this manager")
        return self.prefix.register(text)

    def admit_many(self, sessions: List[GenerationSession]) -> None:
        """Prefill queued sessions' whole prompt tails in one forward:
        :meth:`_prefill_rows` with every take the row's whole tail."""
        if len(sessions) > self.num_free:
            raise RuntimeError(
                f"cannot admit {len(sessions)} sessions into {self.num_free} free slots")
        for session in sessions:
            self._prepare_prompt(session)
        self._prefill_rows(sessions, [s.prompt_left for s in sessions])

    def _prepare_prompt(self, session: GenerationSession) -> None:
        """Tokenize the prompt once and match it against the prefix cache.

        Idempotent: a session that already carries ``prompt_ids`` (e.g. it
        was prepared when admission classified it for chunked prefill) is
        not re-matched, so the miss counter never double-counts (hits are
        counted when a forked row commits).  Keeps the whole prompt when it
        fits, else the most recent ``max_context`` tokens — the same window
        ``generate()`` prefills, so the first sampled token matches the
        standalone path even for prompts at the cap (such a session then
        finishes ``context_full`` right after).

        A session can hold its match across engine steps (budget deferral,
        budget-starved ``PREFILLING``); if a ``register_prefix`` LRU-evicted
        the entry before the session's first chunk, its pool blocks may
        already hold a different head's K/V — match again against the heads
        registered now.
        """
        entry = session.prefix_entry
        if not session.prompt_ids:
            session.prompt_ids = self.model.tokenizer.encode(
                session.prompt, add_bos=True)[-self.max_context:]
        elif (session.slot is not None or entry is None
              or (self.prefix is not None and self.prefix.is_live(entry))):
            return
        entry = session.prefix_entry = (self.prefix.match(session.prompt_ids)
                                        if self.prefix is not None else None)
        session.prompt_pos = entry.length if entry is not None else 0

    @staticmethod
    def _mark_started(session: GenerationSession) -> None:
        """Stamp admission once, when prefill work actually begins.

        Preparation/classification can run steps before the session really
        starts (budget deferral returns it to the queue), so the queue-wait
        clock must keep running until the first real prefill work.
        """
        if session.metrics.admitted_at is None:
            session.metrics.mark_admitted()

    # ------------------------------------------------------------------ #
    # Prefill (token-budget step scheduling)
    # ------------------------------------------------------------------ #
    def prefill_step(self, new_sessions: List[GenerationSession],
                     chunk_size: Optional[int] = None,
                     token_budget: Optional[int] = None
                     ) -> Tuple[int, List[GenerationSession],
                                List[Tuple[GenerationSession, BaseException]],
                                List[GenerationSession]]:
        """Spend up to ``token_budget`` prompt tokens on prefill work.

        One grant loop — and the engine's only admission rule:
        ``new_sessions`` are the scheduler's candidates for the free slots,
        in rank order, and this loop decides which of them start.  In-flight
        ``PREFILLING`` sessions are granted first (admission order), then
        ``new_sessions``, each up to ``chunk_size`` tokens (``None``: the
        chunk is the whole context, so every prompt is one-shot) while the
        budget lasts.  Where a grant goes depends on whether it emits a
        token.  The rows whose grant *completes* their prompt — whole tails
        and last chunks, at whatever lengths they stand — run now, in one
        :meth:`prefill_chunk_group` call, so each samples its first token
        before the decode forward.  Should that forward raise (nothing
        committed), they are retried one at a time through
        :meth:`prefill_chunk`, so a single bad request cannot take the
        others down; a row that raises alone is aborted.  A grant that stops
        short of its prompt's end emits nothing: the row is ``PREFILLING``
        from here on (a new one before it holds any block) and its chunk
        rides the decode forward of the next :meth:`step` (:attr:`riding`),
        which reports its failures in :attr:`chunk_failures`.

        Returns ``(tokens_spent, terminal, failures, deferred)``:
        ``terminal`` lists sessions that reached ``FINISHED`` during the
        phase (e.g. EOS sampled straight from prefill logits), ``failures``
        pairs sessions with the error that aborted them (their slot and
        blocks are already released), and ``deferred`` holds *new* sessions
        the budget could not give a single token to — the budget's ordinary
        back-pressure on a queue deeper than it can fund.  They stay
        ``QUEUED`` (no slot held) so the caller can put them back in its
        priority queue instead of letting them hoard batch slots in FIFO
        prefill order.

        Budget accounting is exact: a session whose prompt *completes* this
        step joins the decode batch of the same engine step, so completion is
        charged ``tail + 1`` tokens (its chunk plus its same-step decode row);
        a grant that cannot afford the extra decode token stops one token
        short of completing instead of busting ``step_token_budget``.
        """
        if chunk_size is None:
            chunk_size = self.max_context
        spent = 0
        rows: List[Tuple[GenerationSession, int, int]] = []  # session, take, cost
        failures: List[Tuple[GenerationSession, BaseException]] = []
        deferred: List[GenerationSession] = []
        for session in [*self.prefilling.values(), *new_sessions]:
            self._prepare_prompt(session)
            remaining = session.prompt_left
            take = min(chunk_size, remaining)
            if token_budget is not None and token_budget - spent <= remaining:
                # Completing would cost one token more than is left (the
                # same-step decode row): the grant stays short of it.
                take = min(take, token_budget - spent, remaining - 1)
            cost = take + (take == remaining)
            if take <= 0:
                # The budget ran dry before this session's next token.  A new
                # one stays QUEUED for the caller to requeue rather than
                # holding a slot at zero progress; one in flight simply waits
                # a step.
                if session.state == QUEUED:
                    deferred.append(session)
                continue
            rows.append((session, take, cost))
            spent += cost
        completing = [(session, take) for session, take, cost in rows if cost > take]
        self.riding = [(session, take) for session, take, cost in rows if cost == take]
        for session, _ in self.riding:
            session.state = PREFILLING
            self.prefilling[session.session_id] = session
        if completing:
            try:
                self.prefill_chunk_group([session for session, _ in completing],
                                         [take for _, take in completing])
            except Exception:
                failures = self._prefill_alone(completing)
                # A completion that failed gave back its take + 1.
                spent -= sum(session.prompt_left + 1 for session, _ in failures)
        terminal = [session for session, _ in completing if session.state == FINISHED]
        return spent, terminal, failures, deferred

    def _prefill_alone(self, rows: Sequence[Tuple[GenerationSession, int]]
                       ) -> List[Tuple[GenerationSession, BaseException]]:
        """Retry prefill grants one at a time after their joint forward
        raised: each row is a :meth:`prefill_chunk` of its own, and a row
        that raises alone is aborted and returned with its error."""
        failures: List[Tuple[GenerationSession, BaseException]] = []
        for session, take in rows:
            try:
                self.prefill_chunk(session, take)
            except Exception as error:
                self.abort(session)
                failures.append((session, error))
        return failures

    def prefill_chunk(self, session: GenerationSession, max_tokens: int) -> int:
        """Advance one session's prefill by up to ``max_tokens`` prompt tokens:
        a group of one through :meth:`_prefill_rows`.  A failure raises with
        the session as it was (the caller aborts it).  Returns the prompt
        tokens consumed."""
        self._prepare_prompt(session)
        take = min(max_tokens, session.prompt_left)
        self._prefill_rows([session], [take])
        return take

    def prefill_chunk_group(self, group: List[GenerationSession],
                            takes: Sequence[int]) -> None:
        """Advance ``group[i]`` by ``takes[i]`` prompt tokens, all in one
        forward: the public spelling of :meth:`_prefill_rows`, and the call
        :meth:`prefill_step` makes for the rows that complete their prompt —
        so whoever replaces it with something that raises gets the
        one-at-a-time route for those."""
        self._prefill_rows(group, takes)

    def _prefill_rows(self, group: List[GenerationSession],
                      takes: Sequence[int]) -> None:
        """Prefill ``takes[i]`` more prompt tokens of ``group[i]`` in one
        forward of prompt rows alone (:meth:`_forward`).  A one-shot admission
        is a row whose take is its whole tail, a chunk a row that takes less,
        and any mix of them is one call.  Every row is a prompt row, so the
        forward returns one logits row per row, its last token's: a row
        whose prompt completes draws its first output token from row ``i``
        of one :class:`~repro.llm.generation.SamplingTable` over them, as
        :func:`~repro.llm.generation.generate` samples its first;
        the others are ``PREFILLING``.  All or nothing: a raise leaves every
        session, and the pool, as they were.
        """
        logits = self._forward((), (), group, takes)
        table = SamplingTable(logits, [session.temperature for session in group])
        for row, session in enumerate(group):
            if session.state == RUNNING:
                self._consume_logits(session, table, row)

    def _forward(self, slots: Sequence[int], fed: Sequence[List[int]],
                 group: Sequence[GenerationSession], takes: Sequence[int]
                 ) -> np.ndarray:
        """One ``forward_step`` over decode rows, then prompt rows; return
        its packed logits: every fed token of the decode rows, then one row
        per prompt row, at its last token.

        The one body behind prefill and decode: running session ``slots[i]``
        feeds ``fed[i]`` (its pending token plus any drafts), then
        ``group[i]`` feeds the next ``takes[i]`` tokens of its prompt — the
        plan that serves decode and verification grows each row's table and
        the layers write K/V straight into pool blocks.  The prompt rows are
        grouped apart from the decode rows in attention (``prompt_from``), so
        a chunk never widens a decoder's query rectangle.  A new prompt row is
        opened in the pool first — empty, or as a fork of its matched
        prefix's head session (the partial last block is copied by the plan
        before the row writes into it).  All or nothing: the prefill fault
        sites fire before anything is touched, and a raise evicts the rows
        opened here and hands every other row back what the plan appended to
        it.  After
        the forward each prompt row's ``prompt_pos`` moves: it stays
        ``PREFILLING`` or, its prompt complete, is promoted to ``running``
        (the caller samples its first token).
        """
        for session, take in zip(group, takes):
            if session.state not in (QUEUED, PREFILLING):
                raise ValueError(f"cannot prefill a {session.state} session")
            if not 1 <= take <= session.prompt_left:
                raise ValueError(
                    f"session {session.session_id} cannot take {take} of its "
                    f"{session.prompt_left} remaining prompt tokens")
        fresh = [session for session in group if session.slot is None]
        if self.faults is not None:
            # Every site this forward stands for, once each and before
            # anything is touched: a raise here has nothing to undo.
            one_shot = sum(take == s.prompt_left
                           for s, take in zip(group, takes) if s.slot is None)
            if one_shot:
                self.faults.fire("prefill.band")
            if one_shot < len(group):
                self.faults.fire("prefill.chunk")
            if fresh:
                self.faults.fire("kv.admit")
            if len(fresh) < len(group):
                self.faults.fire("kv.extend")
            if any(session.prefix_entry is not None for session in fresh):
                self.faults.fire("prefix.seed")
        # Packed: the rows' tokens back to back, nothing padded.
        tokens = [token for row in fed for token in row]
        for session, take in zip(group, takes):
            tokens += session.prompt_ids[session.prompt_pos:session.prompt_pos + take]
        # A step of one-token rows alone is spelled counts=None: plain decode.
        counts = (None if not group and len(tokens) == len(fed)
                  else np.asarray([*map(len, fed), *takes], dtype=np.int64))
        opened: List[GenerationSession] = []
        try:
            for session in fresh:
                entry = session.prefix_entry
                session.slot = (
                    self.cache.open_session() if entry is None
                    else self.prefix.seed_cache(entry, 1)[0])  # repro: noqa[REP005] a live entry implies the prefix cache exists
                opened.append(session)
                self._mark_started(session)
            with cached_inference(self.model, self._toggle_eval):
                logits = self.model.forward_step(
                    np.asarray(tokens, dtype=np.int64), self.cache,
                    np.asarray([*slots, *[session.slot for session in group]],
                               dtype=np.int64),
                    counts=counts, prompt_from=len(slots)).data[0]
        except Exception:
            # Nothing was committed.  The rows opened here leave the pool;
            # the others get back whatever blocks the plan appended to them.
            for session in opened:
                self.cache.evict(session.slot)
                session.slot = None
            for slot in [*slots, *(session.slot for session in group)]:
                if slot is not None:
                    self.cache.truncate_session(slot, self.cache.length(slot))
            raise
        if self.prefix is not None:
            # Reuse counts once a forked row commits, not at the match or
            # the fork: the head may be evicted first, the forward raise.
            for session in fresh:
                if session.prefix_entry is not None:
                    session.metrics.prefix_tokens = self.prefix.count_hit(
                        session.prefix_entry)
        for session, take in zip(group, takes):
            session.prompt_pos += take
            if self.telemetry is not None:
                # One chunk per take, so the flight recorder reads a one-shot
                # tail as a single PREFILLING entry.
                self.telemetry.step.prefill_chunks.append(
                    (session.session_id, take))
            if session.prompt_left:
                session.state = PREFILLING
                self.prefilling[session.session_id] = session
            else:
                self.prefilling.pop(session.session_id, None)
                self.running[session.slot] = session
                session.state = RUNNING
        return logits

    def abort(self, session: GenerationSession) -> None:
        """Release a failed session's slot/blocks without finishing it.

        The quarantine primitive: idempotent (a session already aborted, or
        evicted mid-step before the fault hit, is a no-op), and tolerant of
        a pool that already dropped the slot — the engine's invariant check
        right after the quarantine is what proves the pool stayed sound.
        """
        self.prefilling.pop(session.session_id, None)
        if session.slot is not None:
            self.running.pop(session.slot, None)
            self._forget_speculation(session.slot)
            try:
                self.cache.evict(session.slot)
            except ValueError:
                pass  # slot already gone; check_invariants judges the pool
            session.slot = None
        session.state = FAILED

    def evict(self, session: GenerationSession, reason: str) -> None:
        if session.finish_reason is None:
            session.finish_reason = reason
        session.state = FINISHED
        session.metrics.mark_finished()
        self.prefilling.pop(session.session_id, None)
        if session.slot is not None:
            self.running.pop(session.slot, None)
            self._forget_speculation(session.slot)
            self.cache.evict(session.slot)
            session.slot = None

    def _forget_speculation(self, slot: int) -> None:
        """Drop a departing slot's drafter/adaptive-k state.  (Drafts planned
        for it are never read: :meth:`step` looks up running slots only.)"""
        if self.proposer is not None:
            self.proposer.forget(slot)
            self._adaptive.forget(slot)

    # ------------------------------------------------------------------ #
    def plan_decode_tokens(self, token_budget: Optional[int] = None) -> int:
        """Draft for the upcoming decode step; return its planned token cost.

        The unified-budget hook: the engine calls this *before* granting the
        step's prefill budget, so speculative decode rows are charged
        ``1 + drafted`` tokens against ``step_token_budget`` exactly like
        prefill chunks are charged per prompt token.  With speculation off
        (or an empty batch) the plan is trivially one token per running row.

        A row drafts its adaptive ``k`` while the acceptance its proposer
        replayed from its own stream pays at this batch's row count (all rows
        at 0: the plain decode step); drafts are clamped to the remaining
        context, trimmed longest-first until the batch fits ``token_budget``
        (each row keeps its 1 mandatory token) and stashed for :meth:`step`.
        """
        self._planned_drafts = {}
        if not self.running:
            return 0
        if self.proposer is None:
            return len(self.running)
        if self.faults is not None:
            # Pre-drafting site: proposing touches no model or pool state, so
            # a raise here can never leave KV to roll back.
            self.faults.fire("draft.propose")
        rows, cap = len(self.running), self._adaptive.cap
        drafts: Dict[int, List[int]] = {}
        for slot in sorted(self.running):
            session, held = self.running[slot], self.proposer.held(slot)
            drafts[slot] = []
            if held is not None and not self._adaptive.current(
                    slot, rows, (1, 1)):
                continue  # not even a flawless replay pays at this batch size
            k = self._adaptive.current(slot, rows, self.proposer.replayed(slot))
            # A drafting row syncs every step; an undrafted one when first
            # planned and once a cap-length draft step (cap + 1 tokens) is
            # unsynced, then drafts if its replay pays.
            if k or held is None or (len(session.prompt_ids)
                                     + len(session.generated) - held > cap):
                self.proposer.sync(slot, session.prompt_ids, session.generated)
                k = self._adaptive.current(slot, rows,
                                           self.proposer.replayed(slot))
            # Never draft past the context cap (sequential decode stops there).
            k = min(k, self.max_context - (self.cache.length(slot) + 1))
            if k > 0:
                drafts[slot] = self.proposer.propose(slot, k)
        total = sum(1 + len(d) for d in drafts.values())
        if token_budget is not None:
            # Trim longest-first until the step fits the budget; the 1-token
            # floor per row is the same floor non-speculative decode has.
            while total > token_budget:
                slot = max(drafts, key=lambda s: len(drafts[s]))
                if not drafts[slot]:
                    break
                drafts[slot].pop()
                total -= 1
        self._planned_drafts = drafts
        return total

    # ------------------------------------------------------------------ #
    def step(self) -> Tuple[List[GenerationSession], int]:
        """Advance every running session by one decode step, with the
        :attr:`riding` prompt chunks in the same forward.

        Row *i* feeds its pending sampled token plus the drafts planned for
        it — ``1 + len(drafts)`` positions, one when nothing was drafted —
        and each riding chunk its granted prompt tokens behind them, through
        one ragged ``forward_step`` (:meth:`_forward`) over the rows' tokens
        packed back to back, so a row pays for its own tokens and no
        neighbour's.  The decode rows go in ascending block need, so each
        length group of the forward is a contiguous run of them (a view in
        the plan and in attention).  The chunk rows' bookkeeping settles
        first; only the decode rows' logits are the ``decode.logits`` /
        ``decode.verify`` payload.  Should the forward raise (nothing
        committed), the chunks
        are retried one at a time (:meth:`prefill_chunk`; one that raises
        alone is aborted into :attr:`chunk_failures`) and the decode rows
        run alone through the same forward — so a request fails exactly
        when it would have in forwards of its own.  The decoded rows'
        logits become one :class:`~repro.llm.generation.SamplingTable`, and
        each verified row then draws its token from it through
        :meth:`_consume_logits`: the sampled token *is* the acceptance test
        (equal to the draft → keep verifying; different → it is the
        correction and verification stops), so RNG draws, EOS handling,
        streaming callbacks and metrics are those of one-token-at-a-time
        decode whatever was drafted.  KV written past the last emitted token
        is rolled back via :meth:`~repro.nn.PagedKVCache.truncate_session`.
        Sessions that hit EOS, their token budget or the context cap are
        evicted, freeing slots for queued requests.  Returns
        ``(completed_sessions, occupancy)`` where ``occupancy`` is the batch
        size of the forward actually executed (0 when every running session
        finished at the context cap before the forward).
        """
        # A riding row a deadline or a cancel ended since its grant is gone.
        chunks = [(session, take) for session, take in self.riding
                  if session.state == PREFILLING]
        self.riding, self.chunk_failures = [], []
        if not self.running and not chunks:
            return [], 0
        if self.faults is not None and self.running:
            # Pre-forward site: a raise here leaves the pool untouched, the
            # cheapest-to-recover decode fault (the engine quarantines the
            # whole batch either way; the chunks wait for the next grant).
            self.faults.fire("decode.step")
        # Sessions whose cache cannot take one more token finish now (their
        # already-sampled final token still counts as generated output).
        slots = sorted(self.running)
        lengths = {slot: self.cache.length(slot) for slot in slots}
        completed = [self.running[slot] for slot in slots
                     if lengths[slot] + 1 > self.max_context]
        for session in completed:
            self.evict(session, REASON_CONTEXT_FULL)
        slots = [slot for slot in slots if slot in self.running]
        if not slots and not chunks:
            return completed, 0

        drafts: Dict[int, List[int]] = {}
        if self.proposer is not None and slots:
            if self._planned_drafts is None:
                self.plan_decode_tokens()  # standalone use: no engine budget pass
            # A row promoted after the plan has no entry and takes its one
            # mandatory token, which is what its prefill grant paid for.
            drafts, self._planned_drafts = self._planned_drafts, None
        # Rows in ascending block need (length plus tokens fed, ties by slot):
        # every length group of the forward is then a contiguous run of rows,
        # which the plan and attention read as views, not copies.
        slots.sort(key=lambda slot: lengths[slot] + 1 + len(drafts.get(slot, ())))
        batch = [self.running[slot] for slot in slots]
        fed = [[session.generated[-1]] + drafts.get(slot, [])
               for slot, session in zip(slots, batch)]
        group, takes = [session for session, _ in chunks], [take for _, take in chunks]
        try:
            logits = self._forward(slots, fed, group, takes)
        except Exception:
            if not chunks:
                raise
            self.chunk_failures = self._prefill_alone(chunks)
            logits = self._forward(slots, fed, (), ()) if slots else None
        if not slots:
            return completed, 0
        decoded = sum(map(len, fed))
        logits = logits[:decoded]  # a view: a corrupt payload is what is sampled
        drafted = decoded > len(fed)
        if self.faults is not None:
            # Post-forward sites: the K/V writes are committed; a "corrupt"
            # spec perturbs the logits in place before sampling.  A drafted
            # step — acceptance undecided, rollback still ahead — has its own.
            if drafted:
                self.faults.fire("decode.verify", payload=logits)
            else:
                self.faults.fire("decode.logits", payload=logits)
        # One sampling pass over every decoded row, after the fault site so a
        # corrupted payload is what gets sampled; rows draw as they are read.
        table = SamplingTable(logits, [session.temperature
                                       for session, row in zip(batch, fed)
                                       for _ in row])
        step_drafted = step_accepted = offset = 0
        for slot, session, row in zip(slots, batch, fed):
            session.metrics.batch_sizes.append(len(batch))
            draft = row[1:]
            # Packed token offset + t is consumed once every draft before it
            # was accepted; what it samples is the correction of draft t or,
            # past the last draft, the bonus token.
            alive = self._consume_logits(session, table, offset)
            accepted = 0
            while (alive and accepted < len(draft)
                   and session.generated[-1] == draft[accepted]):
                accepted += 1
                alive = self._consume_logits(session, table, offset + accepted)
            offset += len(row)
            step_drafted += len(draft)
            step_accepted += accepted
            if not alive:
                # Evicted inside _consume_logits (EOS / limits): its blocks,
                # speculative tail included, are back in the pool and its
                # drafting state forgotten; observing now would leak an entry.
                completed.append(session)
            elif draft:
                self._adaptive.observe(slot, len(draft), accepted)
                if accepted < len(draft):
                    # Roll back the rejected drafts: the pending (sampled, not
                    # yet fed) token is the last emitted one, so the session
                    # keeps the usual length == prompt + generated - 1.
                    self.cache.truncate_session(slot, lengths[slot] + accepted + 1)
        if step_drafted and self.telemetry is not None:
            self.telemetry.step.tokens_drafted += step_drafted
            self.telemetry.step.tokens_accepted += step_accepted
        return completed, len(batch)

    # ------------------------------------------------------------------ #
    def _consume_logits(self, session: GenerationSession, table: SamplingTable,
                        row: int) -> bool:
        """Emit ``session``'s next token, drawn from row ``row`` of the
        forward's ``table``; return False when the session ends.

        This is the served path's one draw
        (:func:`~repro.llm.generation.draw_token`): one generator draw per
        sampled token, none for a greedy one.
        :func:`~repro.llm.generation.sample_token` is the one-row case of the
        same table and draw, so a served session reproduces the standalone
        :func:`~repro.llm.generation.generate` token stream.
        """
        session.num_inferences += 1
        next_id = draw_token(table, row, session.rng())
        session.record_token()
        tokenizer = self.model.tokenizer
        if session.stop_on_eos and next_id == tokenizer.eos_id:
            session.stopped_by_eos = True
            self.evict(session, REASON_EOS)
            return False
        session.generated.append(next_id)
        session.metrics.tokens_generated = len(session.generated)
        if session.on_token is not None:
            session.on_token(next_id)
        if len(session.generated) >= session.max_new_tokens:
            self.evict(session, REASON_MAX_TOKENS)
            return False
        return True
