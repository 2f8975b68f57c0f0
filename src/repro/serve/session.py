"""Generation sessions and the session manager over the paged KV cache.

A :class:`GenerationSession` is one streaming autoregressive request (prompt
in, tokens out).  The :class:`SessionManager` owns the model's
:class:`~repro.nn.PagedKVCache`: it prefills prompts through one body
(:meth:`SessionManager._prefill_rows` — a ragged one-shot band, a solo chunk
and a fused chunk wave are the same right-padded forward plus pool commit),
maps cached common prompt heads in by reference
(:class:`~repro.serve.prefix.PrefixCache`),
advances every running session with one batched ``forward_step`` per engine
step, and evicts completed sessions so their blocks return to the pool —
continuous batching over paged storage.

Fault semantics: every failure path here releases the session's slot and
blocks (:meth:`SessionManager.abort`) before surfacing the error, so the
engine's quarantine can prove pool soundness afterwards.  The manager is
also instrumented with the named fault-injection sites ``prefill.band``,
``prefill.chunk``, ``decode.step``, ``decode.logits``, ``draft.propose``,
``decode.verify`` and ``prefix.seed`` (see :mod:`repro.serve.faults`) —
each a single ``is None`` check when no injector is wired in.

There is one decode step (:meth:`SessionManager.step`): every row feeds its
pending token plus whatever the :class:`~repro.serve.speculative.NgramProposer`
drafted for it (``speculation="ngram"``) through one ragged ``forward_step``;
plain decode is the step whose rows all feed one token.  Every logits row
goes through the same :meth:`SessionManager._consume_logits`, which is why
the emitted stream is token-identical to ``speculation="off"`` at any
temperature (``docs/speculative.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..llm import LanguageModel
from ..llm.generation import GenerationResult, sample_token
from ..nn import DEFAULT_BLOCK_SIZE, KVCache
from ..utils import seeded_rng
from .metrics import RequestMetrics
from .prefix import PrefixCache, PrefixEntry, cached_inference
from .speculative import AdaptiveK, NgramProposer

#: Session lifecycle states.
QUEUED = "queued"
PREFILLING = "prefilling"  # prompt partially committed (chunked prefill)
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
    #: Resumable single-session prefill cache holding the history computed so
    #: far; dropped as soon as the prompt completes.
    prefill_cache: Optional[KVCache] = field(default=None, repr=False)
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

    def is_expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None:
            return False
        return (time.perf_counter() if now is None else now) > self.deadline_at

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
    instead of ``max_slots × max_context``.  Prompts are prefilled in ragged
    length-bucketed batches — mixed-length prompts ride one right-padded
    forward, with padding waste bounded by ``prefill_padding`` — and prompts
    starting with a registered prefix skip recomputing (and re-storing) the
    shared head entirely.

    Unlike eval-mode :func:`repro.llm.generation.generate`, the engine does
    not re-prime a sliding window when the context fills up — the session is
    completed with ``finish_reason == "context_full"`` instead, which is the
    behaviour a serving deployment wants (bounded per-request work).
    """

    def __init__(self, model: LanguageModel, max_slots: int = 16,
                 max_context: Optional[int] = None,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 prefill_padding: float = 0.5,
                 prefix_cache: bool = True,
                 max_prefixes: int = 8,
                 fault_injector: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 speculation: str = "off",
                 speculation_k: int = 4) -> None:
        if max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if prefill_padding < 0:
            raise ValueError("prefill_padding must be >= 0")
        self.model = model
        #: Decided once: only a model with active dropout needs eval mode
        #: around its KV-cached forwards (see ``cached_inference``).
        self._toggle_eval = model.has_active_dropout()
        self.max_slots = max_slots
        model_limit = model.config.max_seq_len
        self.max_context = min(max_context or model_limit, model_limit)
        if self.max_context < 2:
            raise ValueError("max_context must leave room for at least one new token")
        self.prefill_padding = prefill_padding
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
        #: Sessions mid chunked prefill, keyed by *request* session_id (they
        #: may not have a paged-cache slot yet).  They hold a batch slot.
        self.prefilling: Dict[int, GenerationSession] = {}
        #: Optional seeded :class:`~repro.serve.faults.FaultInjector`; the
        #: paged pool's ``kv.admit``/``kv.extend`` sites hook into it too.
        self.faults = fault_injector
        if fault_injector is not None:
            self.cache.fault_hook = fault_injector.fire
        #: Optional :class:`~repro.serve.telemetry.ServeTelemetry`; the
        #: engine wires it in only when enabled, so every instrumented site
        #: here is a single ``is None`` check (same idiom as ``faults``).
        self.telemetry = telemetry
        if speculation not in ("off", "ngram"):
            raise ValueError(f"speculation must be 'off' or 'ngram', got "
                             f"{speculation!r}")
        #: Draft proposer for speculative decoding (None: speculation off).
        self.proposer: Optional[NgramProposer] = (
            NgramProposer() if speculation == "ngram" else None)
        self._adaptive = AdaptiveK(speculation_k) if self.proposer else None
        #: Drafts planned for the upcoming decode step, keyed by cache slot
        #: (filled by :meth:`plan_decode_tokens`, consumed by :meth:`step`).
        #: None is "no plan was made"; an empty dict is a plan made while
        #: nothing was running, under which nobody drafts.
        self._planned_drafts: Optional[Dict[int, List[int]]] = None
        #: Lifetime speculative counters (feed ``ServerStats``).
        self.tokens_drafted = 0
        self.tokens_accepted = 0
        #: ``((session ids), committed length) -> stacked KVCache`` left by
        #: the previous fused wave (see :meth:`_stacked_history`).
        self._fused_prefill: Optional[Tuple[Tuple[Tuple[int, ...], int],
                                            KVCache]] = None

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
        """Prefill queued sessions in ragged length-banded batches.

        Sessions are grouped by matched prefix, then partitioned into length
        bands (:meth:`_length_bands`); each band is one :meth:`_prefill_rows`
        call taking every row's whole prompt tail.
        """
        if len(sessions) > self.num_free:
            raise RuntimeError(
                f"cannot admit {len(sessions)} sessions into {self.num_free} free slots")
        by_prefix: Dict[Optional[Tuple[int, ...]], List[GenerationSession]] = {}
        for session in sessions:
            self._prepare_prompt(session)
            self._mark_started(session)
            entry = session.prefix_entry
            by_prefix.setdefault(
                entry.token_ids if entry is not None else None, []).append(session)
        for group in by_prefix.values():
            # A queued session's committed history is exactly its matched head.
            for band in self._length_bands(group, group[0].prompt_pos):
                if self.faults is not None:
                    self.faults.fire("prefill.band")
                self._prefill_rows(
                    band, [len(s.prompt_ids) - s.prompt_pos for s in band])

    def _prepare_prompt(self, session: GenerationSession) -> None:
        """Tokenize the prompt once and match it against the prefix cache.

        Idempotent: a session that already carries ``prompt_ids`` (e.g. it
        was prepared when admission classified it for chunked prefill) is
        not re-matched, so hit/miss counters never double-count.  Keeps the
        whole prompt when it fits, else the most recent ``max_context``
        tokens — the same window ``generate()`` prefills, so the first
        sampled token matches the standalone path even for prompts at the
        cap (such a session then finishes ``context_full`` right after).

        A session can hold its match across engine steps (budget deferral,
        budget-starved ``PREFILLING``); if a ``register_prefix`` LRU-evicted
        the entry before the session's first chunk, its pool blocks may
        already hold a different head's K/V — fall back to a cold prefill,
        losing only the reuse.
        """
        if not session.prompt_ids:
            session.prompt_ids = self.model.tokenizer.encode(
                session.prompt, add_bos=True)[-self.max_context:]
            session.prefix_entry = (self.prefix.match(session.prompt_ids)
                                    if self.prefix is not None else None)
        elif (session.slot is None and session.prefix_entry is not None
              and (self.prefix is None
                   or not self.prefix.is_live(session.prefix_entry))):
            session.prefix_entry = None
        else:
            return
        entry = session.prefix_entry
        session.prompt_pos = entry.length if entry is not None else 0
        session.metrics.prefix_tokens = session.prompt_pos

    @staticmethod
    def _mark_started(session: GenerationSession) -> None:
        """Stamp admission once, when prefill work actually begins.

        Preparation/classification can run steps before the session really
        starts (budget deferral returns it to the queue), so the queue-wait
        clock must keep running until the first real prefill work.
        """
        if session.metrics.admitted_at is None:
            session.metrics.mark_admitted()

    def _length_bands(self, sessions: List[GenerationSession],
                      head_len: int) -> List[List[GenerationSession]]:
        """Partition sessions into prefill bands with bounded padding waste.

        Greedy over tail lengths sorted ascending: a band absorbs the next
        (longer) session while the band's right-padded token count stays
        within ``1 + prefill_padding`` of its real token count.  A small
        bound yields many narrow bands (little padding, many forwards); a
        large one, few wide bands — the knob trades per-forward overhead
        against padded FLOPs.
        """
        ordered = sorted(sessions, key=lambda s: len(s.prompt_ids))
        bands: List[List[GenerationSession]] = []
        band: List[GenerationSession] = []
        real_tokens = 0
        for session in ordered:
            tail = len(session.prompt_ids) - head_len
            padded = (len(band) + 1) * tail  # sorted: this tail is the new max
            if band and padded > (1.0 + self.prefill_padding) * (real_tokens + tail):
                bands.append(band)
                band, real_tokens = [], 0
            band.append(session)
            real_tokens += tail
        if band:
            bands.append(band)
        return bands

    # ------------------------------------------------------------------ #
    # Chunked prefill (token-budget step scheduling)
    # ------------------------------------------------------------------ #
    def prefill_step(self, new_sessions: List[GenerationSession],
                     chunk_size: Optional[int] = None,
                     token_budget: Optional[int] = None
                     ) -> Tuple[int, List[GenerationSession],
                                List[Tuple[GenerationSession, BaseException]],
                                List[GenerationSession]]:
        """Spend up to ``token_budget`` prompt tokens on prefill work.

        In-flight ``PREFILLING`` sessions resume first (admission order),
        each granted up to ``chunk_size`` tokens (``None``: the chunk is the
        whole context, so every prompt is one-shot); the remaining budget then
        starts ``new_sessions``.  New sessions whose whole prompt tail fits
        in one chunk (and in the remaining budget) are batched through the
        ragged length-banded one-shot path (:meth:`admit_many`), so chunking
        composes with banded prefill instead of replacing it; longer prompts
        enter the ``PREFILLING`` state and continue across steps.

        Returns ``(tokens_spent, terminal, failures, deferred)``:
        ``terminal`` lists sessions that reached ``FINISHED`` during the
        phase (e.g. EOS sampled straight from prefill logits), ``failures``
        pairs sessions with the error that aborted them (their slot and
        blocks are already released), and ``deferred`` holds *new* sessions
        the budget could not give a single token to — they stay ``QUEUED``
        (no slot held) so the caller can put them back in its priority queue
        instead of letting them hoard batch slots in FIFO prefill order.

        Budget accounting is exact: a session whose prompt *completes* this
        step joins the decode batch of the same engine step, so completion is
        charged ``tail + 1`` tokens (its chunk plus its same-step decode row);
        a grant that cannot afford the extra decode token stops one token
        short of completing instead of busting ``step_token_budget``.
        """
        if chunk_size is None:
            chunk_size = self.max_context
        spent = 0
        terminal: List[GenerationSession] = []
        failures: List[Tuple[GenerationSession, BaseException]] = []
        deferred: List[GenerationSession] = []

        def allowance() -> Optional[int]:
            return None if token_budget is None else token_budget - spent

        def grant_and_cost(session, left) -> Tuple[int, int]:
            """(prompt tokens to prefill, budget tokens that will cost)."""
            remaining = len(session.prompt_ids) - session.prompt_pos
            grant = chunk_size if left is None else min(chunk_size, left)
            if grant >= remaining:
                if left is None or left >= remaining + 1:
                    return remaining, remaining + 1
                return max(0, left - 1), max(0, left - 1)
            return grant, grant

        def run_chunk(session, grant) -> bool:
            """Prefill one solo chunk; a failure aborts and records the session."""
            try:
                self.prefill_chunk(session, grant)
                return True
            except Exception as error:
                self.abort(session)
                failures.append((session, error))
                return False

        # Grant the in-flight PREFILLING sessions first (admission order),
        # then fuse grants with equal committed history and equal size into
        # one ragged banded forward (the multi-chunk analogue of banded
        # admission) — concurrent same-shape prompts pay one forward per
        # step, not one each.
        fused_groups: Dict[Tuple[int, int], List[Tuple[GenerationSession, int]]] = {}
        for session in list(self.prefilling.values()):
            left = allowance()
            if left is not None and left <= 0:
                break
            grant, cost = grant_and_cost(session, left)
            if grant <= 0:
                break
            fused_groups.setdefault((session.prefill_cache.seq_len, grant),
                                    []).append((session, cost))
            spent += cost  # refunded below if the chunk fails
        for (_, grant), members in fused_groups.items():
            solo = list(members)
            if len(members) >= 2:
                try:
                    chunk_failures = self.prefill_chunk_group(
                        [session for session, _ in members], grant)
                except Exception:
                    # The fused forward itself failed before any session was
                    # committed: fall back to one-at-a-time chunks below so a
                    # single bad session cannot take down its whole group.
                    pass
                else:
                    solo = []
                    costs = dict((id(s), c) for s, c in members)
                    for session, error in chunk_failures:
                        spent -= costs[id(session)]
                        failures.append((session, error))
            for session, cost in solo:
                if not run_chunk(session, grant):
                    spent -= cost
            terminal.extend(session for session, _ in members
                            if session.state == FINISHED)

        one_shot: List[GenerationSession] = []
        for session in new_sessions:
            self._prepare_prompt(session)
            tail = len(session.prompt_ids) - session.prompt_pos
            left = allowance()
            if tail <= chunk_size and (left is None or tail + 1 <= left):
                one_shot.append(session)
                spent += tail + 1  # banded prefill + same-step decode row
                continue
            grant, cost = grant_and_cost(session, left)
            if grant <= 0:
                # The budget ran dry before this session's first token (the
                # admission cap makes that rare — e.g. a one-token tail with
                # exactly one budget token left).  It stays QUEUED for the
                # caller to requeue rather than holding a slot at zero
                # progress.
                deferred.append(session)
                continue
            if run_chunk(session, grant):
                spent += cost
        if one_shot:
            try:
                self.admit_many(one_shot)
            except Exception:
                # Batched prefill failed: retry one by one so a single bad
                # request cannot reject the whole band.
                for session in one_shot:
                    if session.state != QUEUED:
                        continue
                    try:
                        self.admit_many([session])
                    except Exception as error:
                        self.abort(session)
                        failures.append((session, error))
            terminal.extend(s for s in one_shot if s.state == FINISHED)
        return spent, terminal, failures, deferred

    def prefill_chunk(self, session: GenerationSession, max_tokens: int) -> int:
        """Advance one session's prefill by up to ``max_tokens`` prompt tokens.

        A group of one through :meth:`_prefill_rows`: the chunk runs on the
        session's own resumable cache
        (:attr:`GenerationSession.prefill_cache`) — attention over the
        already-committed history is the ordinary incremental causal forward,
        so chunked logits match one-shot prefill exactly.  Failures raise
        (the caller aborts the session).  Returns the prompt tokens consumed.
        """
        if session.state not in (QUEUED, PREFILLING):
            raise ValueError(f"cannot prefill a {session.state} session")
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        self._prepare_prompt(session)
        if session.state == QUEUED:
            session.state = PREFILLING
            self.prefilling[session.session_id] = session
        self._mark_started(session)
        take = min(max_tokens, len(session.prompt_ids) - session.prompt_pos)
        if take <= 0:
            raise ValueError(f"session {session.session_id} has no prompt "
                             f"tokens left to prefill")
        if self.faults is not None:
            self.faults.fire("prefill.chunk")
        failures = self._prefill_rows([session], [take])
        if failures:
            raise failures[0][1]
        return take

    def prefill_chunk_group(self, group: List[GenerationSession], take: int
                            ) -> List[Tuple[GenerationSession, BaseException]]:
        """Advance several equal-history ``PREFILLING`` sessions in one forward.

        Every session must hold a resumable prefill cache of the same
        committed length and be due exactly ``take`` more prompt tokens (the
        grouping :meth:`prefill_step` performs).  Per-session commit failures
        abort only that session and are returned as ``(session, error)``
        pairs; the fused forward itself raising (before any commit) leaves
        every session untouched, so the caller can fall back to one-at-a-time
        chunks.
        """
        if self.faults is not None:
            # One forward, one fire — the fused analogue of ``prefill.band``.
            self.faults.fire("prefill.chunk")
        return self._prefill_rows(group, [take] * len(group))

    def _prefill_rows(self, group: List[GenerationSession], takes: Sequence[int]
                      ) -> List[Tuple[GenerationSession, BaseException]]:
        """Prefill ``takes[i]`` more prompt tokens of ``group[i]`` in one forward.

        The one prefill body: a one-shot band is this with ``takes`` = whole
        tails, a solo chunk a group of one, a fused wave several
        ``PREFILLING`` rows.  The sessions share one committed history length
        and are all *fresh* (no slot yet, one matched prefix entry; several
        fresh rows each take their whole tail) or all resumable.  Stages that
        history in a contiguous :class:`~repro.nn.KVCache`, runs one
        right-padded ``forward_incremental``, commits each row's true new K/V
        to the pool, writes it back to the rows with prompt left, and promotes
        the rows that completed, sampling their first output token from their
        true last column exactly as :func:`~repro.llm.generation.generate`
        does.  Fresh rows commit all or nothing (a raise leaves every session
        as it was); a resumable row whose commit fails is aborted alone and
        returned as ``(session, error)``.
        """
        past, entry = group[0].prompt_pos, group[0].prefix_entry
        fresh = group[0].slot is None
        for session in group:
            if (session.prompt_pos != past or (session.slot is None) != fresh
                    or (session.prefix_entry is not entry if fresh
                        else session.prefill_cache.seq_len != past)):
                raise ValueError("grouped prefill requires equal-history "
                                 "sessions, all fresh or all resumable")
        # Right padding: causal attention makes every real position's K/V and
        # logits independent of what follows, so pad columns are exact — the
        # pad id is arbitrary and its K/V never reach the pool.
        width = max(takes)
        tokens = np.full((len(group), width), self.model.tokenizer.pad_id,
                         dtype=np.int64)
        for row, (session, take) in enumerate(zip(group, takes)):
            tokens[row, :take] = session.prompt_ids[past:past + take]
        new_lengths = [past + take for take in takes]
        failures: List[Tuple[GenerationSession, BaseException]] = []
        with cached_inference(self.model, self._toggle_eval):
            if not fresh:
                # A lone session runs on its own resumable cache: no stacking.
                staging = (group[0].prefill_cache if len(group) == 1
                           else self._stacked_history(group, past))
            elif entry is not None:
                if self.faults is not None:
                    self.faults.fire("prefix.seed")
                staging = self.prefix.seed_cache(entry, len(group))  # repro: noqa[REP005] a live entry implies the prefix cache exists
            else:
                staging = self.model.init_cache()
            logits = self.model.forward_incremental(tokens, staging)
            if fresh:
                slots = self.cache.admit_rows(
                    staging, lengths=new_lengths,
                    shared_blocks=entry.block_ids if entry is not None else ())
                for session, slot in zip(group, slots):
                    session.slot = slot
            else:
                for row, session in enumerate(group):
                    try:
                        self.cache.extend_session(session.slot, staging, row=row,
                                                  new_length=new_lengths[row])
                    except Exception as error:
                        self.abort(session)
                        failures.append((session, error))
        for row, session in enumerate(group):
            if session.state == FAILED:
                continue
            session.prompt_pos = new_lengths[row]
            if self.telemetry is not None:
                # One chunk per take, so the flight recorder reads a one-shot
                # tail as a single PREFILLING entry.
                self.telemetry.note_prefill_chunk(session.session_id, takes[row])
            if session.prompt_pos == len(session.prompt_ids):
                self.prefilling.pop(session.session_id, None)
                session.prefill_cache = None
                self.running[session.slot] = session
                session.state = RUNNING
                self._consume_logits(session, logits.data[row, takes[row] - 1, :])
            elif len(group) == 1:
                session.prefill_cache = staging
            else:
                # Own resumable cache after the pool: a row whose pool commit
                # failed was left exactly as before its chunk.
                for staged, layer in zip(staging.layers,
                                         session.prefill_cache.layers):
                    layer.append(
                        staged.keys[row:row + 1, :, past:new_lengths[row]],
                        staged.values[row:row + 1, :, past:new_lengths[row]])
        if (len(group) > 1 and not failures and min(takes) == width
                and all(session.state == PREFILLING for session in group)):
            # Every member advanced in lockstep and has more prompt to go:
            # the extended staging cache is next step's stacked history.
            self._fused_prefill = (
                (tuple(session.session_id for session in group), past + width),
                staging)
        return failures

    def _stacked_history(self, group: List[GenerationSession], past: int
                         ) -> KVCache:
        """The members' resumable caches stacked row-wise into one cache.

        When the same group returns at the length its previous wave left it
        at, that wave's extended staging cache *is* the stacked history —
        reusing it skips re-concatenating every member's full K/V each chunk.
        The memo is consumed either way (a forward extends what it is given).
        """
        key = (tuple(session.session_id for session in group), past)
        memo, self._fused_prefill = self._fused_prefill, None
        if memo is not None and memo[0] == key:
            return memo[1]
        stacked = self.model.init_cache()
        for stacked_layer, layers in zip(
                stacked.layers, zip(*(s.prefill_cache.layers for s in group))):
            stacked_layer.append(
                np.concatenate([layer.keys for layer in layers], axis=0),
                np.concatenate([layer.values for layer in layers], axis=0))
        return stacked

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
        session.prefill_cache = None
        session.state = FAILED

    def evict(self, session: GenerationSession, reason: str) -> None:
        if session.finish_reason is None:
            session.finish_reason = reason
        session.state = FINISHED
        session.metrics.mark_finished()
        self.prefilling.pop(session.session_id, None)
        session.prefill_cache = None
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

        Draft lengths start from each session's adaptive ``k`` (0 for a
        session whose drafts keep being rejected, outside its probe steps —
        when every row is at 0 the step is the plain decode step), are clamped
        to the session's remaining context (a session never drafts past
        ``max_context``), and are trimmed longest-first until the batch fits
        ``token_budget`` (each row always keeps its 1 mandatory token).  The
        drafts are stashed per slot and consumed by the next :meth:`step`.
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
        self._adaptive.begin_step()
        drafts: Dict[int, List[int]] = {}
        for slot in sorted(self.running):
            session = self.running[slot]
            # Room after the mandatory token: never draft past the context
            # cap (sequential decode would have stopped there too).
            room = self.max_context - (self.cache.length(slot) + 1)
            k = min(self._adaptive.current(slot), max(0, room))
            if k > 0:
                # A session whose k backed off to 0 is not synced until its
                # next probe; sync then catches up on everything since.
                self.proposer.sync(slot, session.prompt_ids, session.generated)
                drafts[slot] = self.proposer.propose(slot, k)
            else:
                drafts[slot] = []
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
        """Advance every running session by one decode step.

        Row *i* feeds its pending sampled token plus the drafts planned for
        it — ``1 + len(drafts)`` positions, one when nothing was drafted —
        through one ragged ``forward_step`` over the rows' tokens packed back
        to back, so a row pays for its own tokens and no neighbour's.  Each
        verified logits row then runs through
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
        if not self.running:
            return [], 0
        if self.faults is not None:
            # Pre-forward site: a raise here leaves the pool untouched, the
            # cheapest-to-recover decode fault (the engine quarantines the
            # whole batch either way).
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
        if not slots:
            return completed, 0

        drafts: Dict[int, List[int]] = {}
        if self.proposer is not None:
            if self._planned_drafts is None:
                self.plan_decode_tokens()  # standalone use: no engine budget pass
            # A row promoted after the plan has no entry and takes its one
            # mandatory token, which is what its prefill grant paid for.
            drafts, self._planned_drafts = self._planned_drafts, None
        batch = [self.running[slot] for slot in slots]
        fed = [[session.generated[-1]] + drafts.get(slot, [])
               for slot, session in zip(slots, batch)]
        # Packed: the rows' tokens back to back, nothing padded.
        tokens = np.asarray([token for row in fed for token in row], dtype=np.int64)
        drafted = len(tokens) > len(fed)
        with cached_inference(self.model, self._toggle_eval):
            # A step nobody drafted for is spelled counts=None: plain decode.
            logits = self.model.forward_step(
                tokens, self.cache, np.asarray(slots, dtype=np.int64),
                counts=np.asarray([len(row) for row in fed], dtype=np.int64)
                if drafted else None).data[0]
        if self.faults is not None:
            # Post-forward sites: the K/V writes are committed; a "corrupt"
            # spec perturbs the logits in place before sampling.  A drafted
            # step — acceptance undecided, rollback still ahead — has its own.
            if drafted:
                self.faults.fire("decode.verify", payload=logits)
            else:
                self.faults.fire("decode.logits", payload=logits)
        step_drafted = step_accepted = offset = 0
        for slot, session, row in zip(slots, batch, fed):
            session.metrics.batch_sizes.append(len(batch))
            draft = row[1:]
            # Packed token offset + t is consumed once every draft before it
            # was accepted; what it samples is the correction of draft t or,
            # past the last draft, the bonus token.
            alive = self._consume_logits(session, logits[offset])
            accepted = 0
            while (alive and accepted < len(draft)
                   and session.generated[-1] == draft[accepted]):
                accepted += 1
                alive = self._consume_logits(session, logits[offset + accepted])
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
        if step_drafted:
            self.tokens_drafted += step_drafted
            self.tokens_accepted += step_accepted
            if self.telemetry is not None:
                self.telemetry.note_speculation(step_drafted, step_accepted)
        return completed, len(batch)

    # ------------------------------------------------------------------ #
    def _consume_logits(self, session: GenerationSession, logits: np.ndarray) -> bool:
        """Sample one token from ``logits``; return False when the session ends.

        Uses the same :func:`~repro.llm.generation.sample_token` as standalone
        :func:`~repro.llm.generation.generate`, so a served session reproduces
        the standalone token stream.
        """
        session.num_inferences += 1
        next_id = sample_token(logits, session.temperature, session.rng())
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
