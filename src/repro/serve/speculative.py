"""Draft proposers for speculative multi-token decoding.

The serving engine's decode loop is one full transformer forward per output
token per session.  Speculative decoding buys back wall-clock by *drafting*
several candidate tokens cheaply, verifying them all in the one ragged
decode step (a row feeds its pending token plus its drafts; plain decode is
the step whose rows all feed one token — ``docs/paged_kv.md``), and keeping
the longest accepted prefix.  The acceptance rule makes the
output **token-exact**: draft token ``d_t`` is accepted iff it equals the
token the session would have sampled from the verified logits at that
position — ``argmax`` at temperature 0, and the session's own seeded RNG
draw at temperature > 0 — so the emitted stream is bit-identical to
sequential decoding at any temperature, and the only thing speculation
changes is how many forwards it took to produce it.

There is no second model: the paper's decision traffic is dominated by
*templated* prompts, so drafts are copied out of each session's own
history.  :class:`NgramProposer` keeps a per-session hash index from the
last few tokens (n-grams of order 3, 2, 1) to the position after their most
recent earlier occurrence; a draft is the run of tokens that followed the
longest matching suffix.  On repetitive/templated text most drafts accept
wholesale and each step emits several tokens.  The per-session
:class:`AdaptiveK` controller starts every session undrafted and lets it
draft only while its own acceptance pays for the verify in a batch of the
current size, so on incompressible text the batch runs the plain one-token
decode step and pays for speculation only on the aligned probe step every
:data:`PROBE_PERIOD` steps.

Everything here is plain data-structure code — no model access, no pool
access — so a draft fault (site ``draft.propose``) can never corrupt KV
state, and rollback of rejected drafts is entirely the cache's
:meth:`~repro.nn.PagedKVCache.truncate_session` concern.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["NgramProposer", "AdaptiveK"]

#: Longest n-gram key indexed (and matched) by :class:`NgramProposer`;
#: longer matches are preferred, shorter ones are the fallback.
MAX_ORDER = 3

#: Every this-many planned decode steps, sessions that draft nothing (at
#: ``k = 0``, or below the break-even) draft one token (see :class:`AdaptiveK`).
PROBE_PERIOD = 16

#: A session drafts its ``k`` tokens only while ``accepted * k *
#: BREAK_EVEN_ROWS >= rows * drafted`` over its own lifetime totals, in a
#: step of ``rows`` decode rows: its expected accepted tokens per verify,
#: ``acceptance * k``, must cover ``rows`` times the verify premium, since
#: every row waits for the dearer forward and the saved steps are the
#: drafting row's alone.  So the value is about one over that premium.
#: Chosen by measurement on 2 cores: ``bench/run.py`` (seed 0, 12 s runs,
#: the values interleaved; medians) and the single-stream gate of
#: ``benchmarks/test_perf_speculative.py`` (two readings each):
#:
#:     value                              1      2      4      8     16
#:     templated_shared8 itl_p50_ms     3.29   3.28   3.24   3.39   3.40
#:     decode_closed16 tokens_per_s       -    5444   5457   5371   5498
#:     single-stream gate, x sequential 3.67   3.31   4.02   3.68   3.13
#:                                      2.86   3.82   3.58   3.42   3.68
#:
#: ``speculation="off"`` read 3.15 ms and 5617 tok/s on the same runs.
#: Up to 4 the latency row is flat within its noise (runs of one value
#: spread by 0.4 ms); from 8 on, a row at ``k = 4`` in the 8-row batch keeps
#: drafting at 25 % acceptance, where 4 asks for 50 %.  4 is one over the
#: verify premium measured there (a verify forward 3.62 ms against a decode
#: forward's 2.94, +23 %), and the largest value at the low end of the
#: latency row.  In a one-row batch (the single-stream gate) every value
#: drafts templated text.
BREAK_EVEN_ROWS = 4


class NgramProposer:
    """Prompt-copy drafter: propose the continuation of the most recent
    earlier occurrence of the session's current suffix.

    Per session, an index maps each n-gram (orders ``MAX_ORDER`` down to 1)
    to the position *after* its most recent occurrence strictly before the
    end of history.  ``propose`` looks up the current suffix longest-order
    first and copies ``k`` tokens from the match onward; a copy that reaches
    the end of history continues cyclically (the session is repeating a
    short cycle — extend it rather than clamp the draft).  Indexing is
    incremental: :meth:`sync` only copies and walks the tokens appended
    since the last call — however many steps ago that was — so steady-state
    cost is O(new tokens), not O(history).

    Proposals are hints: every drafted token is verified against the model
    before it can be emitted, so a wrong draft costs only wasted compute.
    """

    def __init__(self) -> None:
        self._tokens: Dict[int, List[int]] = {}
        #: session -> {ngram tuple -> position after its latest occurrence}
        self._index: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._indexed: Dict[int, int] = {}  # tokens already folded into _index

    def sync(self, session_id: int, *segments: Sequence[int]) -> None:
        """Observe a session's full history as consecutive ``segments``
        (prompt ids, generated ids), so the caller never joins them; it
        grows append-only between calls for a live session."""
        history = self._tokens.setdefault(session_id, [])
        total = sum(len(segment) for segment in segments)
        if total < len(history):
            raise ValueError(
                f"session {session_id} history shrank from {len(history)} to "
                f"{total} tokens; histories are append-only")
        seen = len(history)  # tokens of the remaining segments already held
        for segment in segments:
            if seen < len(segment):
                history.extend(segment[seen:])
            seen = max(0, seen - len(segment))
        index = self._index.setdefault(session_id, {})
        done = self._indexed.get(session_id, 0)
        # Index every n-gram ending at positions [done, len); an n-gram
        # ending at position e (exclusive) maps to e — the position of the
        # token that followed it.  Later occurrences overwrite earlier ones,
        # so lookups always copy from the most recent match.
        for end in range(max(done, 1), len(history)):
            for order in range(1, MAX_ORDER + 1):
                if order > end:
                    break
                index[tuple(history[end - order:end])] = end
        self._indexed[session_id] = len(history)

    def propose(self, session_id: int, k: int) -> List[int]:
        """Up to ``k`` draft tokens continuing the session's history."""
        history = self._tokens.get(session_id)
        if not history or k < 1:
            return []
        index = self._index[session_id]
        for order in range(min(MAX_ORDER, len(history)), 0, -1):
            match = index.get(tuple(history[-order:]))
            # Indexed positions always lie strictly before end-of-history
            # (the current suffix itself is only indexed once more tokens
            # land), but guard anyway: a match at the end has no follower.
            if match is not None and match < len(history):
                run = list(history[match:])
                if len(run) >= k:
                    return run[:k]
                # The matched continuation runs right up to the present
                # token: the session is emitting a cycle whose period is
                # ``len(run)``.  Extend the draft by continuing the cycle —
                # exact for truly periodic text, and merely a (verified)
                # guess otherwise — instead of clamping the draft to the
                # period and wasting the rest of the budget.
                return [run[i % len(run)] for i in range(k)]
        return []

    def forget(self, session_id: int) -> None:
        """Drop all state for a finished or evicted session."""
        self._tokens.pop(session_id, None)
        self._index.pop(session_id, None)
        self._indexed.pop(session_id, None)


class AdaptiveK:
    """Per-session draft-length controller: draft only where it pays.

    Tracks one draft length per session, capped at the policy's
    ``speculation_k``, and the session's running totals of drafted and
    accepted tokens.  A session starts at ``k = 0``: it drafts nothing until
    it has earned a draft.  After each verified step: a fully accepted draft
    grows ``k`` by one (toward the cap); a fully rejected draft halves it
    (toward 0); a partial acceptance settles at the accepted length — so a
    templated session climbs to the cap and an incompressible one never
    leaves 0.

    :meth:`current` drafts the session's ``k`` only while its measured
    acceptance pays for the verify premium in a batch of ``rows`` decode
    rows: ``accepted * k * BREAK_EVEN_ROWS >= rows * drafted``
    (:data:`BREAK_EVEN_ROWS`).  Otherwise the session drafts nothing and is
    probed with ``k = 1`` on every :data:`PROBE_PERIOD`-th planned step
    (:meth:`begin_step` is the clock, one for every session) — the
    back-off-then-probe shape of a loss-driven rate controller, where the
    rate is set by measured loss.  An accepted probe grows ``k`` and the
    totals; a rejected one halves ``k`` until the next probe.  The decision
    reads counts only, so it is deterministic and the output token-exact.

    Session ids are never reused, so :meth:`observe` must not be called for
    a session that was already forgotten: its entries would never go away.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("speculation cap must be >= 1")
        self.cap = cap
        self._k: Dict[int, int] = {}
        #: session -> (tokens drafted, tokens accepted) over its lifetime
        self._totals: Dict[int, Tuple[int, int]] = {}
        self._steps = 0  # planned decode steps so far: the probe clock

    def begin_step(self) -> None:
        """Advance the probe clock; call once per planned decode step."""
        self._steps += 1

    def current(self, session_id: int, rows: int) -> int:
        """Draft length for ``session_id`` in a step of ``rows`` decode rows."""
        k = self._k.get(session_id, 0)
        drafted, accepted = self._totals.get(session_id, (0, 0))
        if k and accepted * k * BREAK_EVEN_ROWS >= rows * drafted:
            return k
        return 1 if self._steps % PROBE_PERIOD == 0 else 0

    def observe(self, session_id: int, drafted: int, accepted: int) -> None:
        if drafted < 1:
            return
        k = self._k.get(session_id, 0)
        if accepted >= drafted:
            k = min(self.cap, k + 1)
        elif accepted == 0:
            k //= 2
        else:
            k = accepted
        self._k[session_id] = k
        total_drafted, total_accepted = self._totals.get(session_id, (0, 0))
        self._totals[session_id] = (total_drafted + drafted,
                                    total_accepted + accepted)

    def forget(self, session_id: int) -> None:
        self._k.pop(session_id, None)
        self._totals.pop(session_id, None)
