"""Draft proposers for speculative multi-token decoding.

Speculative decoding drafts several candidate tokens cheaply, verifies them
all in the one ragged decode step (``docs/paged_kv.md``) and keeps the
longest accepted prefix.  Draft token ``d_t`` is accepted iff it equals the
token the session would have sampled at that position (``argmax`` at
temperature 0, the session's own seeded draw above it), so the emitted
stream is bit-identical to sequential decoding and only the number of
forwards changes.

There is no second model: the paper's traffic is dominated by *templated*
prompts, so :class:`NgramProposer` copies drafts out of each session's own
history.  As acceptance is token-exact, how well drafting *would* pay is
already in the emitted stream: the proposer replays it, and
:class:`AdaptiveK` lets a session draft only while that replayed acceptance
pays for the verify at the current batch size.  On incompressible text the
batch runs the plain one-token decode step and never verifies.

Everything here is plain data-structure code — no model access, no pool
access — so a draft fault (site ``draft.propose``) can never corrupt KV
state, and rollback of rejected drafts is entirely the cache's
:meth:`~repro.nn.PagedKVCache.truncate_session` concern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["NgramProposer", "AdaptiveK"]

#: Longest n-gram key indexed (and matched) by :class:`NgramProposer`;
#: longer matches are preferred, shorter ones are the fallback.
MAX_ORDER = 3

#: A session drafts only while ``accepted * k * BREAK_EVEN_ROWS >= rows *
#: drafted`` over its replayed totals, in a step of ``rows`` decode rows: its
#: expected accepted tokens per verify, ``acceptance * k``, must cover
#: ``rows`` times the verify premium, since every row waits for the dearer
#: forward and the saved steps are the drafting row's alone.  So the value is
#: about one over that premium; ``docs/speculative.md`` has the sweep that
#: chose it.
BREAK_EVEN_ROWS = 4


def _copy(history: Sequence[int], match: int, end: int, k: int) -> List[int]:
    """``k`` tokens of ``history[:end]`` copied from ``match`` on."""
    period = end - match
    if period >= k:
        return list(history[match:match + k])
    # The matched continuation runs right up to ``end``: the session is
    # emitting a cycle of this period.  Continue the cycle — exact for truly
    # periodic text, and merely a (verified) guess otherwise — instead of
    # clamping the draft to the period.
    return [history[match + i % period] for i in range(k)]


class NgramProposer:
    """Prompt-copy drafter: propose the continuation of the most recent
    earlier occurrence of the session's current suffix.

    Per session, an index maps each n-gram (orders ``MAX_ORDER`` down to 1)
    to the position *after* its most recent occurrence strictly before the
    end of history.  ``propose`` copies ``k`` tokens from the current
    suffix's longest-order match onward, continuing cyclically past the end
    of history.  :meth:`sync` folds in only the tokens appended since the
    last call, however many steps ago that was.

    The same walk replays drafting at ``cap`` tokens.  From where the first
    sync leaves off (the session's first planned decode position), at each
    walk position it takes the draft ``propose(cap)`` returned there — looked
    up before the n-grams ending at that position are written — counts how
    many of its tokens the session went on to emit, and moves to ``position
    + accepted + 1``: the verify steps of a session that always drafts the
    cap.  A draft whose emitted tokens all match waits for its tail.

    Proposals are hints: every drafted token is verified against the model
    before it can be emitted, so a wrong draft costs only wasted compute.
    """

    def __init__(self, cap: int = 4) -> None:
        self.cap = cap  # draft length the replay scores
        self._tokens: Dict[int, List[int]] = {}
        #: session -> {ngram tuple -> position after its latest occurrence}
        self._index: Dict[int, Dict[Tuple[int, ...], int]] = {}
        #: session -> [walk position, draft waiting there or None,
        #: replayed drafted, replayed accepted]
        self._walk: Dict[int, list] = {}

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
        done = seen = len(history)  # seen: tokens of the remaining segments held
        for segment in segments:
            if seen < len(segment):
                history.extend(segment[seen:])
            seen = max(0, seen - len(segment))
        index = self._index.setdefault(session_id, {})
        walk = self._walk.setdefault(session_id, [max(1, len(history)), None, 0, 0])
        if walk[1] is not None:
            self._score(history, walk, walk[0], walk[1])
        # Index every n-gram ending at positions [done, len); an n-gram
        # ending at position e (exclusive) maps to e — the position of the
        # token that followed it.  Later occurrences overwrite earlier ones,
        # so lookups always copy from the most recent match.
        # At a walk position, each key is looked up before it is written.
        for end in range(max(done, 1), len(history)):
            lookup, match = end == walk[0] and walk[1] is None, None
            for order in range(min(MAX_ORDER, end), 0, -1):
                key = tuple(history[end - order:end])
                if lookup and match is None:
                    match = index.get(key)
                index[key] = end
            if lookup:
                self._score(history, walk, end, [] if match is None else
                            _copy(history, match, end, self.cap))

    @staticmethod
    def _score(history: List[int], walk: list, position: int,
               draft: List[int]) -> None:
        """Score ``draft`` at walk ``position`` and move the walk past its
        accepted prefix, or park it while every emitted token matches."""
        emitted = history[position:position + len(draft)]
        accepted = 0
        while accepted < len(emitted) and draft[accepted] == emitted[accepted]:
            accepted += 1
        if accepted == len(emitted) < len(draft):
            walk[1] = draft
            return
        drafted, total = walk[2], walk[3]
        if draft and not accepted:
            # A draft that accepts nothing halves the totals, as it halves
            # ``AdaptiveK``'s k: old evidence fades once the text changes.
            drafted, total = drafted // 2, total // 2
        walk[:] = [position + accepted + 1, None, drafted + len(draft),
                   total + accepted]

    def replayed(self, session_id: int) -> Tuple[int, int]:
        """The session's replayed ``(drafted, accepted)`` totals."""
        walk = self._walk.get(session_id)
        return (walk[2], walk[3]) if walk else (0, 0)

    def held(self, session_id: int) -> Optional[int]:
        """History length synced so far; ``None`` before the first sync."""
        return len(self._tokens[session_id]) if session_id in self._tokens else None

    def propose(self, session_id: int, k: int) -> List[int]:
        """Up to ``k`` draft tokens continuing the session's history."""
        history = self._tokens.get(session_id)
        if not history or k < 1:
            return []
        index, end = self._index[session_id], len(history)
        for order in range(min(MAX_ORDER, end), 0, -1):
            match = index.get(tuple(history[-order:]))
            # Indexed positions always lie strictly before the end of history
            # (the current suffix is only indexed once more tokens land), but
            # guard anyway: a match at the end has no follower.
            if match is not None and match < end:
                return _copy(history, match, end, k)
        return []

    def forget(self, session_id: int) -> None:
        """Drop all state for a finished or evicted session."""
        self._tokens.pop(session_id, None)
        self._index.pop(session_id, None)
        self._walk.pop(session_id, None)


class AdaptiveK:
    """Per-session draft-length controller: draft only where it pays.

    One draft length ``k`` per session, capped at the policy's
    ``speculation_k`` and starting at 0.  After each verified step
    (:meth:`observe`) a fully accepted draft grows ``k`` by one, a fully
    rejected one halves it, and a partial acceptance settles at the accepted
    length.  :meth:`current` drafts ``max(k, 1)`` tokens only while the
    session's replayed totals (:meth:`NgramProposer.replayed`) pay for the
    verify premium in a batch of ``rows`` decode rows, ``accepted * k *
    BREAK_EVEN_ROWS >= rows * drafted``, and nothing otherwise: a rate set by
    loss read from traffic that was sent anyway, not from probes.  It reads
    counts only, so the output stays token-exact.

    Session ids are never reused, so :meth:`observe` must not be called for
    a session that was already forgotten: its entry would never go away.
    """

    def __init__(self, cap: int) -> None:
        if cap < 1:
            raise ValueError("speculation cap must be >= 1")
        self.cap = cap
        self._k: Dict[int, int] = {}

    def current(self, session_id: int, rows: int,
                replayed: Tuple[int, int]) -> int:
        """Draft length for ``session_id`` in a step of ``rows`` decode rows,
        given its replayed ``(drafted, accepted)`` totals."""
        drafted, accepted = replayed
        k = max(self._k.get(session_id, 0), 1)
        if accepted and accepted * k * BREAK_EVEN_ROWS >= rows * drafted:
            return k
        return 0

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

    def forget(self, session_id: int) -> None:
        self._k.pop(session_id, None)
