"""The test suite's one parity oracle, and the one way tests fill a pool.

The reference is the full-window graph forward (``docs/paged_kv.md``,
"Parity policy"), teacher-forced: one ``forward_tokens`` over a session's
tokens gives the expected logits of every step it took, so a check costs one
forward per session, not one per token.  :func:`fill` writes a prompt the way
``SessionManager._forward`` and ``PrefixCache.register_ids`` do: as
``forward_step`` prompt rows.  :func:`always_draft` makes a speculative
server verify on every step it has a draft for.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.llm import generate, sample_token
from repro.nn import no_grad
from repro.serve import AdaptiveK
from repro.utils import seeded_rng

#: The parity policy: paged logits stay within this of the graph forward.
PARITY_ATOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-4}


def reference_logits(model, ids: Sequence[int]) -> np.ndarray:
    """``(len(ids), vocab)``: row *t* is the next-token logits after
    ``ids[:t + 1]``, from one graph forward under ``no_grad`` in eval mode."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model.forward_tokens(np.asarray(ids, dtype=np.int64)[None, :]).data[0]
    finally:
        if was_training:
            model.train()


def assert_logits(model, ids: Sequence[int], logits, atol: Optional[float] = None,
                  err_msg: str = "") -> None:
    """``logits`` — a paged step's rows for the last ``len(logits)`` tokens of
    ``ids`` — are within ``atol`` (default: the policy bound) of the
    reference's, and both are in the model's dtype."""
    logits = np.asarray(logits)
    expected = reference_logits(model, ids)[len(ids) - len(logits):]
    dtype = model.lm_head.weight.data.dtype
    assert logits.dtype == expected.dtype == dtype, (
        f"{err_msg}: logits {logits.dtype}, reference {expected.dtype}, "
        f"model {dtype}")
    np.testing.assert_allclose(logits, expected, rtol=0, err_msg=err_msg,
                               atol=PARITY_ATOL[dtype] if atol is None else atol)


def fill(model, pool, ids: Sequence[int], chunk: Optional[int] = None,
         session: Optional[int] = None) -> Tuple[int, np.ndarray]:
    """Write ``ids`` as ``forward_step`` prompt rows (``counts=[take]``),
    ``chunk`` tokens at a time (default: all at once), on a session opened
    empty — or on ``session``, after what it holds.  Returns the session id
    and the logits of every written token.  Like the server, a raise evicts
    the session this call opened.  Runs under the caller's grad mode."""
    ids = np.asarray(ids, dtype=np.int64)
    sid = pool.open_session() if session is None else session
    chunk = chunk or len(ids)
    try:
        rows = [model.forward_step(ids[start:start + chunk], pool, [sid],
                                   counts=[len(ids[start:start + chunk])]).data[0]
                for start in range(0, len(ids), chunk)]
    except Exception:
        if session is None:
            pool.evict(sid)
        raise
    return sid, np.concatenate(rows)


class Twin:
    """A paged session, the tokens it holds (``ids``) and the logits the step
    returned for the last ``len(logits)`` of them; ``next_token`` is the
    greedy pick of the newest row.  With ``session``, ``prompt`` is filled
    past the tokens that session already holds."""

    def __init__(self, model, pool, prompt: Sequence[int],
                 session: Optional[int] = None, chunk: Optional[int] = None):
        self.model, self.pool = model, pool
        self.ids = [int(token) for token in prompt]
        held = 0 if session is None else pool.length(session)
        self.sid, logits = fill(model, pool, self.ids[held:], chunk, session)
        self.logits: List[np.ndarray] = []
        self.feed([], logits)

    def feed(self, tokens: Sequence[int], logits) -> None:
        """Record tokens fed to the session and the step's rows for them."""
        self.ids.extend(int(token) for token in tokens)
        self.logits.extend(logits)
        self.next_token = int(np.argmax(self.logits[-1]))

    def truncate(self, length: int) -> None:
        """Roll the session and the record back to ``length`` tokens."""
        self.pool.truncate_session(self.sid, length)
        dropped = len(self.ids) - length
        del self.ids[length:], self.logits[len(self.logits) - dropped:]
        self.next_token = int(np.argmax(self.logits[-1]))

    def fork(self) -> "Twin":
        twin = copy.copy(self)
        twin.ids, twin.logits = list(self.ids), list(self.logits)
        twin.sid = self.pool.fork(self.sid)
        return twin

    def preview(self, tokens: Sequence[int]) -> np.ndarray:
        """Reference logits after each of ``tokens``, fed after ``ids``."""
        return reference_logits(self.model, self.ids + list(tokens))[len(self.ids):]

    def check(self) -> None:
        assert_logits(self.model, self.ids, self.logits, err_msg=f"session {self.sid}")


def decode(model, pool, twins: Sequence[Twin], steps: int) -> List[int]:
    """Greedy-decode ``twins`` together for ``steps`` plain steps, with
    ``check_invariants()`` after each, then check every twin.  Returns the
    attention-group count of each step."""
    sids = np.asarray([twin.sid for twin in twins], dtype=np.int64)
    groups = []
    for _ in range(steps):
        before = pool.attention_groups
        fed = [twin.next_token for twin in twins]
        out = model.forward_step(np.asarray(fed), pool, sids).data[0]
        groups.append(pool.attention_groups - before)
        for twin, token, row in zip(twins, fed, out):
            twin.feed([token], row[None])
        pool.check_invariants()
    for twin in twins:
        twin.check()
    return groups


def _margin(logits: np.ndarray, temperature: float, draw: float) -> float:
    """The gap between the top two logits when greedy; between the uniform
    draw and the nearest CDF edge when sampling."""
    if temperature:
        probs = np.exp((logits - logits.max()) / temperature)
        cdf = probs.cumsum(dtype=np.float64) / probs.sum(dtype=np.float64)
        return float(np.abs(cdf - draw).min())
    top = np.sort(logits)[-2:]
    return float(top[1] - top[0])


def assert_stream(model, prompt_ids: Sequence[int], tokens: Sequence[int],
                  temperature: float, seed: int, stopped_by_eos: bool,
                  max_new_tokens: Optional[int] = None) -> None:
    """``tokens`` (then EOS, if ``stopped_by_eos``) are what ``sample_token``
    draws with ``seeded_rng(seed)`` from the reference logits of each step,
    teacher-forced on the stream and windowed to ``max_seq_len`` as
    ``generate()`` slides.  A token that differs fails, naming the step,
    unless the sampler's margin there is below the policy bound.  With
    ``max_new_tokens``, a stream that neither stopped on EOS nor spent its
    budget fails as cut short."""
    expected = [*tokens, model.tokenizer.eos_id] if stopped_by_eos else list(tokens)
    context, first = [*prompt_ids, *tokens], len(prompt_ids)
    limit = model.config.max_seq_len
    # One forward for every step whose context fits the window, then one each.
    fit = min(len(expected), max(0, limit - first + 1))
    rows = (list(reference_logits(model, context[:first + fit - 1])[first - 1:])
            if fit else [])
    rows += [reference_logits(model, context[:first + t][-limit:])[-1]
             for t in range(fit, len(expected))]
    bound = PARITY_ATOL[model.lm_head.weight.data.dtype]
    rng = seeded_rng(seed)
    for step, (logits, token) in enumerate(zip(rows, expected)):
        draw = copy.deepcopy(rng).random() if temperature else 0.0
        sampled = sample_token(logits, temperature, rng)
        margin = _margin(logits, temperature, draw)
        assert sampled == token or margin < bound, (
            f"step {step}: the stream has {token} where the model samples "
            f"{sampled} (margin {margin:.3g}, bound {bound:g})")
    if max_new_tokens is not None and not stopped_by_eos:
        assert len(tokens) == max_new_tokens, (
            f"stream cut short at step {len(tokens)}: no EOS, and "
            f"{len(tokens)} of {max_new_tokens} tokens")


def standalone(model, spec, **overrides) -> List[int]:
    """``generate()``'s tokens for a served request or session ``spec``: the
    other side of the served-equals-standalone contract."""
    kwargs = dict(max_new_tokens=spec.max_new_tokens, temperature=spec.temperature,
                  seed=spec.seed, stop_on_eos=spec.stop_on_eos)
    return generate(model, spec.prompt, **{**kwargs, **overrides}).token_ids


class _AlwaysDraft(AdaptiveK):
    """Drafts the cap on every step, paying or not."""

    def current(self, session_id: int, rows: int,
                replayed: Tuple[int, int]) -> int:
        return self.cap


def always_draft(server):
    """Make ``server`` (``speculation="ngram"``) draft ``speculation_k``
    tokens for every row on every step, from a session's first planned
    decode step on — where :class:`~repro.serve.AdaptiveK` drafts only once
    the acceptance its proposer replays from the stream pays.  For tests of
    what happens on a verify step, not of when verifying pays; its verify
    steps are the ones :meth:`~repro.serve.NgramProposer.replayed` scores."""
    manager = server._manager
    manager._adaptive = _AlwaysDraft(manager._adaptive.cap)
