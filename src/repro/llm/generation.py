"""Autoregressive token generation for the LM-head baseline paths.

NetLLM removes this machinery in favour of networking heads, but the paper's
motivation experiments (Figure 2) quantify exactly why: token-by-token
generation takes one transformer inference per character/sub-word and can
produce malformed (hallucinated) answers.  This module implements greedy and
sampling-based generation plus a latency/validity profiler used by the
Figure 2 benchmark.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn import no_grad
from ..utils import seeded_rng
from .model import LanguageModel


@dataclass
class GenerationResult:
    """Outcome of one autoregressive generation call."""

    text: str
    token_ids: List[int]
    num_inferences: int
    elapsed_seconds: float
    stopped_by_eos: bool
    #: Optional per-token decode breakdown (seconds per sampling step, prefill
    #: first).  Filled by ``generate(collect_timing=True)`` and by the serving
    #: engine; ``None`` when timing collection was off.
    token_seconds: Optional[List[float]] = None

    @property
    def prefill_seconds(self) -> float:
        """Time to the first sampled token (prompt prefill + first sample)."""
        return self.token_seconds[0] if self.token_seconds else 0.0

    @property
    def decode_seconds_per_token(self) -> float:
        """Mean per-token latency of the steady-state decode steps."""
        if not self.token_seconds or len(self.token_seconds) < 2:
            return 0.0
        rest = self.token_seconds[1:]
        return sum(rest) / len(rest)


class SamplingTable:
    """Every row's next-token choice for one ``(rows, vocab)`` logits block.

    Built in one vectorized pass: a row whose temperature is not above 0
    keeps its greedy argmax, and every other row gets the normalised float64
    CDF of its temperature-scaled softmax.  The temperature is cast to the
    logits' dtype, so float32 logits divide, exponentiate and normalise in
    float32 exactly as one row of them would.  Nothing is drawn here:
    :func:`draw_token` takes one row's token when, and only when, a caller
    consumes that row, so rows nobody reads cost no generator draw and a
    non-finite row raises only once it is drawn.
    """

    __slots__ = ("greedy", "cdf")

    def __init__(self, logits: np.ndarray, temperatures: Sequence[float]) -> None:
        rows = len(temperatures)
        # A NaN temperature fails the test too: it decodes greedily.
        sampled = [row for row, temperature in enumerate(temperatures)
                   if temperature > 0]
        #: Row -> its normalised CDF (a view of one block), None when greedy.
        self.cdf: List[Optional[np.ndarray]] = [None] * rows
        #: Row -> its argmax id (read for greedy rows only).
        self.greedy: List[int] = (logits.argmax(axis=1).tolist()
                                  if len(sampled) < rows else [])
        if not sampled:
            return
        block = logits if len(sampled) == rows else logits[sampled]
        scale = np.asarray([temperatures[row] for row in sampled], dtype=block.dtype)
        scaled = block / scale[:, None]
        scaled = scaled - scaled.max(axis=1, keepdims=True)
        probs = np.exp(scaled)
        probs = probs / probs.sum(axis=1, keepdims=True)
        # The CDF ``rng.choice(vocab, p=probs)`` builds internally: float64,
        # summed left to right, divided by its last entry.
        cdf = probs.cumsum(axis=1, dtype=np.float64)
        cdf /= cdf[:, -1:]
        for row, cdf_row in zip(sampled, cdf):
            self.cdf[row] = cdf_row


def draw_token(table: SamplingTable, row: int, rng: np.random.Generator) -> int:
    """Take row ``row``'s token from ``table``: its argmax when greedy, else
    one ``rng.random()`` and a right bisect of its CDF — the draw
    ``rng.choice(vocab, p=probs)`` performs, minus its argument handling, so
    the ids and the generator state afterwards are that call's."""
    cdf = table.cdf[row]
    if cdf is None:
        return table.greedy[row]
    # A finite total normalises to exactly 1; NaN or inf logits give NaN.
    if not math.isfinite(cdf[-1]):
        raise ValueError("probabilities contain NaN")
    return int(cdf.searchsorted(rng.random(), side="right"))


def sample_token(logits: np.ndarray, temperature: float,
                 rng: np.random.Generator) -> int:
    """Sample one token id from unnormalized next-token ``logits``.

    ``temperature == 0`` is greedy argmax; otherwise temperature-scaled
    softmax sampling.  The one-row case of :class:`SamplingTable` and
    :func:`draw_token`, which the serving engine's decode step runs over
    all of its rows at once, so served sessions reproduce the standalone
    token stream of :func:`generate`.
    """
    return draw_token(SamplingTable(logits[None], [temperature]), 0, rng)


def generate(model: LanguageModel, prompt: str, max_new_tokens: int = 64,
             temperature: float = 0.0, seed: int = 0,
             stop_on_eos: bool = True, use_cache: bool = True,
             collect_timing: bool = False) -> GenerationResult:
    """Generate a completion for ``prompt`` with the LM head, token by token.

    ``temperature == 0`` performs greedy decoding; otherwise tokens are
    sampled from the temperature-scaled softmax, which is the source of the
    answer-validity problem the paper describes.

    Decoding runs under :func:`~repro.nn.no_grad` with the model in eval mode
    (restored afterwards), so dropout never desynchronizes the two paths.
    With ``use_cache`` (the default) the prompt is one prefill row on a
    one-session paged pool (``init_paged_cache(max_sessions=1)``) and each later
    step feeds only the newest token, attending against the cached
    keys/values — O(T·L) for the whole answer instead of O(T·L²) — through
    the same ``forward_step`` the serving engine runs.  Its logits agree with
    the full-window forward of ``use_cache=False`` (the reference) to within
    rounding, not bit for bit (``docs/paged_kv.md``, "Parity policy").  Once
    the context window overflows ``max_seq_len`` the session is evicted,
    reopened and prefilled on the trimmed window, which keeps the
    sliding-window semantics of the uncached path; in that saturated regime
    every step recomputes the window, so caching only speeds up the portion
    of the answer that fits within ``max_seq_len`` (parity with the
    reference is deliberately kept over amortized sliding).
    ``num_inferences`` still counts one transformer inference per generated
    token (the paper's Figure 2 metric).

    With ``collect_timing`` the result carries ``token_seconds`` — the wall
    clock of every sampling step (prompt prefill first) — the same breakdown
    the serving engine records per request, so queue/prefill/decode shares can
    be compared between standalone and served generation.
    """
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be >= 1")
    if not temperature >= 0:  # NaN fails too
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    tokenizer = model.tokenizer
    rng = seeded_rng(seed)
    context = tokenizer.encode(prompt, add_bos=True)
    max_context = model.config.max_seq_len
    generated: List[int] = []
    stopped = False
    token_seconds: Optional[List[float]] = [] if collect_timing else None

    start = time.perf_counter()
    last_step = start
    num_inferences = 0
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            cache = model.init_paged_cache(max_sessions=1) if use_cache else None
            if cache is not None:
                cache.open_session()
            pending: Optional[List[int]] = None  # tokens not yet in the cache
            for _ in range(max_new_tokens):
                if cache is None:
                    window = (context + generated)[-max_context:]
                    logits = model.forward_tokens(
                        np.asarray(window, dtype=np.int64)[None, :])
                else:
                    [session] = cache.sessions
                    held = cache.length(session)
                    if pending is None or held + len(pending) > max_context:
                        # First step, or the sliding window dropped old tokens
                        # (whose cached positional embeddings would be stale):
                        # re-prime on the current window — evict, reopen and
                        # prefill it as one row.
                        cache.evict(session)
                        cache.open_session()
                        pending = (context + generated)[-max_context:]
                    logits = model.forward_incremental(
                        np.asarray(pending, dtype=np.int64)[None, :], cache)
                num_inferences += 1
                if token_seconds is not None:
                    now = time.perf_counter()
                    token_seconds.append(now - last_step)
                    last_step = now
                next_id = sample_token(logits.data[0, -1, :], temperature, rng)
                if stop_on_eos and next_id == tokenizer.eos_id:
                    stopped = True
                    break
                generated.append(next_id)
                pending = [next_id]
    finally:
        if was_training:
            model.train()
    elapsed = time.perf_counter() - start
    text = tokenizer.decode(generated)
    return GenerationResult(text=text, token_ids=generated, num_inferences=num_inferences,
                            elapsed_seconds=elapsed, stopped_by_eos=stopped,
                            token_seconds=token_seconds)


@dataclass
class GenerationProfile:
    """Aggregate validity / latency statistics over many generations."""

    num_answers: int = 0
    num_valid: int = 0
    total_seconds: float = 0.0
    total_inferences: int = 0
    latencies: List[float] = field(default_factory=list)

    @property
    def valid_fraction(self) -> float:
        return self.num_valid / self.num_answers if self.num_answers else 0.0

    @property
    def mean_latency(self) -> float:
        return self.total_seconds / self.num_answers if self.num_answers else 0.0

    @property
    def mean_inferences(self) -> float:
        return self.total_inferences / self.num_answers if self.num_answers else 0.0


def profile_generation(model: LanguageModel, prompts: List[str],
                       validator: Callable[[str], bool],
                       max_new_tokens: int = 64, temperature: float = 0.7,
                       seed: int = 0, server=None) -> GenerationProfile:
    """Run token-based generation over ``prompts`` and measure validity/latency.

    With ``server`` (a :class:`repro.serve.InferenceServer` built on this
    model), every prompt is submitted up front and decoded with continuous
    batching — per-answer latency then includes queueing, which is what a
    deployed endpoint observes.
    """
    profile = GenerationProfile()
    if server is not None:
        handles = [server.submit_generation(prompt, max_new_tokens=max_new_tokens,
                                            temperature=temperature, seed=seed + index)
                   for index, prompt in enumerate(prompts)]
        if not server.is_serving:
            server.run_until_idle()
        results = [handle.result() for handle in handles]
    else:
        results = [generate(model, prompt, max_new_tokens=max_new_tokens,
                            temperature=temperature, seed=seed + index)
                   for index, prompt in enumerate(prompts)]
    for result in results:
        profile.num_answers += 1
        profile.num_valid += int(bool(validator(result.text)))
        profile.total_seconds += result.elapsed_seconds
        profile.total_inferences += result.num_inferences
        profile.latencies.append(result.elapsed_seconds)
    return profile
