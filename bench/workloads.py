"""Input generation: everything a run feeds the server, made from the seed.

``generate_inputs`` is called once in the driver process; its result is
pickled to the child, which hands the server nothing but these inputs.
Lengths are stratified (each block of consecutive requests holds every
length once) so two seeds differ in content and order, not in total work.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from .spec import (
    ABR_BITRATES,
    ALPHABET,
    DECISION_ROUND_POOL,
    DECISION_WINDOWS,
    DIGEST_REQUESTS,
    TEMPLATED_PREAMBLES,
    VP_SALIENCY_SIZE,
    WARMUP_REQUESTS,
    WORKLOAD_BY_NAME,
)

#: CJS observation width and action space (``repro.cjs.env``), ABR state
#: width (``ABRObservation.flat_size(6)``); the child asserts they still match.
CJS_STATE_DIM, CJS_CANDIDATES, CJS_BUCKETS = 67, 8, 4
ABR_STATE_DIM = 25

#: Upper bound on requests one client class can finish per second, used only
#: to size the generated streams; a run that outruns it fails loudly.
_MAX_REQUESTS_PER_S = {"short": 160.0, "long": 24.0}


def _text(rng: np.random.Generator, length: int) -> str:
    return "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), length))


def _stratified(rng: np.random.Generator, low: int, high: int, count: int) -> List[int]:
    """``count`` values from ``[low, high)``: each block of ``high - low``
    consecutive values is a permutation of the whole range."""
    values: List[int] = []
    while len(values) < count:
        values.extend(int(v) for v in rng.permutation(np.arange(low, high)))
    return values[:count]


def _sampled(prompt: str, new_tokens: int, index: int) -> Dict:
    return dict(prompt=prompt, max_new_tokens=new_tokens, temperature=1.0,
                seed=index, stop_on_eos=False)


def _stream(rng, count, prompt_range, new_tokens_range, seed_base=0) -> List[Dict]:
    prompts = _stratified(rng, *prompt_range, count)
    lo, hi = new_tokens_range
    news = _stratified(rng, lo, hi, count) if hi > lo + 1 else [lo] * count
    return [_sampled(_text(rng, prompts[i]), news[i], seed_base + i)
            for i in range(count)]


def _count(cls: str, seconds: float, clients: int) -> int:
    return math.ceil(_MAX_REQUESTS_PER_S[cls] * seconds) + 2 * clients + WARMUP_REQUESTS


def _decode_closed16(rng, seconds):
    return dict(
        clients=["short"] * 16,
        streams={"short": _stream(rng, _count("short", seconds, 16), (8, 32), (128, 129))},
        digest={"short": DIGEST_REQUESTS})


def _longctx_closed10(rng, seconds):
    return dict(
        clients=["short"] * 8 + ["long"] * 2,
        streams={
            "short": _stream(rng, _count("short", seconds, 8), (8, 32), (64, 65)),
            "long": _stream(rng, _count("long", seconds, 2), (384, 512), (32, 33),
                            seed_base=1_000_000)},
        digest={"short": DIGEST_REQUESTS, "long": 4})


def _templated_shared8(rng, seconds):
    # As many preambles as the prefix cache holds: how often greedy output
    # repeats itself (and so how many drafts are accepted) is set by the
    # preamble, and one draw per seed made that the largest seed-to-seed
    # difference (tokens per step spread 6 % with four draws, 4 % with eight).
    preambles = [_text(rng, 96) for _ in range(TEMPLATED_PREAMBLES)]
    count = _count("short", seconds, 8)
    # Preamble order and output length vary from request to request (96 new
    # tokens on average): with one length and a fixed rotation every client
    # keeps its own pace, the clients' phases drift slower than a run lasts,
    # and TTFT reads 36 ms or 50 ms depending on how many of them happen to
    # prefill together during that run.
    heads = _stratified(rng, 0, TEMPLATED_PREAMBLES, count)
    news = _stratified(rng, 64, 129, count)

    def status(i: int) -> str:
        return "".join(f"status: ok; retry: {(i + j) % 4}; "
                       f"latency: {10 + 5 * ((i + j) % 7)}ms; " for j in range(4))

    return dict(
        clients=["short"] * 8,
        prefixes=preambles,
        streams={"short": [dict(prompt=preambles[heads[i]] + status(i),
                                max_new_tokens=news[i], temperature=0.0,
                                seed=i, stop_on_eos=False)
                           for i in range(count)]},
        digest={"short": DIGEST_REQUESTS})


def _decision_payload(rng, task: str, window: int) -> Dict[str, np.ndarray]:
    if task == "vp":
        history = np.cumsum(rng.normal(0.0, 3.0, (window, 3)), axis=0)
        return dict(history=history,
                    saliency=rng.random((VP_SALIENCY_SIZE, VP_SALIENCY_SIZE)))
    state_dim = ABR_STATE_DIM if task == "abr" else CJS_STATE_DIM
    payload = dict(returns=rng.normal(size=(window, 1)),
                   states=rng.normal(size=(window, state_dim)))
    if task == "abr":
        payload["actions"] = rng.integers(0, ABR_BITRATES, (window, 1))
    else:
        payload["actions"] = np.stack(
            [rng.integers(0, CJS_CANDIDATES, window),
             rng.integers(0, CJS_BUCKETS, window)], axis=1)
        mask = np.zeros(CJS_CANDIDATES)
        mask[:int(rng.integers(1, CJS_CANDIDATES + 1))] = 1.0
        payload["valid_mask"] = mask
    return payload


def _decisions_lockstep32(rng, seconds):
    tasks = ["abr"] * 16 + ["cjs"] * 8 + ["vp"] * 8
    clients = [(task, DECISION_WINDOWS[i % len(DECISION_WINDOWS)])
               for i, task in enumerate(tasks)]
    rounds = [[_decision_payload(rng, task, window) for task, window in clients]
              for _ in range(DECISION_ROUND_POOL)]
    return dict(clients=clients, rounds=rounds)


def _poisson_open40(rng, seconds):
    per_second = round(WORKLOAD_BY_NAME["poisson_open40"].rate_per_s)
    # A Poisson process conditioned on its count, second by second: sorted
    # uniform arrivals inside every second.  Bursts at the scale that builds
    # queues here (a request lives ~70 ms) are those of a Poisson process,
    # while a run cut short by the wall clock has still been offered its
    # rate to within one second's worth of arrivals.
    starts = np.arange(math.ceil(seconds))[:, None]
    due = (starts + np.sort(rng.random((len(starts), per_second)), axis=1)).ravel()
    due = due[due < seconds]
    # Every prompt fits one prefill chunk: with 8-47 characters two fifths
    # needed a second chunk, TTFT had one mode per chunk count (2.8 and
    # 5.7 ms) and its median sat in the gap between them, where a handful of
    # requests moves it.
    return dict(
        due=due,
        requests=_stream(rng, len(due), (8, 32), (16, 64)),
        warmup=_stream(rng, WARMUP_REQUESTS, (8, 32), (16, 64), seed_base=1_000_000),
        digest={"short": DIGEST_REQUESTS})


_GENERATORS = {
    "decode_closed16": _decode_closed16,
    "longctx_closed10": _longctx_closed10,
    "templated_shared8": _templated_shared8,
    "decisions_lockstep32": _decisions_lockstep32,
    "poisson_open40": _poisson_open40,
}


def generate_inputs(name: str, seed: int, seconds: float) -> Dict:
    """All inputs of one run of workload ``name``; same seed, same inputs."""
    workload = WORKLOAD_BY_NAME[name]
    rng = np.random.default_rng([seed, workload.index])
    inputs = _GENERATORS[name](rng, seconds)
    inputs.update(workload=name, seed=seed, seconds=float(seconds))
    return inputs
