"""Output checks, run in the measured child after the clock has stopped.

Each check returns a list of human-readable failures (empty when it holds);
any failure counts into ``failed`` and makes the command exit non-zero.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.llm.generation import generate

from .drivers import RunLog, succeeded
from .spec import REPLAY_REQUESTS


def replay_check(model, log: RunLog) -> List[str]:
    """Served token ids equal sequential ``generate`` on the same request."""
    done = [s for s in log.sent if succeeded(s.handle)]
    if not done:
        return ["replay: no request completed"]
    picks = np.unique(np.linspace(0, len(done) - 1, REPLAY_REQUESTS).astype(int))
    failures = []
    for sent in (done[i] for i in picks):
        request = sent.handle.request
        expected = generate(model, request.prompt,
                            max_new_tokens=request.max_new_tokens,
                            temperature=request.temperature, seed=request.seed,
                            stop_on_eos=request.stop_on_eos).token_ids
        served = sent.handle.result().token_ids
        if list(served) != list(expected):
            failures.append(f"replay: {sent.cls}[{sent.index}] served "
                            f"{len(served)} tokens that differ from generate()")
    return failures


def generation_digest(log: RunLog, counts: Dict[str, int]) -> Tuple[str, List[str]]:
    """SHA-256 over the output token ids of the first ``counts[cls]`` requests
    of every class, in (class, stream index) order."""
    digest = hashlib.sha256()
    failures = []
    by_key = {(s.cls, s.index): s for s in log.sent}
    for cls in sorted(counts):
        for index in range(counts[cls]):
            sent = by_key.get((cls, index))
            if sent is None or not succeeded(sent.handle):
                failures.append(f"digest: {cls}[{index}] did not complete")
                continue
            ids = np.asarray(sent.handle.result().token_ids, dtype=np.int64)
            digest.update(f"{cls}:{index}:".encode() + ids.tobytes())
    return digest.hexdigest(), failures


def _direct_answers(adapters: Dict[str, Any], clients, payloads) -> List[Any]:
    """The round's answers straight from ``predict_batch`` / ``act_batch``."""
    answers: List[Any] = [None] * len(clients)
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, key in enumerate(clients):
        groups.setdefault(tuple(key), []).append(i)
    for (task, _), members in groups.items():
        adapter = adapters[task]
        if task == "vp":
            group = adapter.predict_batch([payloads[i] for i in members])
        else:
            stack = lambda name: np.stack([payloads[i][name] for i in members])
            group = adapter.act_batch(
                stack("returns"), stack("states"), stack("actions"),
                valid_masks=stack("valid_mask") if task == "cjs" else None)
        for i, answer in zip(members, group):
            answers[i] = answer
    return answers


def decision_check(adapters: Dict[str, Any], inputs: Dict, log: RunLog
                   ) -> Tuple[str, List[str]]:
    """First timed round equals the adapters called directly (atol 1e-9);
    returns the digest of that round's answers."""
    if not log.rounds:
        return "", ["decisions: no timed round"]
    # The driver restarts its cycle through the payload pool with the clock.
    direct = _direct_answers(adapters, inputs["clients"], inputs["rounds"][0])
    digest = hashlib.sha256()
    failures = []
    for i, (handle, expected) in enumerate(zip(log.rounds[0].handles, direct)):
        served = handle.result().value
        if not np.allclose(np.asarray(served, dtype=np.float64),
                           np.asarray(expected, dtype=np.float64),
                           atol=1e-9, rtol=0.0):
            failures.append(f"decisions: client {i} answer differs from the "
                            f"direct adapter call")
        digest.update(np.round(np.asarray(served, dtype=np.float64), 9).tobytes())
    return digest.hexdigest(), failures


def health_check(report: Dict[str, Any]) -> List[str]:
    """Server healthy and every fault counter still zero."""
    failures = []
    if report["health"] != "healthy":
        failures.append(f"health: server reports {report['health']!r}")
    for counter in ("failed", "faults_quarantined", "retries", "shed",
                    "cancelled", "expired"):
        if report[counter]:
            failures.append(f"health: {counter} = {report[counter]}")
    return failures
