"""From a driver's ``RunLog`` to the request-level numbers of one run.

Every time is a difference of two readings of the reference clock
(``bench/clock.py``): seconds as they would read at reference machine speed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .drivers import RunLog, succeeded
from .spec import SLO_GAP_S, SLO_TTFT_S

#: Percentile levels a tail may be reported at, highest first.
LEVELS = (99, 95, 90, 50)


def supported_level(samples: int) -> int:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for level in LEVELS:
        if samples * (100 - level) >= 1000:
            return level
    return 50


def pct(values, level: float) -> float:
    """Percentile of a list or array; 0 when it is empty."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, level)) if values.size else 0.0


def token_times(metrics) -> np.ndarray:
    """Raw ``perf_counter`` commit time of every output token of a request."""
    if metrics.first_token_at is None:
        return np.empty(0)
    gaps = np.asarray(metrics.token_seconds[1:], dtype=np.float64)
    return metrics.first_token_at + np.concatenate([[0.0], np.cumsum(gaps)])


class Window:
    """The timed window of a run, on the reference clock."""

    def __init__(self, log: RunLog) -> None:
        self.start, self.stop = (float(t) for t in log.clock.reference(
            [log.started, log.stopped]))
        self.seconds = self.stop - self.start


def ms(seconds) -> np.ndarray:
    return np.asarray(seconds, dtype=np.float64) * 1e3


def us(seconds) -> np.ndarray:
    return np.asarray(seconds, dtype=np.float64) * 1e6


def generation_numbers(log: RunLog, ttft_class: Optional[str] = None,
                       itl_class: Optional[str] = None
                       ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Request-level numbers of a generation run, and their sample counts."""
    window = Window(log)
    reference = log.clock.reference
    step_ends = np.asarray(log.step_ends)
    tokens = prompt_tokens = prompt_tokens_started = 0
    latency: List[float] = []
    ttft: List[float] = []
    gaps: List[np.ndarray] = []
    late: List[float] = []
    slo_sent = slo_met = 0
    for sent in log.sent:
        metrics = sent.handle.metrics
        raw = token_times(metrics)
        times = reference(raw)
        inside = (times >= window.start) & (times <= window.stop)
        tokens += int(inside.sum())
        begin = sent.due if sent.due is not None else float(
            reference(metrics.submitted_at))
        if sent.submitted is not None:
            late.append(sent.submitted - sent.due)
        if begin < window.start or not succeeded(sent.handle):
            continue
        prompt_tokens_started += len(sent.handle.request.prompt) + 1  # + BOS
        # Deliveries: the first token of each engine step that committed any.
        step = np.searchsorted(step_ends, raw, side="left")
        delivered = times[np.concatenate([[True], step[1:] != step[:-1]])]
        request_gaps = np.diff(delivered)
        if times.size and times[0] <= window.stop \
                and ttft_class in (None, sent.cls):
            ttft.append(times[0] - begin)
        if itl_class in (None, sent.cls):
            gaps.append(request_gaps[delivered[1:] <= window.stop])
        finished = float(reference(metrics.finished_at))
        if finished <= window.stop:
            latency.append(finished - begin)
            prompt_tokens += len(sent.handle.request.prompt) + 1
            slo_sent += 1
            slo_met += bool(
                times[0] - begin <= SLO_TTFT_S
                and (request_gaps <= SLO_GAP_S).all())
    failed = sum(not succeeded(sent.handle) for sent in log.sent)
    itl = np.concatenate(gaps) if gaps else np.empty(0)
    numbers = {
        "tokens_per_s": tokens / window.seconds,
        "request_latency_p50_ms": pct(ms(latency), 50),
        "ttft_p50_ms": pct(ms(ttft), 50),
        "itl_p50_ms": pct(ms(itl), 50),
        "driver.ttft_p95_ms": pct(ms(ttft), 95),
        "driver.itl_p99_ms": pct(ms(itl), 99),
        "driver.late_p99_ms": pct(ms(late), 99),
        "driver.slo_attainment": slo_met / (slo_sent + failed)
        if slo_sent + failed else 0.0,
        "driver.prompt_tokens_per_s": prompt_tokens / window.seconds,
    }
    samples = {"tokens": tokens, "request_latency": len(latency),
               "ttft": len(ttft), "itl": int(itl.size),
               "prompt_tokens_started": prompt_tokens_started}
    return numbers, samples


def decision_numbers(log: RunLog) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Request-level numbers of a lockstep decision run."""
    window = Window(log)
    reference = log.clock.reference
    rounds = reference([(r.first_submit, r.last_read) for r in log.rounds])
    submitted = reference([[h.metrics.submitted_at for h in r.handles]
                           for r in log.rounds])
    finished = reference([[h.metrics.finished_at for h in r.handles]
                          for r in log.rounds])
    round_ms = ms(rounds[:, 1] - rounds[:, 0])
    decision_ms = ms(finished - submitted).ravel()
    gap_ms = ms(np.diff(finished, axis=0)).ravel()
    numbers = {
        "tokens_per_s": finished.size / window.seconds,
        "request_latency_p50_ms": pct(round_ms, 50),
        "ttft_p50_ms": pct(decision_ms, 50),
        "itl_p50_ms": pct(gap_ms, 50),
        "driver.ttft_p95_ms": pct(decision_ms, 95),
        "driver.itl_p99_ms": pct(gap_ms, 99),
        "driver.late_p99_ms": 0.0,
        "driver.slo_attainment": float((decision_ms <= SLO_TTFT_S * 1e3).mean()),
        "driver.prompt_tokens_per_s": 0.0,
    }
    samples = {"tokens": int(finished.size), "request_latency": len(round_ms),
               "ttft": int(decision_ms.size), "itl": int(gap_ms.size)}
    return numbers, samples
