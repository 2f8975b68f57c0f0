"""The benchmark's clock: time as it would read at reference machine speed.

The sandbox's CPU speed shifts by +-20 % in regimes that last from seconds to
minutes, so raw wall-clock numbers spread wider than any effect they could
gate.  Every ``PROBE_EVERY_S`` the driver runs a fixed numpy-only stand-in for
one batched decode step (no ``repro`` code, so no later PR can change it).
The reference clock stands still while a probe runs and otherwise advances
by ``PROBE_NOMINAL_S / median(recent probe durations)`` per second: a
stretch during which the machine ran at 0.8 of reference speed counts for 0.8
of its wall time.  Every time the benchmark reports is a difference of two
readings of this clock, and the open loop offers its arrivals on it, so a
slower machine sees the same utilisation, not a higher one.  The probe has
the program's mix of small matmuls, fancy-index gathers and Python overhead,
which is what makes its slowdown track the program's.
"""

from __future__ import annotations

import time
from collections import deque
from typing import List

import numpy as np

from .spec import PROBE_EVERY_S, PROBE_NOMINAL_S, PROBE_SMOOTHING


class SpeedProbe:
    """Fixed work shaped like one 8-row decode step at ~100 tokens of context."""

    def __init__(self, batch: int = 8, d_model: int = 64, heads: int = 4,
                 layers: int = 3, blocks: int = 8, block_size: int = 16,
                 vocab: int = 96) -> None:
        rng = np.random.default_rng(12345)
        self.batch, self.d_model, self.heads = batch, d_model, heads
        self.head_dim = d_model // heads
        shapes = dict(q=(d_model, d_model), k=(d_model, d_model),
                      v=(d_model, d_model), o=(d_model, d_model),
                      up=(d_model, 4 * d_model), down=(4 * d_model, d_model))
        self.weights = [{name: rng.normal(0.0, 0.05, shape)
                         for name, shape in shapes.items()}
                        for _ in range(layers)]
        pool = (batch * blocks, heads, block_size, self.head_dim)
        self.pool_keys = rng.normal(size=pool)
        self.pool_values = rng.normal(size=pool)
        self.tables = rng.permutation(batch * blocks).reshape(batch, blocks)
        self.x = rng.normal(size=(batch, 1, d_model))
        self.lm_head = rng.normal(0.0, 0.05, (d_model, vocab))
        self.mask = np.zeros((batch, blocks * block_size), dtype=bool)
        for row in range(batch):
            self.mask[row, 40 + 5 * row:] = True
        self.rng = np.random.default_rng(1)

    @staticmethod
    def _norm(x: np.ndarray) -> np.ndarray:
        mean = x.mean(-1, keepdims=True)
        var = ((x - mean) ** 2).mean(-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5)

    def _heads(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.batch, 1, self.heads, self.head_dim).swapaxes(1, 2)

    def _gather(self, pool: np.ndarray) -> np.ndarray:
        return pool[self.tables].transpose(0, 2, 1, 3, 4).reshape(
            self.batch, self.heads, -1, self.head_dim)

    def __call__(self) -> int:
        x = self.x
        for w in self.weights:
            h = self._norm(x)
            q = self._heads(h @ w["q"])
            keys, values = self._gather(self.pool_keys), self._gather(self.pool_values)
            scores = (q @ np.swapaxes(keys, -1, -2)) * 0.25
            np.copyto(scores, -np.inf, where=self.mask[:, None, None, :])
            exp = np.exp(scores - scores.max(-1, keepdims=True))
            context = (exp / exp.sum(-1, keepdims=True)) @ values
            x = x + np.swapaxes(context, 1, 2).reshape(x.shape) @ w["o"]
            x = x + np.maximum(self._norm(x) @ w["up"], 0.0) @ w["down"]
        logits = (self._norm(x) @ self.lm_head)[:, 0, :]
        total = 0
        for row in logits:
            probs = np.exp(row - row.max())
            total += int(self.rng.choice(len(probs), p=probs / probs.sum()))
        return total


class ProbedClock:
    """Maps ``perf_counter`` stamps onto reference-speed seconds."""

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        self.durations: List[float] = []   # seconds each timed probe call took
        self.probed_at: List[float] = []   # raw perf_counter when it started
        self._recent: deque = deque(maxlen=PROBE_SMOOTHING)
        for _ in range(PROBE_SMOOTHING):  # warms numpy's paths as well
            self._timed_probe()
        # Breakpoints of the piecewise-linear map raw -> reference seconds:
        # flat across a probe, slope ``rate`` between two probes.
        self._raw = [time.perf_counter()]
        self._ref = [0.0]
        self.rate = self._current_rate()

    def _timed_probe(self) -> None:
        # The first call only re-warms the probe's own working set, so the
        # timed second call does not depend on what the program left in cache.
        self.probe()
        start = time.perf_counter()
        self.probe()
        duration = time.perf_counter() - start
        self.probed_at.append(start)
        self.durations.append(duration)
        self._recent.append(duration)

    def _current_rate(self) -> float:
        return PROBE_NOMINAL_S / float(np.median(self._recent))

    def _reading(self, raw: float) -> float:
        """The clock's reading at a raw stamp after the last probe."""
        return self._ref[-1] + (raw - self._raw[-1]) * self.rate

    def now(self) -> float:
        """Reference seconds since this clock was made."""
        return self._reading(time.perf_counter())

    def maybe_probe(self) -> None:
        """Run one probe if ``PROBE_EVERY_S`` has passed since the last."""
        start = time.perf_counter()
        if start - self._raw[-1] < PROBE_EVERY_S:
            return
        reached = self._reading(start)
        self._timed_probe()
        self._raw += [start, time.perf_counter()]
        self._ref += [reached, reached]
        self.rate = self._current_rate()

    def reference(self, raw) -> np.ndarray:
        """Reference-clock readings at raw ``perf_counter`` stamps (vectorised);
        stamps must not lie in the future."""
        end = time.perf_counter()
        return np.interp(np.asarray(raw, dtype=np.float64),
                         self._raw + [end], self._ref + [self._reading(end)])

    def probe_median_s(self, start: float = 0.0, stop: float = np.inf) -> float:
        """Median duration of the probes begun at raw stamps in ``[start, stop)``."""
        timed = [d for at, d in zip(self.probed_at, self.durations)
                 if start <= at < stop]
        return float(np.median(timed)) if timed else 0.0
