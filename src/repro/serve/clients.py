"""Task-side clients that drive the three NetLLM adapters through the engine.

These clients turn the synchronous per-step adapter calls of the deployment
policies into typed :class:`~repro.serve.requests.DecisionRequest`
submissions so that concurrent sessions share batched forwards:

* :func:`serve_vp_predictions` — submit a whole VP test set at once; the
  engine groups compatible samples into one ``predict_batch`` forward.
* :class:`LockstepABRDriver` — streams many ABR sessions in lockstep: each
  round every unfinished session submits the window its policy prepared,
  the engine answers them in one batched ``act_batch`` forward, then every
  session commits the action and downloads its chunk.
* :class:`ServedABRPolicy` / :class:`ServedCJSScheduler` — the deployment
  policies of :mod:`repro.core.ddlrna` with the engine answering: the window
  a policy prepares is the runtime's payload as it stands, so the only
  thing a served client changes is ``answer``.  For use inside the
  unmodified simulators (each call batches with whatever other traffic is
  pending, e.g. when several simulator threads share a started server).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..abr.simulator import StreamingSession
from ..core.ddlrna import NetLLMABRPolicy, NetLLMCJSScheduler
from .engine import InferenceServer
from .requests import DecisionRequest


class _EngineAnswered:
    """Mixin for a :class:`~repro.core.ddlrna.ReturnConditionedPolicy`:
    the window is answered by the engine's ``task`` runtime."""

    name = "NetLLM-served"
    task = ""

    def answer(self, payload):
        return self.server.submit(
            DecisionRequest(task=self.task, payload=payload)).result().value


# ---------------------------------------------------------------------- #
# Viewport prediction
# ---------------------------------------------------------------------- #
def serve_vp_predictions(server: InferenceServer, samples: Sequence,
                         priority: int = 0) -> List[np.ndarray]:
    """Predict every sample through the engine (batched by shape group)."""
    handles = [server.submit(DecisionRequest(task="vp", payload=sample,
                                             priority=priority))
               for sample in samples]
    if not server.is_serving:
        server.run_until_idle()
    return [handle.result().viewport for handle in handles]


class ServedVPPredictor:
    """``predict(sample)``-compatible wrapper that answers via the engine."""

    name = "NetLLM-served"

    def __init__(self, server: InferenceServer) -> None:
        self.server = server

    def predict(self, sample) -> np.ndarray:
        return self.server.submit(
            DecisionRequest(task="vp", payload=sample)).result().viewport


# ---------------------------------------------------------------------- #
# Adaptive bitrate streaming
# ---------------------------------------------------------------------- #
class ServedABRPolicy(_EngineAnswered, NetLLMABRPolicy):
    """ABR policy whose per-chunk decision is answered by the engine."""

    task = "abr"

    def __init__(self, server: InferenceServer, adapter, pool,
                 target_return_scale: float = 1.1) -> None:
        super().__init__(adapter, pool, target_return_scale=target_return_scale)
        self.server = server


class LockstepABRDriver:
    """Stream many ABR sessions concurrently with batched decisions.

    Each round, every unfinished session prepares its window and submits it
    as one ``abr`` request; the engine answers every window in a single
    batched adapter forward; every session then commits its action and
    downloads the chunk.  Per-session QoE matches driving each session alone
    (the batched forward is the same computation).
    """

    def __init__(self, server: InferenceServer, adapter, pool,
                 target_return_scale: float = 1.1) -> None:
        self.server = server
        self.adapter = adapter
        self.pool = pool
        self.target_return_scale = target_return_scale

    def run(self, video, traces, config=None, seed: int = 0) -> List:
        """Stream every trace; returns the per-trace ``SessionResult`` list."""
        sessions = [StreamingSession(video, trace, config=config, seed=seed + index)
                    for index, trace in enumerate(traces)]
        policies = [NetLLMABRPolicy(self.adapter, self.pool,
                                    target_return_scale=self.target_return_scale)
                    for _ in sessions]
        active = list(range(len(sessions)))
        while active:
            submissions = [(index, self.server.submit(DecisionRequest(
                task="abr", payload=policies[index].prepare(sessions[index]))))
                for index in active]
            if not self.server.is_serving:
                self.server.run_until_idle()
            still_active = []
            for index, handle in submissions:
                (bitrate,) = policies[index].commit(handle.result().action)
                sessions[index].download_chunk(bitrate)
                if not sessions[index].finished:
                    still_active.append(index)
            active = still_active
        return [session.result for session in sessions]


# ---------------------------------------------------------------------- #
# Cluster job scheduling
# ---------------------------------------------------------------------- #
class ServedCJSScheduler(_EngineAnswered, NetLLMCJSScheduler):
    """CJS scheduler whose per-event decision is answered by the engine."""

    task = "cjs"

    def __init__(self, server: InferenceServer, adapter, pool,
                 target_return_scale: float = 0.9) -> None:
        super().__init__(adapter, pool, target_return_scale=target_return_scale)
        self.server = server
