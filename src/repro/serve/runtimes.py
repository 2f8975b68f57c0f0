"""Pluggable task runtimes: how the engine executes decision requests.

A :class:`TaskRuntime` answers one named task's :class:`DecisionRequest`
traffic.  The engine only knows the protocol — ``group_key`` partitions
pending requests into batch-compatible groups between decode steps, and
``execute_batch`` answers one group in a single forward — so adding a task is
a registration (:meth:`~repro.serve.engine.InferenceServer.register_task`),
not an engine edit.  The three NetLLM decision tasks (``vp``/``abr``/``cjs``)
live here as the built-in registrations the old hard-coded engine branches
became.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Protocol, Sequence, Type, runtime_checkable

import numpy as np

from .requests import ABRResult, CJSResult, DecisionRequest, VPResult


@runtime_checkable
class TaskRuntime(Protocol):
    """Executes one task's decision requests in batch-compatible groups."""

    def group_key(self, request: DecisionRequest) -> Hashable:
        """Batching-compatibility key: equal keys may share one forward."""
        ...

    def execute_batch(self, requests: Sequence[DecisionRequest]) -> List[Any]:
        """Answer one group (all sharing a ``group_key``); one result per
        request, in order."""
        ...


def _malformed(request: DecisionRequest, problem: str) -> ValueError:
    return ValueError(f"malformed {request.task!r} payload: {problem}")


class VPRuntime:
    """Viewport prediction through ``VPAdapter.predict_batch``.

    Histories of any length share one packed forward; what cannot batch is
    the saliency input (its presence and image shape), so that is the key.
    """

    def __init__(self, adapter: Any) -> None:
        self.adapter = adapter

    def group_key(self, request: DecisionRequest) -> Hashable:
        """Validate the sample — one group per task means a bad payload must
        be refused here, at ``submit``, not fail its whole group — and key it
        by the saliency the adapter will read."""
        sample = request.payload
        shape = np.shape(sample.history)
        if len(shape) != 2 or shape[1] != 3 or shape[0] < 1:
            raise _malformed(request, f"history must be (steps >= 1, 3), got {shape}")
        limit = self.adapter.llm.config.max_seq_len
        if shape[0] + 1 > limit:
            raise _malformed(request, f"{shape[0]} history steps + saliency "
                                      f"exceed max_seq_len {limit}")
        if not self.adapter.use_saliency or sample.saliency is None:
            return (None,)
        saliency = np.shape(sample.saliency)
        if len(saliency) != 2:
            raise _malformed(request, f"saliency must be (H, W), got {saliency}")
        return (saliency,)

    def execute_batch(self, requests: Sequence[DecisionRequest]) -> List[VPResult]:
        predictions = self.adapter.predict_batch([r.payload for r in requests])
        return [VPResult(viewport=prediction) for prediction in predictions]


class _ReturnConditionedRuntime:
    """Shared validation/batching for the return-conditioned decision tasks.

    Payloads are the context dicts the NetLLM deployment policies prepare
    (``returns``/``states``/``actions`` and, for CJS, ``valid_mask``); every
    pending window of the task, whatever its length, goes into one packed
    ``DecisionAdapter.act_batch`` forward.
    """

    uses_valid_mask = False

    def __init__(self, adapter: Any) -> None:
        self.adapter = adapter

    def group_key(self, request: DecisionRequest) -> Hashable:
        """Validate the window (see ``VPRuntime.group_key``); every valid
        window of the task batches with every other."""
        adapter, payload = self.adapter, request.payload
        window = len(payload["states"])
        limit = adapter.llm.config.max_seq_len
        if window < 1 or 3 * window > limit:
            raise _malformed(request, f"a window of {window} steps (3 tokens "
                                      f"each) does not fit 1..max_seq_len {limit}")
        expected = [("returns", (window, 1)), ("states", (window, adapter.state_dim)),
                    ("actions", (window, len(adapter.action_dims)))]
        if self.uses_valid_mask:
            expected.append(("valid_mask", (adapter.action_dims[0],)))
        for name, shape in expected:
            if np.shape(payload[name]) != shape:
                raise _malformed(request, f"{name} must be {shape}, got "
                                          f"{np.shape(payload[name])}")
        # The last step's action is the placeholder for the one being chosen.
        taken = np.asarray(payload["actions"])[:-1]
        if window > 1 and not (taken.min() >= 0
                               and (taken < adapter.action_dims).all()):
            raise _malformed(request, f"action indices outside {adapter.action_dims}")
        return ()

    def execute_batch(self, requests: Sequence[DecisionRequest]) -> List[Any]:
        payloads = [r.payload for r in requests]
        masks = ([p["valid_mask"] for p in payloads]
                 if self.uses_valid_mask else None)
        answers = self.adapter.act_batch(
            [p["returns"] for p in payloads], [p["states"] for p in payloads],
            [p["actions"] for p in payloads], valid_masks=masks)
        return [self._wrap(answer) for answer in answers]

    def _wrap(self, answer: Any) -> Any:
        raise NotImplementedError


class ABRRuntime(_ReturnConditionedRuntime):
    """Adaptive bitrate decisions through ``DecisionAdapter.act_batch``."""

    def _wrap(self, answer: Any) -> ABRResult:
        return ABRResult(action=tuple(answer))


class CJSRuntime(_ReturnConditionedRuntime):
    """Cluster-scheduling decisions through ``DecisionAdapter.act_batch``."""

    uses_valid_mask = True

    def _wrap(self, answer: Any) -> CJSResult:
        stage_index, bucket = answer
        return CJSResult(stage_index=int(stage_index), bucket=int(bucket))


#: The built-in task registrations (adapter in, runtime out).
BUILTIN_RUNTIMES: Dict[str, Type] = {
    "vp": VPRuntime,
    "abr": ABRRuntime,
    "cjs": CJSRuntime,
}


def build_runtime(task: str, adapter: Any) -> TaskRuntime:
    """Wrap ``adapter`` in the built-in runtime for ``task``.

    This is the compatibility bridge behind ``register_adapter``/the
    ``adapters=`` constructor argument; novel tasks implement
    :class:`TaskRuntime` directly and go through ``register_task``.
    """
    try:
        runtime_cls = BUILTIN_RUNTIMES[task]
    except KeyError:
        raise ValueError(
            f"unknown decision task {task!r}; expected one of "
            f"{tuple(BUILTIN_RUNTIMES)} (for a novel task, implement "
            f"TaskRuntime and call register_task)") from None
    return runtime_cls(adapter)
