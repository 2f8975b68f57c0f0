"""Outside-in tracing: class-level timing shims around public callables.

For the traced repetition only, every callable in ``TARGETS`` is replaced on
its class (or module) by a shim that records one in-memory span
``(name, start, end, parent, step_seq, value)`` per call; ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited: a callable that
cannot be reached from outside is skipped and listed in ``Tracer.omitted``.
Self time of a span is its duration minus the time its child spans cover;
spans never overlap (one thread), so self times under one root add up to
the root's duration exactly.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``probe(args, kwargs, result) -> (span name override or None, value)``;
#: runs after the span has ended, so it is not part of the measured time.
Probe = Callable[[tuple, dict, Any], Tuple[Optional[str], float]]


def _forward_step_kind(args, kwargs, result):
    counts = kwargs.get("counts", args[4] if len(args) > 4 else None)
    shape = result.data.shape  # (rows, width, vocab): rows through lm_head
    name = "model.forward_step.decode" if counts is None \
        else "model.forward_step.verify"
    return name, float(shape[0] * shape[1])


def _lm_head_rows(args, kwargs, result):
    shape = result.data.shape
    return None, float(shape[0] * shape[1])


def _gathered_bytes(args, kwargs, result):
    keys, values = result
    return None, float(keys.nbytes + values.nbytes)


def _did_work(args, kwargs, result):
    return None, float(bool(result))  # step() -> True when it did any work


def _batch_size(args, kwargs, result):
    return None, float(len(args[1]))


def _verify_tokens(args, kwargs, result):
    return None, float(np.sum(args[2]))  # prepare_multi_step(self, ids, counts)


@dataclass(frozen=True)
class Target:
    module: str
    owner: Optional[str]   # class name, or None for a module-level binding
    attr: str
    span: str
    probe: Optional[Probe] = None


def _targets() -> List[Target]:
    t = Target
    eng, sch, ses = "repro.serve.engine", "repro.serve.scheduler", "repro.serve.session"
    spec, pre, pag = "repro.serve.speculative", "repro.serve.prefix", "repro.nn.paged_cache"
    out = [t(eng, "InferenceServer", "submit", "engine.submit"),
           t(eng, "InferenceServer", "step", "engine.step", _did_work)]
    out += [t(sch, "ContinuousBatchingScheduler", a, f"scheduler.{a}")
            for a in ("enqueue", "admissions", "prefill_budget", "reap_expired",
                      "record_step")]
    out += [t(ses, "SessionManager", a, f"session.{a}")
            for a in ("admit_many", "prefill_step", "prefill_chunk",
                      "prefill_chunk_group", "plan_decode_tokens", "step", "evict")]
    out += [t(spec, "NgramProposer", "sync", "speculative.sync"),
            t(spec, "NgramProposer", "propose", "speculative.propose"),
            t(spec, "AdaptiveK", "observe", "speculative.observe")]
    out += [t(pre, "PrefixCache", a, f"prefix.{a}")
            for a in ("match", "seed_cache", "register")]
    out += [t(pag, "PagedKVCache", a, f"paged_cache.{a}")
            for a in ("prepare_step", "commit_step", "commit_multi_step",
                      "admit_rows", "extend_session", "truncate_session", "evict")]
    out += [t(pag, "PagedKVCache", "prepare_multi_step",
              "paged_cache.prepare_multi_step", _verify_tokens),
            t(pag, "PagedLayerKVCache", "gather", "paged_cache.gather",
              _gathered_bytes),
            t(pag, "PagedLayerKVCache", "append_step", "paged_cache.append_step")]
    out += [t("repro.llm.model", "LanguageModel", "forward_step",
              "model.forward_step", _forward_step_kind),
            t("repro.llm.model", "LanguageModel", "forward_incremental",
              "model.forward_incremental", _lm_head_rows),
            t("repro.llm.model", "LanguageModel", "forward_embeddings",
              "model.forward_embeddings"),
            t("repro.nn.transformer", "TransformerBlock", "forward_step",
              "transformer.block_step"),
            t("repro.nn.transformer", "TransformerBlock", "forward",
              "transformer.block_forward"),
            t("repro.nn.attention", "MultiHeadAttention", "forward_step",
              "attention.step"),
            t("repro.nn.attention", "MultiHeadAttention", "forward",
              "attention.forward"),
            t("repro.nn.layers", "Linear", "forward", "layers.linear"),
            # LoRALinear does not derive from Linear; the decision adapters'
            # projections are all of this class.
            t("repro.nn.lora", "LoRALinear", "forward", "layers.linear"),
            t("repro.nn.layers", "LayerNorm", "forward", "layers.layernorm"),
            # Patched where the serving path binds it, not where it is defined.
            t(ses, None, "sample_token", "generation.sample_token")]
    out += [t("repro.serve.runtimes", cls, "execute_batch",
              "runtimes.execute_batch", _batch_size)
            for cls in ("VPRuntime", "ABRRuntime", "CJSRuntime")]
    out += [t("repro.core.adapter", "VPAdapter", "predict_batch", "adapter.forward"),
            t("repro.core.adapter", "DecisionAdapter", "act_batch", "adapter.forward"),
            t("repro.serve.telemetry", "ServeTelemetry", "begin_step",
              "telemetry.begin_step"),
            t("repro.serve.telemetry", "ServeTelemetry", "commit_step",
              "telemetry.commit_step")]
    return out


TARGETS: Tuple[Target, ...] = tuple(_targets())


class Tracer:
    """Span store plus the install/uninstall of the shims that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.steps: List[int] = []
        self.values: List[float] = []
        self.omitted: List[str] = []
        #: Spans are recorded only while this is set (the timed window).
        self.recording = False
        self._stack: List[int] = []
        self._step_seq = -1
        self._in_step = False
        #: ``(owner, attr, original, inherited)`` of every installed shim.
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    # -- shims ----------------------------------------------------------- #
    def _shim(self, original: Callable, span: str, probe: Optional[Probe]):
        names, starts, ends = self.names, self.starts, self.ends
        parents, steps, values, stack = self.parents, self.steps, self.values, self._stack
        is_step = span == "engine.step"
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            if is_step:
                self._step_seq += 1
                self._in_step = True
            index = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            steps.append(self._step_seq if self._in_step else -1)
            values.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if is_step:
                    self._in_step = False
            if probe is not None:
                name, values[index] = probe(args, kwargs, result)
                if name is not None:
                    names[index] = name
            return result

        shim.__wrapped__ = original
        return shim

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            label = f"{target.module}.{target.owner or ''}.{target.attr}"
            try:
                owner = importlib.import_module(target.module)
                if target.owner is not None:
                    owner = getattr(owner, target.owner)
                original = getattr(owner, target.attr)
            except (ImportError, AttributeError):
                self.omitted.append(label)
                continue
            if not callable(original) or isinstance(
                    owner.__dict__.get(target.attr), (staticmethod, classmethod)):
                self.omitted.append(label)  # not a plain function: skipped
                continue
            inherited = target.attr not in owner.__dict__
            setattr(owner, target.attr,
                    self._shim(original, target.span, target.probe))
            self._installed.append((owner, target.attr, original, inherited))

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, original, inherited in reversed(self._installed):
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def table(self, clock) -> "SpanTable":
        return SpanTable(self, clock)


class SpanTable:
    """The recorded spans as arrays, with self times, on the reference clock
    (``bench/clock.py``) like every other time the benchmark reports."""

    def __init__(self, tracer: Tracer, clock) -> None:
        self.names = np.asarray(tracer.names, dtype=object)
        self.starts = clock.reference(tracer.starts)
        self.ends = clock.reference(tracer.ends)
        self.parents = np.asarray(tracer.parents, dtype=np.int64)
        self.steps = np.asarray(tracer.steps, dtype=np.int64)
        self.values = np.asarray(tracer.values, dtype=np.float64)
        self.durations = self.ends - self.starts
        covered = np.zeros(len(self.names))
        child = self.parents >= 0
        np.add.at(covered, self.parents[child], self.durations[child])
        self.self_times = self.durations - covered
        self._by_name: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.names)

    def where(self, *names: str) -> np.ndarray:
        """Indices of the spans called any of ``names`` (prefix match on
        a trailing dot: ``"model.forward_step."`` selects both kinds)."""
        key = "|".join(names)
        if key not in self._by_name:
            mask = np.zeros(len(self.names), dtype=bool)
            for name in names:
                if name.endswith("."):
                    mask |= np.fromiter((n.startswith(name) for n in self.names),
                                        dtype=bool, count=len(self.names))
                else:
                    mask |= self.names == name
            self._by_name[key] = np.flatnonzero(mask)
        return self._by_name[key]

    def step_time_check(self) -> Dict[str, float]:
        """Self times inside engine steps against the steps' own durations:
        the two totals are equal when every span is accounted for."""
        step_total = float(self.durations[self.where("engine.step")].sum())
        self_total = float(self.self_times[self.steps >= 0].sum())
        return {"step_total_s": step_total, "self_total_s": self_total,
                "relative_error": abs(step_total - self_total) / step_total
                if step_total else 0.0}

    def per_step(self, column: np.ndarray, *names: str) -> np.ndarray:
        """Sum of ``column`` over the named spans, per engine step that has any."""
        index = self.where(*names)
        index = index[self.steps[index] >= 0]
        if not index.size:
            return np.empty(0)
        totals = np.bincount(self.steps[index], weights=column[index])
        return totals[np.bincount(self.steps[index]) > 0]
