"""Public-API snapshots for ``repro.serve`` and ``repro.nn``.

The serving package is the repo's outward-facing surface: these tests pin
``repro.serve.__all__`` and the signatures of the typed request/result
dataclasses so a future PR that changes the wire surface has to edit this
file — breaking the API consciously instead of by accident.  ``repro.nn``'s
``__all__`` is pinned the same way.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro.nn as nn
import repro.serve as serve

#: The exported surface.  Additions are fine (extend the list); removals or
#: renames are breaking changes — update every client with the same PR.
#: Recorded breaks: ``ServeCounters`` is gone — ``ServerStats.from_requests``
#: takes one ``counts`` mapping, from an engine the flight recorder's
#: ``ServeTelemetry.totals()``; ``DraftProposer`` is gone — ``NgramProposer``
#: is the one proposer and nothing was typed against the protocol.
EXPECTED_ALL = {
    # Typed requests / results / errors.
    "GenerateRequest", "DecisionRequest",
    "GenerationResult", "VPResult", "ABRResult", "CJSResult",
    "RequestCancelled", "DeadlineExceeded",
    "RequestFailed", "ServerOverloaded",
    "PRIORITY_LOW", "PRIORITY_NORMAL", "PRIORITY_HIGH",
    # Pluggable task runtimes.
    "TaskRuntime", "VPRuntime", "ABRRuntime", "CJSRuntime", "build_runtime",
    # Engine and scheduling.
    "InferenceServer", "RequestHandle",
    "ContinuousBatchingScheduler", "SchedulerPolicy", "RetryPolicy",
    "GenerationSession", "SessionManager",
    # Speculative decoding (the draft proposer + adaptive draft length).
    "NgramProposer", "AdaptiveK",
    "PrefixCache", "PrefixEntry",
    "RequestMetrics", "ServerStats", "ServerHealth",
    # Flight-recorder observability (trace / windows / attribution).
    "ServeTelemetry", "StepRecord", "TraceLog",
    "WindowAggregator", "WindowStats",
    "GapAttribution", "RequestExplanation",
    # Fault injection (chaos testing; gated behind REPRO_FAULTS).
    "FaultInjector", "FaultSpec", "InjectedFault", "TransientFault",
    "FAULT_SITES",
    # Task-side clients.
    "LockstepABRDriver", "ServedABRPolicy", "ServedCJSScheduler",
    "ServedVPPredictor", "serve_vp_predictions",
}


#: ``repro.nn``'s exported surface, under the same rule.  Recorded breaks:
#: ``KVCache`` and ``LayerKVCache`` are gone — autoregressive decoding runs on
#: a one-session ``PagedKVCache`` (``init_paged_cache(max_sessions=1)``).
EXPECTED_NN_ALL = {
    "Tensor", "concatenate", "stack", "where",
    "no_grad", "set_grad_enabled", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype",
    "clip_grad_norm", "cross_entropy", "dropout", "gelu", "huber_loss", "log_softmax",
    "mae_loss", "mse_loss", "one_hot", "relu", "sigmoid", "softmax", "tanh",
    "Dropout", "Embedding", "GELU", "LayerNorm", "Linear", "MLP", "Module", "ModuleList",
    "Parameter", "ReLU", "Sequential", "Tanh",
    "Conv1D", "PatchImageEncoder", "TemporalConvEncoder",
    "MultiHeadAttention", "causal_mask",
    "DEFAULT_BLOCK_SIZE", "BlockAllocator",
    "PagedKVCache", "PagedLayerKVCache", "PagedStepContext",
    "FeedForward", "TransformerBackbone", "TransformerBlock",
    "LSTM", "LSTMCell",
    "GraphConv", "GraphEncoder", "normalized_adjacency",
    "LoRALinear", "iter_lora_layers", "mark_only_lora_trainable",
    "Adam", "CosineSchedule", "Optimizer", "SGD",
    "load_into", "load_state_dict", "save_state_dict",
}

#: ``PagedKVCache``'s public methods and properties, pinned like the
#: ``SchedulerPolicy`` fields: an import or ownership helper cannot come back
#: (``register_blocks``, ``detach`` and a public ``release_blocks`` are gone —
#: every block reference is a table entry; ``admit`` is gone — a test fills a
#: pool the way the server does) and a name cannot go unnoticed.
#: ``True`` marks the names ``bench/trace.py::TARGETS`` times: the benchmark
#: is edited only by a PR of its own, so these outlive any refactor of the
#: pool until then.
PAGED_KV_PUBLIC = {
    # Sessions and their tables.
    "open_session": False, "fork": False, "evict": True, "length": False,
    "table": False, "sessions": False, "num_sessions": False,
    "blocks_needed": False,
    # The one step plan and the one commit, in their four spellings.
    "prepare_step": True, "prepare_multi_step": True, "commit_step": True,
    "commit_multi_step": True, "truncate_session": True,
    # Importing a session of another pool.
    "admit_rows": True, "extend_session": True,
    "history": False,
    # Pool facts and the self-contained accounting check.
    "num_layers": False, "block_size": False, "blocks_in_use": False,
    "blocks_free": False, "attention_totals": False,
    "check_invariants": False,
}


#: The methods of the attention-bearing classes.  There are two attention
#: bodies, the graph ``forward`` (training and the reference) and
#: ``forward_step`` (every inference forward: decode, verification, prefill
#: and, with no pool, decisions); pinned so a third cannot come back
#: unnoticed.
ATTENTION_METHODS = {
    "MultiHeadAttention": {"forward", "forward_step",
                           "_check_cached_preconditions", "_split_heads"},
    "TransformerBlock": {"forward", "forward_step"},
    "TransformerBackbone": {"init_paged_cache", "forward_step",
                            "last_position_features", "_layers", "forward"},
}


#: The one-session step and the import utilities outlive their last served
#: use only because ``bench/trace.py`` times them (ROADMAP item 2(b)).  Parity
#: tests check against the graph forward and fill pools with ``forward_step``
#: (``tests/reference.py``), so the calls left are ``generate()``'s and those
#: of the tests whose subject is the name, which go with it:
#: ``(file, enclosing classes and functions, name called)``.
ONE_SESSION_NAMES = {"forward_incremental", "admit_rows", "extend_session"}
ONE_SESSION_CALLS = {
    ("src/repro/llm/generation.py", "generate", "forward_incremental"),
    *(("tests/test_nn_inference.py", f"TestKVCacheParity.{test}",
       "forward_incremental")
      for test in ("test_cache_overflow_raises", "test_cached_path_requires_no_grad",
                   "test_mismatched_cache_layer_count_raises")),
    ("tests/test_serve.py", "TestPagedDecodeParity."
     "test_admit_rows_validates_rows_without_leaking", "admit_rows"),
    *(("tests/test_serve.py", "TestChunkedPrefill.test_extend_session_validation",
       name) for name in ("admit_rows", "extend_session")),
    *(("tests/test_paged_pool_property.py", "test_random_pool_histories", name)
      for name in ("admit_rows", "extend_session")),
}


def _calls(node, scope=""):
    """``(scope, name, line)`` of every call of a ``ONE_SESSION_NAMES`` name
    under ``node``, by attribute or bare name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}".lstrip(".")
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ONE_SESSION_NAMES:
            yield scope, name, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, scope)


def _fields(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


class TestServeSurface:
    def test_all_matches_snapshot(self):
        assert set(serve.__all__) == EXPECTED_ALL
        for name in serve.__all__:  # every export actually resolves
            assert hasattr(serve, name), f"__all__ lists missing name {name!r}"

    def test_generate_request_signature(self):
        fields = _fields(serve.GenerateRequest)
        assert fields == {
            "prompt": dataclasses.MISSING,
            "max_new_tokens": 64,
            "temperature": 0.0,
            "seed": 0,
            "stop_on_eos": True,
            "stream": False,
            "priority": 0,
            "deadline_s": None,
        }
        assert serve.GenerateRequest.__dataclass_params__.frozen
        assert serve.GenerateRequest.task == "generate"

    def test_decision_request_signature(self):
        fields = _fields(serve.DecisionRequest)
        assert fields == {
            "task": dataclasses.MISSING,
            "payload": None,
            "priority": 0,
            "deadline_s": None,
        }
        assert serve.DecisionRequest.__dataclass_params__.frozen

    def test_result_types(self):
        assert set(_fields(serve.VPResult)) == {"viewport"}
        assert set(_fields(serve.ABRResult)) == {"action"}
        assert set(_fields(serve.CJSResult)) == {"stage_index", "bucket"}
        for result_cls in (serve.VPResult, serve.ABRResult, serve.CJSResult):
            assert result_cls.__dataclass_params__.frozen
            assert isinstance(getattr(result_cls, "value"), property)
        assert isinstance(getattr(serve.ABRResult, "bitrate"), property)
        # Generation resolves to the shared GenerationResult dataclass.
        assert {"text", "token_ids", "num_inferences", "elapsed_seconds",
                "stopped_by_eos"} <= set(_fields(serve.GenerationResult))

    def test_lifecycle_errors(self):
        assert issubclass(serve.RequestCancelled, RuntimeError)
        assert issubclass(serve.DeadlineExceeded, TimeoutError)
        assert issubclass(serve.RequestFailed, RuntimeError)
        assert issubclass(serve.ServerOverloaded, RuntimeError)
        assert issubclass(serve.TransientFault, serve.InjectedFault)
        assert issubclass(serve.InjectedFault, RuntimeError)
        assert (serve.PRIORITY_LOW, serve.PRIORITY_NORMAL,
                serve.PRIORITY_HIGH) == (0, 1, 2)

    def test_request_handle_lifecycle_methods(self):
        for method in ("result", "stream", "cancel", "done", "cancelled"):
            assert callable(getattr(serve.RequestHandle, method))
        stream_params = inspect.signature(serve.RequestHandle.stream).parameters
        assert "timeout" in stream_params

    def test_task_runtime_protocol(self):
        assert hasattr(serve.TaskRuntime, "group_key")
        assert hasattr(serve.TaskRuntime, "execute_batch")
        for runtime_cls in (serve.VPRuntime, serve.ABRRuntime, serve.CJSRuntime):
            assert isinstance(runtime_cls(adapter=None), serve.TaskRuntime)

    def test_server_submission_surface(self):
        submit_params = list(
            inspect.signature(serve.InferenceServer.submit).parameters)
        assert submit_params == ["self", "request"]
        for method in ("register_task", "register_adapter", "register_prefix",
                       "submit_generation", "start", "stop", "step",
                       "run_until_idle", "stats"):
            assert callable(getattr(serve.InferenceServer, method))

    def test_scheduler_policy_knobs(self):
        fields = _fields(serve.SchedulerPolicy)
        assert {"max_batch_size", "max_context", "max_queue",
                "priority_aging_s", "block_size",
                "enable_prefix_cache", "max_prefixes",
                "prefill_chunk_size", "step_token_budget",
                "retry_policy", "shed_queue_depth", "shed_queue_age_s",
                "health_window_s", "speculation",
                "speculation_k"} == set(fields)
        assert fields["priority_aging_s"] == 30.0
        # Chunked prefill is opt-in: the defaults preserve one-shot prefill
        # with unbounded steps (the pre-chunking engine behaviour).
        assert fields["prefill_chunk_size"] is None
        assert fields["step_token_budget"] is None
        # Fault tolerance is opt-in too: no retries, no shedding by default.
        assert fields["retry_policy"] is None
        assert fields["shed_queue_depth"] is None
        assert fields["shed_queue_age_s"] is None
        # Speculative decoding is opt-in: sequential decode by default.
        assert fields["speculation"] == "off"
        assert fields["speculation_k"] == 4

    def test_names_the_benchmark_reads(self):
        """``bench/`` reads these by name and no PR that claims a gain may
        edit it to follow a rename: fail here, in the fast lane."""
        record = serve.StepRecord(seq=0, started_at=0.0, ended_at=0.0)
        for name in ("started_at", "prefill_budget", "prefill_tokens",
                     "decode_sessions", "blocks_in_use", "deferred"):
            assert hasattr(record, name), name
        report = serve.ServerStats.from_requests(
            [], wall_seconds=0.0, occupancy_samples=[],
            queue_depth_samples=[]).report()
        assert {"requests_completed", "health", "failed", "faults_quarantined",
                "retries", "shed", "cancelled", "expired", "max_queue_depth",
                "mean_batch_occupancy", "block_capacity", "prefix_hits",
                "prefix_misses", "prefix_tokens_reused", "tokens_drafted",
                "tokens_accepted"} <= set(report)
        for method in ("begin_step", "commit_step", "records"):
            assert callable(getattr(serve.ServeTelemetry, method))

    def test_retry_policy_knobs(self):
        fields = _fields(serve.RetryPolicy)
        assert {"max_attempts", "backoff_s", "backoff_multiplier",
                "retry_on"} == set(fields)
        assert fields["max_attempts"] == 2  # one retry by default


class TestNnSurface:
    def test_all_matches_snapshot(self):
        assert set(nn.__all__) == EXPECTED_NN_ALL
        assert len(nn.__all__) == len(EXPECTED_NN_ALL)  # no name listed twice
        for name in nn.__all__:
            assert hasattr(nn, name), f"__all__ lists missing name {name!r}"

    def test_paged_kv_cache_methods(self):
        public = {name for name in vars(nn.PagedKVCache) if not name.startswith("_")}
        assert public == set(PAGED_KV_PUBLIC)
        # Self-contained: the tables are the only holders there are to count.
        assert list(inspect.signature(
            nn.PagedKVCache.check_invariants).parameters) == ["self"]

    def test_attention_bodies(self):
        for name, methods in ATTENTION_METHODS.items():
            own = {attr for attr, value in vars(getattr(nn, name)).items()
                   if callable(value) and not attr.startswith("__")}
            assert own == methods, name

    def test_paged_kv_cache_names_the_benchmark_times(self):
        from bench.trace import TARGETS  # run from the repo root, like bench/

        timed = {target.attr for target in TARGETS if target.owner == "PagedKVCache"}
        assert timed == {name for name, pinned in PAGED_KV_PUBLIC.items() if pinned}


def test_one_session_names_are_called_only_by_their_own_tests():
    """Item 1b deletes each name with the tests listed for it and nothing
    else: any other call fails here with its file and line."""
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for folder in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            text = path.read_text()
            if not any(name in text for name in ONE_SESSION_NAMES):
                continue
            for scope, name, line in _calls(ast.parse(text)):
                calls.setdefault((path.relative_to(root).as_posix(), scope, name), line)
    stray = [f"{file}:{line} {scope or '<module>'} calls {name}"
             for (file, scope, name), line in calls.items()
             if (file, scope, name) not in ONE_SESSION_CALLS]
    assert not stray, "\n".join(stray)
    assert set(calls) == ONE_SESSION_CALLS  # no stale entry to let a caller in


def test_importing_serve_does_not_import_networkx():
    """``repro.serve`` reaches ``repro.cjs.jobs`` through the CJS client;
    the job-DAG library (a quarter of the import) loads only once a job is
    built.  A fresh interpreter: this process imported it long ago."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run(
        [sys.executable, "-c",
         "import repro.serve, sys; assert 'networkx' not in sys.modules; "
         "from repro.cjs import TPCHLikeJobGenerator; "
         "job = TPCHLikeJobGenerator(seed=0).generate(); "
         "assert job.critical_path_length() > 0 and 'networkx' in sys.modules"],
        check=True, env=env, timeout=60)
