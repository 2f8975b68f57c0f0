"""Serving tail-latency benchmark (BENCH trajectory): chunked prefill.

Measures what the unified token-budget step scheduler exists to fix: a long
prompt arriving while short sessions are mid-decode.  With one-shot prefill
the whole 512-token prompt runs in a single engine step, so every in-flight
session's inter-token latency (ITL) spikes by the full prefill wall time —
the head-of-line stall.  With ``SchedulerPolicy.prefill_chunk_size`` the
prompt is admitted across many steps, each bounded by
``step_token_budget``, so in-flight ITL stays near the plain decode step
time while aggregate throughput is preserved.

Workload: ``NUM_SHORT`` short generation sessions decode concurrently; once
they are warmed up, one ``LONG_PROMPT_TOKENS``-token prompt arrives
mid-stream.  Reported per mode (one-shot vs chunked): the short sessions'
ITL p50/p95, the long prompt's TTFT, and aggregate tokens/s.  Measurements
go to ``benchmarks/measured/perf_serving_latency.json``.

Acceptance (ISSUE 5): chunked prefill cuts the in-flight sessions' ITL p95
to <= 0.5x the one-shot baseline while keeping aggregate throughput >= 0.9x,
each as a ratio of medians over alternating pairs.  ``bench/`` cannot express
it: its policy is fixed per workload, and this compares two policies.
"""

import time

import pytest
from conftest import assert_fault_free, paired, ratio_of_medians, save_measured

from repro.llm import LanguageModel
from repro.llm.config import LLMConfig
from repro.serve import GenerateRequest, InferenceServer, SchedulerPolicy
from repro.utils import percentile

pytestmark = pytest.mark.slow

#: Context large enough for the 512-token prompt plus decode room; the
#: model otherwise matches the llama2-7b-sim stand-in's shape.
CONFIG = LLMConfig(name="latency-bench", family="test", d_model=64,
                   num_layers=3, num_heads=4, max_seq_len=640)

NUM_SHORT = 6
SHORT_TOKENS = 14          # tokens per short session (13 ITL samples each)
LONG_PROMPT_TOKENS = 512   # prompt tokens of the mid-stream arrival
LONG_NEW_TOKENS = 16
WARMUP_STEPS = 4           # decode steps before the long prompt arrives
PREFILL_CHUNK = 32
STEP_TOKEN_BUDGET = 48
PAIRS = 7


def _policy(chunked: bool) -> SchedulerPolicy:
    return SchedulerPolicy(
        max_batch_size=NUM_SHORT + 2, max_context=640, block_size=16,
        enable_prefix_cache=False,
        prefill_chunk_size=PREFILL_CHUNK if chunked else None,
        step_token_budget=STEP_TOKEN_BUDGET if chunked else None)


def _run_mixed_workload(model, chunked: bool):
    """Serve the mixed workload once; return a dict of measurements."""
    server = InferenceServer(model, _policy(chunked))
    start = time.perf_counter()
    shorts = [server.submit(GenerateRequest(
        prompt=f"viewer {i} bitrate:", max_new_tokens=SHORT_TOKENS,
        stop_on_eos=False)) for i in range(NUM_SHORT)]
    for _ in range(WARMUP_STEPS):
        server.step()
    # The long prompt lands while every short session is mid-decode.
    long_handle = server.submit(GenerateRequest(
        prompt="h" * (LONG_PROMPT_TOKENS - 1),  # BOS brings it to 512 tokens
        max_new_tokens=LONG_NEW_TOKENS, stop_on_eos=False))
    server.run_until_idle()
    wall = time.perf_counter() - start

    tokens = sum(len(h.result().token_ids) for h in shorts)
    tokens += len(long_handle.result().token_ids)
    itl = [gap for h in shorts for gap in h.metrics.inter_token_seconds]
    assert len(itl) == NUM_SHORT * (SHORT_TOKENS - 1)
    assert_fault_free(server)
    return {
        "itl_p50_ms": percentile(itl, 50) * 1e3,
        "itl_p95_ms": percentile(itl, 95) * 1e3,
        "long_ttft_ms": long_handle.metrics.ttft_s * 1e3,
        "tokens_per_s": tokens / wall,
    }


def test_perf_serving_latency_chunked_prefill():
    model = LanguageModel(CONFIG, seed=0)
    _run_mixed_workload(model, chunked=True)  # warm numpy/BLAS + caches

    one_shot, chunked = paired(lambda: _run_mixed_workload(model, chunked=False),
                               lambda: _run_mixed_workload(model, chunked=True),
                               PAIRS)
    title = (f"{NUM_SHORT} decodes + one {LONG_PROMPT_TOKENS}-token prompt "
             f"mid-stream")
    ratios = {
        key: ratio_of_medians(f"{title}: {key}", unit,
                              one_shot=[run[key] for run in one_shot],
                              chunked=[run[key] for run in chunked])
        for key, unit in (("itl_p95_ms", "ms"), ("tokens_per_s", "tok/s"),
                          ("itl_p50_ms", "ms"), ("long_ttft_ms", "ms"))}
    save_measured("perf_serving_latency", {
        "model": CONFIG.name,
        "num_short": NUM_SHORT,
        "short_tokens": SHORT_TOKENS,
        "long_prompt_tokens": LONG_PROMPT_TOKENS,
        "prefill_chunk_size": PREFILL_CHUNK,
        "step_token_budget": STEP_TOKEN_BUDGET,
        "one_shot": one_shot,
        "chunked": chunked,
        "ratio_of_medians": ratios,
    })

    assert ratios["itl_p95_ms"] <= 0.5, (
        f"chunked prefill only cuts in-flight ITL p95 to "
        f"{ratios['itl_p95_ms']:.2f}x the one-shot baseline (gate 0.5x)")
    assert ratios["tokens_per_s"] >= 0.9, (
        f"chunked prefill drops aggregate throughput to "
        f"{ratios['tokens_per_s']:.2f}x one-shot (gate 0.9x)")
