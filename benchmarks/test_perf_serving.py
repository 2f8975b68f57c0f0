"""Serving engine benchmark (BENCH trajectory): paged batched decoding.

Measures the continuous-batching serving engine on a fixed open-loop workload
(N concurrent generation requests submitted at once) across batch sizes 1, 4
and 16.  Batch size 1 is the sequential baseline — the engine degenerates to
one session at a time, which is what the runtime could do before
``repro.serve``.  Reported per batch size: aggregate tokens/s, p50/p95
request latency, queue p95, mean batch occupancy and KV-block occupancy.

Also measures the paged-serving additions:

* **Shared-prefix serving** — a workload whose prompts share a fixed
  instruction preamble, served with the preamble registered in the prefix
  cache (hits reported by ``ServerStats``) versus cold.
* The served decision path: all pending VP requests answered in grouped
  batched adapter forwards versus one-by-one prediction.

* **The long-neighbour tax** — one paged decode step for 15 short sessions,
  for one 512-token session, and for all 16 together.  The paged step attends
  per length group, so the mixed batch must cost about what its two halves
  cost apart, not 16 rows at the long session's width.

Results go to ``benchmarks/results/perf_serving.json`` (each test replaces its
own keys).  Acceptance: batch 16 sustains at least 3x the aggregate token
throughput of batch 1 (exact logit parity between paged batched and
sequential decoding is proven separately in ``tests/test_serve.py``); the
mixed decode step costs at most 1.3x the sum of its halves.
"""

import json
import threading
import time

import numpy as np
import pytest
from conftest import RESULTS_DIR, print_table, save_results

from repro.llm import LanguageModel, LLMConfig, build_llm
from repro.nn import no_grad
from repro.serve import (
    DecisionRequest,
    GenerateRequest,
    InferenceServer,
    SchedulerPolicy,
)

pytestmark = pytest.mark.slow

MODEL = "llama2-7b-sim"
NUM_REQUESTS = 16
NEW_TOKENS = 48
BATCH_SIZES = (1, 4, 16)
REPETITIONS = 3

#: Fixed instruction preamble shared by the prefix-cache workload's prompts.
PREAMBLE = ("you are an adaptive bitrate controller; pick the next chunk "
            "bitrate from the throughput history. ")


#: The long-neighbour workload: 15 short sessions beside one long one, on the
#: llama2-7b-sim shape with room for the long prompt (``bench/spec.py``'s).
SHORT_SESSIONS = 15
SHORT_PROMPT_TOKENS = (24, 56)
LONG_PROMPT_TOKENS = 512
TAX_STEPS = 40
TAX_WARMUP_STEPS = 3
TAX_GATE = 1.3


def _update_results(name: str, payload: dict) -> None:
    """Replace ``payload``'s top-level keys in a results file, keeping the
    keys other tests of this module wrote."""
    path = RESULTS_DIR / f"{name}.json"
    merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    merged.update(payload)
    save_results(name, merged)


def _paged_sessions(model, prompt_lengths, seed: int):
    """A paged cache holding one prefilled session per prompt length."""
    rng = np.random.default_rng(seed)
    paged = model.init_paged_cache(max_sessions=len(prompt_lengths))
    ids = []
    for length in prompt_lengths:
        cache = model.init_cache()
        model.forward_incremental(
            rng.integers(0, model.tokenizer.vocab_size, size=(1, length)), cache)
        ids.append(paged.admit(cache))
    return paged, np.asarray(ids, dtype=np.int64)


def test_perf_serving_long_neighbour_tax():
    """A short session must not pay for its longest neighbour's width.

    Three pools decode in lockstep, one step each per repetition (so all
    three see the same lengths and the same machine noise): the 15 short
    sessions alone, the long session alone, and all 16 in one batch.  Gate
    on the median over repetitions of ``t(all) / (t(short) + t(long))``.
    """
    model = LanguageModel(LLMConfig(name="tax-7b-sim", family="test", d_model=64,
                                    num_layers=3, num_heads=4, max_seq_len=640),
                          seed=0).eval()
    rng = np.random.default_rng(0)
    short = rng.integers(*SHORT_PROMPT_TOKENS, size=SHORT_SESSIONS).tolist()
    seconds = {"short": [], "long": [], "all": []}
    with no_grad():
        pools = {"short": _paged_sessions(model, short, seed=1),
                 "long": _paged_sessions(model, [LONG_PROMPT_TOKENS], seed=2),
                 "all": _paged_sessions(model, short + [LONG_PROMPT_TOKENS], seed=3)}
        for step in range(-TAX_WARMUP_STEPS, TAX_STEPS):  # warm-up untimed
            for name, (paged, ids) in pools.items():
                tokens = rng.integers(0, model.tokenizer.vocab_size, size=len(ids))
                start = time.perf_counter()
                model.forward_step(tokens, paged, ids)
                if step >= 0:
                    seconds[name].append(time.perf_counter() - start)
    apart = np.asarray(seconds["short"]) + np.asarray(seconds["long"])
    ratios = np.asarray(seconds["all"]) / apart
    q1, tax, q3 = np.percentile(ratios, [25, 50, 75])
    paged = pools["all"][0]
    padding = 1.0 - paged.key_positions_live / paged.key_positions_gathered
    print_table(f"Long-neighbour tax ({SHORT_SESSIONS} short sessions + one "
                f"{LONG_PROMPT_TOKENS}-token session, {TAX_STEPS} steps)", [
        {"batch": name, "step_ms_p50": float(np.median(values)) * 1e3,
         "step_ms_iqr": float(np.subtract(*np.percentile(values, [75, 25]))) * 1e3}
        for name, values in seconds.items()])
    print(f"Mixed step costs {tax:.2f}x its halves apart "
          f"(quartiles {q1:.2f}..{q3:.2f}); padding share {padding:.3f}.")
    _update_results("perf_serving", {"long_neighbour": {
        "short_sessions": SHORT_SESSIONS,
        "long_prompt_tokens": LONG_PROMPT_TOKENS,
        "steps": TAX_STEPS,
        "step_ms_p50": {name: float(np.median(values)) * 1e3
                        for name, values in seconds.items()},
        "tax_ratio": float(tax),
        "tax_ratio_q1": float(q1),
        "tax_ratio_q3": float(q3),
        "kv_padding_share": float(padding),
        "attention_groups_per_step": (paged.attention_groups
                                      / (TAX_STEPS + TAX_WARMUP_STEPS)),
    }})
    assert tax <= TAX_GATE, (
        f"a mixed decode step costs {tax:.2f}x its short and long halves "
        f"apart (gate {TAX_GATE}x)")


def _serve_workload(model, batch_size: int):
    """Serve the fixed workload once; return (tokens/s, ServerStats)."""
    prompts = [f"session {i}: bitrate for next chunk given throughput {i % 7}.{i % 10}"
               for i in range(NUM_REQUESTS)]
    server = InferenceServer(model, SchedulerPolicy(max_batch_size=batch_size))
    start = time.perf_counter()
    handles = [server.submit_generation(prompt, max_new_tokens=NEW_TOKENS,
                             stop_on_eos=False) for prompt in prompts]
    server.run_until_idle()
    wall = time.perf_counter() - start
    tokens = sum(len(handle.result().token_ids) for handle in handles)
    assert tokens == NUM_REQUESTS * NEW_TOKENS
    return tokens / wall, server.stats()


def _serve_streaming_workload(model, stream: bool) -> float:
    """Serve the fixed workload on a background loop; return tokens/s.

    With ``stream`` every request is consumed token by token from its own
    client thread (16 concurrent ``handle.stream()`` consumers) — the
    overhead being measured is the per-token queue hand-off versus simply
    blocking in ``handle.result()``.
    """
    prompts = [f"session {i}: bitrate for next chunk given throughput {i % 7}.{i % 10}"
               for i in range(NUM_REQUESTS)]
    server = InferenceServer(model, SchedulerPolicy(max_batch_size=NUM_REQUESTS))
    pieces = {}

    def consume(index, handle):
        pieces[index] = sum(1 for _ in handle.stream(timeout=120))

    with server:
        start = time.perf_counter()
        handles = [server.submit(GenerateRequest(prompt=prompt,
                                                 max_new_tokens=NEW_TOKENS,
                                                 stop_on_eos=False,
                                                 stream=stream))
                   for prompt in prompts]
        if stream:
            consumers = [threading.Thread(target=consume, args=(i, handle))
                         for i, handle in enumerate(handles)]
            for consumer in consumers:
                consumer.start()
            for consumer in consumers:
                consumer.join()
        results = [handle.result(timeout=120) for handle in handles]
        wall = time.perf_counter() - start
    tokens = sum(len(result.token_ids) for result in results)
    assert tokens == NUM_REQUESTS * NEW_TOKENS
    if stream:  # every committed token reached its consumer
        assert pieces == {i: len(results[i].token_ids) for i in range(NUM_REQUESTS)}
    return tokens / wall


def _serve_prefix_workload(model, register: bool):
    """Serve 16 shared-preamble requests; return (wall_seconds, ServerStats)."""
    prompts = [f"{PREAMBLE}history {i % 7}.{i % 10} {i % 5}.{(i * 3) % 10}"
               for i in range(NUM_REQUESTS)]
    server = InferenceServer(model, SchedulerPolicy(max_batch_size=NUM_REQUESTS))
    if register:
        server.register_prefix(PREAMBLE)
    start = time.perf_counter()
    handles = [server.submit_generation(prompt, max_new_tokens=8,
                             stop_on_eos=False) for prompt in prompts]
    server.run_until_idle()
    wall = time.perf_counter() - start
    for handle in handles:
        handle.result()
    return wall, server.stats()


def test_perf_serving_continuous_batching():
    model = build_llm(MODEL, lora_rank=0, pretrained=False, seed=0)
    # Warm up numpy/BLAS and the mask/position caches before timing.
    _serve_workload(model, BATCH_SIZES[-1])

    rows = []
    results = {}
    for batch_size in BATCH_SIZES:
        best_tps, best_stats = 0.0, None
        for _ in range(REPETITIONS):  # best-of: robust to GC/CI load spikes
            tps, stats = _serve_workload(model, batch_size)
            if tps > best_tps:
                best_tps, best_stats = tps, stats
        rows.append({
            "batch_size": batch_size,
            "tokens_per_s": best_tps,
            "latency_p50_ms": best_stats.latency_p50_s * 1e3,
            "latency_p95_ms": best_stats.latency_p95_s * 1e3,
            "queue_p95_ms": best_stats.queue_p95_s * 1e3,
            "occupancy": best_stats.mean_batch_occupancy,
        })
        # Measured best_tps LAST so it wins over the engine-internal
        # tokens_per_second key inside report().
        results[str(batch_size)] = {
            **best_stats.report(),
            "tokens_per_second": best_tps,
        }

    by_batch = {row["batch_size"]: row for row in rows}
    speedup = by_batch[16]["tokens_per_s"] / by_batch[1]["tokens_per_s"]
    print_table(
        f"Serving engine ({MODEL}, {NUM_REQUESTS} requests x {NEW_TOKENS} tokens)", rows)
    print(f"Aggregate throughput at batch 16: {speedup:.2f}x the sequential engine.")

    # --- Shared-prefix serving ------------------------------------------- #
    cold_wall = warm_wall = None
    warm_stats = None
    for _ in range(REPETITIONS):
        cold, _ = _serve_prefix_workload(model, register=False)
        warm, stats = _serve_prefix_workload(model, register=True)
        if cold_wall is None or cold < cold_wall:
            cold_wall = cold
        if warm_wall is None or warm < warm_wall:
            warm_wall, warm_stats = warm, stats
    assert warm_stats.prefix_hits == NUM_REQUESTS
    assert warm_stats.prefix_tokens_reused > 0
    print_table(f"Shared-prefix serving ({NUM_REQUESTS} shared-head requests)", [
        {"mode": "cold (no prefix cache)", "wall_s": cold_wall},
        {"mode": "warm (registered head)", "wall_s": warm_wall,
         "hits": warm_stats.prefix_hits,
         "tokens_reused": warm_stats.prefix_tokens_reused},
    ])

    # --- Streaming-consumer overhead ------------------------------------- #
    # The ~1.0 expected ratio leaves the least headroom of the gates, so on
    # top of best-of-N this measurement may take extra repetitions when a CI
    # load spike lands in the streaming run but not the plain one.
    stream_tps = plain_tps = 0.0
    for attempt in range(2 * REPETITIONS):
        plain_tps = max(plain_tps, _serve_streaming_workload(model, stream=False))
        stream_tps = max(stream_tps, _serve_streaming_workload(model, stream=True))
        if attempt >= REPETITIONS - 1 and stream_tps >= 0.9 * plain_tps:
            break
    stream_ratio = stream_tps / plain_tps
    print_table(f"Streaming overhead ({NUM_REQUESTS} background-loop consumers)", [
        {"mode": "result() only", "tokens_per_s": plain_tps},
        {"mode": f"{NUM_REQUESTS} stream() consumers", "tokens_per_s": stream_tps},
    ])
    print(f"Streaming consumers sustain {stream_ratio:.2f}x the non-streaming "
          f"aggregate throughput.")

    _update_results("perf_serving", {
        "model": MODEL,
        "num_requests": NUM_REQUESTS,
        "new_tokens": NEW_TOKENS,
        "batch_sizes": list(BATCH_SIZES),
        "per_batch_size": results,
        "speedup_batch16_vs_batch1": speedup,
        "shared_prefix": {
            "preamble_chars": len(PREAMBLE),
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "speedup": cold_wall / warm_wall,
            "stats": warm_stats.report(),
        },
        "streaming": {
            "consumers": NUM_REQUESTS,
            "non_streaming_tokens_per_s": plain_tps,
            "streaming_tokens_per_s": stream_tps,
            "ratio": stream_ratio,
        },
    })

    # Acceptance: continuous batching at 16 slots beats sequential serving
    # by at least 3x aggregate tokens/s (ISSUE 2 acceptance criterion).
    # Streaming hand-off must stay cheap: 16 concurrent stream() consumers
    # sustain at least 0.9x the non-streaming aggregate throughput (ISSUE 4
    # acceptance criterion).
    assert speedup >= 3.0, (
        f"batch-16 serving is only {speedup:.2f}x the sequential engine")
    assert stream_ratio >= 0.9, (
        f"streaming consumers reach only {stream_ratio:.2f}x the "
        f"non-streaming throughput")


def test_perf_serving_decision_batching(vp_netllm, vp_bench_data):
    """Served (one packed group) VP decision requests vs one-by-one
    prediction, with equal histories and with histories of mixed length
    (viewers at different warm-up depths share the same forward)."""
    import dataclasses

    import numpy as np

    adapter = vp_netllm.adapter
    equal = vp_bench_data["default"]["test"][:64]
    steps = len(equal[0].history)
    mixed = [dataclasses.replace(sample, history=sample.history[-(2 + i % (steps - 1)):])
             for i, sample in enumerate(equal)]

    rows, results = [], {}
    for label, samples in (("equal histories", equal), ("mixed histories", mixed)):
        start = time.perf_counter()
        direct = [adapter.predict(sample) for sample in samples]
        direct_seconds = time.perf_counter() - start

        server = InferenceServer(adapters={"vp": adapter})
        start = time.perf_counter()
        handles = [server.submit(DecisionRequest(task="vp", payload=sample))
                   for sample in samples]
        server.run_until_idle()
        served = [handle.result().viewport for handle in handles]
        served_seconds = time.perf_counter() - start

        for one, other in zip(direct, served):
            np.testing.assert_allclose(one, other, atol=1e-9, rtol=0)
        occupancy = server.stats().mean_batch_occupancy
        assert occupancy == len(samples)  # one group, whatever the lengths
        rows += [
            {"path": f"one-by-one predict, {label}", "seconds": direct_seconds,
             "requests_per_s": len(samples) / direct_seconds},
            {"path": f"served (batched), {label}", "seconds": served_seconds,
             "requests_per_s": len(samples) / served_seconds},
        ]
        results[label] = {"direct_seconds": direct_seconds,
                          "served_seconds": served_seconds,
                          "speedup": direct_seconds / served_seconds,
                          "mean_batch_occupancy": occupancy}
        # Batched adapter forwards must not be slower than one-by-one.
        assert served_seconds <= direct_seconds
    print_table("VP decision serving (64 requests)", rows)
    save_results("perf_serving_decisions", {
        "num_requests": len(equal),
        **results["equal histories"],
        "mixed_histories": {"history_steps": [2, steps], **results["mixed histories"]},
    })
