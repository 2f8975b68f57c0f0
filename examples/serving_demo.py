#!/usr/bin/env python3
"""Serving demo: mixed VP / ABR / CJS traffic through one inference engine.

The NetLLM deployment story is many simultaneous sessions each issuing small
per-step decisions.  This demo adapts a (tiny) foundation model for all three
tasks, starts one :class:`repro.serve.InferenceServer`, and drives mixed
traffic through it from three concurrent client threads:

* a VP client submitting a burst of viewport predictions,
* an ABR client streaming several video sessions in lockstep,
* a CJS client scheduling a cluster workload event by event,

plus the typed request lifecycle the engine exposes:

* a batch of high-priority generation sessions decoded with continuous
  batching over the shared KV cache,
* a **streaming** client consuming one session token by token
  (``GenerateRequest(stream=True)`` + ``handle.stream()``),
* a request that gets **cancelled** mid-flight (its KV blocks return to the
  pool immediately) and one submitted with a too-tight **deadline**,
* a **custom task runtime** registered at runtime (``register_task``) —
  a novel decision task served without touching the engine,
* a **long prompt** admitted via **chunked prefill**
  (``SchedulerPolicy.prefill_chunk_size`` / ``step_token_budget``): short
  requests submitted *behind* it stream their first tokens while the long
  prompt is still prefilling chunk by chunk — no head-of-line stall,
* **speculative decoding** (``SchedulerPolicy(speculation="ngram")``, see
  ``docs/speculative.md``): a templated prompt decoded twice — sequential
  vs draft-and-verify — printing the acceptance rate and speedup at
  token-identical output.

At the end the engine's stats report shows batch occupancy, queue depth,
per-priority tail latency and the cancelled/expired counts across the load,
and the **flight recorder** (``server.telemetry``, see
``docs/observability.md``) explains the long prompt's TTFT — naming the
steps, co-batched sessions and prefill chunks that covered it.

Run:  python examples/serving_demo.py   (~1-2 minutes on a laptop CPU)
Set ``REPRO_TRACE=<path>`` to dump the full step trace as JSONL.
"""

from __future__ import annotations

import os
import threading
import time

from repro.abr import ABR_SETTINGS, build_setting
from repro.cjs import CJS_SETTINGS, build_workload, run_workload
from repro.core import adapt_abr, adapt_cjs, adapt_vp, build_inference_server
from repro.llm import build_llm
from repro.serve import (
    DeadlineExceeded,
    DecisionRequest,
    GenerateRequest,
    InferenceServer,
    LockstepABRDriver,
    RequestCancelled,
    SchedulerPolicy,
    ServedCJSScheduler,
)
from repro.vp import VP_SETTINGS, ViewportDataset


class WordCountRuntime:
    """A novel decision task: count words in a prompt, batched.

    Nothing here touches the engine — implementing ``group_key`` /
    ``execute_batch`` and registering the instance is the whole integration.
    """

    def group_key(self, request):
        return ()  # every request is batch-compatible

    def execute_batch(self, requests):
        return [len(str(request.payload).split()) for request in requests]


def build_artifacts():
    """Adapt the tiny foundation model for all three tasks (quick settings)."""
    print("Adapting the foundation model for VP / ABR / CJS (tiny scale)...")
    start = time.time()

    vp_setting = VP_SETTINGS["default_test"]
    dataset = ViewportDataset("jin2022", seed=0, num_videos=2, num_viewers=4,
                              video_seconds=30.0)
    train_traces, _, test_traces = dataset.split_traces(seed=0)
    vp_train = dataset.windows_from_traces(train_traces, vp_setting, stride_steps=5)
    vp_test = dataset.windows_from_traces(test_traces, vp_setting, stride_steps=10)
    vp = adapt_vp(vp_train, vp_setting.prediction_steps,
                  llm=build_llm("tiny-test", lora_rank=4, pretrained=True,
                                pretrain_steps=25, seed=0),
                  iterations=60, seed=0)

    video, abr_traces = build_setting(ABR_SETTINGS["default_train"], num_traces=4,
                                      num_chunks=16, trace_duration=150.0, seed=0)
    abr = adapt_abr(video, abr_traces,
                    llm=build_llm("tiny-test", lora_rank=4, pretrained=True,
                                  pretrain_steps=25, seed=1),
                    iterations=60, seed=0)

    cjs_jobs, executors = build_workload(CJS_SETTINGS["default_train"], seed=3)
    cjs_workloads = [cjs_jobs[:8]]
    cjs = adapt_cjs(cjs_workloads, executors,
                    llm=build_llm("tiny-test", lora_rank=4, pretrained=True,
                                  pretrain_steps=25, seed=2),
                    iterations=60, seed=0)
    print(f"...adapted all three in {time.time() - start:.1f}s")
    return (vp, vp_test), (abr, video, abr_traces), (cjs, cjs_workloads, executors)


def main() -> None:
    (vp, vp_test), (abr, video, abr_traces), (cjs, cjs_workloads, executors) = \
        build_artifacts()

    # One engine serves everything: generation sessions plus the three task
    # adapters.  The generation model is the VP adaptation's backbone (any of
    # the three would do — they share the same frozen foundation model).
    # Chunked prefill: long prompts are admitted <=16 tokens per engine step
    # within a 24-token step budget, so decode traffic never stalls behind
    # one big prefill.
    server = build_inference_server(model=vp.llm, vp=vp, abr=abr, cjs=cjs,
                                    policy=SchedulerPolicy(
                                        max_batch_size=8,
                                        prefill_chunk_size=16,
                                        step_token_budget=24))

    server.register_task("wordcount", WordCountRuntime())

    outcomes = {}

    def vp_client():
        handles = [server.submit(DecisionRequest(task="vp", payload=sample))
                   for sample in vp_test[:40]]
        outcomes["vp"] = len([h.result(timeout=120) for h in handles])

    def abr_client():
        driver = LockstepABRDriver(server, abr.adapter, abr.pool)
        sessions = driver.run(video, abr_traces[:3], seed=0)
        outcomes["abr"] = [round(s.qoe(), 3) for s in sessions]

    def cjs_client():
        scheduler = ServedCJSScheduler(server, cjs.adapter, cjs.pool)
        outcome = run_workload(scheduler, cjs_workloads[0], executors)
        outcomes["cjs"] = round(outcome.average_jct, 2)

    print("\nStarting the engine and three client threads + a generation burst...")
    start = time.time()
    with server:  # background serve loop
        generation_handles = [
            server.submit(GenerateRequest(
                prompt=f"viewer {i} joined, prefetch plan:", max_new_tokens=24,
                stop_on_eos=False, seed=i, priority=1))
            for i in range(12)
        ]
        # A streaming consumer: tokens arrive as decode steps commit them.
        streaming = server.submit(GenerateRequest(
            prompt="live captions for viewer 0:", max_new_tokens=24,
            stop_on_eos=False, stream=True, priority=2))
        # A request we abandon mid-flight (frees its KV blocks immediately)
        # and one whose deadline cannot be met.
        doomed = server.submit(GenerateRequest(
            prompt="speculative prefetch plan:", max_new_tokens=400,
            stop_on_eos=False))
        hopeless = server.submit(GenerateRequest(
            prompt="instant answer needed:", max_new_tokens=400,
            stop_on_eos=False, deadline_s=0.001))
        # The novel registered task rides the same engine.
        wordcounts = [server.submit(DecisionRequest(task="wordcount", payload=p))
                      for p in ("count these words", "two words")]

        threads = [threading.Thread(target=fn)
                   for fn in (vp_client, abr_client, cjs_client)]
        for thread in threads:
            thread.start()
        streamed_pieces = list(streaming.stream(timeout=120))
        time.sleep(0.05)
        doomed.cancel()
        for thread in threads:
            thread.join()
        # Chunked prefill in action: the long prompt is submitted FIRST, the
        # quick requests right behind it — yet their first tokens arrive
        # while the long prompt is still prefilling in 16-token chunks.
        long_prompt = ("chunked prefill sizing study: "
                       + "telemetry 1.23 4.56 7.89; " * 5)
        long_handle = server.submit(GenerateRequest(
            prompt=long_prompt, max_new_tokens=12, stop_on_eos=False))
        quick_handles = [server.submit(GenerateRequest(
            prompt=f"quick reply {i}:", max_new_tokens=6, stop_on_eos=False))
            for i in range(3)]
        generations = [handle.result(timeout=120) for handle in generation_handles]
        try:
            hopeless.result(timeout=120)
            expiry = "no"
        except DeadlineExceeded:
            expiry = "yes"
        try:
            doomed.result(timeout=120)
            cancel_outcome = "completed before the cancel"
        except RequestCancelled:
            cancel_outcome = "cancelled, blocks reclaimed"
        counts = [handle.result(timeout=120) for handle in wordcounts]
        long_result = long_handle.result(timeout=120)
        for handle in quick_handles:
            handle.result(timeout=120)
    wall = time.time() - start

    assert "".join(streamed_pieces) == streaming.result().text  # exact stream
    long_ttft = long_handle.metrics.ttft_s
    quick_ttfts = [handle.metrics.ttft_s for handle in quick_handles]
    overtook = sum(ttft < long_ttft for ttft in quick_ttfts)

    print(f"Served the mixed workload in {wall:.1f}s")
    print(f"  VP predictions answered: {outcomes['vp']}")
    print(f"  ABR per-session QoE:     {outcomes['abr']}")
    print(f"  CJS average JCT:         {outcomes['cjs']}")
    print(f"  Generated tokens:        {sum(len(g.token_ids) for g in generations)}")
    print(f"  Streamed tokens:         {len(streamed_pieces)} "
          f"(text == result: True)")
    print(f"  Cancelled request:       {cancel_outcome}")
    print(f"  Deadline expired:        {expiry}")
    print(f"  wordcount task answers:  {counts}")
    print(f"  Chunked prefill:         {len(long_prompt)}-char prompt "
          f"(ttft {long_ttft * 1e3:.0f} ms, {len(long_result.token_ids)} "
          f"tokens); {overtook}/{len(quick_handles)} later quick requests "
          f"got their first token while it was still prefilling")

    stats = server.stats()
    print("\nEngine stats:")
    for key, value in stats.report().items():
        if key == "telemetry":
            value = (f"{value['steps_recorded']} steps recorded "
                     f"across {len(value['windows'])} windows")
        print(f"  {key:>22}: {value}")

    # Flight recorder: attribute the chunked long prompt's TTFT to the
    # engine steps (and co-batched traffic) that covered it.
    explanation = server.explain_request(long_handle.metrics.request_id)
    ttft = explanation.ttft
    print(f"\nFlight-recorder verdict for request "
          f"{explanation.request_id} (the long prompt):")
    own_chunks = [tokens for record in ttft.steps
                  for sid, tokens in record.prefill_chunks
                  if sid == explanation.request_id]
    print(f"  ttft {explanation.ttft_s * 1e3:.0f} ms across "
          f"{len(ttft.steps)} engine steps; its own prefill chunks: "
          f"{own_chunks}")
    culprit = ttft.culprit
    print(f"  culprit step seq={culprit.seq}: "
          f"{culprit.prefill_tokens} prefill tokens, "
          f"{culprit.decode_tokens} decode tokens; "
          f"{len(ttft.co_sessions)} co-batched decoders over the gap")

    trace_path = os.environ.get("REPRO_TRACE")
    if trace_path:
        count = server.telemetry.export_jsonl(trace_path)
        print(f"\nWrote {count} step records to {trace_path} "
              f"(REPRO_TRACE)")

    speculative_showcase(vp.llm)


def speculative_showcase(model) -> None:
    """Decode one templated stream twice — sequential, then speculative.

    ``SchedulerPolicy(speculation="ngram")`` drafts multi-token
    continuations out of the session's own history and verifies them in one
    ragged forward (see ``docs/speculative.md``); the output is
    token-identical, only the forward count changes.
    """
    prompt = "bitrate 4500 buffer 3.2 throughput 41; " * 4
    timings, streams, stats = {}, {}, None
    for mode in ("ngram", "off"):  # speculative first doubles as warm-up
        best = None
        for _ in range(2):
            server = InferenceServer(model, SchedulerPolicy(
                max_batch_size=4, speculation=mode, speculation_k=8))
            handle = server.submit(GenerateRequest(
                prompt=prompt, max_new_tokens=160, temperature=0.0,
                stop_on_eos=False))
            start = time.time()
            server.run_until_idle()
            wall = time.time() - start
            best = wall if best is None else min(best, wall)
            streams[mode] = handle.result().token_ids
            if mode == "ngram":
                stats = server.stats()
        timings[mode] = best
    assert streams["ngram"] == streams["off"]  # token-exact, always
    print("\nSpeculative decode (SchedulerPolicy(speculation='ngram')):")
    print(f"  drafted {stats.tokens_drafted} tokens, accepted "
          f"{stats.tokens_accepted} "
          f"(acceptance rate {stats.acceptance_rate:.2f})")
    print(f"  {timings['off'] / timings['ngram']:.2f}x sequential decode "
          f"speed on a templated prompt; outputs token-identical")


if __name__ == "__main__":
    main()
