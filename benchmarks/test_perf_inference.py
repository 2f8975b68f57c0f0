"""Inference fast-path A/B (fast lane): tokens/sec and forward latency.

Quantifies the three knobs added by the inference fast path, each against
the same build with the knob off (``bench/`` drives only the served path, so
this is the one perf check of non-served ``generate()``):

* **KV-cache decoding** — autoregressive tokens/sec with the cached
  single-token path (one session of a paged pool) versus the full-window
  forward recomputed per token (the seed behaviour, and the parity
  reference).  Acceptance: the cached path is at least 2.5x faster; its
  logits stay within the parity policy's bound of the reference
  (``docs/paged_kv.md``), checked by ``tests/test_nn_inference.py``.
* **no_grad** — full-forward latency with autograd recording on versus off
  (reported, not gated).
* **float32** — full-forward latency at float64 (default) versus float32
  (reported, not gated).

Measurements go to ``benchmarks/measured/perf_inference.json``.
"""

import contextlib
import time

import numpy as np
from conftest import paired, ratio_of_medians, save_measured

from repro.llm import build_llm, generate
from repro.nn import no_grad, set_default_dtype

MODEL = "llama2-7b-sim"
PROMPT = "bitrate for next chunk:"
NEW_TOKENS = 96
FORWARD_WINDOW = 128
PAIRS = 5


def _decode_tokens_per_s(model, use_cache: bool) -> float:
    result = generate(model, PROMPT, max_new_tokens=NEW_TOKENS, stop_on_eos=False,
                      use_cache=use_cache)
    return len(result.token_ids) / result.elapsed_seconds


def _forward_ms(model, ids: np.ndarray, grad: bool = False) -> float:
    with contextlib.nullcontext() if grad else no_grad():
        start = time.perf_counter()
        model.forward_tokens(ids)
        return (time.perf_counter() - start) * 1e3


def test_perf_inference_fast_path():
    model = build_llm(MODEL, lora_rank=0, pretrained=False, seed=0)
    ids = np.random.default_rng(0).integers(0, model.tokenizer.vocab_size,
                                            size=(1, FORWARD_WINDOW))
    previous = set_default_dtype(np.float32)
    try:  # the same model built under the float32 default
        model32 = build_llm(MODEL, lora_rank=0, pretrained=False, seed=0)
    finally:
        set_default_dtype(previous)

    # Warm up numpy/BLAS and the mask/position caches before timing.
    _forward_ms(model, ids)
    _forward_ms(model32, ids)

    title = f"{MODEL}, {NEW_TOKENS} tokens decoded"
    full, cached = paired(lambda: _decode_tokens_per_s(model, use_cache=False),
                          lambda: _decode_tokens_per_s(model, use_cache=True),
                          PAIRS)
    kv_speedup = ratio_of_medians(f"KV-cache vs full-window decode ({title})",
                                  "tok/s", full_window=full, kv_cache=cached)

    title = f"{MODEL}, one {FORWARD_WINDOW}-token forward"
    grad, nograd = paired(lambda: _forward_ms(model, ids, grad=True),
                          lambda: _forward_ms(model, ids), PAIRS)
    nograd_ratio = ratio_of_medians(f"no_grad vs grad ({title})", "ms",
                                    grad=grad, no_grad=nograd)
    f64, f32 = paired(lambda: _forward_ms(model, ids),
                      lambda: _forward_ms(model32, ids), PAIRS)
    f32_ratio = ratio_of_medians(f"float32 vs float64, no_grad ({title})", "ms",
                                 float64=f64, float32=f32)

    save_measured("perf_inference", {
        "model": MODEL,
        "new_tokens": NEW_TOKENS,
        "forward_window": FORWARD_WINDOW,
        "tokens_per_second": {"full_window": full, "kv_cache": cached},
        "forward_ms": {"grad": grad, "no_grad": nograd,
                       "float64": f64, "float32": f32},
        "ratio_of_medians": {"kv_cache_vs_full": kv_speedup,
                             "no_grad_vs_grad": nograd_ratio,
                             "float32_vs_float64": f32_ratio},
    })

    # Acceptance: KV-cache decoding clearly beats the full-window path.
    # 2.5x, not 3.0x: PR 2's gelu x*x*x fix made the full-window *baseline*
    # ~2x faster, compressing this ratio (6-9x isolated, ~3x under CI load).
    assert kv_speedup >= 2.5, (
        f"KV-cache decoding is only {kv_speedup:.2f}x the full-window path")
