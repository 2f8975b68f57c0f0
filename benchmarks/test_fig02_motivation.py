"""Figure 2 — why natural alternatives fall short (VP task).

Three panels are reproduced:

* *left*: MAE of prompt-learning-adapted LLM vs the NetLLM multimodal-encoder
  pipeline (and the TRACK baseline for reference) — prompt learning should be
  the worst of the learned approaches;
* *middle*: fraction of valid answers under token-based generation vs the
  networking head (always 100%);
* *right*: average per-answer generation time of token-based generation vs
  the single-inference networking head.

Paper-expected shape: prompt learning > TRACK > NetLLM in MAE; token
prediction < 100% valid and misses the 1-second response deadline; NetLLM is
100% valid and orders of magnitude faster.
"""

import numpy as np
from conftest import print_table, save_measured

from repro.core import PromptLearningVP
from repro.llm import build_llm
from repro.vp import VP_SETTINGS, ViewportDataset, evaluate_predictor, train_track
import pytest

pytestmark = pytest.mark.slow

#: Figure 2 uses hw = pw = 1 second (§A.1).
HISTORY_SECONDS = 1.0
PREDICTION_SECONDS = 1.0


def test_fig02_prompt_learning_vs_netllm(benchmark, scale):
    from repro.vp.task import VPSetting
    from repro.core import adapt_vp

    setting = VPSetting("fig2", "jin2022", HISTORY_SECONDS, PREDICTION_SECONDS)
    dataset = ViewportDataset("jin2022", seed=0, num_videos=scale.vp_videos,
                              num_viewers=scale.vp_viewers, video_seconds=scale.vp_seconds)
    train_traces, _, test_traces = dataset.split_traces(seed=0)
    train = dataset.windows_from_traces(train_traces, setting, stride_steps=5)
    test = dataset.windows_from_traces(test_traces, setting, stride_steps=25,
                                       max_samples=24, seed=1)

    # --- Prompt learning + token-based generation (the "natural" approach) --
    lm = build_llm("llama2-7b-sim", lora_rank=0, pretrained=True,
                   pretrain_steps=scale.pretrain_steps, seed=0)
    prompt_vp = PromptLearningVP(lm, prediction_steps=setting.prediction_steps, seed=0)
    prompt_vp.fine_tune(train[:200], iterations=60, batch_size=4)
    prompt_result = prompt_vp.evaluate(test, max_new_tokens=90)

    # --- NetLLM: multimodal encoder + networking head ----------------------
    netllm = adapt_vp(train, setting.prediction_steps, llm_name="llama2-7b-sim",
                      lora_rank=4, iterations=scale.vp_iterations // 2, lr=3e-3, seed=0)
    netllm_eval = evaluate_predictor(netllm.adapter, test)

    # NetLLM answer latency: a single forward pass per answer.
    def netllm_single_answer():
        return netllm.adapter.predict(test[0])

    benchmark(netllm_single_answer)
    latencies = []
    import time
    for sample in test[:10]:
        start = time.perf_counter()
        netllm.adapter.predict(sample)
        latencies.append(time.perf_counter() - start)
    netllm_latency = float(np.mean(latencies))

    # --- TRACK reference ----------------------------------------------------
    track, _ = train_track(train, setting.prediction_steps, epochs=8, seed=0)
    track_mae = evaluate_predictor(track, test)["mae"]

    rows = [
        {"method": "PromptLearning", "mae": prompt_result.mae,
         "valid_fraction": prompt_result.valid_fraction,
         "answer_latency_s": prompt_result.mean_latency_seconds,
         "inferences_per_answer": prompt_result.mean_inferences},
        {"method": "TRACK", "mae": track_mae, "valid_fraction": 1.0,
         "answer_latency_s": float("nan"), "inferences_per_answer": float("nan")},
        {"method": "NetLLM", "mae": netllm_eval["mae"], "valid_fraction": 1.0,
         "answer_latency_s": netllm_latency, "inferences_per_answer": 1.0},
    ]
    print_table("Figure 2: prompt learning / token prediction vs NetLLM (VP)", rows)
    print("Paper-expected shape: prompt learning has the highest MAE (≈11% above TRACK); "
          "token prediction is <100% valid and slower than the 1 s deadline; "
          "NetLLM is always valid and answers in a single inference.")
    save_measured("fig02_motivation", {"rows": rows})

    # Shape checks.
    assert prompt_result.mae > netllm_eval["mae"]          # encoder beats prompts
    assert prompt_result.valid_fraction <= 1.0
    assert netllm_latency < prompt_result.mean_latency_seconds  # one inference vs many
    assert prompt_result.mean_inferences > 10
