"""Figure 4 — cost of full-parameter fine-tuning vs DD-LRNA low-rank adaptation.

For the VP task, the paper reports trainable-parameter fraction (100% vs
0.31%), GPU memory (65.9 GB vs 27.2 GB) and training time (7.9 h vs 6.7 h).
Offline, the benchmark compares the same three quantities for the LLM
substitute: trainable fraction, training-state memory in bytes, and measured
wall-clock of an identical number of optimization steps.

Paper-expected shape: LoRA trains a small fraction of parameters, uses
substantially less training memory, and is not slower than full fine-tuning.
"""

import numpy as np
from conftest import print_table, save_measured

from repro.core import VPAdapter, adapt_prediction, finetune_memory_bytes
from repro.llm import build_llm
import pytest

pytestmark = pytest.mark.slow

STEPS = 25


def _run(label, scale, vp_bench_data, lora_rank, freeze_backbone):
    default = vp_bench_data["default"]
    llm = build_llm("llama2-7b-sim", lora_rank=lora_rank, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=3)
    adapter = VPAdapter(llm, prediction_steps=default["setting"].prediction_steps, seed=0)
    if not freeze_backbone:
        # Full fine-tune: every LLM weight receives gradients.
        for param in llm.parameters():
            param.requires_grad = True
    result = adapt_prediction(adapter, default["train"], iterations=STEPS, batch_size=8,
                              lr=1e-3, seed=0)
    return {
        "configuration": label,
        "total_params": adapter.num_parameters(),
        "trainable_params": adapter.num_parameters(trainable_only=True),
        "trainable_fraction": adapter.num_parameters(trainable_only=True) / adapter.num_parameters(),
        "train_memory_bytes": finetune_memory_bytes(adapter),
        "wall_seconds": result.wall_seconds,
    }


def test_fig04_full_finetune_vs_lora(benchmark, scale, vp_bench_data):
    def run():
        return [
            _run("Full fine-tune", scale, vp_bench_data, lora_rank=0, freeze_backbone=False),
            _run("NetLLM (DD-LRNA)", scale, vp_bench_data, lora_rank=4, freeze_backbone=True),
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("Figure 4: full-parameter fine-tune vs DD-LRNA (VP task)", rows)
    print("Paper: 100% vs 0.31% trainable parameters, 65.9 GB vs 27.2 GB GPU memory, "
          "7.9 h vs 6.7 h training time.")
    save_measured("fig04_finetune_cost", {"rows": rows})

    full, lora = rows
    assert lora["trainable_fraction"] < 0.5 * full["trainable_fraction"]
    assert lora["train_memory_bytes"] < full["train_memory_bytes"]
    assert lora["wall_seconds"] < full["wall_seconds"] * 1.5
