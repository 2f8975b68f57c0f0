"""Figure 3 — training-time split: standard RL vs DD-LRNA (ABR and CJS).

Standard RL adaptation interleaves environment interaction (experience
collection) with every parameter update; DD-LRNA collects the experience
dataset once and then only performs updates.  The benchmark measures both
pipelines for a reduced number of iterations and reports the wall-clock
split, which is the quantity Figure 3 plots.

Paper-expected shape: experience collection accounts for a large share
(~52% ABR, ~39% CJS) of standard-RL training time and for a negligible share
(<2%) under DD-LRNA.
"""

import numpy as np
from conftest import print_table, save_measured

from repro.abr import MPCPolicy
from repro.abr.env import ABRObservation
from repro.cjs import ShortestJobFirstScheduler
from repro.cjs.env import MAX_CANDIDATES, PARALLELISM_FRACTIONS, observation_size
from repro.core import (
    DecisionAdapter,
    ExperiencePool,
    adapt_decision,
    collect_abr_experience,
    collect_cjs_experience,
    profile_rl_adaptation,
)
from repro.llm import build_llm
import pytest

pytestmark = pytest.mark.slow

#: Reduced iteration counts (the paper uses 10000 ABR / 100 CJS iterations).
ABR_ITERATIONS = 6
CJS_ITERATIONS = 4


def _abr_cost(label, scale, abr_bench, interleaved):
    video, traces = abr_bench["video"], abr_bench["train"][:2]
    llm = build_llm("llama2-7b-sim", lora_rank=4, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=1)
    adapter = DecisionAdapter(llm, state_dim=ABRObservation.flat_size(video.num_bitrates),
                              action_dims=(video.num_bitrates,), context_window=6,
                              head="abr", seed=0)
    pool = ExperiencePool(state_dim=ABRObservation.flat_size(video.num_bitrates),
                          action_dims=(video.num_bitrates,))

    def collect():
        collect_abr_experience({"MPC": MPCPolicy(horizon=5)}, video, traces, pool=pool, seed=0)

    def update():
        adapt_decision(adapter, pool, iterations=4, batch_size=8, seed=0)

    collect()  # seed the pool so update() always has data
    collect_rounds = ABR_ITERATIONS if interleaved else 1
    return profile_rl_adaptation(label, collect, update, collect_rounds=collect_rounds,
                                 update_rounds=ABR_ITERATIONS)


def _cjs_cost(label, scale, cjs_bench, interleaved):
    workloads = cjs_bench["train"][:2]
    executors = cjs_bench["executors"]
    llm = build_llm("llama2-7b-sim", lora_rank=4, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=2)
    adapter = DecisionAdapter(llm, state_dim=observation_size(),
                              action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)),
                              context_window=6, head="cjs", seed=0)
    pool = ExperiencePool(state_dim=observation_size(),
                          action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)))

    def collect():
        collect_cjs_experience({"SJF": ShortestJobFirstScheduler()}, workloads, executors,
                               pool=pool)

    def update():
        adapt_decision(adapter, pool, iterations=4, batch_size=8, seed=0)

    collect()
    collect_rounds = CJS_ITERATIONS if interleaved else 1
    return profile_rl_adaptation(label, collect, update, collect_rounds=collect_rounds,
                                 update_rounds=CJS_ITERATIONS)


def test_fig03_adaptation_time_split(benchmark, scale, abr_bench, cjs_bench):
    def run():
        costs = [
            _abr_cost("ABR standard RL", scale, abr_bench, interleaved=True),
            _abr_cost("ABR DD-LRNA", scale, abr_bench, interleaved=False),
            _cjs_cost("CJS standard RL", scale, cjs_bench, interleaved=True),
            _cjs_cost("CJS DD-LRNA", scale, cjs_bench, interleaved=False),
        ]
        return costs

    costs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [{
        "pipeline": cost.label,
        "experience_s": cost.experience_seconds,
        "update_s": cost.update_seconds,
        "experience_share": cost.experience_fraction,
    } for cost in costs]
    print_table("Figure 3: adaptation time split (experience collection vs parameter update)",
                rows)
    print("Paper-expected shape: experience collection is ~52%/39% of standard-RL training "
          "time for ABR/CJS and ~0.4%/1.2% under DD-LRNA.")
    save_measured("fig03_adaptation_cost", {"rows": rows})

    by_label = {cost.label: cost for cost in costs}
    assert (by_label["ABR standard RL"].experience_fraction
            > by_label["ABR DD-LRNA"].experience_fraction)
    assert (by_label["CJS standard RL"].experience_fraction
            > by_label["CJS DD-LRNA"].experience_fraction)
    # DD-LRNA collects once, so its collection share must be small.
    assert by_label["ABR DD-LRNA"].experience_fraction < 0.5
    assert by_label["CJS DD-LRNA"].experience_fraction < 0.5
