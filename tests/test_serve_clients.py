"""The served deployment clients answer exactly as the direct policies do.

Each served client is a :class:`repro.core.ddlrna.ReturnConditionedPolicy`
whose window goes through the engine instead of ``adapter.act``, so the
decisions, and everything the simulators make of them, must match the
direct policy bit for bit.  The adapters are untrained and the pools come from
one baseline run each, so nothing here trains.
"""

import numpy as np
import pytest

from repro.abr import BBAPolicy, simulate_session
from repro.abr.env import ABRObservation
from repro.cjs import ShortestJobFirstScheduler, run_workload
from repro.cjs.env import MAX_CANDIDATES, PARALLELISM_FRACTIONS, observation_size
from repro.core import (
    ABRAdaptation,
    AdaptationResult,
    DecisionAdapter,
    NetLLMABRPolicy,
    NetLLMCJSScheduler,
    collect_abr_experience,
    collect_cjs_experience,
    evaluate_abr_netllm_served,
    evaluate_abr_policies,
)
from repro.llm import build_llm
from repro.nn import no_grad
from repro.serve import InferenceServer, ServedABRPolicy, ServedCJSScheduler


@pytest.fixture(scope="module")
def llm():
    return build_llm("tiny-test", lora_rank=4, pretrained=False)


@pytest.fixture(scope="module")
def abr(llm, abr_setup):
    video, train_traces, test_traces = abr_setup
    adapter = DecisionAdapter(llm, state_dim=ABRObservation.flat_size(video.num_bitrates),
                              action_dims=(video.num_bitrates,), context_window=4,
                              head="abr")
    pool = collect_abr_experience({"BBA": BBAPolicy()}, video, train_traces[:1])
    return adapter, pool, video, test_traces


@pytest.fixture(scope="module")
def cjs(llm, cjs_setup):
    train_workloads, test_jobs, executors = cjs_setup
    adapter = DecisionAdapter(llm, state_dim=observation_size(),
                              action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)),
                              context_window=4, head="cjs", max_candidates=MAX_CANDIDATES)
    pool = collect_cjs_experience({"SJF": ShortestJobFirstScheduler()},
                                  train_workloads[:1], executors)
    return adapter, pool, test_jobs, executors


def test_served_abr_policy_streams_as_the_direct_policy(abr):
    adapter, pool, video, traces = abr
    server = InferenceServer(adapters={"abr": adapter})
    served = ServedABRPolicy(server, adapter, pool)
    with no_grad():
        direct = [simulate_session(NetLLMABRPolicy(adapter, pool), video, trace, seed=index)
                  for index, trace in enumerate(traces)]
    streamed = [simulate_session(served, video, trace, seed=index)
                for index, trace in enumerate(traces)]
    for mine, theirs in zip(streamed, direct):
        assert [r.bitrate_index for r in mine.records] == \
            [r.bitrate_index for r in theirs.records]
        assert mine.qoe() == theirs.qoe()
    assert server.stats().requests_completed == sum(r.num_chunks for r in direct)


def test_lockstep_driver_summary_equals_the_direct_evaluation(abr):
    adapter, pool, video, traces = abr
    server = InferenceServer(adapters={"abr": adapter})
    adaptation = ABRAdaptation(policy=NetLLMABRPolicy(adapter, pool), adapter=adapter,
                               pool=pool, result=AdaptationResult(), llm=adapter.llm)
    served = evaluate_abr_netllm_served(server, adaptation, video, traces)
    direct = evaluate_abr_policies({"NetLLM": NetLLMABRPolicy(adapter, pool)},
                                   video, traces)["NetLLM"]
    assert served == direct
    assert list(served) == ["qoe", "per_trace_qoe", "bitrate", "rebuffering",
                            "bitrate_variation"]


def test_served_cjs_scheduler_schedules_as_the_direct_scheduler(cjs):
    adapter, pool, jobs, executors = cjs
    server = InferenceServer(adapters={"cjs": adapter})
    with no_grad():
        direct = run_workload(NetLLMCJSScheduler(adapter, pool), jobs, executors)
    served = run_workload(ServedCJSScheduler(server, adapter, pool), jobs, executors)
    assert np.array_equal(served.jcts, direct.jcts)
    assert server.stats().requests_completed > 0
