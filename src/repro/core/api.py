"""High-level NetLLM integration APIs (Figure 9) and evaluation helpers.

The paper integrates NetLLM with an existing SL/RL codebase through three
calls: ``RL_Collect`` (gather an experience dataset with existing policies),
``Adapt`` (fine-tune the LLM on a dataset) and ``Test`` (evaluate the adapted
LLM in simulation).  This module provides those entry points for each of the
three use cases, plus the cross-method evaluation helpers that the benchmark
harness uses to regenerate the paper's figures.

All functions take explicit scale knobs (numbers of traces, samples,
iterations) so that unit tests can run in seconds while benchmarks use larger
settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..abr import (
    ABREnvironment,
    BBAPolicy,
    MPCPolicy,
    OracleMPCPolicy,
    simulate_session,
    train_genet,
)
from ..abr.env import ABRObservation
from ..cjs import (
    FIFOScheduler,
    FairScheduler,
    ShortestJobFirstScheduler,
    run_workload,
    train_decima,
)
from ..cjs.env import MAX_CANDIDATES, PARALLELISM_FRACTIONS, observation_size
from ..llm import LanguageModel, build_llm
from ..nn import no_grad
from ..vp import (
    LinearRegressionPredictor,
    VPSetting,
    VelocityPredictor,
    evaluate_predictor,
    train_track,
)
from .adapter import DecisionAdapter, VPAdapter
from .ddlrna import (
    AdaptationResult,
    NetLLMABRPolicy,
    NetLLMCJSScheduler,
    adapt_decision,
    adapt_prediction,
    collect_abr_experience,
    collect_cjs_experience,
)
from .experience import ExperiencePool

#: LoRA ranks used per task (§A.2: r=32 for VP, 128 for ABR and CJS; scaled
#: down proportionally to the substitute model's width).
DEFAULT_LORA_RANK = {"vp": 4, "abr": 8, "cjs": 8}
#: Context windows for the return-conditioned pipeline (§A.2: w=10 ABR, 20 CJS).
DEFAULT_CONTEXT_WINDOW = {"abr": 10, "cjs": 20}


# ---------------------------------------------------------------------- #
# Viewport prediction
# ---------------------------------------------------------------------- #
@dataclass
class VPAdaptation:
    """An adapted VP model together with its training diagnostics."""

    adapter: VPAdapter
    result: AdaptationResult
    llm: LanguageModel


def adapt_vp(train_samples: Sequence, prediction_steps: int, llm_name: str = "llama2-7b-sim",
             llm: Optional[LanguageModel] = None, pretrained: bool = True,
             lora_rank: Optional[int] = None, iterations: int = 200, batch_size: int = 16,
             lr: float = 2e-3, use_saliency: bool = True, seed: int = 0) -> VPAdaptation:
    """``Adapt`` API for the VP task: fine-tune an LLM with DD-LRNA (SL pipeline)."""
    lora_rank = DEFAULT_LORA_RANK["vp"] if lora_rank is None else lora_rank
    llm = llm or build_llm(llm_name, lora_rank=lora_rank, pretrained=pretrained, seed=seed)
    adapter = VPAdapter(llm, prediction_steps=prediction_steps, use_saliency=use_saliency,
                        seed=seed)
    result = adapt_prediction(adapter, train_samples, iterations=iterations,
                              batch_size=batch_size, lr=lr, seed=seed)
    return VPAdaptation(adapter=adapter, result=result, llm=llm)


def evaluate_vp_methods(setting: VPSetting, train_samples: Sequence, test_samples: Sequence,
                        netllm: Optional[VPAdapter] = None, track_epochs: int = 8,
                        seed: int = 0) -> Dict[str, Dict]:
    """Evaluate LR / Velocity / TRACK / NetLLM on one VP setting (Figure 10/11 rows).

    :func:`evaluate_vp_served` evaluates the NetLLM predictions through the
    serving engine instead.
    """
    results: Dict[str, Dict] = {}
    lr_pred = LinearRegressionPredictor(setting.prediction_steps)
    velocity = VelocityPredictor(setting.prediction_steps)
    track, _ = train_track(train_samples, setting.prediction_steps, epochs=track_epochs, seed=seed)
    with no_grad():
        results["LR"] = evaluate_predictor(lr_pred, test_samples)
        results["Velocity"] = evaluate_predictor(velocity, test_samples)
        results["TRACK"] = evaluate_predictor(track, test_samples)
    if netllm is not None:
        with no_grad():
            results["NetLLM"] = evaluate_predictor(netllm, test_samples)
    return results


def evaluate_vp_served(server, test_samples: Sequence) -> Dict[str, object]:
    """Evaluate the engine-served NetLLM VP predictions (same shape as
    :func:`repro.vp.evaluate_predictor`)."""
    from ..serve import serve_vp_predictions
    from ..vp.task import mean_absolute_error

    predictions = serve_vp_predictions(server, test_samples)
    errors = [float(mean_absolute_error(prediction, sample.future))
              for prediction, sample in zip(predictions, test_samples)]
    return {
        "mae": float(np.mean(errors)) if errors else float("nan"),
        "per_sample_mae": errors,
    }


# ---------------------------------------------------------------------- #
# Adaptive bitrate streaming
# ---------------------------------------------------------------------- #
@dataclass
class ABRAdaptation:
    """An adapted ABR policy, its experience pool and training diagnostics."""

    policy: NetLLMABRPolicy
    adapter: DecisionAdapter
    pool: ExperiencePool
    result: AdaptationResult
    llm: LanguageModel


def rl_collect_abr(video, traces, policies: Optional[Dict[str, object]] = None,
                   seed: int = 0) -> ExperiencePool:
    """``RL_Collect`` API for ABR: build the offline experience pool.

    By default experience comes from existing (non-LLM) algorithms, as §4.3
    prescribes.  The default teachers are RobustMPC and its omniscient
    variant: the former provides achievable good behaviour to imitate, the
    latter provides higher-return trajectories that the return-conditioned
    model is steered towards at inference time.  Pass ``policies`` explicitly
    to study other pool compositions (see the DD-LRNA ablation benchmark).
    """
    if policies is None:
        policies = {
            "MPC": MPCPolicy(horizon=5),
            "OracleMPC": OracleMPCPolicy(horizon=5),
        }
    return collect_abr_experience(policies, video, traces, seed=seed)


def adapt_abr(video, traces, llm_name: str = "llama2-7b-sim",
              llm: Optional[LanguageModel] = None, pretrained: bool = True,
              lora_rank: Optional[int] = None, pool: Optional[ExperiencePool] = None,
              iterations: int = 300, batch_size: int = 16, lr: float = 2e-3,
              context_window: Optional[int] = None, seed: int = 0) -> ABRAdaptation:
    """``Adapt`` API for ABR: data-driven, return-conditioned fine-tuning."""
    lora_rank = DEFAULT_LORA_RANK["abr"] if lora_rank is None else lora_rank
    context_window = DEFAULT_CONTEXT_WINDOW["abr"] if context_window is None else context_window
    llm = llm or build_llm(llm_name, lora_rank=lora_rank, pretrained=pretrained, seed=seed)
    if pool is None:  # `pool or ...` would discard a caller's still-empty pool
        pool = rl_collect_abr(video, traces, seed=seed)
    state_dim = ABRObservation.flat_size(video.num_bitrates)
    adapter = DecisionAdapter(llm, state_dim=state_dim, action_dims=(video.num_bitrates,),
                              context_window=context_window, head="abr", seed=seed)
    result = adapt_decision(adapter, pool, iterations=iterations, batch_size=batch_size,
                            lr=lr, seed=seed)
    policy = NetLLMABRPolicy(adapter, pool)
    return ABRAdaptation(policy=policy, adapter=adapter, pool=pool, result=result, llm=llm)


def abr_baseline_policies(video, traces, genet_env_seed: int = 0,
                          train_genet_policy: bool = True, seed: int = 0) -> Dict[str, object]:
    """Build the paper's three ABR baselines (BBA, MPC, GENET)."""
    policies: Dict[str, object] = {"BBA": BBAPolicy(), "MPC": MPCPolicy(horizon=5)}
    if train_genet_policy:
        env = ABREnvironment(video, traces, seed=genet_env_seed)
        genet, _ = train_genet(env, seed=seed)
        policies["GENET"] = genet
    return policies


def evaluate_abr_netllm_served(server, adaptation: "ABRAdaptation", video, traces,
                               sim_config=None, target_return_scale: float = 1.1,
                               seed: int = 0) -> Dict:
    """Evaluate adapted NetLLM on every trace through the serving engine.

    All traces stream in lockstep: each round the engine answers every
    session's bitrate decision in one batched adapter forward, so evaluation
    wall-clock drops with batch size while per-trace QoE matches the
    sequential :func:`evaluate_abr_policies` path.  Returns the same result
    dict shape as one policy entry of :func:`evaluate_abr_policies`.
    """
    from ..serve import LockstepABRDriver

    driver = LockstepABRDriver(server, adaptation.adapter, adaptation.pool,
                               target_return_scale=target_return_scale)
    # No caller-side no_grad() needed: the engine's forwards self-wrap (and
    # the grad flag is thread-local, so a background serve thread manages its
    # own mode regardless of what this thread does).
    return _abr_summary(driver.run(video, traces, config=sim_config, seed=seed))


def _abr_summary(sessions: Sequence) -> Dict:
    """Mean QoE, per-trace QoE and mean factor breakdown of streamed sessions."""
    breakdowns = [session.breakdown() for session in sessions]
    qoes = [session.qoe() for session in sessions]
    return {
        "qoe": float(np.mean(qoes)),
        "per_trace_qoe": qoes,
        "bitrate": float(np.mean([b["bitrate"] for b in breakdowns])),
        "rebuffering": float(np.mean([b["rebuffering"] for b in breakdowns])),
        "bitrate_variation": float(np.mean([b["bitrate_variation"] for b in breakdowns])),
    }


def build_inference_server(model: Optional[LanguageModel] = None, vp=None, abr=None,
                           cjs=None, policy=None, runtimes=None):
    """Construct an :class:`repro.serve.InferenceServer` from adapted artifacts.

    ``vp``/``abr``/``cjs`` accept either the adaptation dataclasses returned
    by :func:`adapt_vp`/:func:`adapt_abr`/:func:`adapt_cjs` or bare adapters.
    ``runtimes`` maps additional task names to custom
    :class:`repro.serve.TaskRuntime` implementations (novel tasks beyond the
    three built-ins).
    """
    from ..serve import InferenceServer

    adapters = {}
    for task, artifact in (("vp", vp), ("abr", abr), ("cjs", cjs)):
        if artifact is not None:
            adapters[task] = getattr(artifact, "adapter", artifact)
    return InferenceServer(model=model, policy=policy, adapters=adapters,
                           runtimes=runtimes)


def evaluate_abr_policies(policies: Dict[str, object], video, traces, sim_config=None,
                          seed: int = 0) -> Dict[str, Dict]:
    """Stream every trace with every policy; report QoE stats and factor breakdowns."""
    results: Dict[str, Dict] = {}
    for name, policy in policies.items():
        with no_grad():
            results[name] = _abr_summary([
                simulate_session(policy, video, trace, config=sim_config, seed=seed + index)
                for index, trace in enumerate(traces)])
    return results


# ---------------------------------------------------------------------- #
# Cluster job scheduling
# ---------------------------------------------------------------------- #
@dataclass
class CJSAdaptation:
    """An adapted CJS scheduler, its experience pool and training diagnostics."""

    scheduler: NetLLMCJSScheduler
    adapter: DecisionAdapter
    pool: ExperiencePool
    result: AdaptationResult
    llm: LanguageModel


def rl_collect_cjs(workloads, num_executors: int,
                   policies: Optional[Dict[str, object]] = None) -> ExperiencePool:
    """``RL_Collect`` API for CJS: build the offline experience pool."""
    if policies is None:
        # The shortest-remaining-work teacher provides high-return behaviour to
        # imitate; Fair provides contrasting lower-return trajectories so the
        # return-conditioned model also sees "what not to do" (§4.3).
        policies = {
            "SJF": ShortestJobFirstScheduler(),
            "Fair": FairScheduler(),
        }
    return collect_cjs_experience(policies, workloads, num_executors)


def adapt_cjs(workloads, num_executors: int, llm_name: str = "llama2-7b-sim",
              llm: Optional[LanguageModel] = None, pretrained: bool = True,
              lora_rank: Optional[int] = None, pool: Optional[ExperiencePool] = None,
              iterations: int = 300, batch_size: int = 16, lr: float = 2e-3,
              context_window: Optional[int] = None, seed: int = 0) -> CJSAdaptation:
    """``Adapt`` API for CJS: data-driven, return-conditioned fine-tuning."""
    lora_rank = DEFAULT_LORA_RANK["cjs"] if lora_rank is None else lora_rank
    context_window = DEFAULT_CONTEXT_WINDOW["cjs"] if context_window is None else context_window
    llm = llm or build_llm(llm_name, lora_rank=lora_rank, pretrained=pretrained, seed=seed)
    if pool is None:  # `pool or ...` would discard a caller's still-empty pool
        pool = rl_collect_cjs(workloads, num_executors)
    adapter = DecisionAdapter(llm, state_dim=observation_size(),
                              action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)),
                              context_window=context_window, head="cjs",
                              max_candidates=MAX_CANDIDATES, seed=seed)
    result = adapt_decision(adapter, pool, iterations=iterations, batch_size=batch_size,
                            lr=lr, seed=seed)
    scheduler = NetLLMCJSScheduler(adapter, pool)
    return CJSAdaptation(scheduler=scheduler, adapter=adapter, pool=pool, result=result, llm=llm)


def cjs_baseline_schedulers(train_workloads=None, num_executors: int = 5,
                            train_decima_policy: bool = True, decima_epochs: int = 3,
                            seed: int = 0) -> Dict[str, object]:
    """Build the paper's three CJS baselines (FIFO, Fair, Decima)."""
    schedulers: Dict[str, object] = {"FIFO": FIFOScheduler(), "Fair": FairScheduler()}
    if train_decima_policy:
        if not train_workloads:
            raise ValueError("Decima training requires workloads")
        decima, _ = train_decima(train_workloads, num_executors, epochs=decima_epochs, seed=seed)
        schedulers["Decima"] = decima
    return schedulers


def evaluate_cjs_schedulers(schedulers: Dict[str, object], workloads, num_executors: int
                            ) -> Dict[str, Dict]:
    """Run every scheduler over every workload; report JCT statistics."""
    results: Dict[str, Dict] = {}
    for name, scheduler in schedulers.items():
        jcts: List[float] = []
        per_workload: List[float] = []
        with no_grad():
            for jobs in workloads:
                outcome = run_workload(scheduler, jobs, num_executors)
                per_workload.append(outcome.average_jct)
                jcts.extend(outcome.jcts.tolist())
        results[name] = {
            "jct": float(np.mean(per_workload)),
            "per_job_jct": jcts,
            "per_workload_jct": per_workload,
        }
    return results
