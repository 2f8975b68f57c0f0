"""The measured process: one workload, one repetition, then exit.

Reads a pickled job (the generated inputs and how to run them) from stdin,
builds the server, warms up, runs the workload's driver for the job's
seconds, checks the outputs and prints one JSON object on its last stdout
line.  A fresh process per repetition keeps allocator and cache state from
leaking between repetitions (eight repetitions in one process drifted from
890 to 400 tok/s on the long-context workload).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# `bench` imports as a package (so bench/trace.py never shadows the stdlib's
# `trace`), and `repro` is found without installing anything.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import gc
import json
import pickle
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def build_generation_server(inputs: Dict) -> Tuple[Any, Any, Dict[str, Any]]:
    from repro.llm import LanguageModel, LLMConfig
    from repro.serve import InferenceServer, SchedulerPolicy

    from bench.spec import MODEL_CONFIG, MODEL_SEED, POLICY

    model = LanguageModel(LLMConfig(**MODEL_CONFIG), seed=MODEL_SEED)
    server = InferenceServer(model=model, policy=SchedulerPolicy(**POLICY))
    for prefix in inputs.get("prefixes", ()):
        server.register_prefix(prefix)
    return server, model, {}


def build_decision_server(inputs: Dict) -> Tuple[Any, Any, Dict[str, Any]]:
    from repro.abr.env import ABRObservation
    from repro.cjs.env import MAX_CANDIDATES, PARALLELISM_FRACTIONS, observation_size
    from repro.core import DecisionAdapter, VPAdapter
    from repro.llm import build_llm
    from repro.serve import InferenceServer, SchedulerPolicy
    from repro.vp.task import VPSample

    from bench import spec, workloads

    if (ABRObservation.flat_size(spec.ABR_BITRATES) != workloads.ABR_STATE_DIM
            or observation_size() != workloads.CJS_STATE_DIM
            or MAX_CANDIDATES != workloads.CJS_CANDIDATES
            or len(PARALLELISM_FRACTIONS) != workloads.CJS_BUCKETS):
        raise RuntimeError("bench/workloads.py no longer matches the abr/cjs "
                           "observation and action sizes")
    llm = build_llm(**spec.DECISION_LLM)
    window = max(spec.DECISION_WINDOWS)
    adapters = {
        "vp": VPAdapter(llm, prediction_steps=spec.VP_PREDICTION_STEPS, seed=0),
        "abr": DecisionAdapter(llm, state_dim=workloads.ABR_STATE_DIM,
                               action_dims=(spec.ABR_BITRATES,),
                               context_window=window, head="abr", seed=0),
        "cjs": DecisionAdapter(llm, state_dim=workloads.CJS_STATE_DIM,
                               action_dims=(MAX_CANDIDATES, len(PARALLELISM_FRACTIONS)),
                               context_window=window, head="cjs",
                               max_candidates=MAX_CANDIDATES, seed=0),
    }
    # Input load: the vp runtime takes VPSample payloads.
    future = [[0.0, 0.0, 0.0]] * spec.VP_PREDICTION_STEPS
    for payloads in inputs["rounds"]:
        for i, (task, _) in enumerate(inputs["clients"]):
            if task == "vp":
                payloads[i] = VPSample(history=payloads[i]["history"], future=future,
                                       saliency=payloads[i]["saliency"])
    # No generation model: this traffic never touches sessions or paged KV.
    server = InferenceServer(policy=SchedulerPolicy(**spec.POLICY), adapters=adapters)
    return server, None, adapters


def run(job: Dict, tracer: Optional[Any] = None) -> Dict[str, Any]:
    """Set up, warm up, measure, check; returns the child's result object."""
    from bench import checks, measure
    from bench.drivers import DRIVERS, Hooks, succeeded
    from bench.layers import RunFacts, per_layer_metrics
    from bench.spec import PROBE_NOMINAL_S, WORKLOAD_BY_NAME

    inputs = job["inputs"]
    workload = WORKLOAD_BY_NAME[inputs["workload"]]
    lockstep = workload.loop == "lockstep"
    server, model, adapters = (build_decision_server if lockstep
                               else build_generation_server)(inputs)
    state: Dict[str, Any] = {}

    def start() -> None:
        state["report_before"] = server.stats().report()
        state["gc_before"] = _gc_collections()
        state["setup_wall_s"] = time.time() - job["spawned_at"]
        state["rusage_before"] = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.recording = True

    def stop() -> None:
        if tracer is not None:
            tracer.recording = False
        state["rusage_after"] = resource.getrusage(resource.RUSAGE_SELF)
        state["gc_after"] = _gc_collections()

    log = DRIVERS[workload.loop](server, inputs, job["seconds"], Hooks(start, stop))
    # Set-up at reference machine speed, by the probes that ran during it.
    setup_s = (state["setup_wall_s"] * PROBE_NOMINAL_S
               / log.clock.probe_median_s(stop=log.started))
    if job["seconds"] <= 0:  # a set-up sample: nothing was measured
        return {"setup_s": setup_s}

    report = server.stats().report()
    failures: List[str] = checks.health_check(report)
    if lockstep:
        numbers, samples = measure.decision_numbers(log)
        digest, problems = checks.decision_check(adapters, inputs, log)
        handles = [h for r in log.rounds for h in r.handles]
    else:
        numbers, samples = measure.generation_numbers(
            log, ttft_class=workload.ttft_class, itl_class=workload.itl_class)
        digest, problems = checks.generation_digest(log, inputs["digest"])
        problems += checks.replay_check(model, log)
        handles = [s.handle for s in log.sent]
    failures += problems
    sent = len(handles)
    ok = sum(succeeded(h) for h in handles)
    if report["requests_completed"] < ok:
        failures.append("accounting: the server completed fewer requests "
                        "than the driver saw succeed")
    probe_median_s = log.clock.probe_median_s(start=log.started)
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": inputs["seed"],
        "setup_s": setup_s,
        # At clock stop: the replay check below runs whole prompts through
        # generate() and would add its own peak (20 MB when it picks a
        # long-context request) to the program's.
        "peak_rss_mb": state["rusage_after"].ru_maxrss / 1024.0,
        "numbers": numbers, "samples": samples,
        # Highest percentile each timing's sample count supports.
        "tail_level": {name: measure.supported_level(count)
                       for name, count in samples.items()
                       if name in ("request_latency", "ttft", "itl")},
        "sent": sent, "succeeded": ok, "failed": sent - ok,
        "check_failures": failures, "output_digest": digest,
        "probe_ms_p50": probe_median_s * 1e3,
        "per_layer": None, "omitted": [],
    }
    if tracer is not None:
        records = [r for r in server.telemetry.records()
                   if log.started <= r.started_at <= log.stopped]
        table = tracer.table(log.clock)
        reference = log.clock.reference
        queued = [(h.metrics.submitted_at, h.metrics.submitted_at + h.metrics.queue_seconds)
                  for h in handles if h.metrics.submitted_at >= log.started]
        facts = RunFacts(
            table=table, window=measure.Window(log), records=records,
            report_before=state["report_before"], report_after=report,
            rusage_before=state["rusage_before"], rusage_after=state["rusage_after"],
            gc_before=state["gc_before"], gc_after=state["gc_after"],
            numbers=numbers, samples=samples,
            queue_wait_s=np.diff(reference(queued), axis=1).ravel() if queued else [],
            sent=sent, succeeded=ok, failed=sent - ok,
            backlog_at_last_arrival=log.backlog_at_last_arrival,
            probe_median_s=probe_median_s)
        result["per_layer"] = per_layer_metrics(facts)
        result["omitted"] = list(tracer.omitted)
        result["step_time_check"] = table.step_time_check()
    return result


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    tracer = None
    if job["trace"]:
        from bench.trace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        result = run(job, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
