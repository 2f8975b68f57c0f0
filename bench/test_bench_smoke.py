"""Fast-lane smoke test of the benchmark: toy-size, in-process, no children.

Runs every workload's generator and driver for a fraction of a second with
the tracer on and checks the shape of what comes out: exactly the workload,
end-to-end and per-layer names of ``bench/spec.py`` (which ``BENCHMARK.json``
must mirror), and no tracer shim left behind.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from bench import child, drivers, spec
from bench.trace import Tracer
from bench.workloads import generate_inputs
from repro.serve import SessionManager

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _toy(inputs):
    """Shrink generated inputs to a handful of short requests."""
    for stream in inputs.get("streams", {}).values():
        for request in stream:
            request["prompt"] = request["prompt"][:120]
            request["max_new_tokens"] = min(request["max_new_tokens"], 6)
    for request in inputs.get("requests", []) + inputs.get("warmup", []):
        request["max_new_tokens"] = 4
    if "due" in inputs:
        inputs["due"] = inputs["due"][:8] * 0.02
        inputs["warmup"] = inputs["warmup"][:2]
    if "digest" in inputs:
        inputs["digest"] = {cls: 2 for cls in inputs["digest"]}
    return inputs


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_workload_runs_traced_at_toy_size(workload, monkeypatch):
    monkeypatch.setattr(drivers, "WARMUP_REQUESTS", 2)
    original_step = SessionManager.step
    tracer = Tracer()
    tracer.install()
    try:
        assert SessionManager.step is not original_step
        job = dict(inputs=_toy(generate_inputs(workload, seed=0, seconds=1.0)),
                   seconds=0.08, trace=True,
                   spawned_at=time.time())
        result = child.run(job, tracer)
    finally:
        tracer.uninstall()
    assert SessionManager.step is original_step
    assert result["check_failures"] == []
    assert result["failed"] == 0 and result["sent"] == result["succeeded"] > 0
    assert set(spec.END_TO_END_NAMES) - {"setup_s", "peak_rss_mb"} <= set(result["numbers"])
    assert list(result["per_layer"]) == spec.PER_LAYER_NAMES
    assert result["omitted"] == []
    assert result["step_time_check"]["relative_error"] < 1e-6
    layered = {name.split(".")[0] for name, value in result["per_layer"].items()
               if value and name.split(".")[0] in ("paged_cache", "session")}
    if workload == "decisions_lockstep32":
        assert not layered, "decision traffic must not touch sessions or paged KV"
    else:
        assert layered == {"paged_cache", "session"}


def test_benchmark_json_mirrors_the_spec():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spec.PER_LAYER]
    names = [w.name for w in spec.WORKLOADS] + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert all(m.better in ("lower", "higher") and 0 < m.bound <= 0.25
               for m in spec.END_TO_END)
    assert "setup_s" in spec.END_TO_END_NAMES
