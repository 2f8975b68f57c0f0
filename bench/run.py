"""The benchmark's one command.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload once (the form ``BENCHMARK.json`` names) and prints,
after a readable table, one JSON object on the last line of stdout: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

``python3 bench/run.py [--seed N] [--out FILE]`` runs the whole suite: every
workload three times timed and once traced, interleaved round-robin so drift
hits all workloads alike, then prints every metric by name with its unit and
writes the JSON that ``bench/compare.py`` reads.

Inputs are generated here, from the seed; each measurement runs in a fresh
child process (``bench/child.py``) that receives nothing but those inputs.
Exit code 0 means every output check passed and no request failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# `bench` imports as a package (so bench/trace.py never shadows the stdlib's
# `trace`), and `repro` is found without installing anything.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional

import numpy as np

from bench.spec import (
    CHILD_MALLOC_ENV,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    WORKLOAD_BY_NAME,
)
from bench.workloads import generate_inputs

CHILD = Path(__file__).resolve().parent / "child.py"
TIMED_REPETITIONS = 3
SETUP_SAMPLES = 3
DEFAULT_SECONDS = 12


def spawn_child(inputs: Dict, seconds: float, trace: bool = False) -> Dict[str, Any]:
    """Run one measured child to completion and return its result object;
    with ``seconds=0`` the child sets up, reports ``setup_s`` and exits."""
    job = dict(inputs=inputs, seconds=seconds, trace=trace,
               spawned_at=time.time())
    done = subprocess.run(
        [sys.executable, str(CHILD)], input=pickle.dumps(job),
        stdout=subprocess.PIPE, cwd=str(ROOT), timeout=seconds + 150,
        env={**os.environ, **CHILD_MALLOC_ENV})
    if done.returncode != 0:
        raise RuntimeError(f"measured child exited with code {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def measure_once(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload: its metrics, counts and check results."""
    load_before = os.getloadavg()[0]
    inputs = generate_inputs(name, seed, seconds)
    if trace:
        # Half the time untraced, half traced: the traced child gives the
        # layer numbers, the untraced one the ungated driver.* tails and
        # the base of trace.overhead_ratio.
        plain = spawn_child(inputs, seconds / 2)
        traced = spawn_child(inputs, seconds / 2, trace=True)
        metrics = dict(traced["per_layer"])
        metrics.update({k: v for k, v in plain["numbers"].items()
                        if k.startswith("driver.")})
        # By the gap between deliveries, not by throughput: an open loop's
        # throughput is its offered load however slow the steps get.
        metrics["trace.overhead_ratio"] = (
            traced["numbers"]["itl_p50_ms"] / plain["numbers"]["itl_p50_ms"])
        children = [plain, traced]
        table = PER_LAYER
    else:
        main = spawn_child(inputs, seconds)
        setups = [main["setup_s"]] + [
            spawn_child(inputs, 0.0)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        metrics = {k: v for k, v in main["numbers"].items()
                   if not k.startswith("driver.")}
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = main["peak_rss_mb"]
        children = [main]
        table = END_TO_END
    failures = [f for child in children for f in child["check_failures"]]
    if len({child["output_digest"] for child in children}) != 1:
        failures.append("digest: traced and untraced outputs differ")
    failed = sum(child["failed"] for child in children) + len(failures)
    return {
        "workload": name, "seed": seed, "trace": trace,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in table},
        "attempted": sum(child["sent"] for child in children),
        "failed": failed, "correct": failed == 0, "check_failures": failures,
        "output_digest": children[0]["output_digest"],
        "samples": children[-1]["samples"],
        "tail_level": children[-1]["tail_level"],
        "probe_ms_p50": [child["probe_ms_p50"] for child in children],
        "omitted": children[-1]["omitted"],
        "step_time_check": children[-1].get("step_time_check"),
        "load_average": [load_before, os.getloadavg()[0]],
    }


def print_run(run: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']}  seed {run['seed']}  {kind}")
    for name, metric in run["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  attempted {run['attempted']}  failed {run['failed']}  "
          f"digest {run['output_digest'][:16]}  samples {run['samples']}  "
          f"highest percentile supported {run['tail_level']}")
    if run["step_time_check"]:
        check = run["step_time_check"]
        print(f"  layer self times sum to {check['self_total_s']:.4f} s of "
              f"{check['step_total_s']:.4f} s inside InferenceServer.step")
    if run["omitted"]:
        print(f"  callables that could not be wrapped: {run['omitted']}")
    for failure in run["check_failures"]:
        print(f"  CHECK FAILED: {failure}")


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": commit, "seed": seed, "seconds": seconds,
        "load_average_start": load, "noisy": load > 0.5 * nproc,
    }


def run_suite(seed: int, seconds: float, out: Optional[str]) -> int:
    env = environment(seed, seconds)
    if env["noisy"]:
        print(f"WARNING: load average {env['load_average_start']:.2f} exceeds "
              f"half of {env['nproc']} cores; the numbers below are NOISY",
              flush=True)
    runs: List[Dict[str, Any]] = []
    plan = [(w.name, False) for _ in range(TIMED_REPETITIONS) for w in WORKLOADS]
    plan += [(w.name, True) for w in WORKLOADS]
    for name, trace in plan:
        run = measure_once(name, seed, seconds, trace)
        print_run(run)
        sys.stdout.flush()
        runs.append(run)
    summary: Dict[str, Any] = {}
    for workload in WORKLOADS:
        timed = [r for r in runs if r["workload"] == workload.name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload.name and r["trace"]]
        digests = {r["output_digest"] for r in timed + traced}
        rows = {}
        for metric in END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in timed]
            rows[metric.name] = {
                "value": statistics.median(values), "min": min(values),
                "max": max(values), "unit": metric.unit, "better": metric.better,
                "bound": metric.bound}
        attempted = sum(r["attempted"] for r in timed)
        failed = sum(r["failed"] for r in timed + traced)
        if len(digests) != 1:
            failed += 1
        summary[workload.name] = {
            "end_to_end": rows,
            "per_layer": traced[0]["metrics"],
            "failed_share": failed / attempted,
            "sent": [r["attempted"] for r in timed],
            "failed": [r["failed"] for r in timed],
            "samples": timed[-1]["samples"],
            "tail_level": timed[-1]["tail_level"],
            "output_digest": sorted(digests)[0] if len(digests) == 1 else None,
            "check_failures": [f for r in timed + traced for f in r["check_failures"]],
        }
    env["load_average_end"] = os.getloadavg()[0]
    print("\n== summary: median [min .. max] over "
          f"{TIMED_REPETITIONS} timed repetitions")
    for name, entry in summary.items():
        print(f"-- {name}  failed_share {entry['failed_share']:.4f}  "
              f"output_digest {entry['output_digest']}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:26s} {row['value']:12.4f} "
                  f"[{row['min']:.4f} .. {row['max']:.4f}] {row['unit']}")
    result = {"environment": env, "workloads": summary, "runs": runs}
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(e["failed_share"] == 0 for e in summary.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write the result JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: src/repro is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args.seed, args.seconds, args.out)
    run = measure_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(run)
    print(json.dumps({key: run[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
