"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation at
reproduction scale.  The expensive artifacts — pre-trained LLM substitute,
datasets, trained baselines and NetLLM adaptations — are built once per
pytest session here and shared across the figure benchmarks, mirroring how
the paper trains once and evaluates across settings.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:
``small`` (default) finishes in a few minutes on a laptop CPU; ``full``
increases traces/samples/iterations for tighter estimates.

Outputs (``benchmarks/README.md``): :func:`save_results` for what reproduces
byte for byte (tracked), :func:`save_measured` for what this machine measured
(ignored).  Timing gates go through :func:`paired`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np
import pytest

from repro.abr import (
    ABR_SETTINGS,
    ABREnvironment,
    BBAPolicy,
    MPCPolicy,
    build_setting,
    train_genet,
)
from repro.cjs import CJS_SETTINGS, build_workload, train_decima
from repro.core import adapt_abr, adapt_cjs, adapt_vp, rl_collect_abr, rl_collect_cjs
from repro.llm import build_llm
from repro.vp import VP_SETTINGS, ViewportDataset

RESULTS_DIR = Path(__file__).parent / "results"
MEASURED_DIR = Path(__file__).parent / "measured"

#: Wall-clock budget for the CI fast lane (`pytest -m "not slow"`).  The fast
#: lane is only useful while it stays interactive, so a session that deselects
#: the slow benchmarks but still overruns this budget gets a loud warning —
#: and a hard failure when REPRO_ENFORCE_FAST_LANE=1 (CI).  New stress or
#: property tests that cannot fit the budget must carry the `slow` marker.
FAST_LANE_BUDGET_SECONDS = 60.0


def pytest_configure(config):
    # pytest_configure is a *historic* hook: it also fires when this conftest
    # registers late (repo-root runs load subdirectory conftests during
    # collection, after pytest_sessionstart has already been called), so the
    # stamp exists no matter which directory pytest was invoked from.
    if not hasattr(config, "_repro_fast_lane_started"):
        config._repro_fast_lane_started = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    started = getattr(session.config, "_repro_fast_lane_started", None)
    markexpr = getattr(session.config.option, "markexpr", "") or ""
    if started is None or "not slow" not in markexpr:
        return  # full runs (figure benchmarks included) have no lane budget
    elapsed = time.perf_counter() - started
    if elapsed <= FAST_LANE_BUDGET_SECONDS:
        return
    message = (
        f"fast lane took {elapsed:.1f}s (> {FAST_LANE_BUDGET_SECONDS:.0f}s budget); "
        f"mark the offending new tests `slow` or speed them up")
    if os.environ.get("REPRO_ENFORCE_FAST_LANE") == "1":
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        print(f"\nERROR: {message}")
    else:
        print(f"\nWARNING: {message}")


@dataclass(frozen=True)
class BenchScale:
    """Knobs controlling benchmark effort."""

    name: str
    vp_videos: int
    vp_viewers: int
    vp_seconds: float
    vp_iterations: int
    abr_traces: int
    abr_iterations: int
    cjs_workloads: int
    cjs_iterations: int
    pretrain_steps: int


SCALES = {
    "small": BenchScale("small", vp_videos=4, vp_viewers=8, vp_seconds=60.0, vp_iterations=600,
                        abr_traces=8, abr_iterations=500, cjs_workloads=3, cjs_iterations=400,
                        pretrain_steps=40),
    "full": BenchScale("full", vp_videos=8, vp_viewers=12, vp_seconds=60.0, vp_iterations=1000,
                       abr_traces=16, abr_iterations=800, cjs_workloads=5, cjs_iterations=700,
                       pretrain_steps=80),
}


def get_scale() -> BenchScale:
    return SCALES[os.environ.get("REPRO_BENCH_SCALE", "small")]


def _write_json(directory: Path, name: str, payload: Dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=float)


def save_results(name: str, payload: Dict) -> None:
    """Persist numbers that reproduce byte for byte (tracked in git):
    seeded accuracies, counts, *simulated* seconds.  A second run must
    rewrite the file identically; ``git diff`` on it is how "no figure
    number moved" is checked."""
    _write_json(RESULTS_DIR, name, payload)


def save_measured(name: str, payload: Dict) -> None:
    """Persist numbers measured on this machine (git-ignored): anything
    holding a wall clock or a byte count of this process, reproducible
    neighbours in the same payload included."""
    _write_json(MEASURED_DIR, name, payload)


def assert_fault_free(server) -> None:
    """A timed run that failed, quarantined, retried or shed anything timed
    something other than the workload."""
    stats = server.stats()
    assert (stats.failed, stats.faults_quarantined, stats.retries, stats.shed,
            stats.health) == (0, 0, 0, 0, "healthy")


Sample = TypeVar("Sample")


def paired(arm_a: Callable[[], Sample], arm_b: Callable[[], Sample],
           pairs: int) -> Tuple[List[Sample], List[Sample]]:
    """Run two arms ``pairs`` times each; return each arm's results in order.

    The arms run back to back within a pair, so both see the same machine
    state, and which arm goes first alternates from pair to pair, so
    neither always inherits the other's warm caches or garbage.
    """
    a, b = [], []
    for index in range(pairs):
        if index % 2 == 0:
            a.append(arm_a())
            b.append(arm_b())
        else:
            b.append(arm_b())
            a.append(arm_a())
    return a, b


def ratio_of_medians(title: str, unit: str, **arms: Sequence[float]) -> float:
    """Print two arms of :func:`paired` samples; return second over first.

    Arms are keyword arguments, the base first.  One row per arm (pairs,
    first quartile, median, third quartile, in ``unit``) and one for the
    per-pair ratio, whose quartiles show whether the gated ratio of medians
    is resolved: a bound inside them is not.
    """
    (base_name, base), (name, values) = arms.items()
    base, values = np.asarray(base, dtype=float), np.asarray(values, dtype=float)
    rows = []
    for label, samples in ((base_name, base), (name, values),
                           ("ratio per pair", values / base)):
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        rows.append({"arm": label, "pairs": len(samples),
                     "q1": float(q1), "median": float(median), "q3": float(q3)})
    ratio = float(np.median(values) / np.median(base))
    print_table(f"{title} [{unit}; last row {name} / {base_name}]", rows)
    print(f"{name} / {base_name}, ratio of medians: {ratio:.3f}")
    return ratio


def print_table(title: str, rows: List[Dict]) -> None:
    """Print a small aligned table of result rows."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{k:>18}" for k in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row[key]
            cells.append(f"{value:>18.4f}" if isinstance(value, float) else f"{str(value):>18}")
        print(" | ".join(cells))


# ---------------------------------------------------------------------- #
# Scale
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return get_scale()


# ---------------------------------------------------------------------- #
# Viewport prediction artifacts
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def vp_bench_data(scale):
    """VP datasets for the default and unseen settings."""
    default = VP_SETTINGS["default_test"]
    dataset = ViewportDataset("jin2022", seed=0, num_videos=scale.vp_videos,
                              num_viewers=scale.vp_viewers, video_seconds=scale.vp_seconds)
    train_traces, _, test_traces = dataset.split_traces(seed=0)
    data = {
        "default": {
            "setting": default,
            "train": dataset.windows_from_traces(train_traces, default, stride_steps=5),
            "test": dataset.windows_from_traces(test_traces, default, stride_steps=10),
        }
    }
    for name in ("unseen_setting1", "unseen_setting2", "unseen_setting3"):
        setting = VP_SETTINGS[name]
        if setting.dataset == "jin2022":
            test_ds, test_set = dataset, test_traces
        else:
            test_ds = ViewportDataset(setting.dataset, seed=7, num_videos=max(2, scale.vp_videos // 2),
                                      num_viewers=max(4, scale.vp_viewers // 2),
                                      video_seconds=scale.vp_seconds)
            _, _, test_set = test_ds.split_traces(seed=7)
        data[name] = {
            "setting": setting,
            # Training data always comes from the default (jin2022) training
            # traces, re-windowed to the unseen setting's history/prediction
            # windows so that baselines needing a matching output size can be
            # fit on in-distribution data (§A.4).
            "train": dataset.windows_from_traces(train_traces, setting, stride_steps=5),
            "test": test_ds.windows_from_traces(test_set, setting, stride_steps=10),
        }
    return data


@pytest.fixture(scope="session")
def vp_netllm(scale, vp_bench_data):
    """NetLLM adapted for VP on the default training setting.

    Each task adaptation builds its own copy of the foundation model so that
    the per-task LoRA matrices stay separate (the paper trains different
    copies of A/B per task on top of the same frozen backbone).
    """
    default = vp_bench_data["default"]
    llm = build_llm("llama2-7b-sim", lora_rank=4, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=0)
    return adapt_vp(default["train"], default["setting"].prediction_steps, llm=llm,
                    iterations=scale.vp_iterations, lr=3e-3, seed=0)


# ---------------------------------------------------------------------- #
# ABR artifacts
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def abr_bench(scale):
    """ABR environments: video, train/test traces for default and unseen settings."""
    video, train_traces = build_setting(ABR_SETTINGS["default_train"],
                                        num_traces=scale.abr_traces, seed=0)
    _, test_traces = build_setting(ABR_SETTINGS["default_test"],
                                   num_traces=scale.abr_traces, seed=100)
    unseen = {}
    for index, name in enumerate(("unseen_setting1", "unseen_setting2", "unseen_setting3")):
        unseen_video, unseen_traces = build_setting(ABR_SETTINGS[name],
                                                    num_traces=scale.abr_traces,
                                                    seed=200 + index)
        unseen[name] = (unseen_video, unseen_traces)
    return {"video": video, "train": train_traces, "test": test_traces, "unseen": unseen}


@pytest.fixture(scope="session")
def abr_policies(scale, abr_bench):
    """The paper's ABR baselines, trained on the default training traces."""
    video, train_traces = abr_bench["video"], abr_bench["train"]
    env = ABREnvironment(video, train_traces, seed=0)
    genet, _ = train_genet(env, seed=0)
    return {"BBA": BBAPolicy(), "MPC": MPCPolicy(horizon=5), "GENET": genet}


@pytest.fixture(scope="session")
def abr_netllm(scale, abr_bench):
    """NetLLM adapted for ABR via DD-LRNA on the default training setting."""
    video, train_traces = abr_bench["video"], abr_bench["train"]
    pool = rl_collect_abr(video, train_traces, seed=0)
    llm = build_llm("llama2-7b-sim", lora_rank=8, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=0)
    return adapt_abr(video, train_traces, llm=llm, pool=pool,
                     iterations=scale.abr_iterations, seed=0)


# ---------------------------------------------------------------------- #
# CJS artifacts
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def cjs_bench(scale):
    """CJS workloads for default and unseen settings."""
    train_workloads = [build_workload(CJS_SETTINGS["default_train"], seed=s)[0]
                       for s in range(scale.cjs_workloads)]
    executors = CJS_SETTINGS["default_test"].scaled_num_executors
    test_workloads = [build_workload(CJS_SETTINGS["default_test"], seed=100 + s)[0]
                      for s in range(2)]
    unseen = {}
    for index, name in enumerate(("unseen_setting1", "unseen_setting2", "unseen_setting3")):
        setting = CJS_SETTINGS[name]
        unseen[name] = {
            "workloads": [build_workload(setting, seed=300 + 10 * index + s)[0] for s in range(2)],
            "executors": setting.scaled_num_executors,
        }
    return {"train": train_workloads, "test": test_workloads, "executors": executors,
            "unseen": unseen}


@pytest.fixture(scope="session")
def cjs_schedulers(scale, cjs_bench):
    """The paper's CJS baselines (FIFO, Fair, Decima trained by imitation)."""
    from repro.cjs import FIFOScheduler, FairScheduler

    decima, _ = train_decima(cjs_bench["train"], cjs_bench["executors"], epochs=3, seed=0)
    return {"FIFO": FIFOScheduler(), "Fair": FairScheduler(), "Decima": decima}


@pytest.fixture(scope="session")
def cjs_netllm(scale, cjs_bench):
    """NetLLM adapted for CJS via DD-LRNA."""
    pool = rl_collect_cjs(cjs_bench["train"], cjs_bench["executors"])
    llm = build_llm("llama2-7b-sim", lora_rank=8, pretrained=True,
                    pretrain_steps=scale.pretrain_steps, seed=0)
    return adapt_cjs(cjs_bench["train"], cjs_bench["executors"], llm=llm, pool=pool,
                     iterations=scale.cjs_iterations, context_window=10, seed=0)
