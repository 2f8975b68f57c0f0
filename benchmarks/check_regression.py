#!/usr/bin/env python3
"""Diff fresh perf results against committed baselines, loudly.

The perf benchmarks (``test_perf_inference.py``, ``test_perf_serving.py``,
``test_perf_serving_latency.py``, ``test_perf_speculative.py``) write their
measurements to ``benchmarks/results/``; the known-good numbers live in
``benchmarks/baselines/``.  This checker compares the two with per-direction
tolerances so the perf trajectory is machine-checked instead of eyeballed:
a higher-is-better metric may not fall below ``tolerance`` times its
baseline, a lower-is-better metric may not rise above ``1/tolerance`` times
it.

The default tolerance is deliberately loose (0.5) because absolute numbers
vary wildly across machines and CI load; the structural ratios (speedups,
ITL/throughput ratios) are the signal.  Override with
``REPRO_PERF_TOLERANCE`` or ``--tolerance``.

Run directly::

    python benchmarks/check_regression.py [--tolerance 0.5]

or via the ``slow``-marked wrapper in ``test_perf_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).parent
RESULTS_DIR = HERE / "results"
BASELINES_DIR = HERE / "baselines"
DEFAULT_TOLERANCE = 0.5

#: Metrics under regression watch: file -> {dotted.path: spec}.  A spec is
#: either a direction string — "higher" (throughput/speedups: fresh must not
#: fall below tolerance x baseline) or "lower" (latencies/ratios: fresh must
#: not rise above baseline / tolerance) — or a {"direction": ..., "gate": x}
#: dict, where ``gate`` is the benchmark's own acceptance bound: a value the
#: benchmark itself accepts is never flagged here, even when the committed
#: baseline is much better than the gate.  An {"exact": value} spec demands
#: the fresh value equal ``value`` regardless of tolerance — used for the
#: fault-tolerance counters that must stay identically zero (and health
#: identically "healthy") in every fault-free perf run, so accidentally
#: armed injection or silent quarantines fail the gate loudly.
WATCHED: Dict[str, Dict[str, object]] = {
    "perf_inference.json": {
        "tokens_per_second.full_window": "higher",
        "tokens_per_second.kv_cache": "higher",
        "tokens_per_second.speedup": "higher",
        "speedups.no_grad_vs_grad": "higher",
        "speedups.float32_vs_float64": "higher",
    },
    "perf_serving.json": {
        "per_batch_size.1.tokens_per_second": "higher",
        "per_batch_size.16.tokens_per_second": "higher",
        "speedup_batch16_vs_batch1": "higher",
        "shared_prefix.speedup": "higher",
        "streaming.ratio": "higher",
        "long_neighbour.tax_ratio": {"direction": "lower", "gate": 1.3},
        "long_neighbour.kv_padding_share": "lower",
        "per_batch_size.16.failed": {"exact": 0},
        "per_batch_size.16.faults_quarantined": {"exact": 0},
        "per_batch_size.16.retries": {"exact": 0},
        "per_batch_size.16.shed": {"exact": 0},
        "per_batch_size.16.health": {"exact": "healthy"},
        "shared_prefix.stats.health": {"exact": "healthy"},
    },
    "perf_telemetry.json": {
        "disabled_tokens_per_s": "higher",
        "enabled_tokens_per_s": "higher",
        "overhead_ratio": {"direction": "higher", "gate": 0.95},
    },
    "perf_speculative.json": {
        "single_stream.sequential_tokens_per_s": "higher",
        "single_stream.speculative_tokens_per_s": "higher",
        "single_stream.speedup": {"direction": "higher", "gate": 1.5},
        "single_stream.acceptance_rate": "higher",
        "mixed_batch.speedup": "higher",
        "fused_prefill.admission_speedup": {"direction": "higher",
                                            "gate": 1.2},
        "single_stream.server_stats.failed": {"exact": 0},
        "single_stream.server_stats.faults_quarantined": {"exact": 0},
        "single_stream.server_stats.retries": {"exact": 0},
        "single_stream.server_stats.shed": {"exact": 0},
        "single_stream.server_stats.health": {"exact": "healthy"},
        "fused_prefill.server_stats.failed": {"exact": 0},
        "fused_prefill.server_stats.faults_quarantined": {"exact": 0},
        "fused_prefill.server_stats.health": {"exact": "healthy"},
    },
    "perf_serving_latency.json": {
        "one_shot_best_tokens_per_s": "higher",
        "chunked_best_tokens_per_s": "higher",
        "itl_p95_ratio": {"direction": "lower", "gate": 0.5},
        "throughput_ratio": {"direction": "higher", "gate": 0.9},
        "one_shot.server_stats.failed": {"exact": 0},
        "one_shot.server_stats.faults_quarantined": {"exact": 0},
        "one_shot.server_stats.retries": {"exact": 0},
        "one_shot.server_stats.shed": {"exact": 0},
        "one_shot.server_stats.health": {"exact": "healthy"},
        "chunked.server_stats.failed": {"exact": 0},
        "chunked.server_stats.faults_quarantined": {"exact": 0},
        "chunked.server_stats.retries": {"exact": 0},
        "chunked.server_stats.shed": {"exact": 0},
        "chunked.server_stats.health": {"exact": "healthy"},
    },
}


def extract_raw(payload: Dict, dotted: str):
    """Resolve a dotted path inside a nested results dict (no cast)."""
    node = payload
    for key in dotted.split("."):
        node = node[key]
    return node


def extract(payload: Dict, dotted: str) -> float:
    """Resolve a dotted path inside a nested results dict as a number."""
    return float(extract_raw(payload, dotted))


def compare_file(baseline: Dict, fresh: Dict, metrics: Dict[str, object],
                 tolerance: float, name: str) -> List[str]:
    """Return one human-readable line per regressed metric."""
    regressions = []
    for dotted, spec in metrics.items():
        if isinstance(spec, dict) and "exact" in spec:
            # Exactness gate (no baseline, no tolerance): fresh must equal
            # the pinned value — supports non-numeric leaves like "healthy".
            expected = spec["exact"]
            try:
                new = extract_raw(fresh, dotted)
            except (KeyError, TypeError) as drift:
                regressions.append(
                    f"{name}: metric {dotted!r} unresolvable "
                    f"({type(drift).__name__}: {drift}; schema drift counts "
                    f"as a regression)")
                continue
            if new != expected:
                regressions.append(
                    f"{name}: {dotted} is {new!r}, expected exactly "
                    f"{expected!r} (fault-free perf runs must not "
                    f"quarantine/retry/shed)")
            continue
        if isinstance(spec, str):
            direction, gate = spec, None
        else:
            direction, gate = spec["direction"], spec.get("gate")
        try:
            base = extract(baseline, dotted)
            new = extract(fresh, dotted)
        except (KeyError, TypeError, ValueError) as drift:
            # Missing key, an intermediate node that is no longer a dict, or
            # a leaf that no longer parses as a number — all schema drift.
            regressions.append(
                f"{name}: metric {dotted!r} unresolvable "
                f"({type(drift).__name__}: {drift}; schema drift counts as "
                f"a regression)")
            continue
        if base <= 0:
            continue  # degenerate baseline: nothing meaningful to gate
        if direction == "higher":
            floor = tolerance * base
            if gate is not None:
                # Never demand more than the benchmark's own acceptance bound.
                floor = min(floor, gate)
            if new < floor:
                regressions.append(
                    f"{name}: {dotted} fell to {new:.4g} "
                    f"(baseline {base:.4g}, floor {floor:.4g})")
        else:
            ceiling = base / tolerance
            if gate is not None:
                # A value the benchmark itself accepts is not a regression.
                ceiling = max(ceiling, gate)
            if new > ceiling:
                regressions.append(
                    f"{name}: {dotted} rose to {new:.4g} "
                    f"(baseline {base:.4g}, ceiling {ceiling:.4g})")
    return regressions


def check(results_dir: Path = RESULTS_DIR, baselines_dir: Path = BASELINES_DIR,
          tolerance: float = None) -> Tuple[List[str], List[str]]:
    """Compare every watched file; return (regressions, files_checked)."""
    if tolerance is None:
        tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE",
                                         DEFAULT_TOLERANCE))
    if not 0 < tolerance <= 1:
        raise ValueError(f"tolerance must be in (0, 1], got {tolerance}")
    regressions: List[str] = []
    checked: List[str] = []
    for name, metrics in WATCHED.items():
        baseline_path = baselines_dir / name
        fresh_path = results_dir / name
        if not baseline_path.exists():
            regressions.append(
                f"{name}: no committed baseline at {baseline_path} "
                f"(copy the blessed results file there)")
            continue
        if not fresh_path.exists():
            # The matching benchmark did not run (and the results file is
            # not committed): nothing fresh to judge.
            continue
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
        with open(fresh_path, encoding="utf-8") as fh:
            fresh = json.load(fh)
        regressions.extend(
            compare_file(baseline, fresh, metrics, tolerance, name))
        checked.append(name)
    return regressions, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    parser.add_argument("--baselines-dir", type=Path, default=BASELINES_DIR)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="fraction of baseline a higher-is-better metric "
                             "may fall to (default %(default)s or "
                             "$REPRO_PERF_TOLERANCE)")
    args = parser.parse_args(argv)
    regressions, checked = check(args.results_dir, args.baselines_dir,
                                 args.tolerance)
    for name in checked:
        print(f"checked {name}")
    if regressions:
        print(f"\nPERF REGRESSION ({len(regressions)} metric(s)):")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(f"no perf regressions across {len(checked)} result file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
