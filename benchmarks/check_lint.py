#!/usr/bin/env python3
"""Diff the analyzer's lint report against its committed baseline, loudly.

Machine-checks the *invariant* trajectory the way ``bench/`` checks the
perf one.  It runs ``repro.analysis`` over ``src/``, writes the fresh report to
``benchmarks/results/lint.json``, and compares it against
``benchmarks/baselines/lint.json``:

* any **unsuppressed** finding fails immediately — the tree gate is zero,
  always;
* a **suppression-count drift** per rule also fails: a new
  ``# repro: noqa[...]`` is a reviewed decision, recorded by updating the
  baseline in the same PR that adds it, never something that slips in
  silently (run with ``--update-baseline`` after review).

Run directly::

    python benchmarks/check_lint.py [--update-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).parent
REPO = HERE.parent
RESULTS_DIR = HERE / "results"
BASELINE_PATH = HERE / "baselines" / "lint.json"

sys.path.insert(0, str(REPO / "src"))

from repro.analysis import run  # noqa: E402  (path bootstrap above)

#: The gate pass: the full rule set over the library tree (satellite code
#: under tests/, benchmarks/ and examples/ may legitimately trip e.g.
#: REP001 in ways the library must not, so it is not linted).
PASSES = [
    {"name": "src_full", "paths": ["src"], "select": None},
]


def fresh_report() -> Dict[str, object]:
    report: Dict[str, object] = {"passes": {}}
    for spec in PASSES:
        findings = run([REPO / p for p in spec["paths"]],
                       select=spec["select"], include_suppressed=True)
        counts: Dict[str, Dict[str, int]] = {}
        for finding in findings:
            bucket = counts.setdefault(finding.rule,
                                       {"unsuppressed": 0, "suppressed": 0})
            bucket["suppressed" if finding.suppressed
                   else "unsuppressed"] += 1
        report["passes"][spec["name"]] = {
            "counts": counts,
            "unsuppressed": [f.format() for f in findings
                             if not f.suppressed],
            "total_unsuppressed": sum(1 for f in findings
                                      if not f.suppressed),
            "total_suppressed": sum(1 for f in findings if f.suppressed),
        }
    return report


def check(report: Dict[str, object],
          baseline: Dict[str, object]) -> List[str]:
    problems: List[str] = []
    for name, data in report["passes"].items():
        for line in data["unsuppressed"]:
            problems.append(f"[{name}] unsuppressed finding: {line}")
        base = baseline.get("passes", {}).get(name)
        if base is None:
            problems.append(f"[{name}] pass missing from baseline "
                            f"(run with --update-baseline)")
            continue
        rules = set(data["counts"]) | set(base.get("counts", {}))
        for rule in sorted(rules):
            fresh_n = data["counts"].get(rule, {}).get("suppressed", 0)
            base_n = base.get("counts", {}).get(rule, {}).get(
                "suppressed", 0)
            if fresh_n != base_n:
                problems.append(
                    f"[{name}] {rule} suppression count drifted: "
                    f"{base_n} (baseline) -> {fresh_n} (fresh); a new "
                    f"noqa is a reviewed decision — update "
                    f"benchmarks/baselines/lint.json in the same PR")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline from this run "
                             "(only after reviewing every suppression)")
    args = parser.parse_args(argv)

    report = fresh_report()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lint.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print("no committed baseline; run with --update-baseline first",
              file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    problems = check(report, baseline)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"\n{len(problems)} lint-gate problem(s)", file=sys.stderr)
        return 1
    totals = {name: data["total_suppressed"]
              for name, data in report["passes"].items()}
    print(f"lint gate clean: 0 unsuppressed findings; "
          f"suppressions match baseline {totals}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
