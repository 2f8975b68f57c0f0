"""Compare two suite results: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  Every (workload, end-to-end metric) row gets
one verdict from the bound fixed in ``bench/spec.py``:

* ``same``        medians differ by no more than the bound;
* ``better`` / ``worse``  they differ by more, and B's min..max range lies
  wholly on one side of A's;
* ``unresolved``  they differ by more than the bound but the two ranges
  overlap, so the runs cannot tell.

Every ratio is printed with its base.  Exit code 1 on any ``worse`` row, any
rise in ``failed_share`` or any change of ``output_digest``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional


def verdict(a: Dict[str, float], b: Dict[str, float]) -> str:
    """One row's verdict; ``a`` and ``b`` hold value/min/max/better/bound."""
    base, value = a["value"], b["value"]
    lower_is_better = a["better"] == "lower"
    change = (value - base) / base if base else 0.0
    worsening = change if lower_is_better else -change
    if abs(worsening) <= a["bound"]:
        return "same"
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if overlap:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, base in a["workloads"].items():
        candidate = b["workloads"][name]
        for metric, a_row in base["end_to_end"].items():
            b_row = candidate["end_to_end"][metric]
            rows.append({
                "workload": name, "metric": metric, "unit": a_row["unit"],
                "base": a_row["value"], "value": b_row["value"],
                "ratio": b_row["value"] / a_row["value"] if a_row["value"] else 0.0,
                "bound": a_row["bound"], "verdict": verdict(a_row, b_row)})
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "share",
            "base": base["failed_share"], "value": candidate["failed_share"],
            "ratio": 0.0, "bound": 0.0,
            "verdict": "worse" if candidate["failed_share"] > base["failed_share"]
            else "same"})
        rows.append({
            "workload": name, "metric": "output_digest", "unit": "",
            "base": 0.0, "value": 0.0, "ratio": 0.0, "bound": 0.0,
            "verdict": "same" if base["output_digest"] == candidate["output_digest"]
            and base["output_digest"] is not None else "worse"})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as first, open(argv[1]) as second:
        a, b = json.load(first), json.load(second)
    rows = compare(a, b)
    print(f"{'workload':22s} {'metric':24s} {'base':>12s} {'value':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    for row in rows:
        if row["metric"] == "output_digest":
            print(f"{row['workload']:22s} {'output_digest':24s} {'':>12s} {'':>12s} "
                  f"{'':>7s} {'':>6s}  "
                  f"{'identical' if row['verdict'] == 'same' else 'DIFFERENT'}")
            continue
        print(f"{row['workload']:22s} {row['metric']:24s} {row['base']:12.4f} "
              f"{row['value']:12.4f} {row['ratio']:7.3f} {row['bound']:6.2f}  "
              f"{row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "same", "worse", "unresolved")}
    print(f"\n{counts['better']} better, {counts['same']} same, "
          f"{counts['worse']} worse, {counts['unresolved']} unresolved "
          f"(base: {a['environment']['git_commit'][:12]}, "
          f"candidate: {b['environment']['git_commit'][:12]})")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
