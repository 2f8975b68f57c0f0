"""``python -m repro.analysis`` — the project linter's command line.

Exit codes follow the gate contract: 0 means no unsuppressed findings,
1 means at least one, 2 means the run itself failed (bad arguments,
missing paths).  ``--format=json`` emits a machine-readable report with
per-rule suppressed/unsuppressed counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from . import run_project
from .registry import RULES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based project lint + static lock-discipline "
                    "checker for the repro tree.")
    parser.add_argument("paths", nargs="*",
                        help="files and/or directories to analyze")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="REPxxx",
                        help="run only these rules (repeatable)")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="REPxxx",
                        help="skip these rules (repeatable)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print findings silenced by "
                             "`# repro: noqa[...]` comments")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _list_rules() -> None:
    for rule in RULES.values():
        print(f"{rule.id}  [{rule.severity}]  {rule.title}")
        if rule.hint:
            print(f"       hint: {rule.hint}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _list_rules()
        return 0
    if not args.paths:
        parser.error("the following arguments are required: paths")

    started = time.perf_counter()
    try:
        findings = run_project(args.paths, select=args.select,
                               ignore=args.ignore, include_suppressed=True)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    unsuppressed = [f for f in findings if not f.suppressed]
    shown = findings if args.show_suppressed else unsuppressed

    if args.format == "json":
        per_rule: dict = {}
        for finding in findings:
            bucket = per_rule.setdefault(
                finding.rule, {"unsuppressed": 0, "suppressed": 0})
            bucket["suppressed" if finding.suppressed
                   else "unsuppressed"] += 1
        print(json.dumps({
            "findings": [f.as_dict() for f in shown],
            "counts": per_rule,
            "total_unsuppressed": len(unsuppressed),
            "total_suppressed": len(findings) - len(unsuppressed),
            "elapsed_s": round(elapsed, 3),
        }, indent=2, sort_keys=True))
    else:
        for finding in shown:
            print(finding.format())
        suppressed_count = len(findings) - len(unsuppressed)
        summary = (f"{len(unsuppressed)} finding(s)"
                   f" ({suppressed_count} suppressed)"
                   f" in {elapsed:.2f}s")
        print(summary if not shown else f"\n{summary}")

    return 1 if unsuppressed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
