"""repro.analysis — the project's own static analyzer.

Generic linters know Python; they do not know *this* repo.  The rules
here mechanize invariants that were each learned from a real bug or a
real design decision in this tree — the fig03 ``pool or default``
empty-collection bug, the gelu ``np.power`` hot-path regression, the
fault-site catalog, the telemetry
one-None-check contract, the threaded engine's lock discipline, and the
raw-array (``Tensor``-free) serving step.
``docs/static_analysis.md`` is the rule catalog with the full rationale.

Library use::

    from repro.analysis import run
    findings = run(["src/"])                  # unsuppressed findings
    assert not findings

CLI use::

    python -m repro.analysis src/                      # text report
    python -m repro.analysis --format=json src/        # machine report
    python -m repro.analysis --select REP001 tests/    # one rule only

Suppression::

    x = np.power(a, b)  # repro: noqa[REP002] general-exponent autograd op
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from .registry import RULES, Rule, get_rules, register
from .suppressions import apply_suppressions
from .walker import Project, SourceFile, load_project, parse_source

# Importing the rule modules populates the registry.
from . import rules_patterns  # noqa: F401  (registration side effect)
from . import rules_faults  # noqa: F401  (registration side effect)
from . import lockgraph  # noqa: F401  (registration side effect)
from .lockgraph import build_lock_graph, find_cycles

__all__ = [
    "Finding", "SEVERITY_ERROR", "SEVERITY_WARNING",
    "Rule", "RULES", "register", "get_rules",
    "Project", "SourceFile", "load_project", "parse_source",
    "build_lock_graph", "find_cycles",
    "run", "run_project", "check_sources",
]


def run_project(paths: Sequence[Union[str, "object"]],
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None,
                include_suppressed: bool = False) -> List[Finding]:
    """Analyze files/directories; the CLI and the pytest gate enter here."""
    rules = get_rules(select=select, ignore=ignore)
    project = load_project(paths)
    findings: List[Finding] = list(project.errors)
    for rule in rules:
        findings.extend(rule.check(project))
    findings = apply_suppressions(findings, project.by_path())
    findings.sort(key=Finding.sort_key)
    if include_suppressed:
        return findings
    return [f for f in findings if not f.suppressed]


def run(paths: Sequence[Union[str, "object"]],
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
        include_suppressed: bool = False) -> List[Finding]:
    """Alias of :func:`run_project` — the documented library entry point."""
    return run_project(paths, select=select, ignore=ignore,
                       include_suppressed=include_suppressed)


def check_sources(sources: dict,
                  select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None,
                  include_suppressed: bool = False) -> List[Finding]:
    """Analyze in-memory ``{path: source}`` blobs (fixture tests enter
    here — no tmp files needed, and REP002's path scoping still applies
    because the dict keys act as relative paths)."""
    project = Project()
    for path, source in sources.items():
        try:
            project.files.append(parse_source(source, path))
        except SyntaxError as error:
            from .walker import PARSE_RULE, normalize
            project.errors.append(Finding(
                rule=PARSE_RULE, severity=SEVERITY_ERROR,
                path=normalize(path),
                line=error.lineno if error.lineno is not None else 1,
                col=error.offset if error.offset is not None else 0,
                message=f"syntax error: {error.msg}"))
    rules = get_rules(select=select, ignore=ignore)
    findings: List[Finding] = list(project.errors)
    for rule in rules:
        findings.extend(rule.check(project))
    findings = apply_suppressions(findings, project.by_path())
    findings.sort(key=Finding.sort_key)
    if include_suppressed:
        return findings
    return [f for f in findings if not f.suppressed]
