"""REP003 — fault-site catalog sync (a cross-file rule).

PR 6 introduced deterministic fault injection keyed by site name:
``self._faults.fire("decode.step")`` at the instrumented site, and
``FAULT_SITES`` in ``repro/serve/faults.py`` as the authoritative catalog
that docs, tests and the CLI's ``--fault-site`` validation all read.  The
two drift in both directions:

* a new instrumented site whose string never lands in the catalog is
  undiscoverable — ``REPRO_FAULTS`` can name it but nothing documents it
  and a ``StepRecord.faults`` entry names a site no reader can look up;
* a catalog entry whose call site was refactored away is a documented
  fault that can never fire — chaos tests targeting it silently test
  nothing.

This rule extracts the catalog from the ``FAULT_SITES`` dict literal's
AST, collects every fire-style call with a string-literal site argument
across the analyzed files, and reports both directions of drift.  When the
analyzed path set does not include a catalog module at all (fixture dirs,
partial runs over a single file) the rule stays silent — it is a
whole-project consistency check, not a per-file pattern.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import Finding
from .registry import Rule, register
from .walker import Project, SourceFile

#: The module-level dict literal holding the authoritative site catalog.
CATALOG_NAME = "FAULT_SITES"

#: Callable names whose first string-literal argument is a fault site:
#: ``self._faults.fire("decode.step")``, and
#: ``self.fault_hook("prefill.rows")`` for an object handed the injector's
#: ``fire`` as a bare hook.
_FIRE_NAMES = {"fire", "fault_hook"}


def _catalog_entries(file: SourceFile) -> Optional[Dict[str, int]]:
    """``FAULT_SITES`` keys -> line numbers, if this file defines it."""
    for node in file.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(isinstance(t, ast.Name) and t.id == CATALOG_NAME
                   for t in targets):
            continue
        if not isinstance(value, ast.Dict):
            return None
        entries: Dict[str, int] = {}
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                entries[key.value] = key.lineno
        return entries
    return None


def _fire_sites(file: SourceFile) -> Iterable[Tuple[str, ast.Call]]:
    """Every ``(site, call)`` for fire-style calls with literal sites."""
    for node in ast.walk(file.tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name not in _FIRE_NAMES:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield first.value, node


@register
class FaultSiteCatalogSync(Rule):
    """Fire sites and the ``FAULT_SITES`` catalog must agree both ways."""

    id = "REP003"
    title = "fault-site catalog sync (fire sites <-> FAULT_SITES)"
    hint = ("add new sites to FAULT_SITES in repro/serve/faults.py with a "
            "one-line description; delete catalog entries whose call "
            "sites are gone")

    def check(self, project: Project) -> Iterable[Finding]:
        catalog: Optional[Dict[str, int]] = None
        catalog_file: Optional[SourceFile] = None
        for file in project.files:
            entries = _catalog_entries(file)
            if entries is not None:
                catalog, catalog_file = entries, file
                break
        if catalog is None or catalog_file is None:
            return  # no catalog in this path set: nothing to sync against

        used = set()
        for file in project.files:
            for site, call in _fire_sites(file):
                used.add(site)
                if site not in catalog:
                    yield self.finding(
                        file.rel, call.lineno, call.col_offset,
                        f"fault site {site!r} is fired here but missing "
                        f"from {CATALOG_NAME} ({catalog_file.rel})")
        for site, lineno in catalog.items():
            if site not in used:
                yield self.finding(
                    catalog_file.rel, lineno, 0,
                    f"{CATALOG_NAME} entry {site!r} has no fire() call "
                    f"site anywhere in the analyzed tree — chaos tests "
                    f"targeting it test nothing")
