"""The :class:`Finding` record every rule emits.

A finding is one violation of one project invariant at one source
location.  Findings are plain frozen dataclasses so they sort, dedupe and
serialize trivially — the CLI's ``--format=json`` output is
:meth:`Finding.as_dict` verbatim, and the fast-lane gates
(``tests/test_static_analysis.py::TestTreeGates``) count them by rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

#: Finding severities.  ``error`` findings are invariant violations that
#: fail the gate; ``warning`` findings are advisory (none of the core
#: rules currently emit them, but custom rules may).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: True when a ``# repro: noqa[REPxxx]`` comment on the flagged line
    #: acknowledges the finding (it then does not fail the gate).
    suppressed: bool = False

    def suppress(self) -> "Finding":
        return replace(self, suppressed=True)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "suppressed": self.suppressed,
        }

    def format(self) -> str:
        """One ``path:line:col: RULE [severity] message`` text line."""
        tag = f"{self.rule} [{'suppressed' if self.suppressed else self.severity}]"
        line = f"{self.path}:{self.line}:{self.col}: {tag} {self.message}"
        if self.hint:
            line += f"  (hint: {self.hint})"
        return line

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)
