"""Structured lint findings and per-site suppressions.

A :class:`LintFinding` pins one rule violation to a ``file:line``
location (taken from ``co_filename``/``co_firstlineno`` of the analyzed
code object, or from the statement when analyzing mini-C/asm ASTs) with
a human explanation.  A :class:`LintReport` aggregates the findings of
one lint run — one rule application, one interface, or one scanned
module — and renders them for the CLI and for certificate provenance.

Suppressions are per function: a ``# repro: allow(RULE-ID)`` comment
anywhere in the source of the function a finding is anchored to marks
that finding suppressed (it is still reported, flagged ``suppressed``,
but never gates).  Reviewed suppressions must say *why* in an adjacent
comment — that convention is enforced by review, not by the tool.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .rules import ERROR, RULES, RULESET_VERSION, WARNING

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Z0-9,\-\s]+?)\s*\)")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one site."""

    rule_id: str
    severity: str
    message: str
    file: str = "<unknown>"
    line: int = 0
    obj: str = ""          # qualified name of the analyzed object
    suppressed: bool = False

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "object": self.obj,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        where = f" [{self.obj}]" if self.obj else ""
        return (
            f"{self.location}: {self.severity.upper()} {self.rule_id}: "
            f"{self.message}{where}{mark}"
        )

    def __repr__(self):
        return f"LintFinding({self.rule_id}@{self.location})"


def finding(
    rule_id: str,
    message: str,
    *,
    file: str = "<unknown>",
    line: int = 0,
    obj: str = "",
    suppressed: bool = False,
) -> LintFinding:
    """Build a finding, pulling the severity from the rule catalog."""
    return LintFinding(
        rule_id=rule_id,
        severity=RULES[rule_id].severity,
        message=message,
        file=file,
        line=line,
        obj=obj,
        suppressed=suppressed,
    )


@dataclass
class LintReport:
    """The findings of one lint run, plus what was looked at."""

    findings: List[LintFinding] = field(default_factory=list)
    mode: str = "record"
    checked: Dict[str, int] = field(default_factory=dict)

    def extend(self, more: Iterable[LintFinding]) -> "LintReport":
        self.findings.extend(more)
        return self

    def note_checked(self, what: str, count: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + count

    @property
    def errors(self) -> List[LintFinding]:
        return [
            f for f in self.findings
            if f.severity == ERROR and not f.suppressed
        ]

    @property
    def warnings(self) -> List[LintFinding]:
        return [
            f for f in self.findings
            if f.severity == WARNING and not f.suppressed
        ]

    def to_provenance(self) -> Dict[str, Any]:
        """The record stamped into certificate provenance."""
        return {
            "ruleset": RULESET_VERSION,
            "mode": self.mode,
            "checked": dict(sorted(self.checked.items())),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{sum(1 for f in self.findings if f.suppressed)} suppressed "
            f"({RULESET_VERSION})"
        )
        return "\n".join(lines)


def dedupe(findings: Iterable[LintFinding]) -> List[LintFinding]:
    """Stable de-duplication by (rule, location, message)."""
    seen = set()
    out: List[LintFinding] = []
    for f in findings:
        key = (f.rule_id, f.file, f.line, f.message)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


# --- suppressions -----------------------------------------------------------


def suppressed_rules_in_source(source: str) -> frozenset:
    """Rule ids allowed by ``# repro: allow(...)`` comments in ``source``."""
    allowed = set()
    for match in _ALLOW_RE.finditer(source):
        for rule_id in match.group(1).split(","):
            rule_id = rule_id.strip()
            if rule_id:
                allowed.add(rule_id)
    return frozenset(allowed)


#: ``suppressed_rules`` answers by code-object identity: ``id`` ->
#: ``(code, rules)``, holding the code so an ``id`` is never reused.
#: Bounded and cleared wholesale when full (every edit compiles a fresh
#: code object).
_SUPPRESSED: Dict[int, Tuple[Any, frozenset]] = {}
_SUPPRESSED_LIMIT = 4096


def suppressed_rules(fn: Any) -> frozenset:
    """Rule ids suppressed for the function (or code object) ``fn``.

    Reads the function's own source via :mod:`inspect`, once per code
    object; unreadable source (REPL definitions, exec'd code)
    suppresses nothing.
    """
    import inspect

    code = getattr(inspect.unwrap(fn), "__code__", fn)
    entry = _SUPPRESSED.get(id(code))
    if entry is not None and entry[0] is code:
        return entry[1]
    try:
        rules = suppressed_rules_in_source(inspect.getsource(fn))
    except (OSError, TypeError):
        rules = frozenset()
    if len(_SUPPRESSED) >= _SUPPRESSED_LIMIT:
        _SUPPRESSED.clear()
    _SUPPRESSED[id(code)] = (code, rules)
    return rules


def apply_suppressions(
    findings: Iterable[LintFinding],
    allowed_by_obj: Dict[str, frozenset],
) -> List[LintFinding]:
    """Mark findings whose rule is allowed for their anchor object."""
    out: List[LintFinding] = []
    for f in findings:
        allowed = allowed_by_obj.get(f.obj, frozenset())
        if f.rule_id in allowed and not f.suppressed:
            f = LintFinding(
                rule_id=f.rule_id, severity=f.severity, message=f.message,
                file=f.file, line=f.line, obj=f.obj, suppressed=True,
            )
        out.append(f)
    return out


def sort_findings(findings: Iterable[LintFinding]) -> List[LintFinding]:
    """Deterministic order: errors first, then by location and rule."""
    rank = {ERROR: 0, WARNING: 1}
    return sorted(
        findings,
        key=lambda f: (
            rank.get(f.severity, 2), f.file, f.line, f.rule_id, f.message,
        ),
    )
