"""The ``repro check`` engine: run rules, apply pragmas, render output.

Orchestration only — the interesting logic lives in the rules.  The
engine walks the tree once, runs each selected rule, drops findings the
file's pragmas allowlist, reports syntax errors and typoed pragmas as
findings of their own (``parse-error`` / ``bad-pragma``), and renders
text or the stable JSON document ``--json`` promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.context import Project
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES, Rule, get_rules

#: Schema version of the ``repro check --json`` document.
JSON_SCHEMA_VERSION = 1

#: Pseudo-rule names the engine itself reports under.  They are valid
#: pragma targets like any rule (``# repro: allow(bad-pragma)`` is how
#: a fixture carrying a deliberately unknown pragma stays clean).
ENGINE_RULES = ("parse-error", "bad-pragma")


@dataclass
class CheckResult:
    """Everything one ``repro check`` run produced."""

    root: str
    rules: List[str]
    findings: List[Finding] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "root": self.root,
            "rules": list(self.rules),
            "findings": [f.as_dict() for f in self.findings],
            "counts": self.counts,
        }


def _pragma_findings(project: Project, known: Sequence[str]) -> List[Finding]:
    """A typoed pragma is a finding: it suppresses nothing and hides
    the intent to suppress something."""
    known_set = set(known) | set(ENGINE_RULES)
    findings = []
    for rel_path in project.python_files():
        pragmas = project.context(rel_path).pragmas
        for line, rule in pragmas.mentions:
            if rule not in known_set:
                findings.append(Finding(
                    path=rel_path, line=line, rule="bad-pragma",
                    message=f"pragma names unknown rule {rule!r}",
                    hint=f"known rules: {', '.join(sorted(known_set))}"))
    return findings


def _parse_error_findings(project: Project,
                          touched: Sequence[str]) -> List[Finding]:
    findings = []
    for rel_path in touched:
        ctx = project.context(rel_path)
        if ctx.tree is None and ctx.parse_error is not None:
            findings.append(Finding(
                path=rel_path, line=ctx.parse_error.lineno or 1,
                rule="parse-error",
                message=f"file does not parse: {ctx.parse_error.msg}",
                hint="repro check needs a syntactically valid tree"))
    return findings


def run_check(root: Path, rule_names: Optional[Sequence[str]] = None,
              ) -> CheckResult:
    """Run the selected rules (all by default) against ``root``.

    Returns every surviving finding, sorted by ``(path, line, rule)``.
    """
    project = Project(Path(root))
    project.validate()
    return check_project(project, get_rules(rule_names))


def check_project(project: Project, rules: Sequence[Rule]) -> CheckResult:
    """Run ``rules`` over an already-open ``project``.

    Pragma suppression is applied here, centrally, so no rule needs to
    know pragmas exist.  Parsed files stay cached on ``project``, so a
    caller running several checks over one tree parses each file once.
    """
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.run(project):
            pragmas = project.context(finding.path).pragmas \
                if project.has_file(finding.path) else None
            if pragmas is not None and pragmas.allows(rule.name,
                                                      finding.line):
                continue
            findings.append(finding)

    # Engine findings: files that do not parse, pragmas naming rules
    # that do not exist.  Both validated against the full registry even
    # under --rule, so a subset run never mislabels a good pragma.
    touched = project.python_files()
    for finding in _parse_error_findings(project, touched) \
            + _pragma_findings(project, list(RULES)):
        pragmas = project.context(finding.path).pragmas
        if not pragmas.allows(finding.rule, finding.line):
            findings.append(finding)

    findings.sort()
    return CheckResult(root=str(project.root),
                       rules=[r.name for r in rules],
                       findings=findings)


def render_text(result: CheckResult) -> str:
    """Human-readable report (what ``repro check`` prints)."""
    if not result.findings:
        return (f"repro check: clean "
                f"({len(result.rules)} rules, root {result.root})")
    lines = [finding.render() for finding in result.findings]
    counts = ", ".join(f"{name}: {count}"
                       for name, count in sorted(result.counts.items()))
    lines.append(f"repro check: {len(result.findings)} finding(s) "
                 f"({counts})")
    return "\n".join(lines)


def list_rules() -> List[Rule]:
    """Registered rules in registration order (``--list-rules``)."""
    return get_rules(None)
