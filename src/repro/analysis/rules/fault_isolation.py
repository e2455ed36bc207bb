"""fault-isolation: the fault plane stays out of result-bearing code.

``repro.faults`` exists to inject failures for testing, and it is
excluded from ``code_version()`` hashing so fault-plane edits never
invalidate the store.  That exclusion is only sound while no module the
hash *does* cover imports it: a hashed module calling into unhashed
code would let behavior change without the fingerprint changing.  So:
no ``code_version()``-hashed module may import ``repro.faults``.

The scope is derived from ``_NON_RESULT_DIRS`` by exclusion, which
makes the rule self-enforcing: if ``"faults"`` were ever dropped from
the exclusion set, the ``faults`` package itself would enter the hashed
scope and its own intra-package imports would trip this rule.

Allowlisted: ``src/repro/utils/native.py`` — it hosts the
``native.build``/``native.load`` fault sites, and its fault hooks only
choose between compute *tiers* that the equivalence suites pin
bit-identical, so results cannot depend on them (the same argument as
its ``fingerprint-purity`` allow).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, SeedViolation, register

# Imported from the store so the scope can never drift from what
# code_version() actually hashes.
from repro.runner.store import _NON_RESULT_DIRS, _NON_RESULT_FILES

#: Hashed modules allowed to touch the fault plane (see module docs).
_ALLOWED = {"src/repro/utils/native.py"}

_HINT = ("fault injection must stay out of fingerprint-hashed code "
         "paths: hook the failure seam from an unhashed module "
         "(runner/, cli.py) or allowlist a tier-selection-only use "
         "with '# repro: allow(fault-isolation)'")


def in_hashed_scope(rel_path: str) -> bool:
    """Is ``rel_path`` hashed by ``code_version()``?"""
    prefix = "src/repro/"
    if not rel_path.startswith(prefix):
        return False
    relative = rel_path[len(prefix):]
    parts = relative.split("/")
    return parts[0] not in _NON_RESULT_DIRS \
        and relative not in _NON_RESULT_FILES


class _ImportVisitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, rule_name: str):
        self.ctx = ctx
        self.rule = rule_name
        self.findings: List[Finding] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro.faults" \
                    or alias.name.startswith("repro.faults."):
                self._report(node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "repro.faults" or module.startswith("repro.faults."):
            self._report(node, f"from {module} import "
                               f"{', '.join(a.name for a in node.names)}")
        elif module == "repro" and any(a.name == "faults"
                                       for a in node.names):
            self._report(node, "from repro import faults")
        self.generic_visit(node)

    def _report(self, node: ast.AST, what: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=f"{what} in a code_version()-hashed module",
            hint=_HINT))


@register
class FaultIsolationRule(FileRule):
    name = "fault-isolation"
    description = ("code_version()-hashed modules must not import the "
                   "repro.faults injection plane")
    seed_violation = SeedViolation(
        path="src/repro/models/zoo.py",
        append=("\n\nfrom repro import faults as _faults\n\n"
                "_FAULT_HOOK = _faults.fire\n"))

    def select(self, rel_path: str) -> bool:
        return in_hashed_scope(rel_path) and rel_path not in _ALLOWED

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        visitor = _ImportVisitor(ctx, self.name)
        assert ctx.tree is not None
        visitor.visit(ctx.tree)
        return visitor.findings
