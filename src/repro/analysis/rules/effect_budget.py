"""effect-budget: the paper's math packages stay effect-free.

``analytic``, ``integrity``, ``protection`` and ``tiling`` hold the
closed-form models the reproduction is built on (rooflines, MAC/DRAM
analytics, protection-overhead math, tiling search).  They are pure by
design: every result they produce is a function of their arguments, so
the store's fingerprints stay honest and any function can run under the
evaluation service with no sandboxing questions.  A filesystem or
process effect creeping into one of them is a layering bug by
definition — caching, persistence and process fan-out belong to
``runner/``.

The check is syntactic and per file: no import of a filesystem or
process module, no call to builtin ``open``, and no call to a
file-method name (``path.write_text(...)`` and friends, duck-typed).
Effects reached through calls into other packages are out of scope:
``protection`` may call the optional native-kernel loader, whose build
effects belong to ``utils``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Tuple

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, SeedViolation, register

#: Packages that must stay free of filesystem and process effects.
PURE_PACKAGES = ("analytic", "integrity", "protection", "tiling")

#: Top-level modules whose import gives a pure package an effect.
BANNED_MODULES = frozenset({
    "os", "shutil", "subprocess", "tempfile", "pathlib", "fcntl",
    "socket", "multiprocessing", "concurrent"})

#: Method names that read or mutate the filesystem (``pathlib.Path``).
FILE_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
    "mkdir", "rmdir", "touch"})

_HINT = ("pure packages compute; persistence and process fan-out "
         "belong to runner/ — move the effect behind an injected "
         "callback or into the runner layer")


def _package(rel_path: str) -> str:
    parts = rel_path.split("/")
    return parts[2] if len(parts) > 3 and parts[:2] == ["src", "repro"] \
        else ""


def _effects(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """``(node, what)`` for every banned import or call in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in BANNED_MODULES:
                    yield node, f"imports {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] in BANNED_MODULES:
                yield node, f"imports from {module}"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node, "calls open()"
            elif isinstance(func, ast.Attribute) \
                    and func.attr in FILE_METHODS:
                yield node, f"calls .{func.attr}()"


@register
class EffectBudgetRule(FileRule):
    name = "effect-budget"
    description = ("pure packages (analytic/integrity/protection/"
                   "tiling) import no filesystem or process module and "
                   "call no open() or file method")
    seed_violation = SeedViolation(
        path="src/repro/tiling/optblk.py",
        append='\n\ndef _smoke_dump_plan(plan, path):\n'
               '    with open(path, "w") as handle:\n'
               '        handle.write(repr(plan))\n')

    def select(self, rel_path: str) -> bool:
        return _package(rel_path) in PURE_PACKAGES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        package = f"repro.{_package(ctx.rel_path)}"
        findings: List[Finding] = []
        for node, what in _effects(ctx.tree):
            findings.append(Finding(
                path=ctx.rel_path, line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0), rule=self.name,
                message=f"{what} inside pure package {package}",
                hint=_HINT))
        return findings
