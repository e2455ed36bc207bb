"""fingerprint-purity: result-affecting modules must be deterministic.

The content-addressed store trusts :func:`repro.runner.store.code_version`
completely: two processes with the same sources must compute the same
fingerprint for the same request, today and in five years.  Any module
that ``code_version()`` hashes (everything outside ``runner/``, ``obs/``
and ``cli.py``) therefore must not let wall-clock time, unseeded
randomness, environment variables or enumeration-order-dependent
iteration reach a result — and the fingerprinting/serialization code
itself (``runner/records.py``, ``runner/store.py``) is held to the same
standard.

What trips it:

- any attribute use of the ``time`` or ``datetime`` modules;
- ``random.*`` / ``np.random.*`` calls (a *seeded* generator is fine —
  allowlist the construction site with ``# repro: allow(fingerprint-purity)``);
- ``os.environ`` / ``os.getenv`` reads;
- directory enumeration (``glob`` / ``rglob`` / ``iterdir`` /
  ``os.listdir`` / ``os.scandir``) not immediately wrapped in
  ``sorted(...)`` — filesystem order is not deterministic;
- iterating a ``set`` value directly in a ``for`` / comprehension —
  set order depends on insertion history and, for strings, on the
  per-process hash seed.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, SeedViolation, register

# The exclusion set is imported from the store so this rule's scope can
# never drift from what code_version() actually hashes.
from repro.runner.store import _NON_RESULT_DIRS, _NON_RESULT_FILES

#: Fingerprinting machinery held to purity rules even though
#: ``code_version()`` does not hash it.
_EXTRA_SCOPE = {
    "src/repro/runner/records.py",
    "src/repro/runner/store.py",
}

_UNSORTED_ENUMERATORS = {"glob", "rglob", "iterdir", "scandir", "listdir"}

_HINT = ("results must be reproducible from sources alone; derive the "
         "value deterministically, or allowlist a sanctioned use with "
         "'# repro: allow(fingerprint-purity)'")


def in_fingerprint_scope(rel_path: str) -> bool:
    """Is ``rel_path`` covered by ``code_version()`` or fingerprinting?"""
    if rel_path in _EXTRA_SCOPE:
        return True
    prefix = "src/repro/"
    if not rel_path.startswith(prefix):
        return False
    relative = rel_path[len(prefix):]
    parts = relative.split("/")
    return parts[0] not in _NON_RESULT_DIRS \
        and relative not in _NON_RESULT_FILES


class _PurityVisitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext, rule_name: str):
        self.ctx = ctx
        self.rule = rule_name
        self.findings: List[Finding] = []
        #: Local aliases of impure modules: {"time", "datetime", ...}
        self.time_aliases: Set[str] = set()
        self.random_aliases: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.os_aliases: Set[str] = set()

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name in ("time", "datetime"):
                self.time_aliases.add(bound)
            elif alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "os":
                self.os_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("time", "datetime", "random"):
            self._report(node, f"imports from {node.module!r}: "
                               f"{', '.join(a.name for a in node.names)}")
        elif node.module == "os":
            bad = [a.name for a in node.names
                   if a.name in ("environ", "getenv")]
            if bad:
                self._report(node, f"imports {', '.join(bad)} from os")
        elif node.module == "numpy" and any(a.name == "random"
                                            for a in node.names):
            self._report(node, "imports numpy.random")
        self.generic_visit(node)

    # -- uses -----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name):
            if value.id in self.time_aliases:
                self._report(node, f"clock/date access "
                                   f"{value.id}.{node.attr}")
            elif value.id in self.random_aliases:
                self._report(node, f"randomness {value.id}.{node.attr}")
            elif value.id in self.os_aliases and node.attr == "environ":
                self._report(node, "environment read os.environ")
            elif value.id in self.os_aliases and node.attr == "getenv":
                self._report(node, "environment read os.getenv")
        elif isinstance(value, ast.Attribute) \
                and isinstance(value.value, ast.Name) \
                and value.value.id in self.numpy_aliases \
                and value.attr == "random":
            self._report(node, f"randomness "
                               f"{value.value.id}.random.{node.attr}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _UNSORTED_ENUMERATORS \
                and not self._sorted_parent(node):
            self._report(node, f"directory enumeration .{func.attr}() "
                               f"without sorted(...)")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    # -- helpers --------------------------------------------------------

    def _check_set_iteration(self, iterable: ast.expr) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._report(iterable, "iterates a set literal "
                                   "(hash-order dependent)")
        elif isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id in ("set", "frozenset"):
            self._report(iterable, "iterates set(...) directly "
                                   "(hash-order dependent)")

    def _sorted_parent(self, node: ast.Call) -> bool:
        parent = self.ctx.parents.get(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted")

    def _report(self, node: ast.AST, what: str) -> None:
        self.findings.append(Finding(
            path=self.ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=f"{what} in a code_version()-covered module",
            hint=_HINT))


@register
class FingerprintPurityRule(FileRule):
    name = "fingerprint-purity"
    description = ("no time/randomness/env/enumeration-order dependence "
                   "in modules covered by code_version() or record "
                   "fingerprinting")
    seed_violation = SeedViolation(
        path="src/repro/models/zoo.py",
        append=("\n\nimport time\n\n"
                "_SMOKE_STAMP = time.time()\n"))

    def select(self, rel_path: str) -> bool:
        return in_fingerprint_scope(rel_path)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        visitor = _PurityVisitor(ctx, self.name)
        assert ctx.tree is not None
        visitor.visit(ctx.tree)
        return visitor.findings
