"""Project and per-file context handed to lint rules.

One :class:`Project` wraps a repository root; rules pull parsed
:class:`FileContext` objects from it.  Parsing is cached per file, so a
rule set touching the same module many times (the common case — most
rules scope to ``src/repro``) parses each file exactly once per run.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.analysis.pragmas import PragmaIndex, parse_pragmas

#: Directory names never walked for source files.
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache",
              ".pytest_cache", "build", "dist"}


class FileContext:
    """One parsed source file: text, AST, parent links, pragmas.

    ``parents`` maps every AST node to its parent, so rules can ask
    structural questions ("is this call wrapped in ``sorted()``?", "is
    this statement inside a loop?") without re-walking the tree.
    """

    def __init__(self, project: "Project", rel_path: str):
        self.project = project
        self.rel_path = rel_path
        self.abs_path = project.root / rel_path
        self._source: Optional[str] = None
        self._tree: Optional[ast.Module] = None
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._pragmas: Optional[PragmaIndex] = None
        self.parse_error: Optional[SyntaxError] = None

    @property
    def source(self) -> str:
        if self._source is None:
            self._source = self.abs_path.read_text(encoding="utf-8")
        return self._source

    @property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or ``None`` on a syntax error (recorded in
        ``parse_error``; the engine reports it as a finding)."""
        if self._tree is None and self.parse_error is None:
            try:
                self._tree = ast.parse(self.source, filename=self.rel_path)
            except SyntaxError as exc:
                self.parse_error = exc
        return self._tree

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            tree = self.tree
            if tree is not None:
                for node in ast.walk(tree):
                    for child in ast.iter_child_nodes(node):
                        parents[child] = node
            self._parents = parents
        return self._parents

    @property
    def pragmas(self) -> PragmaIndex:
        if self._pragmas is None:
            self._pragmas = parse_pragmas(self.source)
        return self._pragmas

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk ``node``'s parent chain up to the module."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)


class Project:
    """A checked-out repository as the rules see it."""

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self._contexts: Dict[str, FileContext] = {}
        self._files: Optional[List[str]] = None

    def validate(self) -> None:
        if not (self.root / "src" / "repro").is_dir():
            raise FileNotFoundError(
                f"{self.root} does not look like a repro checkout "
                f"(no src/repro/); pass --root")

    def python_files(self) -> List[str]:
        """Every ``.py`` file under ``src/`` and ``tests/``, sorted
        (deterministic order — the walk itself must not depend on
        directory enumeration order)."""
        if self._files is None:
            files: List[str] = []
            for top in ("src", "tests"):
                base = self.root / top
                if not base.is_dir():
                    continue
                for path in sorted(base.rglob("*.py")):
                    if _SKIP_DIRS.intersection(path.parts):
                        continue
                    files.append(path.relative_to(self.root).as_posix())
            self._files = sorted(files)
        return self._files

    def context(self, rel_path: str) -> FileContext:
        ctx = self._contexts.get(rel_path)
        if ctx is None:
            ctx = self._contexts[rel_path] = FileContext(self, rel_path)
        return ctx

    def forget(self, rel_path: str) -> None:
        """Drop the cached parse of ``rel_path`` (after editing it)."""
        self._contexts.pop(rel_path, None)

    def has_file(self, rel_path: str) -> bool:
        return (self.root / rel_path).is_file()
