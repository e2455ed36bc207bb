"""Seed-violation smoke: prove every rule still fires.

A lint rule that silently stops matching is worse than no rule — the
gate stays green while the invariant rots.  Each rule therefore ships a
``seed_violation``: one known-bad edit.  This module copies ``src/`` and
``tests/`` into a scratch tree once, injects each seed in turn (undoing
the previous one; only the seeded file is re-parsed), runs the checker,
and fails loudly unless the owning rule reports a finding in the seeded
file.  CI runs it as ``python -m repro.analysis.smoke``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, TextIO

from repro.analysis.context import Project
from repro.analysis.engine import check_project
from repro.analysis.registry import Rule, all_rules


def _copy_tree(root: Path, scratch: Path) -> None:
    for top in ("src", "tests"):
        shutil.copytree(root / top, scratch / top,
                        ignore=shutil.ignore_patterns("__pycache__"))


def _check_seed(project: Project, rule: Rule) -> Optional[str]:
    """Seed ``rule``'s violation, run the rule, restore the file;
    returns an error string unless the rule caught its seed."""
    seed = rule.seed_violation
    assert seed is not None
    target = project.root / seed.path
    if not target.is_file():
        return f"seed path {seed.path} does not exist"
    original = target.read_text(encoding="utf-8")
    if seed.append:
        mutated = original + seed.append
    elif seed.replace:
        if seed.replace not in original:
            return (f"seed replace text not found in {seed.path} "
                    f"(the source drifted; update the seed)")
        mutated = original.replace(seed.replace, seed.replacement, 1)
    else:
        return "seed violation specifies no edit"
    target.write_text(mutated, encoding="utf-8")
    project.forget(seed.path)
    try:
        result = check_project(project, [rule])
    finally:
        target.write_text(original, encoding="utf-8")
        project.forget(seed.path)
    if not any(f.rule == rule.name and f.path == seed.path
               for f in result.findings):
        return f"seeded violation in {seed.path} was NOT caught"
    return None


def run_smoke(root: Path, out: TextIO = sys.stdout) -> int:
    rules = [rule for rule in all_rules() if rule.seed_violation]
    missing = [rule.name for rule in all_rules()
               if not rule.seed_violation]
    if missing:
        print(f"FAIL: rules without a seed violation: {missing}", file=out)
        return 1

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        scratch = Path(tmp)
        _copy_tree(root, scratch)
        project = Project(scratch)
        for rule in rules:
            error = _check_seed(project, rule)
            if error is None:
                print(f"ok    {rule.name}: seeded violation caught",
                      file=out)
            else:
                failures.append(f"{rule.name}: {error}")
                print(f"FAIL  {rule.name}: {error}", file=out)
    if failures:
        print(f"seed-violation smoke: {len(failures)} of {len(rules)} "
              f"rules failed", file=out)
        return 1
    print(f"seed-violation smoke: all {len(rules)} rules fire", file=out)
    return 0


def main() -> int:
    root = Path(__file__).resolve().parents[3]
    return run_smoke(root)


if __name__ == "__main__":
    raise SystemExit(main())
