"""Static analysis over the repro tree: ``repro check``.

Repo-specific invariants that generic linters cannot see and no test
can pin tree-wide — fingerprint purity, pinned record schemas,
fault-plane isolation, native/Python tier parity, recorder discipline,
hot-path hygiene, effect-free math packages — expressed as AST rules
with allowlist pragmas.  See :mod:`repro.analysis.engine` for the
entry point and ``README.md`` ("Static analysis & correctness gates")
for the catalog.
"""

from repro.analysis.engine import (  # noqa: F401
    JSON_SCHEMA_VERSION,
    CheckResult,
    list_rules,
    render_text,
    run_check,
)
from repro.analysis.findings import Finding  # noqa: F401
