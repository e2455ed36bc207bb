"""Built-in ``repro check`` rules.

Importing this package registers every shipped rule (each module's
``@register`` decorator runs at import).  Add a new rule by dropping a
module here and importing it below; ``repro check --list-rules`` and the
CI seed-violation smoke pick it up automatically.  A rule earns its
place by guarding a tree-wide invariant no test can pin; what a test
can check dynamically (the result store's concurrency, for one) is
tested, not linted.
"""

from repro.analysis.rules import (  # noqa: F401
    effect_budget,
    fault_isolation,
    fingerprint_purity,
    hot_path,
    obs_discipline,
    schema_guard,
    tier_parity,
)
