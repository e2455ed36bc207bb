"""Allowlist pragmas: ``# repro: allow(<rule>)``.

Two forms, both parsed from real comment tokens (``tokenize``), so the
same text inside a string literal never suppresses anything:

- **line pragma** — ``# repro: allow(rule-a, rule-b)`` trailing the
  violating line, or standing alone on the line directly above it
  (for lines too long to carry a trailing comment);
- **file pragma** — ``# repro: allow-file(rule)`` anywhere in the file
  suppresses that rule for the whole file (used sparingly: a module
  whose entire job is the sanctioned exception, e.g. a scalar oracle).

Unknown rule names inside a pragma are themselves reported by the
engine (``bad-pragma``): a typoed pragma must fail loudly, not silently
keep suppressing nothing while the violation it meant to cover ships.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow(?P<scope>-file)?\(\s*(?P<rules>[^)]*?)\s*\)")


@dataclass
class PragmaIndex:
    """Parsed pragmas of one file."""

    #: rule -> physical lines (1-based) the rule is allowed on.  A line
    #: pragma covers its own line and the line below, so a standalone
    #: pragma comment suppresses the statement it precedes.
    line_allows: Dict[str, Set[int]] = field(default_factory=dict)
    #: Rules allowed for the whole file.
    file_allows: Set[str] = field(default_factory=set)
    #: Every (line, rule) pair seen, for unknown-rule validation.
    mentions: List[Tuple[int, str]] = field(default_factory=list)

    def allows(self, rule: str, line: int) -> bool:
        if rule in self.file_allows:
            return True
        return line in self.line_allows.get(rule, ())


def _split_rules(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_pragmas(source: str) -> PragmaIndex:
    """Extract the pragma index from one file's source text."""
    index = PragmaIndex()
    if _ALLOW_RE.search(source) is None:
        return index     # no pragma text at all: skip tokenizing
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # The engine only reaches here for parseable files; a tokenizer
        # failure on exotic input just means no pragmas.
        return index
    for line, comment in comments:
        for match in _ALLOW_RE.finditer(comment):
            rules = _split_rules(match.group("rules"))
            for rule in rules:
                index.mentions.append((line, rule))
                if match.group("scope"):
                    index.file_allows.add(rule)
                else:
                    covered = index.line_allows.setdefault(rule, set())
                    covered.add(line)
                    covered.add(line + 1)
    return index
