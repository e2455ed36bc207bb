"""Meta-tests against the real checkout: the live tree must be clean,
and every rule's seed violation must still fire."""

from repro.analysis.engine import render_text, run_check
from repro.analysis.registry import all_rules
from repro.analysis.smoke import run_smoke


class TestLiveTree:
    def test_live_tree_is_violation_free(self, repo_root):
        result = run_check(repo_root)
        assert result.findings == [], "\n" + render_text(result)

    def test_every_rule_ships_a_seed_violation(self):
        for rule in all_rules():
            assert rule.seed_violation is not None, rule.name
            assert rule.seed_violation.path, rule.name

    def test_every_rule_has_name_and_description(self):
        for rule in all_rules():
            assert rule.name and rule.description


class TestSeedSmoke:
    def test_seeded_violations_all_fire(self, repo_root):
        import io

        out = io.StringIO()
        rc = run_smoke(repo_root, out=out)
        text = out.getvalue()
        assert rc == 0, text
        assert "all 7 rules fire" in text
