"""Per-rule fixtures: positive, negative and pragma-suppressed cases.

Each case builds a minimal scratch checkout and runs exactly one rule
over it, so cross-rule noise (e.g. schema-guard noticing the scratch
tree has no records module) never reaches these assertions.
"""

import pytest

from repro.analysis.engine import run_check


def _findings(root, rule):
    result = run_check(root, rule_names=[rule])
    return [f for f in result.findings if f.rule == rule]


class TestFingerprintPurity:
    RULE = "fingerprint-purity"

    def test_clock_read_in_scope_fires(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            import time

            STAMP = time.time()
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert found[0].path == "src/repro/models/demo.py"
        assert "time.time" in found[0].message
        assert found[0].hint

    def test_deterministic_module_is_clean(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            def double(values):
                return [v * 2 for v in values]
            """})
        assert _findings(root, self.RULE) == []

    def test_pragma_suppresses_seeded_rng(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            import random

            def shuffle(items, seed):
                rng = random.Random(seed)  # repro: allow(fingerprint-purity)
                rng.shuffle(items)
                return items
            """})
        assert _findings(root, self.RULE) == []

    def test_excluded_module_is_out_of_scope(self, make_project):
        root = make_project({"src/repro/obs/demo.py": """\
            import time

            STAMP = time.time()
            """})
        assert _findings(root, self.RULE) == []

    def test_unsorted_glob_fires_sorted_does_not(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            def listing(root):
                return [p.name for p in root.glob("*.json")]

            def sorted_listing(root):
                return [p.name for p in sorted(root.glob("*.json"))]
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert ".glob()" in found[0].message

    def test_set_iteration_fires(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            def names(items):
                return [n for n in set(items)]
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert "hash-order" in found[0].message

    def test_env_read_fires(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            import os

            FLAG = os.environ.get("SOME_FLAG")
            """})
        assert len(_findings(root, self.RULE)) == 1


class TestHotPathHygiene:
    RULE = "hot-path-hygiene"

    def test_tolist_iteration_fires(self, make_project):
        root = make_project({"src/repro/dram/demo.py": """\
            def total(addrs):
                acc = 0
                for addr in addrs.tolist():
                    acc += addr
                return acc
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert ".tolist()" in found[0].message

    def test_column_operations_are_clean(self, make_project):
        root = make_project({"src/repro/dram/demo.py": """\
            def totals(addrs, streams):
                base = addrs.sum()
                return [base + s.length for s in streams]
            """})
        assert _findings(root, self.RULE) == []

    def test_enumerate_over_column_fires(self, make_project):
        root = make_project({"src/repro/dram/demo.py": """\
            def scan(cycles):
                return [i for i, c in enumerate(cycles)]
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert "enumerate" in found[0].message

    def test_pragma_suppresses_scalar_carry(self, make_project):
        root = make_project({"src/repro/dram/demo.py": """\
            def carry(arrivals):
                acc = 0.0
                # repro: allow(hot-path-hygiene)
                for a in arrivals.tolist():
                    acc = max(acc, a)
                return acc
            """})
        assert _findings(root, self.RULE) == []

    def test_unscoped_plane_is_ignored(self, make_project):
        root = make_project({"src/repro/models/demo.py": """\
            def total(addrs):
                return sum(a for a in addrs.tolist())
            """})
        assert _findings(root, self.RULE) == []


class TestObsDiscipline:
    RULE = "obs-noop-discipline"

    def test_recorder_call_in_loop_fires(self, make_project):
        root = make_project({"src/repro/protection/demo.py": """\
            from repro import obs

            def drive(accesses):
                for access in accesses:
                    obs.incr("demo.access")
            """})
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert "obs.incr" in found[0].message

    def test_stage_granularity_is_clean(self, make_project):
        root = make_project({"src/repro/protection/demo.py": """\
            from repro import obs

            def drive(accesses):
                with obs.span("demo.drive"):
                    total = len(accesses)
                obs.incr("demo.accesses", total)
            """})
        assert _findings(root, self.RULE) == []

    def test_function_boundary_stops_the_walk(self, make_project):
        root = make_project({"src/repro/protection/demo.py": """\
            from repro import obs

            def build(stages):
                handlers = []
                for stage in stages:
                    def handler():
                        obs.incr("demo.stage")
                    handlers.append(handler)
                return handlers
            """})
        assert _findings(root, self.RULE) == []

    def test_pragma_suppresses_sanctioned_loop(self, make_project):
        root = make_project({"src/repro/protection/demo.py": """\
            from repro import obs

            def drive(layers):
                for layer in layers:
                    # repro: allow(obs-noop-discipline)
                    obs.incr("demo.layer")
            """})
        assert _findings(root, self.RULE) == []

    def test_recorder_call_in_comprehension_fires(self, make_project):
        root = make_project({"src/repro/accel/demo.py": """\
            from repro import obs

            def drive(accesses):
                return [obs.incr("demo.access") for _ in accesses]
            """})
        assert len(_findings(root, self.RULE)) == 1


_GOOD_NATIVE = """\
    FALLBACKS = {
        "my_kernel": ["repro.slow:slow_kernel"],
    }

    def _load():
        return None

    def my_kernel(x):
        lib = _load()
        return None if lib is None else x

    def available():
        return _load() is not None
    """

_SLOW = """\
    def slow_kernel(x):
        return x
    """

_KERNEL_TEST = """\
    from repro.slow import slow_kernel
    from repro.utils import native

    def test_kernel_parity():
        assert native.my_kernel(3) in (None, slow_kernel(3))
    """


class TestTierParity:
    RULE = "tier-parity"

    def _tree(self, native):
        return {
            "src/repro/utils/native.py": native,
            "src/repro/slow.py": _SLOW,
            "tests/test_kernels.py": _KERNEL_TEST,
        }

    def test_registered_and_tested_kernel_is_clean(self, make_project):
        root = make_project(self._tree(_GOOD_NATIVE))
        assert _findings(root, self.RULE) == []

    def test_unregistered_entry_point_fires(self, make_project):
        native = _GOOD_NATIVE + (
            "\n"
            "    def rogue_kernel(x):\n"
            "        lib = _load()\n"
            "        return x\n")
        root = make_project(self._tree(native))
        found = _findings(root, self.RULE)
        messages = " | ".join(f.message for f in found)
        assert "rogue_kernel" in messages
        assert "not in" in messages

    def test_unresolvable_fallback_fires(self, make_project):
        native = _GOOD_NATIVE.replace("repro.slow:slow_kernel",
                                      "repro.slow:missing_kernel")
        root = make_project(self._tree(native))
        found = _findings(root, self.RULE)
        assert any("does not resolve" in f.message for f in found)

    def test_untested_kernel_fires(self, make_project):
        files = self._tree(_GOOD_NATIVE)
        files["tests/test_kernels.py"] = "def test_unrelated():\n    pass\n"
        root = make_project(files)
        found = _findings(root, self.RULE)
        assert any("never named under tests/" in f.message for f in found)

    def test_stale_manifest_entry_fires(self, make_project):
        native = _GOOD_NATIVE.replace(
            '"my_kernel": ["repro.slow:slow_kernel"],',
            '"my_kernel": ["repro.slow:slow_kernel"],\n'
            '        "gone_kernel": ["repro.slow:slow_kernel"],')
        root = make_project(self._tree(native))
        found = _findings(root, self.RULE)
        assert any("gone_kernel" in f.message for f in found)

    def test_missing_manifest_fires(self, make_project):
        native = "\n".join(
            line for line in _GOOD_NATIVE.splitlines()
            if "FALLBACKS" not in line and '"my_kernel"' not in line
            and line.strip() != "}") + "\n"
        root = make_project(self._tree(native))
        found = _findings(root, self.RULE)
        assert any("no literal FALLBACKS manifest" in f.message
                   for f in found)


class TestSchemaGuard:
    RULE = "schema-guard"

    @pytest.fixture
    def records_source(self, repo_root):
        return (repo_root / "src/repro/runner/records.py") \
            .read_text(encoding="utf-8")

    def _tree(self, source):
        return {"src/repro/runner/records.py": source}

    def test_pinned_layout_is_clean(self, make_project, records_source):
        root = make_project(self._tree(records_source))
        assert _findings(root, self.RULE) == []

    def test_field_change_without_bump_fires(self, make_project,
                                             records_source):
        mutated = records_source.replace(
            '"scheme_name": run.scheme_name,',
            '"scheme_name": run.scheme_name,\n        "smoke": 0,')
        assert mutated != records_source
        root = make_project(self._tree(mutated))
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert "without bumping SCHEMA_VERSION" in found[0].message

    def test_field_change_with_bump_wants_regen(self, make_project,
                                                records_source):
        mutated = records_source.replace(
            '"scheme_name": run.scheme_name,',
            '"scheme_name": run.scheme_name,\n        "smoke": 0,')
        mutated = mutated.replace("SCHEMA_VERSION = 4",
                                  "SCHEMA_VERSION = 5")
        assert "SCHEMA_VERSION = 5" in mutated
        root = make_project(self._tree(mutated))
        found = _findings(root, self.RULE)
        assert found
        assert all("regenerate" in f.hint for f in found)

    def test_bare_bump_wants_regen(self, make_project, records_source):
        mutated = records_source.replace("SCHEMA_VERSION = 4",
                                         "SCHEMA_VERSION = 5")
        root = make_project(self._tree(mutated))
        found = _findings(root, self.RULE)
        assert len(found) == 1
        assert "pinned manifest records" in found[0].message


class TestEffectBudget:
    RULE = "effect-budget"
    PURE = "src/repro/tiling/demo.py"

    def _at(self, root, path):
        return [f for f in _findings(root, self.RULE)
                if f.path == path]

    def test_effect_in_pure_package_fires(self, make_project):
        root = make_project({self.PURE: """\
            def dump_plan(plan, path):
                path.write_text(repr(plan))
            """})
        found = self._at(root, self.PURE)
        assert len(found) == 1
        assert "pure package repro.tiling" in found[0].message

    def test_effect_module_imports_fire(self, make_project):
        root = make_project({self.PURE: """\
            import math
            import os.path
            from pathlib import Path
            from concurrent.futures import ProcessPoolExecutor
            from . import optblk
            """})
        found = self._at(root, self.PURE)
        assert [f.line for f in found] == [2, 3, 4]
        assert "imports os.path" in found[0].message

    def test_pure_math_is_clean(self, make_project):
        root = make_project({self.PURE: """\
            def blocks(n, b):
                return (n + b - 1) // b
            """})
        assert self._at(root, self.PURE) == []

    def test_effect_outside_pure_packages_is_out_of_scope(
            self, make_project):
        impure = "src/repro/runner/spill.py"
        root = make_project({impure: """\
            def dump(path, text):
                path.write_text(text)
            """})
        assert self._at(root, impure) == []

    def test_pragma_suppresses(self, make_project):
        root = make_project({self.PURE: """\
            def dump_plan(plan, path):
                path.write_text(repr(plan))  # repro: allow(effect-budget)
            """})
        assert self._at(root, self.PURE) == []
