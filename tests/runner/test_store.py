"""ResultStore: hits, misses, fingerprints, atomicity, statistics."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import npu_config
from repro.runner.store import (
    CacheStats,
    DEFAULT_TMP_SWEEP_AGE,
    ResultStore,
    TMP_SWEEP_AGE_ENV,
    code_version,
    fingerprint,
)

RECORD = {"schema_version": 1, "payload": [1, 2, 3]}


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestFingerprint:
    def test_deterministic(self):
        npu = npu_config("edge")
        assert fingerprint(npu, "lenet", ["seda"]) == \
            fingerprint(npu, "lenet", ["seda"])

    def test_sensitive_to_every_axis(self):
        edge, server = npu_config("edge"), npu_config("server")
        base = fingerprint(edge, "lenet", ["seda"])
        assert fingerprint(server, "lenet", ["seda"]) != base
        assert fingerprint(edge, "dlrm", ["seda"]) != base
        assert fingerprint(edge, "lenet", ["mgx-64b", "seda"]) != base

    def test_scheme_order_matters(self):
        # Order is part of the request contract (result ordering follows
        # it), so it participates in the address.
        edge = npu_config("edge")
        assert fingerprint(edge, "lenet", ["seda", "mgx-64b"]) != \
            fingerprint(edge, "lenet", ["mgx-64b", "seda"])

    def test_code_version_invalidates(self):
        edge = npu_config("edge")
        assert fingerprint(edge, "lenet", ["seda"], version="aaaa") != \
            fingerprint(edge, "lenet", ["seda"], version="bbbb")

    def test_code_version_is_stable(self):
        assert code_version() == code_version()

    def test_code_version_ignores_lint_but_not_models(self, tmp_path):
        """Editing the self-lint keeps stored results valid; editing a
        result-bearing model invalidates them."""
        package = Path(__file__).resolve().parents[2] / "src" / "repro"
        copy = tmp_path / "src" / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def version():
            env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"),
                       PYTHONDONTWRITEBYTECODE="1")
            out = subprocess.run(
                [sys.executable, "-c",
                 "from repro.runner.store import code_version; "
                 "print(code_version())"],
                env=env, capture_output=True, text=True, check=True)
            return out.stdout.strip()

        def edit(relative):
            with open(copy / relative, "a") as handle:
                handle.write("\n# edited\n")

        base = version()
        edit("analysis/rules/tier_parity.py")
        assert version() == base
        edit("dram/simulator.py")
        assert version() != base


class TestGetPut:
    def test_miss_then_hit(self, store):
        key = "ab" * 32
        assert store.get(key) is None
        store.put(key, RECORD)
        assert store.get(key) == RECORD
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1

    def test_contains_leaves_counters_alone(self, store):
        key = "cd" * 32
        assert not store.contains(key)
        store.put(key, RECORD)
        assert store.contains(key)
        assert store.stats.requests == 0

    def test_corrupt_record_is_quarantined(self, store):
        key = "ef" * 32
        store.put(key, RECORD)
        store._path(key).write_text("{not json")
        assert store.get(key) is None
        assert store.stats.quarantined == 1
        assert store.stats.misses == 1
        assert not store.contains(key)
        # The corrupt body is preserved for inspection, not destroyed.
        [quarantined] = store.quarantined_paths()
        assert quarantined.name == f"{key}.json"
        assert quarantined.read_text() == "{not json"

    def test_quarantined_record_recomputes_cleanly(self, store):
        # The normal lifecycle: corrupt hit -> miss -> recompute ->
        # republish -> clean hit, with the quarantined body retained.
        key = "ab" * 32
        store.put(key, RECORD)
        store._path(key).write_text("garbage")
        assert store.get(key) is None
        store.put(key, RECORD)
        assert store.get(key) == RECORD
        assert store.quarantined_count() == 1

    def test_clear_sweeps_quarantine(self, store):
        key = "cd" * 32
        store.put(key, RECORD)
        store._path(key).write_text("garbage")
        store.get(key)
        assert store.quarantined_count() == 1
        store.clear()
        assert store.quarantined_count() == 0
        assert not store.quarantine_dir().exists()

    def test_demote_hit(self, store):
        key = "12" * 32
        store.put(key, RECORD)
        assert store.get(key) == RECORD
        store.demote_hit(key)
        assert store.stats.hits == 0
        assert store.stats.misses == 1
        assert store.stats.evictions == 1
        assert not store.contains(key)

    def test_demote_without_hit_never_goes_negative(self, store):
        """Regression: spurious demote_hit used to drive hits to -1 and
        corrupt the lifetime hit-rate merged into stats.json."""
        store.demote_hit("ab" * 32)
        assert store.stats.hits == 0
        assert store.stats.misses == 0
        assert store.stats.evictions == 1
        assert store.stats.hit_rate == 0.0
        store.put("cd" * 32, RECORD)  # make flush non-idle
        store.flush_stats()
        lifetime = store.summary().lifetime
        assert lifetime["hits"] == 0
        assert lifetime["misses"] == 0

    def test_demote_after_hit_still_reclassifies(self, store):
        key = "34" * 32
        store.put(key, RECORD)
        store.get(key)
        store.demote_hit(key)
        assert (store.stats.hits, store.stats.misses) == (0, 1)

    def test_no_partial_files_after_put(self, store):
        store.put("01" * 32, RECORD)
        leftovers = list(store.root.rglob("*.tmp"))
        assert leftovers == []

    def test_sharded_layout(self, store):
        key = "9f" + "0" * 62
        store.put(key, RECORD)
        assert (store.root / "9f" / f"{key}.json").exists()

    def test_stored_bytes_are_the_compact_encoding(self, store):
        """A record file holds exactly ``json.dumps`` of the record with
        compact separators: floats by ``repr``, non-ASCII escaped."""
        key = "5c" * 32
        record = {"schema_version": 4, "ratio": 0.1 + 0.2, "big": 1e300,
                  "name": "séda", "rows": [{"x": -0.0, "n": None}, []]}
        store.put(key, record)
        assert store._path(key).read_bytes() == json.dumps(
            record, separators=(",", ":")).encode()


class TestMaintenance:
    def test_entries_and_size(self, store):
        assert store.entries() == 0
        store.put("aa" * 32, RECORD)
        store.put("bb" * 32, RECORD)
        assert store.entries() == 2
        assert store.size_bytes() > 0

    def test_clear(self, store):
        store.put("aa" * 32, RECORD)
        assert store.clear() == 1
        assert store.entries() == 0
        assert store.get("aa" * 32) is None  # miss again

    def test_orphan_tmp_files_reported_and_swept(self, store):
        """Regression: .tmp leftovers from crashed put()/flush_stats()
        were invisible to entries()/size_bytes() and survived clear().
        Aged orphans are swept; fresh ones may be a live writer's
        in-flight publish and must survive."""
        store.put("aa" * 32, RECORD)
        shard_orphan = store.root / "aa" / "deadbeef.tmp"
        shard_orphan.write_text("{trunc")
        root_orphan = store.root / "cafef00d.tmp"
        root_orphan.write_text("{trunc")
        live_orphan = store.root / "aa" / "inflight.tmp"
        live_orphan.write_text("{part")

        # Age two of the three past the sweep threshold.
        stale = time.time() - store.tmp_sweep_age - 60
        os.utime(shard_orphan, (stale, stale))
        os.utime(root_orphan, (stale, stale))

        assert store.entries() == 1          # records only
        summary = store.summary()
        assert summary.orphan_tmp == 3
        assert summary.orphan_tmp_sweepable == 2
        assert summary.orphan_tmp_live == 1

        removed = store.clear()
        assert removed == 1                  # return value counts records
        assert not shard_orphan.exists()
        assert not root_orphan.exists()
        assert live_orphan.exists()          # never sweep a live write
        summary = store.summary()
        assert summary.orphan_tmp == 1
        assert summary.orphan_tmp_sweepable == 0

    def test_zero_sweep_age_collects_everything(self, tmp_path):
        """tmp_sweep_age=0 restores the old eager behavior for tests
        and operators who know no writer is live."""
        store = ResultStore(tmp_path / "cache", tmp_sweep_age=0.0)
        orphan = store.root / "aa"
        orphan.mkdir(parents=True)
        orphan = orphan / "leftover.tmp"
        orphan.write_text("{trunc")
        store.clear()
        assert not orphan.exists()

    def test_sweep_age_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TMP_SWEEP_AGE_ENV, "42.5")
        assert ResultStore(tmp_path).tmp_sweep_age == 42.5
        monkeypatch.setenv(TMP_SWEEP_AGE_ENV, "not-a-number")
        assert ResultStore(tmp_path).tmp_sweep_age \
            == DEFAULT_TMP_SWEEP_AGE


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == 0.9
        assert CacheStats().hit_rate == 0.0

    def test_flush_accumulates(self, store):
        store.put("aa" * 32, RECORD)
        store.get("aa" * 32)
        store.get("bb" * 32)
        store.flush_stats()
        store.get("aa" * 32)
        store.flush_stats()

        summary = store.summary()
        assert summary.lifetime["hits"] == 2
        assert summary.lifetime["misses"] == 1
        assert summary.last_run == {"hits": 1, "misses": 0,
                                    "puts": 0, "evictions": 0,
                                    "dedupes": 0, "quarantined": 0}
        assert store.stats.requests == 0  # reset after flush

    def test_flush_is_noop_when_idle(self, store):
        store.flush_stats()
        assert not (store.root / "stats.json").exists()

    def test_stats_file_is_valid_json(self, store):
        store.get("aa" * 32)
        store.flush_stats()
        with open(store.root / "stats.json") as handle:
            assert "lifetime" in json.load(handle)


class TestStatsLocking:
    """flush_stats merges under an inter-process flock; concurrent
    flushers must never lose counters to the read-modify-write race."""

    def test_lock_file_created_and_cleared(self, store):
        store.get("aa" * 32)
        store.flush_stats()
        assert (store.root / "stats.lock").exists()
        store.clear()
        assert not (store.root / "stats.lock").exists()
        assert not (store.root / "stats.json").exists()

    def test_concurrent_flushes_merge_every_counter(self, tmp_path):
        import threading

        root = tmp_path / "cache"
        flushers, per_flusher = 8, 25
        barrier = threading.Barrier(flushers)
        errors = []

        def flusher():
            # Each thread models an independent sweep process with its
            # own ResultStore over the same directory.
            local = ResultStore(root)
            try:
                barrier.wait()
                for _ in range(per_flusher):
                    local.stats.hits += 1
                    local.flush_stats()
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=flusher)
                   for _ in range(flushers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        lifetime = ResultStore(root).summary().lifetime
        assert lifetime["hits"] == flushers * per_flusher

    def test_flush_works_without_fcntl(self, store, monkeypatch):
        from repro.runner import store as store_module

        monkeypatch.setattr(store_module, "fcntl", None)
        store.get("aa" * 32)
        store.flush_stats()
        assert store.summary().lifetime["misses"] == 1
        assert not (store.root / "stats.lock").exists()

    def test_fallback_spinlock_breaks_stale_lock(self, tmp_path,
                                                 monkeypatch):
        """A lock file leaked by a dead process must not wedge every
        future flush: past lock_stale_age the fallback breaks it."""
        from repro.runner import store as store_module

        monkeypatch.setattr(store_module, "fcntl", None)
        store = ResultStore(tmp_path / "cache")
        store.root.mkdir(parents=True, exist_ok=True)
        leaked = store.root / "stats.lock"
        leaked.write_text("99999")
        stale = time.time() - store.lock_stale_age - 5
        os.utime(leaked, (stale, stale))

        store.get("aa" * 32)
        store.flush_stats()              # would spin forever unbroken
        assert store.summary().lifetime["misses"] == 1
        assert not leaked.exists()

    def test_fallback_spinlock_waits_for_fresh_lock(self, tmp_path,
                                                    monkeypatch):
        """A *fresh* lock belongs to a live holder: the fallback spins
        until the holder releases instead of breaking it."""
        import threading

        from repro.runner import store as store_module

        monkeypatch.setattr(store_module, "fcntl", None)
        store = ResultStore(tmp_path / "cache")
        store.root.mkdir(parents=True, exist_ok=True)
        held = store.root / "stats.lock"
        held.write_text("1")             # fresh: mtime is now

        releaser = threading.Timer(0.1, held.unlink)
        releaser.start()
        try:
            store.get("aa" * 32)
            store.flush_stats()          # blocks until the release
        finally:
            releaser.cancel()
        assert store.summary().lifetime["misses"] == 1
