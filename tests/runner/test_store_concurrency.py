"""Multi-writer ResultStore: forced interleavings and crash injection.

Four layers of evidence that the store survives uncoordinated
concurrent writers (the DACFL-style many-writers-one-store shape the
sweep service needs):

1. **Forced schedules** (deterministic, in-process): the
   ``_before_publish`` seam puts one writer's publish on hold exactly
   between "body durable in the temp file" and "atomic link", and runs
   every other writer to completion inside that window.  240 distinct
   schedules vary the writer count, key sharing and which writer is
   preempted; every one must end with zero lost records, zero lost
   counters and zero leftover temp files.
2. **True races** (multi-process, ``fork``): N processes barrier-sync
   and put the same fingerprint simultaneously; exactly one ``put``
   and N-1 ``dedupe``s must be counted after all stats merge.
3. **Crash injection**: a writer is SIGKILLed inside the publish
   window.  No partial record may ever be visible; the orphaned
   ``.tmp`` must be treated as live until it ages past
   ``tmp_sweep_age`` and only then swept.
4. **Lock and publish discipline** (deterministic, in-process, under
   both ``flock`` and the ``O_EXCL`` fallback): every read-modify-write
   of ``stats.json`` and every enumeration ``clear()`` deletes from
   runs while a second file description cannot take the matching
   sidecar lock; a body that raises inside a lock leaves it free; a
   write torn mid-body exposes no partial record and no partial
   ``stats.json``.
"""

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.runner import store as store_module
from repro.runner.store import ResultStore

try:
    import fcntl
except ImportError:  # non-POSIX: only the O_EXCL fallback tier runs
    fcntl = None

#: Forced interleaving schedules (acceptance floor is 200).
N_SCHEDULES = 240

_KEY_A = "aa" * 32
_KEY_B = "bb" * 32


def _record_for(key):
    # Content-addressed invariant: every writer of a key carries an
    # identical body, so the record embeds its own key.
    return {"schema_version": 1, "key": key, "payload": [1, 2, 3]}


def _schedule(index):
    """Decode one schedule index into (writers, same_key, victim)."""
    writers = 2 + index % 3
    same_key = (index // 3) % 2 == 0
    victim = (index // 6) % writers
    return writers, same_key, victim


class TestForcedSchedules:
    def test_no_lost_records_or_counters(self, tmp_path):
        for index in range(N_SCHEDULES):
            self._run_schedule(tmp_path / f"s{index}", index)

    def _run_schedule(self, root, index):
        writers, same_key, victim_index = _schedule(index)
        stores = [ResultStore(root) for _ in range(writers)]
        keys = [_KEY_A if same_key or i % 2 == 0 else _KEY_B
                for i in range(writers)]
        others = [i for i in range(writers) if i != victim_index]
        # Rotate who wins the race inside the window.
        rotation = index % max(len(others), 1)
        others = others[rotation:] + others[:rotation]

        def preempt(key, tmp):
            # The victim's body is durable but unpublished; every other
            # writer runs to completion in this window.
            for i in others:
                stores[i].put(keys[i], _record_for(keys[i]))

        victim = stores[victim_index]
        victim._before_publish = preempt
        victim.put(keys[victim_index], _record_for(keys[victim_index]))

        distinct = len(set(keys))
        label = f"schedule {index}"
        # Zero lost records: every key readable, body intact.
        for key in set(keys):
            path = root / key[:2] / f"{key}.json"
            with open(path) as handle:
                assert json.load(handle) == _record_for(key), label
        # Zero lost counters: exactly one put per distinct key, every
        # raced publish accounted as a dedupe.
        total_puts = sum(s.stats.puts for s in stores)
        total_dedupes = sum(s.stats.dedupes for s in stores)
        assert total_puts == distinct, label
        assert total_dedupes == writers - distinct, label
        # Zero leftovers: winners and losers both reap their temp file.
        assert list(root.rglob("*.tmp")) == [], label
        # The counters survive the persistent merge too.
        for store in stores:
            store.flush_stats()
        lifetime = ResultStore(root).summary().lifetime
        assert lifetime["puts"] == distinct, label
        assert lifetime["dedupes"] == writers - distinct, label


def _race_writer(root, key, barrier):
    store = ResultStore(root)
    barrier.wait()
    store.put(key, _record_for(key))
    store.flush_stats()


class _StallingStore(ResultStore):
    """Writer that parks inside the publish window until killed."""

    def __init__(self, root, marker):
        super().__init__(root)
        self._marker = marker

    def _before_publish(self, key, tmp):
        Path(self._marker).write_text(tmp)
        time.sleep(60)      # parent SIGKILLs us long before this ends


def _stalling_writer(root, key, marker):
    _StallingStore(root, marker).put(key, _record_for(key))


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="fork-based process races need POSIX")
class TestMultiProcess:
    def test_same_fingerprint_race_is_idempotent(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        root = tmp_path / "cache"
        n = 4
        barrier = ctx.Barrier(n)
        procs = [ctx.Process(target=_race_writer,
                             args=(root, _KEY_A, barrier))
                 for _ in range(n)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        reader = ResultStore(root)
        assert reader.get(_KEY_A) == _record_for(_KEY_A)
        lifetime = reader.summary().lifetime
        assert lifetime["puts"] == 1
        assert lifetime["dedupes"] == n - 1
        assert list(root.rglob("*.tmp")) == []

    def test_kill_mid_publish_leaves_no_partial_record(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        root = tmp_path / "cache"
        marker = tmp_path / "in-window"
        proc = ctx.Process(target=_stalling_writer,
                           args=(root, _KEY_A, str(marker)))
        proc.start()
        # Wait for a *non-empty* marker: the file appears before the
        # temp path is written into it, and killing in that gap would
        # leave us without the orphan's address.
        deadline = time.time() + 30
        while time.time() < deadline:
            if marker.exists() and marker.read_text():
                break
            time.sleep(0.01)
        assert marker.exists() and marker.read_text(), \
            "writer never reached the publish window"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)

        # No partial record is ever visible: the key simply misses.
        reader = ResultStore(root)
        assert reader.get(_KEY_A) is None
        # The crash orphaned exactly the in-flight temp file...
        orphan = Path(marker.read_text())
        assert orphan.exists()
        summary = reader.summary()
        assert summary.orphan_tmp == 1
        assert summary.orphan_tmp_live == 1       # fresh: maybe live
        assert summary.orphan_tmp_sweepable == 0

        # ...which clear() must NOT collect while it could still be a
        # live writer's publish...
        reader.clear()
        assert orphan.exists()

        # ...and must collect once it ages past the threshold.
        stale = time.time() - reader.tmp_sweep_age - 60
        os.utime(orphan, (stale, stale))
        summary = reader.summary()
        assert summary.orphan_tmp_sweepable == 1
        reader.clear()
        assert not orphan.exists()


@pytest.fixture(params=["flock", "fallback"])
def lock_tier(request, monkeypatch):
    """Run a test under ``flock`` and under the ``O_EXCL`` fallback."""
    if request.param == "flock":
        if fcntl is None:
            pytest.skip("flock needs fcntl")
    else:
        monkeypatch.setattr(store_module, "fcntl", None)
    return request.param


def _lock_is_held(path):
    """Would another holder have to wait for ``path``'s lock right now?

    Under ``flock`` a second open file description tries a non-blocking
    exclusive lock (it conflicts even within this process); under the
    fallback the lock is the file's existence.
    """
    if store_module.fcntl is None:
        return path.exists()
    with open(path, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return True
        fcntl.flock(handle, fcntl.LOCK_UN)
        return False


def _probe(monkeypatch, store, method, lock_path):
    """Wrap ``store.<method>`` to record, on every call, whether
    ``lock_path`` is held at that moment."""
    seen = []
    original = getattr(store, method)

    def probed(*args, **kwargs):
        seen.append(_lock_is_held(lock_path))
        return original(*args, **kwargs)

    monkeypatch.setattr(store, method, probed)
    return seen


class TestLockDiscipline:
    def test_stats_merge_runs_under_the_stats_lock(self, tmp_path,
                                                   lock_tier, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        store.get(_KEY_A)
        # Every stats.json access of the merge -- the load and the
        # publish -- goes through _stats_path().
        seen = _probe(monkeypatch, store, "_stats_path",
                      store._lock_path())
        store.flush_stats()
        assert seen and all(seen), seen
        assert not _lock_is_held(store._lock_path())

    def test_clear_enumerates_under_the_writer_lock(self, tmp_path,
                                                    lock_tier, monkeypatch):
        store = ResultStore(tmp_path / "cache", tmp_sweep_age=0.0)
        store.put(_KEY_A, _record_for(_KEY_A))
        store.get(_KEY_B)
        store.flush_stats()
        writer = store._writer_lock_path()
        enumerations = [
            _probe(monkeypatch, store, method, writer)
            for method in ("_record_paths", "_orphan_tmp_paths",
                           "quarantined_paths")]
        stats = _probe(monkeypatch, store, "_stats_path",
                       store._lock_path())
        assert store.clear() == 1
        for seen in enumerations + [stats]:
            assert seen and all(seen), seen

    @pytest.mark.parametrize("lock", ["_stats_lock", "_writer_lock"])
    def test_raising_body_releases_the_lock(self, tmp_path, lock_tier,
                                            lock):
        store = ResultStore(tmp_path / "cache")
        path = (store._lock_path() if lock == "_stats_lock"
                else store._writer_lock_path())
        with pytest.raises(RuntimeError):
            with getattr(store, lock)():
                assert _lock_is_held(path)
                raise RuntimeError("body failed")
        # Free at once: the next holder acquires without waiting out
        # the fallback's stale-lock age.
        assert not _lock_is_held(path)
        with getattr(store, lock)():
            assert _lock_is_held(path)
        assert not _lock_is_held(path)


class TestTornWrites:
    """A write that dies mid-body (full disk, I/O error) must leave
    nothing half-written where a lock-free reader looks."""

    @staticmethod
    def _tear_json_dump(monkeypatch):
        def torn(obj, handle, **kwargs):
            handle.write(json.dumps(obj, **kwargs)[:8])
            raise OSError("disk full")

        monkeypatch.setattr(store_module.json, "dump", torn)

    @staticmethod
    def _tear_file_writes(monkeypatch):
        """Every file the store opens dies after its first 8 characters
        written."""
        fdopen = store_module.os.fdopen

        def torn_fdopen(*args, **kwargs):
            handle = fdopen(*args, **kwargs)
            write = handle.write

            def torn(text):
                write(text[:8])
                raise OSError("disk full")

            handle.write = torn
            return handle

        monkeypatch.setattr(store_module.os, "fdopen", torn_fdopen)

    def test_torn_put_exposes_no_record(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        self._tear_file_writes(monkeypatch)
        with pytest.raises(OSError):
            store.put(_KEY_A, _record_for(_KEY_A))
        assert not store._path(_KEY_A).exists()
        assert list(store.root.rglob("*.tmp")) == []

    def test_torn_stats_flush_keeps_the_previous_file(self, tmp_path,
                                                      monkeypatch):
        store = ResultStore(tmp_path / "cache")
        store.get(_KEY_A)
        store.flush_stats()
        store.get(_KEY_B)
        with monkeypatch.context() as patch:
            self._tear_json_dump(patch)
            with pytest.raises(OSError):
                store.flush_stats()
        assert ResultStore(store.root).summary().lifetime["misses"] == 1
        assert list(store.root.rglob("*.tmp")) == []
