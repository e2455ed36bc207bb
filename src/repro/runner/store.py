"""Content-addressed on-disk result store, safe for concurrent writers.

Each (NPU config, workload, scheme set, code version) evaluation is
addressed by a SHA-256 fingerprint of its canonical JSON description;
the record lives at ``<root>/<aa>/<fingerprint>.json`` (sharded by the
first byte so no directory grows unbounded).

Concurrency model (pinned dynamically by
``tests/runner/test_store_concurrency.py``; see README "Concurrency
model of the ResultStore"):

- **Per-record atomic publish.**  ``put()`` writes the full body to a
  ``mkstemp`` temp file in the target shard and publishes it with one
  atomic ``os.link`` (falling back to ``os.replace`` on link-free
  filesystems), so a reader never observes a half-written record.  Two
  processes racing the same fingerprint publish identical bodies; the
  first link wins and the loser counts a ``dedupe``, never a double
  ``put`` — lifetime counters stay truthful under contention.
- **Lock-free readers.**  ``get()`` touches only one record file, which
  only ever changes by atomic publish; a corrupt record (torn by a
  crash, stray edit, bit rot) is moved to the ``quarantine/`` sidecar
  directory — preserved for forensics, counted, never silently
  destroyed — and reported as a miss.
- **stats.json merges under ``_stats_lock``.**  The read-modify-write
  of the persistent counters is the one unavoidable RMW; it is
  serialized on the ``stats.lock`` sidecar.
- **Maintenance under ``_writer_lock``.**  ``clear()`` enumerates and
  mass-deletes records — a multi-file read-modify-write of the record
  index — so it holds the ``writer.lock`` sidecar.  The lock hierarchy
  is writer.lock > stats.lock, always acquired in that order.
- **Aged orphan sweeps.**  A leftover ``.tmp`` younger than
  ``tmp_sweep_age`` may be another process's in-flight publish and is
  never collected; only aged orphans (a crashed writer's leavings) are
  swept.

The code version folds a hash of the simulator's own sources into every
fingerprint: editing any module that influences results invalidates the
whole store automatically, with no manual versioning to forget.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

try:
    import fcntl as _fcntl_mod
except ImportError:  # non-POSIX platform: O_EXCL spin-lock fallback
    fcntl: Optional[ModuleType] = None
else:
    fcntl = _fcntl_mod

from repro import faults, obs
from repro.core.config import NpuConfig
from repro.runner.records import SCHEMA_VERSION, npu_to_dict

#: Environment override for the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment override for the orphan-``.tmp`` sweep age threshold.
TMP_SWEEP_AGE_ENV = "REPRO_TMP_SWEEP_AGE"

#: Orphan ``.tmp`` files younger than this (seconds) are treated as
#: live in-flight writes and skipped by every sweep.
DEFAULT_TMP_SWEEP_AGE = 600.0

#: Sources that cannot affect evaluation results: the caching machinery
#: itself, the observability layer (spans and counters never change
#: what the pipeline computes), the fault-injection plane (test-only
#: failure scaffolding; the ``fault-isolation`` lint rule keeps it out
#: of result-bearing modules), the self-lint (``repro check`` reads
#: the tree, the pipeline never imports it) and the presentation-only
#: CLI.
#: Everything else is hashed — deliberately conservative, so an
#: ambiguous module over-invalidates the store rather than risking
#: stale results.
_NON_RESULT_DIRS = {"runner", "obs", "faults", "analysis", "__pycache__"}
_NON_RESULT_FILES = {"cli.py"}

_code_version_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    # The cache *location* never reaches a fingerprint or a result.
    # repro: allow(fingerprint-purity)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _default_tmp_sweep_age() -> float:
    """``$REPRO_TMP_SWEEP_AGE`` if set, else ten minutes."""
    # A maintenance knob: it decides when leftover temp files are
    # garbage, never what any result contains.
    # repro: allow(fingerprint-purity)
    env = os.environ.get(TMP_SWEEP_AGE_ENV)
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return DEFAULT_TMP_SWEEP_AGE


def code_version() -> str:
    """Hash of the package sources that can affect evaluation results.

    ``_NON_RESULT_DIRS`` (``runner/``, ``obs/``, ``faults/``,
    ``analysis/``) and ``cli.py`` are excluded: they do not change what
    the pipeline computes, so editing them must not invalidate stored
    results.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            relative = path.relative_to(package_root)
            if relative.parts[0] in _NON_RESULT_DIRS or \
                    str(relative) in _NON_RESULT_FILES:
                continue
            digest.update(str(relative).encode())
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def fingerprint(npu: NpuConfig, workload: str,
                scheme_names: Iterable[str],
                version: Optional[str] = None) -> str:
    """Content address of one evaluation request."""
    payload = {
        "schema": SCHEMA_VERSION,
        "code": version if version is not None else code_version(),
        "npu": npu_to_dict(npu),
        "workload": workload,
        "schemes": list(scheme_names),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    """Counters for one store session.

    ``dedupes`` counts publishes lost to a same-fingerprint race: the
    record this session computed was already published (identically) by
    another writer.  The work was duplicated; the record was not.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    dedupes: int = 0
    quarantined: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions,
                "dedupes": self.dedupes, "quarantined": self.quarantined}


@dataclass
class StoreSummary:
    """What ``repro cache stats`` prints.

    ``orphan_tmp`` counts every leftover temp file; ``orphan_tmp_live``
    is the subset younger than the sweep age (possibly another
    process's in-flight publish — skipped by sweeps), and
    ``orphan_tmp_sweepable`` the aged remainder the next ``clear()``
    will collect.  ``quarantined`` counts corrupt records currently
    held in the ``quarantine/`` sidecar (swept by ``clear()``).
    """

    root: str
    entries: int
    total_bytes: int
    orphan_tmp: int = 0
    orphan_tmp_live: int = 0
    orphan_tmp_sweepable: int = 0
    quarantined: int = 0
    lifetime: Dict[str, int] = field(default_factory=dict)
    last_run: Dict[str, int] = field(default_factory=dict)


class ResultStore:
    """Content-addressed JSON record store with atomic writes."""

    #: A fallback (no-``fcntl``) sidecar lock older than this many
    #: seconds is presumed leaked by a dead process and broken.
    lock_stale_age: float = 10.0

    #: Fallback spin-lock retry interval, seconds.
    lock_spin_interval: float = 0.005

    def __init__(self, root: Optional[os.PathLike] = None,
                 tmp_sweep_age: Optional[float] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        self.tmp_sweep_age = tmp_sweep_age if tmp_sweep_age is not None \
            else _default_tmp_sweep_age()

    # -- paths --

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    def quarantine_dir(self) -> Path:
        """Sidecar directory holding corrupt records moved aside by
        :meth:`get`.  Outside the ``??/`` record shards, so quarantined
        files are invisible to ``entries()`` / ``size_bytes()`` and can
        never be served as cache hits."""
        return self.root / "quarantine"

    # -- record access --

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Record dict for ``key``, or ``None`` (counted as a miss).

        Lock-free: reads touch exactly one record file, which only ever
        changes by atomic publish.  A corrupt record (truncated write
        from a crashed process, stray edit) is moved to the
        ``quarantine/`` sidecar — preserved for inspection rather than
        destroyed in place — counted on ``quarantined``, and reported
        as a miss; the caller recomputes and republishes the key.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                text = handle.read()
            record: Any = json.loads(
                faults.corrupt_text("store.read", key, text))
            if not isinstance(record, dict):
                raise json.JSONDecodeError("record is not an object",
                                           doc="", pos=0)
        except FileNotFoundError:
            self.stats.misses += 1
            obs.incr("store.misses")
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self.stats.misses += 1
            self.stats.quarantined += 1
            obs.incr("store.misses")
            obs.incr("store.quarantined")
            self._quarantine(path)
            return None
        self.stats.hits += 1
        obs.incr("store.hits")
        return record

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt record aside atomically; never raises.

        ``os.replace`` is atomic within the filesystem, so concurrent
        readers tripping over the same corrupt record race benignly:
        one move wins, the others' fail with ``FileNotFoundError`` and
        are ignored.  If the quarantine directory itself cannot be
        created (read-only store, quota), fall back to unlinking so a
        poisoned record cannot be re-served forever.
        """
        destination = self.quarantine_dir() / path.name
        try:
            self.quarantine_dir().mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()

    def quarantined_paths(self) -> List[Path]:
        """Every quarantined record, in deterministic (sorted) order."""
        return sorted(self.quarantine_dir().glob("*.json"))

    def quarantined_count(self) -> int:
        return len(self.quarantined_paths())

    def _before_publish(self, key: str, tmp: str) -> None:
        """Test seam: runs when the record body is durable in ``tmp``
        and the atomic publish has not happened yet.  The concurrency
        harness overrides it to force another writer (or a crash) into
        exactly this window; production stores do nothing here."""

    def _publish(self, key: str, tmp: str, path: Path) -> None:
        """Atomically promote ``tmp`` to ``path``; first publisher wins.

        ``os.link`` refuses to clobber, so whichever racer links first
        owns the record; the loser's identical body is discarded and
        counted as a ``dedupe``.  Filesystems without hard links fall
        back to ``os.replace`` (last-wins, still atomic — racers carry
        identical bodies, so only the counters could tell).
        """
        self._before_publish(key, tmp)
        try:
            os.link(tmp, path)
        except FileExistsError:
            os.unlink(tmp)
            self.stats.dedupes += 1
            obs.incr("store.dedupes")
            return
        except OSError:
            os.replace(tmp, path)
        else:
            os.unlink(tmp)
        self.stats.puts += 1
        obs.incr("store.puts")

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Atomically persist ``record`` under ``key``.

        Safe under same-fingerprint races from any number of processes:
        see :meth:`_publish`.
        """
        faults.fire("store.put", key=key)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # ``json.dumps`` takes the C encoder; ``json.dump``
                # always runs the pure-Python one.
                handle.write(json.dumps(record, separators=(",", ":")))
            self._publish(key, tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def demote_hit(self, key: str) -> None:
        """Reclassify the last hit on ``key`` as a miss and evict it.

        For callers that fetched a record successfully but found it
        unusable (e.g. a stale schema version): the request must count
        as a miss or hit-rate reporting overstates cache effectiveness.
        With no hit on record (a caller demoting spuriously) there is
        nothing to reclassify — only the eviction is counted, so the
        lifetime counters merged into ``stats.json`` can never go
        negative.
        """
        if self.stats.hits > 0:
            self.stats.hits -= 1
            self.stats.misses += 1
        self.stats.evictions += 1
        obs.incr("store.demotions")
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def contains(self, key: str) -> bool:
        """Presence check that does not touch the hit/miss counters."""
        return self._path(key).exists()

    # -- maintenance --

    def _record_paths(self) -> List[Path]:
        """Every stored record, in deterministic (sorted) order."""
        return sorted(self.root.glob("??/*.json"))

    def entries(self) -> int:
        return len(self._record_paths())

    def size_bytes(self) -> int:
        total = 0
        for path in self._record_paths():
            try:
                total += path.stat().st_size
            except OSError:   # concurrently evicted/cleared
                pass
        return total

    def _orphan_tmp_paths(self) -> List[Path]:
        """Every leftover ``mkstemp`` file, regardless of age —
        crashed writers' leavings plus live in-flight publishes.
        Invisible to ``entries()`` / ``size_bytes()``."""
        return sorted(self.root.glob("*.tmp")) \
            + sorted(self.root.glob("??/*.tmp"))

    def _split_orphan_tmp_paths(self) -> Tuple[List[Path], List[Path]]:
        """Partition orphan temp files into ``(sweepable, live)``.

        Only files older than ``tmp_sweep_age`` are sweepable: a young
        ``.tmp`` may be another process's publish in flight, and
        collecting it would destroy a record mid-write.
        """
        # Wall-clock here compares file ages for garbage collection;
        # nothing derived from it can reach a result or a fingerprint.
        # repro: allow(fingerprint-purity)
        cutoff = time.time() - self.tmp_sweep_age
        sweepable: List[Path] = []
        live: List[Path] = []
        for path in self._orphan_tmp_paths():
            try:
                mtime = path.stat().st_mtime
            except OSError:     # published or unlinked under us
                continue
            (sweepable if mtime <= cutoff else live).append(path)
        return sweepable, live

    def orphan_tmp_count(self) -> int:
        return len(self._orphan_tmp_paths())

    def clear(self) -> int:
        """Delete every record (plus quarantined records, aged orphan
        temp files and the stats file); returns the count of records
        removed.

        Runs under :meth:`_writer_lock`: enumerating and mass-deleting
        the record index must not interleave with another maintenance
        pass.  Live (younger than ``tmp_sweep_age``) temp files are
        skipped — they may be a concurrent writer's in-flight publish.
        """
        removed = 0
        with self._writer_lock():
            for path in self._record_paths():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            sweepable, live = self._split_orphan_tmp_paths()
            swept = 0
            for path in sweepable:
                try:
                    path.unlink()
                    swept += 1
                except OSError:
                    pass
            obs.incr("store.tmp_swept", swept)
            obs.incr("store.tmp_skipped", len(live))
            for path in self.quarantined_paths():
                with contextlib.suppress(OSError):
                    path.unlink()
            with contextlib.suppress(OSError):
                self.quarantine_dir().rmdir()
            with self._stats_lock():
                try:
                    self._stats_path().unlink()
                except OSError:
                    pass
        if fcntl is not None:
            # The sidecar lock files are only meaningful under flock
            # (the O_EXCL fallback deletes them on every release); with
            # flock they persist, so a full clear sweeps them too.
            for sidecar in (self._lock_path(),
                            self._writer_lock_path()):
                try:
                    sidecar.unlink()
                except OSError:
                    pass
        return removed

    # -- locks --

    def _lock_path(self) -> Path:
        return self.root / "stats.lock"

    def _writer_lock_path(self) -> Path:
        return self.root / "writer.lock"

    @contextlib.contextmanager
    def _sidecar_lock(self, lock_path: Path) -> Iterator[None]:
        """Inter-process mutex on a sidecar lock file.

        With ``fcntl``, an ``flock`` on the (persistent) sidecar —
        never on the protected file itself, which is replaced
        atomically and would orphan the lock.  Without ``fcntl``, a
        portable ``O_CREAT | O_EXCL`` spin-lock: creation is the atomic
        acquire, unlink the release, and a lock file older than
        ``lock_stale_age`` is presumed leaked by a dead process and
        broken (counted on ``store.stale_locks_broken``).  The fallback
        engaging at all is counted on ``store.lock_fallbacks`` — merges
        are never silently unlocked.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            with open(lock_path, "a") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle, fcntl.LOCK_UN)
            return
        obs.incr("store.lock_fallbacks")
        while True:
            try:
                fd = os.open(lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    # Maintenance-only clock use: lock staleness never
                    # reaches a result.  # repro: allow(fingerprint-purity)
                    age = time.time() - lock_path.stat().st_mtime
                except OSError:
                    continue     # released between open and stat; retry
                if age > self.lock_stale_age:
                    obs.incr("store.stale_locks_broken")
                    with contextlib.suppress(OSError):
                        lock_path.unlink()
                else:
                    # repro: allow(fingerprint-purity)
                    time.sleep(self.lock_spin_interval)
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            with contextlib.suppress(OSError):
                lock_path.unlink()

    @contextlib.contextmanager
    def _stats_lock(self) -> Iterator[None]:
        """Mutex around the ``stats.json`` read-modify-write.

        ``flush_stats`` merges session counters into the persistent
        file; two concurrent sweeps flushing unlocked race the
        read-modify-write and silently lose counters.
        """
        with self._sidecar_lock(self._lock_path()):
            yield

    @contextlib.contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """Mutex around record-index maintenance (``clear()``).

        Per-record publishes need no lock — they are single atomic
        links — but enumerate-and-delete maintenance must not run twice
        concurrently or interleave with another maintenance pass.
        Lock hierarchy: ``_writer_lock`` before ``_stats_lock``, never
        the reverse.
        """
        with self._sidecar_lock(self._writer_lock_path()):
            yield

    # -- persistent statistics --

    def _load_persistent(self) -> Dict[str, Any]:
        try:
            with open(self._stats_path()) as handle:
                data = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            data = {}
        data.setdefault("lifetime", {})
        return data

    def flush_stats(self) -> None:
        """Merge this session's counters into ``stats.json`` and reset.

        The read-modify-write runs under :meth:`_stats_lock`, so
        concurrent sweeps (or the eval server's writers) merge rather
        than clobber each other's counters.
        """
        if not self.stats.requests and not self.stats.puts \
                and not self.stats.dedupes:
            return
        with self._stats_lock():
            data = self._load_persistent()
            lifetime = data["lifetime"]
            for name, value in self.stats.as_dict().items():
                lifetime[name] = lifetime.get(name, 0) + value
            data["last_run"] = self.stats.as_dict()
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(data, handle, indent=2, sort_keys=True)
                os.replace(tmp, self._stats_path())
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self.stats = CacheStats()

    def summary(self) -> StoreSummary:
        data = self._load_persistent()
        sweepable, live = self._split_orphan_tmp_paths()
        obs.gauge("store.orphan_tmp", len(sweepable) + len(live))
        return StoreSummary(
            root=str(self.root),
            entries=self.entries(),
            total_bytes=self.size_bytes(),
            orphan_tmp=len(sweepable) + len(live),
            orphan_tmp_live=len(live),
            orphan_tmp_sweepable=len(sweepable),
            quarantined=self.quarantined_count(),
            lifetime=data.get("lifetime", {}),
            last_run=data.get("last_run", {}),
        )
