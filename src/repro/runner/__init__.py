"""repro.runner — parallel, disk-cached evaluation service.

Every figure and table in the reproduction is driven by the same
(NPU x workload x scheme) sweep.  This subsystem turns that grid from a
serial, recompute-everything loop into a small evaluation service:

- :mod:`repro.runner.records` — schema-versioned JSON records that
  flatten :class:`~repro.core.pipeline.SchemeRun` /
  :class:`~repro.core.metrics.ComparisonResult` (dropping the raw
  accelerator trace) and rebuild equivalent objects on load;
- :mod:`repro.runner.store` — a content-addressed on-disk store keyed
  by a SHA-256 fingerprint of (NPU config, workload, scheme set, code
  version), with atomic writes, corrupt-record eviction, and persistent
  hit/miss statistics (``repro cache stats``);
- :mod:`repro.runner.executor` — :class:`~repro.runner.executor.GridExecutor`,
  one attempt queue whose rounds run on a process pool or inline (when
  ``jobs <= 1`` or processes cannot be spawned), with per-cell
  retries, progress callbacks and deterministic (request-order)
  results;
- :mod:`repro.runner.service` — :class:`~repro.runner.service.EvalService`,
  the batch front door: it fingerprints and dedupes requests, serves
  hits from memory or disk, dispatches only misses, and persists each
  cell as it completes so interrupted sweeps resume where they stopped.

Quickstart::

    from repro.runner import EvalService, ResultStore

    service = EvalService(store=ResultStore(), jobs=4)
    results = service.sweep("server")          # workload -> ComparisonResult
    print(results["resnet18"].traffic("seda"))

The benchmark harness and the example scripts are thin layers over
this service; the ``repro sweep`` / ``repro cache`` CLI commands drive
it directly.
"""

from repro.runner.executor import EvalRequest, GridExecutor, default_jobs
from repro.runner.records import (
    RecordError,
    SCHEMA_VERSION,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.runner.service import EvalService
from repro.runner.store import (
    CacheStats,
    ResultStore,
    code_version,
    default_cache_dir,
    fingerprint,
)

__all__ = [
    "EvalRequest",
    "EvalService",
    "GridExecutor",
    "CacheStats",
    "RecordError",
    "ResultStore",
    "SCHEMA_VERSION",
    "code_version",
    "comparison_from_dict",
    "comparison_to_dict",
    "default_cache_dir",
    "default_jobs",
    "fingerprint",
]
