"""Grid executor: one attempt queue, run inline or on a process pool.

The (NPU x workload x scheme) grid is embarrassingly parallel — every
cell is an independent ``compare_schemes`` call — so the executor simply
fans cells out to ``jobs`` worker processes and reassembles results in
request order.  Workers exchange only flat record dicts (see
:mod:`repro.runner.records`), never live simulator objects, so nothing
unpicklable crosses the process boundary.

Every cell attempt passes through one loop: each round takes the queued
``(cell, attempt)`` pairs and runs them inline, in queue order, or on a
fresh process pool, in completion order.  Inline is the choice for
``jobs <= 1``, a single-cell grid, or an environment where spawning
processes fails (sandboxes, exotic interpreters); results and callbacks
are identical either way.

Failure model (see README "Failure model"):

- Every worker failure surfaces as a :class:`CellError` naming the
  cell's workload/NPU/schemes and the attempt number, classified
  transient or permanent.
- :class:`EvalRequest` carries a per-cell retry/timeout policy:
  transient failures go back on the queue up to ``retries`` times and
  run at the end of their round, after an exponential backoff; a cell
  running past ``timeout`` seconds is interrupted on the worker
  (``SIGALRM``) and classified transient.
- A broken process pool (a worker SIGKILLed, say) drains the cells that
  finished and charges one transient attempt to each unfinished cell.
  It is rebuilt up to :attr:`GridExecutor.max_pool_restarts` times;
  after that the remaining rounds run inline — at once, without
  ``on_failure``, if the charge left a cell with no retries.
- With an ``on_failure`` callback installed the grid is
  *fault-tolerant*: exhausted cells become :class:`FailedCell` outcomes
  (``None`` in the returned list) instead of aborting the grid, and
  ``max_failures`` bounds the blast radius via :class:`SweepAborted`.
  Without one, the first exhausted cell re-raises its own error.
"""

from __future__ import annotations

import contextlib
import logging
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import faults, obs
from repro.analytic import MIN_DERIVE_BATCH, derive_cell
from repro.core.config import NpuConfig
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import (
    canonical_workload_name,
    format_workload_spec,
    get_workload,
    parse_workload_spec,
)
from repro.runner.records import comparison_to_dict, npu_from_dict, npu_to_dict
from repro.runner.store import fingerprint

_log = logging.getLogger(__name__)

#: (completed, total, request) — fired as each grid cell resolves
#: (success *or*, in fault-tolerant mode, terminal failure).
ProgressFn = Callable[[int, int, "EvalRequest"], None]

#: (index, request, record) — fired with each result, in completion order.
ResultFn = Callable[[int, "EvalRequest", Dict[str, Any]], None]

#: Fired once per cell whose attempts are exhausted (tolerant mode).
FailureFn = Callable[["FailedCell"], None]

#: Backoff delays are capped here regardless of attempt count.
MAX_BACKOFF_SECONDS = 5.0

#: One pool round's futures, each mapped to its (request index, attempt).
_Futures = Dict["Future[Dict[str, Any]]", Tuple[int, int]]

#: What one attempt produced: its result record or the error it raised.
_Outcome = Union[Dict[str, Any], BaseException]


@dataclass(frozen=True)
class EvalRequest:
    """One grid cell: every scheme on one (NPU, workload) pair.

    ``derive=True`` serves a batched cell from the analytic plane when
    its checks pass (API only; every cell is simulated by default).
    ``retries`` is
    the number of *extra* attempts allowed after a transient failure
    (``retries=2`` → at most three attempts); ``timeout`` bounds one
    attempt's wall time on the worker, in seconds; ``backoff`` is the
    base of the exponential retry delay (attempt ``n`` retries after
    ``backoff * 2**(n-2)`` seconds, capped).
    """

    npu: NpuConfig
    workload: str
    scheme_names: Tuple[str, ...]
    derive: bool = False
    retries: int = 0
    timeout: Optional[float] = None
    backoff: float = 0.05

    def payload(self, attempt: int = 1) -> Dict[str, Any]:
        """Picklable wire form handed to worker processes.

        ``trace`` tells the worker whether the submitting process is
        recording: a traced worker records into a private recorder and
        ships the snapshot back inside the result record (under
        ``_obs``), so the process boundary does not lose worker spans.
        ``attempt`` rides along so worker-side errors (and the fault
        plane's deterministic draws) know which try this is.
        """
        return {
            "npu": npu_to_dict(self.npu),
            "workload": self.workload,
            "schemes": list(self.scheme_names),
            "trace": obs.enabled(),
            "derive": self.derive,
            "timeout": self.timeout,
            "attempt": attempt,
        }


@dataclass(frozen=True)
class FailedCell:
    """Terminal outcome of one grid cell that exhausted its attempts.

    ``kind`` is ``"transient"`` (retries ran out), ``"permanent"``
    (retrying was pointless) or ``"journal"`` (skipped because a prior
    sweep recorded a permanent failure; see ``from_journal``).
    """

    index: int
    workload: str
    npu: str
    schemes: Tuple[str, ...]
    error: str
    kind: str
    attempts: int
    from_journal: bool = False

    def describe(self) -> str:
        source = ", from journal" if self.from_journal else ""
        return (f"{self.workload} on {self.npu} "
                f"[{','.join(self.schemes)}]: {self.error} "
                f"({self.kind}, {self.attempts} attempt(s){source})")


class CellError(Exception):
    """A grid cell failed on a worker; names the cell and the attempt.

    Crosses the process-pool boundary, so it must round-trip through
    pickle with its metadata intact — pickling an exception keeps only
    ``args`` by default (and ``__cause__`` never survives), hence the
    explicit :meth:`__reduce__` and the original error being folded
    into the message and ``transient`` flag on the worker side.
    """

    def __init__(self, message: str, workload: str = "", npu: str = "",
                 schemes: Tuple[str, ...] = (), attempt: int = 1,
                 transient: bool = False):
        super().__init__(message)
        self.workload = workload
        self.npu = npu
        self.schemes = tuple(schemes)
        self.attempt = attempt
        self.transient = transient

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        return (type(self), (self.args[0] if self.args else "",
                             self.workload, self.npu, self.schemes,
                             self.attempt, self.transient))


class CellTimeout(Exception):
    """One attempt ran past its per-cell deadline (worker-side)."""


class SweepAborted(RuntimeError):
    """A fault-tolerant grid crossed its ``max_failures`` bound."""

    def __init__(self, message: str,
                 failures: Sequence[FailedCell] = ()):
        super().__init__(message)
        self.failures = list(failures)


#: Failure types worth retrying when raised raw (not via CellError) —
#: resource pressure and IPC trouble, not logic errors.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    BrokenProcessPool, OSError, EOFError, ConnectionError, MemoryError)


def _is_transient(error: BaseException) -> bool:
    """Parent-side failure classification (retry-worthy?)."""
    if isinstance(error, CellError):
        return error.transient
    return isinstance(error, _TRANSIENT_TYPES)


def _worker_transient(error: BaseException) -> bool:
    """Worker-side classification, folded into :class:`CellError`.

    Runs where the original exception object still exists (it does not
    survive pickling), so injected faults can declare their own class.
    """
    if isinstance(error, faults.FaultPermanent):
        return False
    return isinstance(error, (faults.FaultInjected, CellTimeout,
                              OSError, EOFError, ConnectionError,
                              MemoryError))


@contextlib.contextmanager
def _cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Bound one attempt's wall time with ``SIGALRM``.

    Pool workers run tasks on their main thread, so the alarm is
    deliverable there as well as in inline runs.  On platforms without
    ``SIGALRM`` (Windows) or off the main thread the deadline silently
    degrades to "no timeout" — a looser contract beats a crashed worker.
    """
    if not seconds or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise CellTimeout(f"attempt exceeded the {seconds:g}s cell timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Per-worker pipeline memo — stage 1 state is reusable across cells
#: that land on the same worker with the same NPU.  LRU-capped: a
#: heterogeneous-NPU grid (many distinct configs cycling through one
#: worker) must not grow the memo unboundedly.
_worker_pipelines: "OrderedDict[str, Pipeline]" = OrderedDict()

#: Distinct NPU configs held per worker before the least recent is
#: dropped.  Grids run a handful of NPUs; anything past that is churn.
PIPELINE_MEMO_CAP = 4


def _memoized_pipeline(payload_npu: Dict[str, Any]) -> Pipeline:
    """The worker's pipeline for this NPU config, LRU-memoized."""
    key = repr(sorted(payload_npu.items()))
    pipeline = _worker_pipelines.get(key)
    if pipeline is None:
        pipeline = _worker_pipelines[key] = Pipeline(npu_from_dict(payload_npu))
        while len(_worker_pipelines) > PIPELINE_MEMO_CAP:
            _worker_pipelines.popitem(last=False)
            obs.incr("executor.pipeline_memo_evictions")
    else:
        _worker_pipelines.move_to_end(key)
    obs.gauge("executor.pipeline_memo_size", len(_worker_pipelines))
    return pipeline


def _derived_record(pipeline: Pipeline,
                    payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Serve the cell from the analytic plane when possible.

    A successful derivation returns the target-batch record stamped
    with ``derived_from=<b1 fingerprint>`` plus, under the transient
    ``_siblings`` key, the probes' batch-1 record keyed by that same
    fingerprint — the service persists absent siblings so the b1 cell
    never needs recomputing.  Returns ``None`` (and counts a fallback)
    when the workload is below :data:`MIN_DERIVE_BATCH` or any of the
    derivation's exactness checks fail.
    """
    base, batch, seq = parse_workload_spec(payload["workload"])
    if batch < MIN_DERIVE_BATCH:
        return None
    derived = derive_cell(pipeline, payload["workload"], payload["schemes"])
    if derived is None:
        obs.incr("executor.derive_fallbacks")
        return None
    record, b1_record = derived
    b1_spec = format_workload_spec(canonical_workload_name(base), 1, seq)
    b1_key = fingerprint(npu_from_dict(payload["npu"]), b1_spec,
                         payload["schemes"])
    record["derived_from"] = b1_key
    record["_siblings"] = {b1_key: b1_record}
    obs.incr("executor.derived_cells")
    return record


def _evaluate_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The happy-path body of :func:`run_cell` (no failure dressing)."""
    local = obs.Recorder() if payload.get("trace") else None
    previous = obs.install(local) if local is not None else None
    try:
        with obs.span("cell", workload=payload["workload"],
                      npu=payload["npu"]["name"],
                      schemes=",".join(payload["schemes"])):
            pipeline = _memoized_pipeline(payload["npu"])
            record = None
            if payload.get("derive", False):
                record = _derived_record(pipeline, payload)
                attempted = record is None and \
                    parse_workload_spec(payload["workload"])[1] \
                    >= MIN_DERIVE_BATCH
            else:
                attempted = False
            if record is None:
                result = compare_schemes(pipeline,
                                         get_workload(payload["workload"]),
                                         payload["schemes"])
                record = comparison_to_dict(result)
                if attempted:
                    record["_derive_fallback"] = True
    finally:
        if local is not None:
            obs.install(previous)
    if local is not None:
        record["_obs"] = local.snapshot()
    return record


def run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one grid cell; module-level so process pools can pickle it.

    Every cell is simulated in full (a batched layer's image windows
    3..N-1 through the periodic shortcut of
    :meth:`repro.core.pipeline.Pipeline.layer_windows`). A payload
    carrying ``derive=True`` instead serves a batched cell (``@bN`` with
    ``N >= MIN_DERIVE_BATCH``) from the analytic plane when its
    exactness checks pass — probe batches are simulated, the target
    batch never is. A cell that attempted derivation but fell back to
    full simulation carries the transient ``_derive_fallback`` marker
    so the service's counters can tell the difference.

    When the payload asks for tracing (``trace``), the cell records
    into a private recorder — whatever recorder the process had active
    is restored afterwards — and the snapshot travels back to the
    submitter under the record's ``_obs`` key (stripped and absorbed by
    :class:`GridExecutor` before the record is persisted or returned).
    The ``cell`` span wraps the whole evaluation, so its duration is
    the cell's wall time on the worker that ran it.

    Any failure — including an attempt overrunning the payload's
    ``timeout`` — is re-raised as a :class:`CellError` that names the
    cell and the attempt and classifies itself transient/permanent, so
    the submitting process never sees an anonymous traceback.
    """
    attempt = int(payload.get("attempt", 1))
    cell_key = f"{payload['npu']['name']}:{payload['workload']}"
    try:
        with _cell_deadline(payload.get("timeout")):
            faults.fire("cell", key=cell_key, attempt=attempt)
            return _evaluate_cell(payload)
    except Exception as error:
        raise CellError(
            f"cell {payload['workload']} on {payload['npu']['name']} "
            f"(schemes {','.join(payload['schemes'])}, attempt {attempt}) "
            f"failed: {type(error).__name__}: {error}",
            workload=payload["workload"], npu=payload["npu"]["name"],
            schemes=tuple(payload["schemes"]), attempt=attempt,
            transient=_worker_transient(error)) from error


def default_jobs() -> int:
    """A sensible worker count: CPU count capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _ingest(record: Dict[str, Any]) -> Dict[str, Any]:
    """Strip a worker's telemetry snapshot off a result record and merge
    it into this process's recorder.  Runs before the record is
    persisted or returned, so stored records never carry ``_obs``."""
    snapshot = record.pop("_obs", None)
    if snapshot is not None:
        obs.absorb(snapshot)
    return record


class GridExecutor:
    """Run evaluation requests through one attempt queue, in rounds run
    inline or on a process pool; one resolver settles every outcome."""

    #: Broken pools (a worker SIGKILLed or OOMed) are rebuilt this many
    #: times; after that the remaining rounds run inline.
    max_pool_restarts = 2

    def __init__(self, jobs: int = 1, progress: Optional[ProgressFn] = None):
        self.jobs = jobs
        self.progress = progress
        # Per-run state, reset by run(); ``failures`` and ``attempts``
        # stay readable afterwards.
        self._requests: List[EvalRequest] = []
        self._records: List[Optional[Dict[str, Any]]] = []
        self._settled: Set[int] = set()
        self._failures: List[FailedCell] = []
        self._attempts: Dict[int, int] = {}
        self._on_result: Optional[ResultFn] = None
        self._on_failure: Optional[FailureFn] = None
        self._max_failures: Optional[int] = None
        self._callback_error_logged = False

    @property
    def failures(self) -> List[FailedCell]:
        """Terminal cell failures from the most recent :meth:`run`."""
        return list(self._failures)

    @property
    def attempts(self) -> Mapping[int, int]:
        """Attempts spent per request index in the most recent
        :meth:`run` (a read-only view)."""
        return MappingProxyType(self._attempts)

    def run(self, requests: Sequence[EvalRequest],
            on_result: Optional[ResultFn] = None,
            on_failure: Optional[FailureFn] = None,
            max_failures: Optional[int] = None
            ) -> List[Optional[Dict[str, Any]]]:
        """Evaluate every request; results are ordered like ``requests``.

        ``on_result`` fires exactly once per cell in *completion* order
        (that is what makes interrupted sweeps resumable — each finished
        cell can be persisted before the grid completes); the returned
        list is always in request order.  A retried cell runs again at
        the end of its round, after one backoff per round.

        With ``on_failure`` the grid is fault-tolerant: a cell whose
        attempts are exhausted yields a :class:`FailedCell` callback
        and a ``None`` slot instead of aborting the run, and
        ``max_failures`` (strictly more failures than this aborts with
        :class:`SweepAborted`) bounds the blast radius.  Without it the
        first exhausted cell re-raises its own error.

        A broken pool is rebuilt up to :attr:`max_pool_restarts` times;
        after that, as when no pool can be spawned at all, later rounds
        run inline (``executor.pool_fallbacks``); see
        :meth:`_charge_break` for a break that exhausts a cell.

        Persisting callbacks may assume nothing about how many sweep
        processes run concurrently: ``ResultStore.put`` publishes
        atomically and is idempotent under same-fingerprint races, so a
        resumed or duplicated grid re-persisting a cell is harmless by
        contract, not by luck.
        """
        self._requests = list(requests)
        self._records = [None] * len(self._requests)
        self._settled = set()
        self._failures = []
        self._attempts = {}
        self._on_result = on_result
        self._on_failure = on_failure
        self._max_failures = max_failures
        self._callback_error_logged = False
        queue = [(index, 1) for index in range(len(self._requests))]
        pooled = self.jobs > 1 and len(queue) > 1
        restarts = 0
        while queue:
            # One backoff per round: sleeping per cell would serialize
            # the pool, and every cell in the round shares the round's
            # worst delay anyway.
            delay = max((self._backoff_delay(self._requests[index], attempt)
                         for index, attempt in queue), default=0.0)
            if delay > 0:
                time.sleep(delay)
            retry: List[Tuple[int, int]] = []
            spawned = self._spawn(queue) if pooled else None
            if pooled and spawned is None:
                obs.incr("executor.pool_fallbacks")
                pooled = False
            if spawned is None:
                for index, attempt in queue:
                    payload = self._requests[index].payload(attempt=attempt)
                    try:
                        outcome: _Outcome = run_cell(payload)
                    except Exception as error:
                        outcome = error
                    self._resolve(index, attempt, outcome, retry,
                                  pooled=False)
            else:
                broken = self._pool_round(*spawned, retry)
                if broken is not None:
                    restarts += 1
                    obs.incr("executor.pool_restarts")
                    rebuild = self._charge_break(queue, broken, retry)
                    if not rebuild or restarts > self.max_pool_restarts:
                        obs.incr("executor.pool_fallbacks")
                        pooled = False
            queue = retry
        # The records belong to the caller from here on.
        records, self._records = self._records, []
        return records

    # -- pool rounds --

    def _spawn(self, queue: Sequence[Tuple[int, int]]
               ) -> Optional[Tuple[ProcessPoolExecutor, _Futures]]:
        """A fresh pool running ``queue``, as ``(pool, futures)``.

        ``None`` when no pool can be spawned here (sandboxes, exotic
        interpreters): nothing of the round has been settled, so it
        runs inline instead.  A worker dying while the round is still
        being submitted leaves a future carrying the break, so the
        round settles like any broken pool.
        """
        workers = min(self.jobs, len(queue))
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ImportError):
            return None
        futures: _Futures = {}
        try:
            for index, attempt in queue:
                payload = self._requests[index].payload(attempt=attempt)
                futures[pool.submit(run_cell, payload)] = (index, attempt)
        except BrokenProcessPool as broken:
            future: "Future[Dict[str, Any]]" = Future()
            future.set_exception(broken)
            futures[future] = (index, attempt)
        except (OSError, ImportError):
            pool.shutdown(wait=True, cancel_futures=True)
            return None
        obs.gauge("executor.pool_workers", workers)
        return pool, futures

    def _pool_round(self, pool: ProcessPoolExecutor,
                    futures: _Futures,
                    retry: List[Tuple[int, int]]
                    ) -> Optional[BrokenProcessPool]:
        """Settle one pool round in completion order; the break, if the
        pool broke (after draining the cells that finished)."""
        with pool:
            try:
                for future in as_completed(futures):
                    index, attempt = futures[future]
                    outcome = future.exception() or future.result()
                    if isinstance(outcome, BrokenProcessPool):
                        self._drain_finished(futures)
                        return outcome
                    self._resolve(index, attempt, outcome, retry,
                                  pooled=True)
            except BaseException:
                # The grid failed mid-flight (a cell exhausted its
                # attempts without on_failure, max_failures tripped,
                # or a caller callback raised): keep what finished.
                self._drain_finished(futures)
                raise
        return None

    def _charge_break(self, queue: Sequence[Tuple[int, int]],
                      broken: BrokenProcessPool,
                      retry: List[Tuple[int, int]]) -> bool:
        """Charge one transient attempt to each cell a broken pool left
        unsettled (nothing says which cell, if any, killed it); False
        when the remaining rounds must run inline.  Without
        ``on_failure`` a cell the charge exhausts is queued anyway, not
        blamed for a crash that may not be its own, and runs inline."""
        requeued = {index for index, _ in retry}
        rebuild = True
        for index, attempt in queue:
            if index in self._settled or index in requeued:
                continue
            if self._on_failure is None \
                    and attempt > self._requests[index].retries:
                retry.append((index, attempt + 1))
                rebuild = False
            else:
                self._resolve(index, attempt, broken, retry, pooled=True)
        return rebuild

    def _drain_finished(self, futures: _Futures) -> None:
        """Stop a failed round, settling every success it finished.

        Cancels the cells still queued, so pool shutdown does not
        compute (and then discard) the rest of the grid, waits for the
        in-flight ones, then settles each finished, not yet settled
        success — so a later round or a rerun resumes instead of
        recomputing.  Runs on the failure path, so callbacks are
        best-effort: a callback that raises here must not mask the
        original error — but it must not vanish either, so every
        suppressed exception counts on ``executor.callback_errors`` and
        the first one is logged.  Progress fires with the updated count
        per drained cell, so observers never see a stale total.
        """
        for future in futures:
            future.cancel()
        wait(list(futures))
        for future, (index, attempt) in futures.items():
            if index in self._settled or future.cancelled() \
                    or future.exception() is not None:
                continue
            self._resolve(index, attempt, future.result(), [], pooled=True,
                          best_effort=True)

    # -- settling an attempt --

    def _resolve(self, index: int, attempt: int, outcome: _Outcome,
                 retry: List[Tuple[int, int]], pooled: bool,
                 best_effort: bool = False) -> None:
        """Settle one attempt's outcome — a record or the error it raised.

        A success is ingested, handed to ``on_result`` and announced to
        ``progress``.  A transient error with retry budget left queues
        the next attempt on ``retry``.  Anything else is terminal: a
        :class:`FailedCell` in fault-tolerant mode (crossing
        ``max_failures`` aborts the grid), or the cell's own error
        re-raised without ``on_failure``.  ``best_effort`` marks the
        drain path, whose callback errors are counted, not raised.
        """
        self._attempts[index] = attempt
        request = self._requests[index]
        if not isinstance(outcome, BaseException):
            self._records[index] = record = _ingest(outcome)
            self._settled.add(index)
            obs.incr("executor.cells_pool" if pooled
                     else "executor.cells_serial")
            self._call(self._on_result, best_effort, index, request, record)
            self._call(self.progress, best_effort, len(self._settled),
                       len(self._requests), request)
            return
        if attempt <= request.retries and _is_transient(outcome):
            obs.incr("executor.retries")
            retry.append((index, attempt + 1))
            return
        if self._on_failure is None:
            raise outcome
        cell = FailedCell(
            index=index, workload=request.workload, npu=request.npu.name,
            schemes=request.scheme_names,
            error=f"{type(outcome).__name__}: {outcome}",
            kind="transient" if _is_transient(outcome) else "permanent",
            attempts=attempt)
        self._settled.add(index)
        self._failures.append(cell)
        obs.incr("executor.failed_cells")
        self._on_failure(cell)
        if self._max_failures is not None \
                and len(self._failures) > self._max_failures:
            raise SweepAborted(
                f"aborting after {len(self._failures)} failed cells "
                f"(--max-failures {self._max_failures}); last: "
                f"{cell.describe()}", self._failures)
        self._call(self.progress, best_effort, len(self._settled),
                   len(self._requests), request)

    @staticmethod
    def _backoff_delay(request: EvalRequest, attempt: int) -> float:
        """Delay before ``attempt`` (the upcoming try, >= 2) starts."""
        if request.backoff <= 0 or attempt < 2:
            return 0.0
        return min(request.backoff * 2.0 ** (attempt - 2),
                   MAX_BACKOFF_SECONDS)

    def _call(self, callback: Optional[Callable[..., None]],
              best_effort: bool, *args: Any) -> None:
        """Run a caller callback; on the drain path (``best_effort``)
        count its error on ``executor.callback_errors`` and log the
        first one instead of raising."""
        if callback is None:
            return
        if not best_effort:
            callback(*args)
            return
        try:
            callback(*args)
        except Exception as error:
            obs.incr("executor.callback_errors")
            if not self._callback_error_logged:
                self._callback_error_logged = True
                _log.warning(
                    "suppressed a callback error on the drain path (first "
                    "of possibly several; see executor.callback_errors): "
                    "%s: %s", type(error).__name__, error)
