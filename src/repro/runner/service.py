"""Batch evaluation service: dedupe, cache, dispatch, resume.

:class:`EvalService` is the front door the rest of the repo talks to.
Callers hand it a batch of grid cells; it fingerprints each one,
collapses duplicates, serves what it can from the in-memory memo and the
on-disk store, and dispatches only the true misses to the
:class:`~repro.runner.executor.GridExecutor`.  Every finished cell is
persisted the moment it completes, so a sweep killed halfway through
loses only in-flight cells — rerunning the same command resumes from the
store instead of starting over.

Fault tolerance rides on top: :meth:`EvalService.evaluate_tolerant`
returns per-cell :class:`~repro.runner.executor.FailedCell` outcomes
instead of raising, journals every terminal outcome through
:class:`~repro.runner.journal.SweepJournal`, and — with ``resume=True``
— skips cells a previous sweep already proved permanently broken.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.config import NpuConfig, npu_config
from repro.core.metrics import ComparisonResult
from repro.models.zoo import (
    WORKLOADS,
    canonical_workload_name,
    format_workload_spec,
    parse_workload_spec,
)
from repro.protection import SCHEME_NAMES
from repro.runner.executor import (
    EvalRequest,
    FailedCell,
    GridExecutor,
    ProgressFn,
)
from repro.runner.journal import SweepJournal
from repro.runner.records import comparison_from_dict, RecordError
from repro.runner.store import ResultStore, fingerprint

_log = logging.getLogger(__name__)


class EvalService:
    """Deduplicating, disk-cached evaluation front-end.

    ``store=None`` keeps the service purely in-memory (the memo still
    collapses repeated requests within the process); pass a
    :class:`~repro.runner.store.ResultStore` to persist results across
    processes and make sweeps resumable.  ``journal`` (defaulting to a
    :class:`SweepJournal` next to the store) records terminal cell
    outcomes; ``resume=True`` makes :meth:`evaluate_tolerant` skip
    cells whose last journaled outcome was a *permanent* failure —
    transient failures are always retried fresh, and finished cells
    need no journal at all (their records are store hits).
    """

    def __init__(self, store: Optional[ResultStore] = None, jobs: int = 1,
                 progress: Optional[ProgressFn] = None,
                 journal: Optional[SweepJournal] = None,
                 resume: bool = False):
        self.store = store
        self.executor = GridExecutor(jobs=jobs, progress=progress)
        if journal is None and store is not None:
            journal = SweepJournal(store.root)
        self.journal = journal
        self.resume = resume
        self._memo: Dict[str, ComparisonResult] = {}
        #: Computed cells served from the analytic plane this session.
        self.derived_hits = 0
        #: Cells that attempted derivation but fell back to simulation.
        self.derived_fallbacks = 0
        #: Persistence errors survived this session (tolerant path
        #: keeps the in-memory result and moves on; see _persist_guard).
        self.persist_errors = 0

    # -- request construction --

    @staticmethod
    def request(npu: Any, workload: str,
                scheme_names: Optional[Iterable[str]] = None,
                derive: bool = False, retries: int = 0,
                timeout: Optional[float] = None) -> EvalRequest:
        """Build a grid cell from an NPU name or :class:`NpuConfig`.

        The workload spec gets its one spelling per cell: abbreviations
        resolved, neutral suffixes (``@b1``, an ``@sN`` equal to the
        workload's default) dropped, so ``let``, ``lenet@b1`` and
        ``lenet`` share one store fingerprint instead of caching thrice.
        Every cell is fully simulated; ``derive=True`` lets the analytic
        plane serve a ``@bN`` cell instead (:class:`EvalRequest`)."""
        if not isinstance(npu, NpuConfig):
            npu = npu_config(npu)
        base, batch, seq = parse_workload_spec(workload)
        workload = format_workload_spec(canonical_workload_name(base),
                                        batch, seq)
        return EvalRequest(npu=npu, workload=workload,
                           scheme_names=tuple(scheme_names or SCHEME_NAMES),
                           derive=derive, retries=retries, timeout=timeout)

    # -- evaluation --

    def evaluate(self, requests: Sequence[EvalRequest]) -> List[ComparisonResult]:
        """Evaluate a batch; results are ordered like ``requests``.

        Identical requests in one batch are computed once; requests
        already in the memo or the store are not recomputed at all.
        Any cell failure raises (after its request's retry budget is
        spent) — use :meth:`evaluate_tolerant` for partial results.
        """
        results, _ = self._evaluate(list(requests), tolerant=False,
                                    max_failures=None)
        return [result for result in results if result is not None]

    def evaluate_tolerant(self, requests: Sequence[EvalRequest],
                          max_failures: Optional[int] = None
                          ) -> Tuple[List[Optional[ComparisonResult]],
                                     List[FailedCell]]:
        """Evaluate a batch, surviving per-cell failures.

        Returns ``(results, failures)``: ``results`` is ordered like
        ``requests`` with ``None`` in each failed slot, and
        ``failures`` holds one :class:`FailedCell` per failed cell
        (``index`` pointing into ``requests``).  Strictly more than
        ``max_failures`` failures aborts with
        :class:`~repro.runner.executor.SweepAborted`.
        """
        return self._evaluate(list(requests), tolerant=True,
                              max_failures=max_failures)

    def _evaluate(self, requests: List[EvalRequest], tolerant: bool,
                  max_failures: Optional[int]
                  ) -> Tuple[List[Optional[ComparisonResult]],
                             List[FailedCell]]:
        keys = [fingerprint(r.npu, r.workload, r.scheme_names)
                for r in requests]
        failures: List[FailedCell] = []
        failed_keys: Dict[str, FailedCell] = {}
        journaled = self.journal.replay() \
            if (tolerant and self.resume and self.journal is not None) \
            else {}

        miss_indices: List[int] = []
        seen_keys: Dict[str, int] = {}
        for index, (request, key) in enumerate(zip(requests, keys)):
            if key in self._memo:
                obs.incr("service.memo_hits")
                continue
            if key in seen_keys or key in failed_keys:
                obs.incr("service.batch_deduped")
                continue
            record = self.store.get(key) if self.store is not None else None
            if record is not None:
                try:
                    self._memo[key] = comparison_from_dict(record)
                    obs.incr("service.disk_hits")
                    continue
                except RecordError:
                    # Stale schema: recompute and overwrite — and make
                    # the counters tell the truth about it.
                    self.store.demote_hit(key)
            entry = journaled.get(key)
            if entry is not None and entry.status == "failed" \
                    and entry.kind == "permanent":
                # A previous sweep proved this cell deterministically
                # broken; resuming must not burn its retry budget
                # again.  Transient failures do not take this path —
                # they are exactly what a resume should retry.
                cell = FailedCell(
                    index=index, workload=request.workload,
                    npu=request.npu.name, schemes=request.scheme_names,
                    error=entry.error or "permanent failure journaled "
                                         "by a previous sweep",
                    kind="permanent", attempts=entry.attempts,
                    from_journal=True)
                failures.append(cell)
                failed_keys[key] = cell
                obs.incr("service.journal_skips")
                continue
            seen_keys[key] = index
            miss_indices.append(index)

        if miss_indices:
            obs.incr("service.computed", len(miss_indices))

            def persist(position: int, _request: EvalRequest,
                        record: Dict[str, Any]) -> None:
                # Analytic-plane bookkeeping: strip the transient keys
                # (they must never reach the store or the memo), count
                # served-vs-fallback, and persist the probes' batch-1
                # sibling record under its own fingerprint so the b1
                # cell is a disk hit forever after.
                siblings = record.pop("_siblings", None)
                fallback = record.pop("_derive_fallback", False)
                if record.get("derived_from"):
                    self.derived_hits += 1
                    obs.incr("service.derived_hits")
                elif fallback:
                    self.derived_fallbacks += 1
                    obs.incr("service.derived_fallbacks")
                key = keys[miss_indices[position]]
                with self._persist_guard(tolerant):
                    if self.store is not None:
                        for sibling_key, sibling in (siblings or {}).items():
                            # contains() is an optimization, not a guard:
                            # two processes can both see the key absent and
                            # both put, and that is fine — publish is
                            # first-wins atomic and the loser just counts a
                            # dedupe (see ResultStore._publish).
                            if not self.store.contains(sibling_key):
                                self.store.put(sibling_key, sibling)
                        self.store.put(key, record)
                    if self.journal is not None:
                        # ``position`` is the executor's request index,
                        # which is how it keys its attempt counts.
                        self.journal.record_done(
                            key,
                            attempts=self.executor.attempts.get(position, 1),
                            workload=_request.workload)

            def on_failure(cell: FailedCell) -> None:
                original = miss_indices[cell.index]
                placed = replace(cell, index=original)
                failures.append(placed)
                failed_keys[keys[original]] = placed
                if self.journal is not None:
                    with self._persist_guard(tolerant):
                        self.journal.record_failed(
                            keys[original], attempts=placed.attempts,
                            workload=placed.workload, kind=placed.kind,
                            error=placed.error)

            misses = [requests[i] for i in miss_indices]
            with obs.span("service.evaluate", batch=len(requests),
                          computed=len(miss_indices)):
                if tolerant:
                    records = self.executor.run(
                        misses, on_result=persist, on_failure=on_failure,
                        max_failures=max_failures)
                else:
                    records = self.executor.run(misses, on_result=persist)
            for index, record in zip(miss_indices, records):
                if record is None:
                    continue
                self._memo[keys[index]] = comparison_from_dict(record)

        if self.store is not None:
            self.store.flush_stats()
        return [self._memo.get(key) for key in keys], failures

    def _persist_guard(self, tolerant: bool) -> "_PersistGuard":
        return _PersistGuard(self, tolerant)

    def compare(self, npu: Any, workload: str,
                scheme_names: Optional[Iterable[str]] = None,
                derive: bool = False) -> ComparisonResult:
        """One grid cell."""
        return self.evaluate(
            [self.request(npu, workload, scheme_names, derive=derive)])[0]

    def sweep(self, npu: Any, workloads: Optional[Iterable[str]] = None,
              scheme_names: Optional[Iterable[str]] = None,
              derive: bool = False) -> Dict[str, ComparisonResult]:
        """Every workload on one NPU; returns workload -> comparison."""
        names = list(workloads or WORKLOADS)
        results = self.evaluate(
            [self.request(npu, w, scheme_names, derive=derive)
             for w in names])
        return dict(zip(names, results))


class _PersistGuard:
    """Context manager absorbing persistence ``OSError`` in tolerant mode.

    A full disk (or an injected ``store.put`` fault) mid-sweep should
    cost durability of that one record, not the whole run: the
    in-memory result is already computed and will be returned; only the
    disk copy is lost.  Non-tolerant evaluation keeps the historical
    fail-fast contract — persistence failures propagate.
    """

    def __init__(self, service: EvalService, tolerant: bool):
        self.service = service
        self.tolerant = tolerant

    def __enter__(self) -> "_PersistGuard":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc is None or not self.tolerant \
                or not isinstance(exc, OSError):
            return False
        self.service.persist_errors += 1
        obs.incr("service.persist_errors")
        if self.service.persist_errors == 1:
            _log.warning(
                "failed to persist a result (first of possibly several; "
                "see service.persist_errors) — the in-memory result is "
                "kept: %s: %s", type(exc).__name__, exc)
        return True
