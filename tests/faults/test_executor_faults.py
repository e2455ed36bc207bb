"""GridExecutor under injected faults: retries, timeouts, tolerance,
pool restarts, inline fallback, journaled attempt counts."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.config import npu_config
from repro.faults import FaultPlan
from repro.runner.executor import (
    CellError,
    EvalRequest,
    GridExecutor,
    SweepAborted,
    run_cell,
)
from repro.runner.service import EvalService
from repro.runner.store import ResultStore, fingerprint

from tests.faults.conftest import find_seed
from tests.runner import fake_pool
from tests.runner.fake_pool import BREAK_ON_SUBMIT, HOLD, OK, late

SCHEMES = ("mgx-64b", "seda")
WORKLOADS = ("lenet", "dlrm", "ncf")


def grid(retries=0, timeout=None, backoff=0.05):
    edge = npu_config("edge")
    return [EvalRequest(edge, w, SCHEMES, retries=retries, timeout=timeout,
                        backoff=backoff)
            for w in WORKLOADS]


def transient(workload):
    return CellError(f"{workload} flaked", workload=workload, npu="edge",
                     schemes=SCHEMES, transient=True)


def permanent(workload):
    return CellError(f"{workload} poisoned", workload=workload, npu="edge",
                     schemes=SCHEMES)


def cell_key(request):
    return f"{request.npu.name}:{request.workload}"


class TestRetries:
    def test_transient_fault_retried_to_success(self, plan, recorder):
        plan("cell:raise:@1")  # first cell attempt in-process fails
        executor = GridExecutor(jobs=1)
        records = executor.run(grid(retries=1)[:1])
        assert records[0]["workload"] == "lenet"
        assert executor.attempts[0] == 2
        assert recorder.counters["executor.retries"] == 1
        assert executor.failures == []

    def test_transient_budget_exhausted(self, plan):
        plan("cell:raise")  # every attempt fails, classified transient
        failures = []
        executor = GridExecutor(jobs=1)
        records = executor.run(grid(retries=2)[:1], on_failure=failures.append)
        assert records == [None]
        [cell] = failures
        assert cell.kind == "transient"
        assert cell.attempts == 3  # 1 try + 2 retries
        assert executor.failures == [cell]

    def test_permanent_fault_never_retried(self, plan):
        plan("cell:permanent")
        failures = []
        records = GridExecutor(jobs=1).run(grid(retries=5)[:1],
                                           on_failure=failures.append)
        assert records == [None]
        [cell] = failures
        assert cell.kind == "permanent"
        assert cell.attempts == 1

    def test_without_on_failure_first_failure_raises(self, plan):
        plan("cell:permanent")
        with pytest.raises(CellError, match="injected permanent fault"):
            GridExecutor(jobs=1).run(grid()[:1])

    def test_injected_error_names_the_cell_and_attempt(self, plan):
        plan("cell:raise")
        with pytest.raises(CellError) as info:
            run_cell(grid()[0].payload(attempt=2))
        assert info.value.workload == "lenet"
        assert info.value.npu == "edge"
        assert info.value.schemes == SCHEMES
        assert info.value.attempt == 2
        assert info.value.transient
        assert "attempt 2" in str(info.value)


class TestTimeout:
    def test_slow_cell_times_out_transient(self, plan):
        plan("cell:delay:1:5")  # 5s artificial latency per attempt
        with pytest.raises(CellError, match="cell timeout") as info:
            GridExecutor(jobs=1).run(grid(timeout=0.25)[:1])
        assert info.value.transient

    def test_timeout_disarmed_after_fast_cell(self, plan):
        # A cell well under its deadline must not leave a pending alarm.
        import signal
        records = GridExecutor(jobs=1).run(grid(timeout=60.0)[:1])
        assert records[0]["workload"] == "lenet"
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestTolerantAccounting:
    def test_seeded_partial_failure_exact_accounting(self, plan):
        # Pick a seed where the plan's own deterministic draws predict
        # exactly one failed cell, then check the executor agrees.
        requests = grid()
        keys = [cell_key(r) for r in requests]

        def exactly_one(seed):
            probe = FaultPlan.parse(f"seed={seed},cell:permanent:0.4")
            return sum(bool(probe.triggered("cell", k, 1))
                       for k in keys) == 1

        seed = find_seed(exactly_one)
        active = plan(f"seed={seed},cell:permanent:0.4")
        predicted = [i for i, k in enumerate(keys)
                     if active.triggered("cell", k, 1)]

        failures = []
        progress = []
        executor = GridExecutor(
            jobs=1, progress=lambda done, total, req: progress.append(done))
        records = executor.run(requests, on_failure=failures.append)

        assert [i for i, r in enumerate(records) if r is None] == predicted
        assert [cell.index for cell in failures] == predicted
        assert len([r for r in records if r is not None]) == 2
        # Monotone progress: every cell resolves exactly once, in order.
        assert progress == [1, 2, 3]

    def test_max_failures_aborts_with_report(self, plan):
        plan("cell:permanent")
        failures = []
        with pytest.raises(SweepAborted) as info:
            GridExecutor(jobs=1).run(grid(), on_failure=failures.append,
                                     max_failures=1)
        assert len(info.value.failures) == 2  # the one allowed + the last
        assert "--max-failures 1" in str(info.value)

    def test_zero_max_failures_aborts_on_first(self, plan):
        plan("cell:permanent")
        with pytest.raises(SweepAborted):
            GridExecutor(jobs=1).run(grid(), on_failure=lambda cell: None,
                                     max_failures=0)


class TestPoolRestart:
    def test_sigkilled_worker_restarts_pool_and_completes(self, plan,
                                                          recorder):
        # Seed chosen so the kill draw fires for exactly one (cell,
        # attempt) pair: lenet on its first attempt, nothing on the
        # retry round — so the broken pool restarts once and finishes.
        requests = grid(retries=1)
        keys = [cell_key(r) for r in requests]

        def only_lenet_attempt_one(seed):
            probe = FaultPlan.parse(f"seed={seed},cell:kill:0.4")
            draws = {(k, a): bool(probe.triggered("cell", k, a))
                     for k in keys for a in range(1, 7)}
            return draws[("edge:lenet", 1)] and \
                sum(draws.values()) == 1

        seed = find_seed(only_lenet_attempt_one)
        plan(f"seed={seed},cell:kill:0.4")

        executor = GridExecutor(jobs=2)
        records = executor.run(requests)
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert executor.failures == []
        assert recorder.counters["executor.pool_restarts"] == 1

    def test_sigkilled_worker_without_retries_finishes_inline(self, plan,
                                                              recorder):
        # A non-tolerant grid with no retries (EvalService.evaluate's
        # defaults): the same lone kill must not abort it; the cells the
        # dead pool left unfinished run inline at attempt 2.
        keys = [cell_key(r) for r in grid()]

        def only_lenet_attempt_one(seed):
            probe = FaultPlan.parse(f"seed={seed},cell:kill:0.4")
            draws = {(k, a): bool(probe.triggered("cell", k, a))
                     for k in keys for a in range(1, 7)}
            return draws[("edge:lenet", 1)] and \
                sum(draws.values()) == 1

        plan(f"seed={find_seed(only_lenet_attempt_one)},cell:kill:0.4")
        executor = GridExecutor(jobs=2)
        records = executor.run(grid())
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert executor.attempts[0] == 2
        assert recorder.counters["executor.pool_restarts"] == 1
        assert recorder.counters["executor.pool_fallbacks"] == 1

    def test_injected_broken_pool_falls_back_to_serial(self, monkeypatch,
                                                       recorder):
        # Non-tolerant, no retries: a break must not abort the grid.  The
        # unfinished cells run inline, and the on_result callback of the
        # cell the pool finished never refires.
        pools = fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": OK, "dlrm": late(BrokenProcessPool("injected")),
            "ncf": HOLD}[workload])
        executor = GridExecutor(jobs=2)
        fired = []
        records = executor.run(
            grid(), on_result=lambda i, req, rec: fired.append(i))
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert fired == [0, 1, 2]  # exactly once per cell, no refires
        assert len(pools) == 1  # no rebuild: the next round runs inline
        assert dict(executor.attempts) == {0: 1, 1: 2, 2: 2}
        assert recorder.counters["executor.pool_restarts"] == 1
        assert recorder.counters["executor.pool_fallbacks"] == 1
        assert recorder.counters["executor.cells_pool"] == 1
        assert recorder.counters["executor.cells_serial"] == 2

    def test_inline_failure_after_a_break_raises_its_own_error(
            self, monkeypatch, plan):
        # The break sends dlrm inline; the second cell attempt this
        # process runs (lenet ran in the fake pool) is dlrm's, and its
        # own permanent failure is what a non-tolerant grid raises.
        fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": OK, "dlrm": late(BrokenProcessPool("injected")),
            "ncf": HOLD}[workload])
        plan("cell:permanent:@2")
        with pytest.raises(CellError, match=r"dlrm .*attempt 2.*"
                           r"FaultPermanent") as raised:
            GridExecutor(jobs=2).run(grid())
        assert not raised.value.transient

    def test_pool_rebuilt_until_restarts_run_out_then_inline(
            self, monkeypatch, recorder):
        # Every pool round breaks until the restart budget is spent: the
        # unfinished cells then run inline, and the on_result callback of
        # the cell the first pool finished never refires.
        def script(workload, attempt):
            if workload == "lenet":
                return OK
            if workload == "ncf":
                return HOLD
            # Read after lenet in the first pool, alone in the rebuilds.
            broken = BrokenProcessPool("injected")
            return late(broken) if attempt == 1 else broken

        pools = fake_pool.install(monkeypatch, script)
        executor = GridExecutor(jobs=2)
        fired = []
        records = executor.run(
            grid(retries=3, backoff=0),
            on_result=lambda i, req, rec: fired.append(i))
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert fired == [0, 1, 2]  # exactly once per cell, no refires
        # Three pools (the first and two rebuilds), each broken once and
        # each charging one attempt; the fourth attempt runs inline.
        assert [pool.submitted for pool in pools] == [
            [("lenet", 1), ("dlrm", 1), ("ncf", 1)],
            [("dlrm", 2), ("ncf", 2)],
            [("dlrm", 3), ("ncf", 3)]]
        assert dict(executor.attempts) == {0: 1, 1: 4, 2: 4}
        assert recorder.counters["executor.pool_restarts"] == 3
        assert recorder.counters["executor.pool_fallbacks"] == 1
        assert recorder.counters["executor.cells_pool"] == 1
        assert recorder.counters["executor.cells_serial"] == 2

    def test_pool_worker_failure_partial_completion_serial_resume(
            self, monkeypatch, recorder):
        # The pool breaks after one cell completed *and* one cell failed
        # terminally; the inline remainder must recompute only the
        # genuinely unfinished cell.
        fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": OK, "dlrm": late(permanent("dlrm")),
            "ncf": late(BrokenProcessPool("injected"))}[workload])
        executor = GridExecutor(jobs=2)
        executor.max_pool_restarts = 0
        failures = []
        records = executor.run(grid(retries=1, backoff=0),
                               on_failure=failures.append)
        assert records[0]["workload"] == "lenet"
        assert records[1] is None
        assert records[2]["workload"] == "ncf"
        assert [cell.index for cell in failures] == [1]
        assert recorder.counters["executor.cells_serial"] == 1


    def test_worker_death_during_submission_loses_no_cell(self, monkeypatch,
                                                          recorder):
        # The pool breaks while dlrm is being submitted, so ncf is never
        # submitted at all: both are charged the break and retried.
        pools = fake_pool.install(monkeypatch, lambda workload, attempt:
                                  BREAK_ON_SUBMIT if (workload, attempt) ==
                                  ("dlrm", 1) else OK)
        executor = GridExecutor(jobs=2)
        fired = []
        records = executor.run(grid(retries=1, backoff=0),
                               on_result=lambda i, req, rec: fired.append(i))
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert sorted(fired) == [0, 1, 2]
        assert pools[0].submitted == [("lenet", 1), ("dlrm", 1)]
        assert dict(executor.attempts) == {0: 1, 1: 2, 2: 2}
        assert recorder.counters["executor.pool_restarts"] == 1


class TestDrainCallbackCounting:
    def test_drain_counts_and_logs_suppressed_callback_errors(
            self, monkeypatch, recorder, caplog):
        # Both finished cells are still unread when ncf's permanent
        # failure stops the grid; their persisting callbacks both fail.
        pools = fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": late(OK), "dlrm": late(OK),
            "ncf": permanent("ncf")}[workload])
        drained = []

        def explode(index, request, record):
            drained.append(record["workload"])
            raise OSError("disk full during drain")

        with caplog.at_level("WARNING", logger="repro.runner.executor"):
            with pytest.raises(CellError, match="ncf poisoned"):
                GridExecutor(jobs=2).run(grid(), on_result=explode)
        assert drained == ["lenet", "dlrm"]
        assert pools[0].unread_at_drain == 2
        assert recorder.counters["executor.callback_errors"] == 2
        # Only the first suppressed error is logged.
        messages = [r for r in caplog.records
                    if "suppressed a callback error" in r.message]
        assert len(messages) == 1


class TestInlineRetryRounds:
    def test_inline_retry_runs_at_the_end_of_its_round(self, plan):
        # lenet's first attempt fails; its retry waits for dlrm and ncf
        # (one round), yet results stay in request order and progress
        # strictly increases.
        plan("cell:raise:@1")
        fired, progress = [], []
        executor = GridExecutor(
            jobs=1, progress=lambda done, total, req: progress.append(done))
        records = executor.run(
            grid(retries=1), on_result=lambda i, req, rec: fired.append(i))
        assert [r["workload"] for r in records] == list(WORKLOADS)
        assert fired == [1, 2, 0]  # each exactly once
        assert progress == [1, 2, 3]
        assert dict(executor.attempts) == {0: 2, 1: 1, 2: 1}


class TestJournaledAttempts:
    """The journal records the attempt that actually finished a cell."""

    @staticmethod
    def _journaled(service, requests):
        entries = service.journal.replay()
        return {r.workload: entries[fingerprint(r.npu, r.workload,
                                                r.scheme_names)]
                for r in requests}

    def test_retried_cell_journaled_with_its_second_attempt(self, plan,
                                                            tmp_path):
        plan("cell:raise:@1")
        service = EvalService(store=ResultStore(tmp_path / "store"))
        requests = grid(retries=1)[:1]
        results, failures = service.evaluate_tolerant(requests)
        assert failures == [] and results[0] is not None
        entry = self._journaled(service, requests)["lenet"]
        assert (entry.status, entry.attempts) == ("done", 2)

    def test_cell_recovered_on_the_drain_path_keeps_its_attempt(
            self, monkeypatch, tmp_path):
        # Round 1: lenet and dlrm flake, ncf finishes.  Round 2: the pool
        # breaks on dlrm's retry while lenet's retry (attempt 2) has
        # finished unread, so lenet is settled by the drain.
        def script(workload, attempt):
            if workload == "ncf":
                return OK
            if attempt == 1:
                return transient(workload)
            return BrokenProcessPool("injected") if workload == "dlrm" \
                else late(OK)

        pools = fake_pool.install(monkeypatch, script)
        service = EvalService(store=ResultStore(tmp_path / "store"), jobs=2)
        requests = grid(retries=1, backoff=0)
        results, failures = service.evaluate_tolerant(requests)
        # A round queues its retries in completion order.
        assert [sorted(pool.submitted) for pool in pools] == [
            [("dlrm", 1), ("lenet", 1), ("ncf", 1)],
            [("dlrm", 2), ("lenet", 2)]]
        assert pools[1].unread_at_drain == 1
        assert [cell.workload for cell in failures] == ["dlrm"]
        journaled = self._journaled(service, requests)
        assert (journaled["lenet"].status, journaled["lenet"].attempts) == \
            ("done", 2)
        assert (journaled["dlrm"].status, journaled["dlrm"].attempts) == \
            ("failed", 2)
        assert journaled["ncf"].attempts == 1
        assert results[0] is not None and results[1] is None
