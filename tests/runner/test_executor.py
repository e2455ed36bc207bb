"""GridExecutor: parallel == inline, ordering, callbacks, fallback."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.core.config import npu_config
from repro.runner.executor import (
    CellError,
    EvalRequest,
    GridExecutor,
    run_cell,
)

from tests.runner import fake_pool
from tests.runner.fake_pool import HOLD, NO_SPAWN, OK, late

SCHEMES = ("mgx-64b", "seda")


def grid():
    edge = npu_config("edge")
    return [EvalRequest(edge, "lenet", SCHEMES),
            EvalRequest(edge, "dlrm", SCHEMES),
            EvalRequest(edge, "ncf", SCHEMES)]


class TestRunCell:
    def test_returns_flat_record(self):
        record = run_cell(grid()[0].payload())
        assert record["workload"] == "lenet"
        assert set(record["runs"]) == set(SCHEMES)
        assert record["baseline"]["scheme_name"] == "baseline"


class TestSerial:
    def test_request_order(self):
        records = GridExecutor(jobs=1).run(grid())
        assert [r["workload"] for r in records] == ["lenet", "dlrm", "ncf"]

    def test_progress_and_on_result(self):
        seen, stored = [], []
        executor = GridExecutor(
            jobs=1, progress=lambda done, total, req: seen.append((done, total)))
        executor.run(grid(), on_result=lambda i, req, rec: stored.append(i))
        assert seen == [(1, 3), (2, 3), (3, 3)]
        assert stored == [0, 1, 2]

    def test_empty_grid(self):
        assert GridExecutor(jobs=4).run([]) == []


class TestParallel:
    def test_matches_serial(self):
        requests = grid()
        serial = GridExecutor(jobs=1).run(requests)
        parallel = GridExecutor(jobs=2).run(requests)
        assert parallel == serial  # full record equality, request order

    def test_on_result_covers_every_cell(self):
        stored = []
        GridExecutor(jobs=2).run(
            grid(), on_result=lambda i, req, rec: stored.append(i))
        assert sorted(stored) == [0, 1, 2]

    def test_single_request_stays_serial(self, monkeypatch):
        # A one-cell grid must not pay process-pool startup.
        pools = fake_pool.install(
            monkeypatch, lambda workload, attempt: pytest.fail(
                "pool used for one cell"))
        records = GridExecutor(jobs=8).run(grid()[:1])
        assert records[0]["workload"] == "lenet"
        assert pools == []

    def test_on_result_error_propagates(self):
        # A failing persistence callback (e.g. disk full) must surface
        # as-is, not masquerade as a pool failure and trigger a serial
        # recompute of the whole batch.
        def explode(index, request, record):
            raise OSError("store is full")

        with pytest.raises(OSError, match="store is full"):
            GridExecutor(jobs=2).run(grid(), on_result=explode)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        # No pool can be spawned: the same round runs inline.
        fake_pool.install(monkeypatch, NO_SPAWN)
        recorder = obs.install(obs.Recorder())
        try:
            records = GridExecutor(jobs=2).run(grid())
            counters = obs.get().counters
        finally:
            obs.install(recorder)
        assert [r["workload"] for r in records] == ["lenet", "dlrm", "ncf"]
        assert counters["executor.pool_fallbacks"] == 1
        assert counters["executor.cells_serial"] == 3

    def test_worker_failure_propagates(self):
        # Worker exceptions surface as CellError naming the cell (the
        # raw KeyError does not survive pickling with context intact).
        bad = grid() + [EvalRequest(npu_config("edge"), "nonexistent",
                                    SCHEMES)]
        with pytest.raises(CellError, match="nonexistent") as info:
            GridExecutor(jobs=2).run(bad)
        assert info.value.workload == "nonexistent"
        assert info.value.npu == "edge"
        assert info.value.attempt == 1
        assert not info.value.transient  # a KeyError is permanent


class TestPipelineMemoCap:
    """The per-worker pipeline memo is LRU-capped: a heterogeneous-NPU
    grid cycling through one worker must not grow it unboundedly."""

    @staticmethod
    def _payload_npu(name):
        from repro.runner.records import npu_to_dict
        config = npu_config("edge")
        payload = npu_to_dict(config)
        payload["name"] = name
        return payload

    @pytest.fixture(autouse=True)
    def _clean_memo(self):
        from repro.runner import executor
        saved = dict(executor._worker_pipelines)
        executor._worker_pipelines.clear()
        yield
        executor._worker_pipelines.clear()
        executor._worker_pipelines.update(saved)

    def test_size_never_exceeds_cap(self):
        from repro.runner import executor
        for i in range(executor.PIPELINE_MEMO_CAP + 3):
            executor._memoized_pipeline(self._payload_npu(f"npu-{i}"))
            assert len(executor._worker_pipelines) <= \
                executor.PIPELINE_MEMO_CAP

    def test_repeat_config_reuses_pipeline(self):
        from repro.runner import executor
        payload = self._payload_npu("npu-a")
        first = executor._memoized_pipeline(payload)
        assert executor._memoized_pipeline(payload) is first

    def test_recently_used_survives_eviction(self):
        from repro.runner import executor
        hot = self._payload_npu("hot")
        kept = executor._memoized_pipeline(hot)
        for i in range(executor.PIPELINE_MEMO_CAP - 1):
            executor._memoized_pipeline(self._payload_npu(f"cold-{i}"))
        # Touch the oldest entry, then overflow: the LRU victim must be
        # cold-0, not the freshly touched one.
        assert executor._memoized_pipeline(hot) is kept
        executor._memoized_pipeline(self._payload_npu("overflow"))
        assert executor._memoized_pipeline(hot) is kept

    def test_evictions_and_size_reported(self):
        from repro import obs
        from repro.runner import executor
        recorder = obs.install(obs.Recorder())
        try:
            for i in range(executor.PIPELINE_MEMO_CAP + 2):
                executor._memoized_pipeline(self._payload_npu(f"n-{i}"))
            active = obs.get()
            assert active.counters[
                "executor.pipeline_memo_evictions"] == 2
            assert active.gauges["executor.pipeline_memo_size"] == \
                float(executor.PIPELINE_MEMO_CAP)
        finally:
            obs.install(recorder)


def permanent(workload):
    return CellError(f"{workload} poisoned", workload=workload, npu="edge",
                     schemes=SCHEMES)


class TestDrainFinished:
    """Regression: a mid-grid worker failure used to drop cells that had
    already finished but were not yet yielded by as_completed, so resume
    re-ran them.  The scripted pool finishes lenet only after the round's
    first read — dlrm's permanent failure — so lenet is still unread when
    the non-tolerant grid stops; ncf never starts."""

    SCRIPT = {"lenet": late(OK), "dlrm": permanent("dlrm"), "ncf": HOLD}

    def _run(self, monkeypatch, script=None, on_result=None, progress=None,
             drained=1):
        script = script or self.SCRIPT
        pools = fake_pool.install(monkeypatch,
                                  lambda workload, attempt: script[workload])
        executor = GridExecutor(jobs=2, progress=progress)
        with pytest.raises(CellError, match="dlrm poisoned"):
            executor.run(grid(), on_result=on_result)
        assert pools[0].unread_at_drain == drained
        return executor

    def test_finished_cells_recovered_and_persisted(self, monkeypatch):
        persisted = []
        executor = self._run(
            monkeypatch, on_result=lambda index, request, record:
            persisted.append((index, record["workload"])))
        assert persisted == [(0, "lenet")]
        assert dict(executor.attempts) == {0: 1, 1: 1}  # ncf never ran

    def test_already_recorded_cells_not_refired(self, monkeypatch):
        # lenet is read (and persisted) first; the failure behind it
        # must not fire lenet's callback a second time on the drain.
        persisted = []
        self._run(monkeypatch,
                  script={"lenet": OK, "dlrm": late(permanent("dlrm")),
                          "ncf": HOLD}, drained=0,
                  on_result=lambda index, request, record:
                  persisted.append(index))
        assert persisted == [0]

    def test_callback_errors_do_not_mask_original_failure(self,
                                                          monkeypatch):
        fired = []

        def explode(index, request, record):
            fired.append(index)
            raise OSError("disk full during drain")

        recorder = obs.install(obs.Recorder())
        try:
            self._run(monkeypatch, on_result=explode)  # raises CellError
            counters = obs.get().counters
        finally:
            obs.install(recorder)
        assert fired == [0]  # still recovered
        assert counters["executor.callback_errors"] == 1

    def test_drain_fires_progress_with_updated_counts(self, monkeypatch):
        """Regression: a worker failure mid-drain used to leave progress
        observers with stale ``completed`` counts — recovered cells were
        persisted but never announced."""
        seen = []
        self._run(monkeypatch, progress=lambda done, total, req:
                  seen.append((done, total, req.workload)))
        assert seen == [(1, 3, "lenet")]

    def test_drain_progress_errors_are_best_effort(self, monkeypatch):
        persisted = []

        def bad_progress(done, total, request):
            raise RuntimeError("progress pipe closed")

        self._run(monkeypatch, progress=bad_progress,
                  on_result=lambda index, request, record:
                  persisted.append(index))
        assert persisted == [0]


class TestMonotoneProgress:
    """Progress counts never regress, even when a worker raises and the
    executor drains finished cells on the failure path."""

    def test_worker_failure_keeps_progress_monotone(self):
        seen = []
        requests = grid() + [EvalRequest(npu_config("edge"), "nonexistent",
                                         SCHEMES)]
        executor = GridExecutor(
            jobs=2, progress=lambda done, total, req: seen.append(done))
        with pytest.raises(CellError):
            executor.run(requests)
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))  # strictly increasing

    def test_serial_resume_continues_from_drained_counts(self,
                                                         monkeypatch):
        """A pool that breaks after finishing one cell, in a grid with
        no retries: the unfinished cells run inline, and progress
        continues from the pool's count."""
        seen = []
        pools = fake_pool.install(
            monkeypatch, lambda workload, attempt: {
                "lenet": OK, "dlrm": late(BrokenProcessPool("lost")),
                "ncf": HOLD}[workload])
        executor = GridExecutor(
            jobs=2, progress=lambda done, total, req: seen.append(done))
        records = executor.run(grid())
        assert [r["workload"] for r in records] == ["lenet", "dlrm", "ncf"]
        assert seen == [1, 2, 3]
        assert len(pools) == 1
        # The break charged one attempt to each unfinished cell.
        assert dict(executor.attempts) == {0: 1, 1: 2, 2: 2}
