"""The instrumented stack records what it claims to record.

Pipeline stage spans, executor cell spans across the inline / pool /
fallback paths, worker-snapshot marshalling through ``_obs``, and the
service-level cache counters.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import obs
from repro.core.config import npu_config
from repro.core.pipeline import Pipeline
from repro.models.layer import conv, gemm
from repro.models.topology import Topology
from repro.protection import make_scheme
from repro.runner.executor import (
    CellError,
    EvalRequest,
    GridExecutor,
    run_cell,
)
from repro.runner.service import EvalService

from tests.runner import fake_pool
from tests.runner.fake_pool import HOLD, NO_SPAWN, OK, late

SCHEMES = ("mgx-64b", "seda")


@pytest.fixture
def topology():
    return Topology("obs-pipe", [
        conv("c1", 18, 18, 3, 3, 3, 8),
        gemm("fc", 1, 8 * 16 * 16, 10),
    ])


def grid():
    edge = npu_config("edge")
    return [EvalRequest(edge, "lenet", SCHEMES),
            EvalRequest(edge, "dlrm", SCHEMES),
            EvalRequest(edge, "ncf", SCHEMES)]


def span_names(recorder):
    return [event["name"] for event in recorder.spans]


class TestPipelineSpans:
    def test_stage_spans_per_scheme_and_layer(self, test_npu, topology):
        recorder = obs.enable()
        Pipeline(test_npu).run(topology, make_scheme("seda"))
        names = span_names(recorder)
        assert names.count("accel") == 1
        assert names.count("accel.layer") == len(topology)
        # Each layer is one cycle window here, protected and served
        # before the next: one protect and one dram span per window,
        # one crypto span per finished layer row.
        assert names.count("protect") == len(topology)
        assert names.count("protect.layer") == len(topology)
        assert names.count("dram") == len(topology)
        assert names.count("crypto") == len(topology)

    def test_untraced_run_records_nothing(self, test_npu, topology):
        Pipeline(test_npu).run(topology, make_scheme("seda"))
        assert obs.get() is None  # nothing installed, nothing leaked


class TestCellMarshalling:
    def test_traced_payload_ships_obs_snapshot(self):
        obs.enable()
        record = run_cell(grid()[0].payload())
        snapshot = record["_obs"]
        names = [event["name"] for event in snapshot["spans"]]
        cell, = [e for e in snapshot["spans"] if e["name"] == "cell"]
        assert cell["args"]["workload"] == "lenet"
        # Cells run layer-major: one protect span per (scheme, layer),
        # counting the baseline as a scheme.
        layers = names.count("accel.layer")
        assert layers > 1
        assert names.count("protect") == (len(SCHEMES) + 1) * layers

    def test_cell_span_covers_its_stage_spans(self):
        obs.enable()
        snapshot = run_cell(grid()[0].payload())["_obs"]
        cell, = [e for e in snapshot["spans"] if e["name"] == "cell"]
        stage_total = sum(e["dur"] for e in snapshot["spans"]
                          if e["name"] in ("accel", "protect", "dram",
                                           "crypto"))
        # Stages are disjoint sub-intervals of the cell.
        assert cell["dur"] >= stage_total * 0.99

    def test_untraced_payload_ships_nothing(self):
        record = run_cell(grid()[0].payload())
        assert "_obs" not in record

    def test_parent_recorder_restored_after_cell(self):
        parent = obs.enable()
        run_cell(grid()[0].payload())
        assert obs.get() is parent
        # The cell recorded privately; the parent saw none of it.
        assert parent.spans == []


class TestExecutorIngestion:
    def test_serial_run_absorbs_every_cell(self):
        recorder = obs.enable()
        records = GridExecutor(jobs=1).run(grid())
        assert all("_obs" not in record for record in records)
        cells = [e for e in recorder.spans if e["name"] == "cell"]
        assert sorted(c["args"]["workload"] for c in cells) == \
            ["dlrm", "lenet", "ncf"]
        assert recorder.counters["executor.cells_serial"] == 3

    def test_pool_run_absorbs_every_cell(self):
        recorder = obs.enable()
        records = GridExecutor(jobs=2).run(grid())
        assert all("_obs" not in record for record in records)
        cells = [e for e in recorder.spans if e["name"] == "cell"]
        assert sorted(c["args"]["workload"] for c in cells) == \
            ["dlrm", "lenet", "ncf"]
        assert recorder.counters["executor.cells_pool"] == 3
        assert recorder.gauges["executor.pool_workers"] == 2.0

    def test_pool_fallback_neither_drops_nor_duplicates(self, monkeypatch):
        recorder = obs.enable()
        fake_pool.install(monkeypatch, NO_SPAWN)
        GridExecutor(jobs=2).run(grid())
        cells = [e for e in recorder.spans if e["name"] == "cell"]
        assert sorted(c["args"]["workload"] for c in cells) == \
            ["dlrm", "lenet", "ncf"]
        assert recorder.counters["executor.pool_fallbacks"] == 1
        assert recorder.counters["executor.cells_serial"] == 3

    def test_partial_pool_then_serial_resume_keeps_spans_exact(
            self, monkeypatch):
        """A pool that breaks after finishing one cell, in a grid with
        no retries: the inline round must not re-record that cell's
        spans nor lose the others'."""
        recorder = obs.enable()
        fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": OK, "dlrm": late(BrokenProcessPool("lost")),
            "ncf": HOLD}[workload])
        records = GridExecutor(jobs=2).run(grid())
        assert [r["workload"] for r in records] == ["lenet", "dlrm",
                                                    "ncf"]
        cells = [e for e in recorder.spans if e["name"] == "cell"]
        workloads = [c["args"]["workload"] for c in cells]
        assert sorted(workloads) == ["dlrm", "lenet", "ncf"]
        assert len(workloads) == len(set(workloads))  # no duplicates
        assert recorder.counters["executor.cells_pool"] == 1
        assert recorder.counters["executor.cells_serial"] == 2

    def test_drain_finished_absorbs_worker_snapshots(self, monkeypatch):
        """Cells recovered on the failure path keep their telemetry."""
        recorder = obs.enable()
        pools = fake_pool.install(monkeypatch, lambda workload, attempt: {
            "lenet": late(OK),
            "dlrm": CellError("poisoned", workload="dlrm", npu="edge",
                              schemes=SCHEMES),
            "ncf": HOLD}[workload])
        drained = []
        with pytest.raises(CellError, match="poisoned"):
            GridExecutor(jobs=2).run(
                grid(), on_result=lambda i, req, rec: drained.append(rec))
        assert [record["workload"] for record in drained] == ["lenet"]
        assert pools[0].unread_at_drain == 1
        assert "_obs" not in drained[0]
        cells = [e for e in recorder.spans if e["name"] == "cell"]
        assert [c["args"]["workload"] for c in cells] == ["lenet"]
        assert recorder.counters["executor.cells_pool"] == 1


class TestServiceCounters:
    def test_memo_disk_and_compute_paths_counted(self, tmp_path):
        from repro.runner.store import ResultStore

        recorder = obs.enable()
        request = EvalService.request("edge", "lenet", SCHEMES)

        service = EvalService(store=ResultStore(tmp_path / "cache"))
        service.evaluate([request, request])  # compute + batch dedupe
        assert recorder.counters["service.computed"] == 1
        assert recorder.counters["service.batch_deduped"] == 1

        service.evaluate([request])  # in-memory memo
        assert recorder.counters["service.memo_hits"] == 1

        fresh = EvalService(store=ResultStore(tmp_path / "cache"))
        fresh.evaluate([request])  # same store, cold memo
        assert recorder.counters["service.disk_hits"] == 1
        assert recorder.counters["service.computed"] == 1  # unchanged

        evaluate_span, = [e for e in recorder.spans
                          if e["name"] == "service.evaluate"]
        assert evaluate_span["args"] == {"batch": 2, "computed": 1}
