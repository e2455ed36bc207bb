"""Batched inference end to end: batch-first geometry through the whole
trace -> protection -> DRAM path, the eval service, and the CLI."""

import json

import pytest

from repro.accel.simulator import AcceleratorSim
from repro.accel.systolic import SystolicArray
from repro.accel.trace import AccessKind
from repro.cli import main as cli_main
from repro.models.zoo import get_workload
from repro.runner.service import EvalService
from repro.runner.store import ResultStore
from repro.tiling.tile import SramBudget

BATCH = 3


@pytest.fixture(scope="module")
def lenet_runs():
    """(batch=1 run, batch=N run) of LeNet on one small accelerator."""
    sim = AcceleratorSim(SystolicArray(16, 16), SramBudget.split(96 << 10))
    base = sim.run(get_workload("lenet"))
    batched = sim.run(get_workload(f"lenet@b{BATCH}"))
    return base, batched


class TestPerImageScaling:
    def test_activation_traffic_exactly_n_times(self, lenet_runs):
        base, batched = lenet_runs
        for one, many in zip(base.layers, batched.layers):
            base_kinds = one.trace.bytes_by_kind()
            got_kinds = many.trace.bytes_by_kind()
            assert got_kinds[AccessKind.IFMAP] == \
                BATCH * base_kinds[AccessKind.IFMAP], one.layer.name
            assert got_kinds[AccessKind.OFMAP] == \
                BATCH * base_kinds[AccessKind.OFMAP], one.layer.name

    def test_compute_scales_exactly_n_times(self, lenet_runs):
        base, batched = lenet_runs
        assert batched.compute_cycles == BATCH * base.compute_cycles

    def test_weights_never_scale_past_n_and_stay_unique_when_resident(
            self, lenet_runs):
        base, batched = lenet_runs
        for one, many in zip(base.layers, batched.layers):
            base_w = one.trace.bytes_by_kind()[AccessKind.WEIGHT]
            got_w = many.trace.bytes_by_kind()[AccessKind.WEIGHT]
            assert base_w <= got_w <= BATCH * base_w
            if one.plan.num_n_tiles == 1:
                # Fully resident weights are fetched once for the batch.
                assert got_w == one.layer.weight_bytes

    def test_trace_matches_plan_totals(self, lenet_runs):
        _, batched = lenet_runs
        for result in batched.layers:
            assert result.trace.total_bytes <= result.plan.total_traffic
            assert result.trace.total_bytes > 0.9 * result.plan.total_traffic


class TestBatchedSweepCell:
    def test_service_sweep_cell(self, tmp_path):
        """A batch>1 cell runs through the eval service with per-image-
        consistent traffic and caches under its own fingerprint."""
        store = ResultStore(tmp_path)
        service = EvalService(store=store)
        spec = f"lenet@b{BATCH}"
        result = service.compare("edge", spec, ["seda"])
        assert result.workload == f"lenet_b{BATCH}"
        run = result.runs["seda"]
        assert run.batch == BATCH

        base = service.compare("edge", "lenet", ["seda"]).runs["seda"]
        assert base.batch == 1
        # Activation-dominated LeNet: batched totals sit between per-image
        # x N (weights resident) and strictly above the batch-1 cell.
        assert base.total_bytes < run.total_bytes <= BATCH * base.total_bytes
        assert run.time_per_image_ms <= run.total_time_ms

        # Distinct fingerprints: rerunning both serves from cache.
        store2 = ResultStore(tmp_path)
        service2 = EvalService(store=store2)
        service2.evaluate([
            service2.request("edge", spec, ["seda"]),
            service2.request("edge", "lenet", ["seda"]),
        ])
        assert store2.summary().last_run["hits"] == 2

    def test_cli_sweep_with_batch_flag(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        rc = cli_main([
            "sweep", "--npu", "edge", "--workloads", "lenet",
            "--batch", str(BATCH), "--schemes", "seda",
            "--no-cache", "--json", str(out_json),
        ])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        # Tables are keyed by the requested spec string.
        assert payload["workloads"] == [f"lenet@b{BATCH}"]
        assert "seda" in payload["metrics"]["traffic"]

    def test_cli_rejects_conflicting_batch_specs(self, capsys):
        rc = cli_main([
            "sweep", "--npu", "edge", "--workloads", "lenet@b2",
            "--batch", "8", "--no-cache",
        ])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_cli_batch_flag_agrees_with_matching_spec(self, tmp_path):
        out_json = tmp_path / "s.json"
        rc = cli_main([
            "sweep", "--npu", "edge", "--workloads", f"lenet@b{BATCH}",
            "--batch", str(BATCH), "--schemes", "seda", "--no-cache",
            "--json", str(out_json),
        ])
        assert rc == 0


class TestStaleGeometryRecordsDemoted:
    def test_old_schema_record_recomputed_not_served(self, tmp_path):
        """A stale-schema body surfacing at a live fingerprint is demoted
        (miss + eviction), recomputed and overwritten — never
        deserialized. (Records written by genuinely old builds normally
        never surface at all: the fingerprint folds in the schema and
        code version, so they become unreachable keys.)"""
        from repro.runner.store import fingerprint

        store = ResultStore(tmp_path)
        service = EvalService(store=store)
        request = service.request("edge", "lenet", ["seda"])
        key = fingerprint(request.npu, request.workload, request.scheme_names)
        store.put(key, {"schema_version": 1, "stale": "old geometry"})
        store.flush_stats()

        result = service.compare("edge", "lenet", ["seda"])
        assert result.runs["seda"].total_bytes > 0
        stats = store.summary().last_run
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        # The overwritten record now carries the current schema.
        from repro.runner.records import SCHEMA_VERSION

        fresh = ResultStore(tmp_path).get(key)
        assert fresh["schema_version"] == SCHEMA_VERSION
