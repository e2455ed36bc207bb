"""Self-tests of the benchmark's own machinery.

Run from the repository root (they are kept out of the default test
collection on purpose)::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

They use the small, millisecond edge cells of ``paper_grid`` and run
in-process with one job and no store.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from gate import Gate, digest  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_once  # noqa: E402

SMALL = workloads.Workload(
    name="small",
    cells=(("edge", "lenet"), ("edge", "mobilenet"), ("edge", "dlrm"),
           ("edge", "ncf"), ("edge", "sentimental"), ("edge", "resnet18")),
    store=False, reread=False)


def _results(order):
    from repro.runner import EvalService

    service = EvalService()
    return service.evaluate([service.request(npu, spec)
                             for npu, spec in order])


def test_injected_permanent_faults_give_the_failed_fraction():
    from repro import faults

    plan = faults.FaultPlan.parse("seed=5,cell:permanent:0.5")
    expected = [cell for cell in SMALL.cells
                if plan.triggered("cell", key=workloads.cell_id(cell),
                                  attempt=1)]
    assert 0 < len(expected) < len(SMALL.cells)
    previous = faults.install(faults.FaultPlan.parse(plan.spec()))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = run_once(SMALL, list(SMALL.cells), Gate.load(), tmp)
    finally:
        faults.install(previous)
    assert out["attempted"] == len(SMALL.cells)
    assert out["failed"] == len(expected)
    assert {f["cell"] for f in out["failures"]} == \
        {workloads.cell_id(cell) for cell in expected}


def test_a_perturbed_record_trips_the_gate():
    gate = Gate.load()
    cell = ("edge", "lenet")
    result = _results([cell])[0]
    assert gate.check(workloads.cell_id(cell), result) is None
    perturbed = copy.deepcopy(result)
    layer = perturbed.runs["seda"].layers[0]
    layer.dram_cycles = layer.dram_cycles + 1.0
    assert gate.check(workloads.cell_id(cell), perturbed) is not None
    assert gate.check("edge:not-a-cell", result) is not None


def test_the_golden_cross_check_trips_on_a_changed_golden_record():
    gate = Gate.load()
    result = _results([("server", "resnet18")])[0]
    assert gate.check("server:resnet18", result) is None
    gate.golden = copy.deepcopy(gate.golden)
    gate.golden["seda"]["data_bytes"] += 64
    assert gate.check("server:resnet18", result) is not None


def test_two_seeds_give_identical_digests():
    first = workloads.submission_order(SMALL.cells, seed=1, rep=0)
    second = workloads.submission_order(SMALL.cells, seed=2, rep=0)
    assert first != second and sorted(first) == sorted(second)
    digests = [{workloads.cell_id(cell): digest(result)
                for cell, result in zip(order, _results(order))}
               for order in (first, second)]
    assert digests[0] == digests[1]
    assert all(Gate.load().reference[cell] == value
               for cell, value in digests[0].items())


def test_timing_wrappers_restore_the_original_functions():
    import repro.runner.executor as executor
    from repro.core.pipeline import Pipeline
    from repro.models import zoo
    from repro.tiling import tile

    before = (executor.get_workload, zoo.get_workload, tile.plan_tiling,
              executor.run_cell, Pipeline.__dict__["run"])
    tracer = Tracer()
    tracer.install()
    try:
        during = (executor.get_workload, zoo.get_workload, tile.plan_tiling,
                  executor.run_cell, Pipeline.__dict__["run"])
        assert all(a is not b for a, b in zip(before, during))
        with tempfile.TemporaryDirectory() as tmp:
            out = run_once(SMALL, list(SMALL.cells), Gate.load(), tmp)
    finally:
        tracer.uninstall()
    after = (executor.get_workload, zoo.get_workload, tile.plan_tiling,
             executor.run_cell, Pipeline.__dict__["run"])
    assert all(a is b for a, b in zip(before, after))
    assert out["failed"] == 0
    assert tracer.missing == []
    assert tracer.spans and tracer.self_s["protection.sgx-64b_s"] > 0


def test_a_vanished_entry_point_fails_the_traced_run(monkeypatch):
    import repro.core.metrics as metrics
    from repro.models import zoo

    tracer = Tracer()
    for target in ("repro.no_such_module:f",
                   "repro.core.pipeline:Pipeline.no_such_method"):
        tracer._patch(target, name="x", layer="models",
                      bucket=lambda args, kwargs: "models.topology_s")
    assert len(tracer.missing) == 2 and not tracer._patches

    original = zoo.get_workload
    monkeypatch.delattr(metrics, "compare_schemes")
    tracer = Tracer()
    try:
        tracer.install()
    except RuntimeError as exc:
        assert "repro.core.metrics:compare_schemes" in str(exc)
    else:
        raise AssertionError("install() accepted a missing entry point")
    assert not tracer._patches and zoo.get_workload is original


def test_every_layer_is_timed_and_little_is_left_unattributed():
    with tempfile.TemporaryDirectory() as tmp:
        out = run_once(SMALL, list(SMALL.cells), Gate.load(), tmp,
                       tracer=Tracer())
    seconds = {layer: value for layer, value, _ in out["layer_table"]}
    for layer in ("models", "tiling", "accel", "protection", "dram",
                  "core", "runner"):
        assert seconds[layer] > 0, layer
    metrics = out["layer_metrics"]
    assert 0 <= metrics["trace.unattributed_s"] <= 0.1 * out["wall_s"]
    assert metrics["runner.executor_overhead_s"] > 0
    assert metrics["runner.store_put_s"] == 0.0      # no store: bypassed
    assert out["bases"]["analytic.derived_ratio"] == 0
