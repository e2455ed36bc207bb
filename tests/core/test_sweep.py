"""Sweep aggregation: figure series and tables over a sweep's results."""

import pytest

from repro.core.metrics import METRICS, figure_table, series
from repro.runner.service import EvalService

SCHEMES = ["mgx-64b", "seda"]


@pytest.fixture(scope="module")
def service():
    return EvalService()


def sweep(service, workloads):
    return service.sweep("edge", workloads=workloads, scheme_names=SCHEMES)


class TestAggregation:
    def test_series_has_average(self, service):
        results = sweep(service, ["lenet", "dlrm"])
        values = series(results, "seda", "traffic")
        assert len(values) == 3
        assert values[-1] == pytest.approx(sum(values[:2]) / 2)

    def test_all_metrics_work(self, service):
        results = sweep(service, ["lenet"])
        assert METRICS == ("traffic", "performance", "traffic_overhead_pct",
                           "slowdown_pct")
        for metric in METRICS:
            values = series(results, "seda", metric)
            assert len(values) == 2

    def test_unknown_metric(self, service):
        results = sweep(service, ["lenet"])
        with pytest.raises(ValueError):
            series(results, "seda", "latency")

    def test_figure_table_shape(self, service):
        results = sweep(service, ["lenet", "dlrm"])
        table = figure_table(results, SCHEMES, "performance")
        assert set(table) == {"mgx-64b", "seda"}
        assert all(len(v) == 3 for v in table.values())
