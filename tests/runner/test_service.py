"""EvalService: dedupe, caching layers, resumable sweeps."""


from repro.core.metrics import ComparisonResult
from repro.runner.service import EvalService
from repro.runner.store import ResultStore

SCHEMES = ["mgx-64b", "seda"]


def counting_service(store=None, jobs=1):
    """A service whose executor counts the cells it actually computes."""
    service = EvalService(store=store, jobs=jobs)
    computed = []
    original = service.executor.run

    def wrapped(requests, on_result=None):
        computed.extend(r.workload for r in requests)
        return original(requests, on_result=on_result)

    service.executor.run = wrapped
    return service, computed


class TestEvaluate:
    def test_returns_comparisons_in_order(self):
        service = EvalService()
        results = service.evaluate([
            service.request("edge", "lenet", SCHEMES),
            service.request("edge", "dlrm", SCHEMES),
        ])
        assert [r.workload for r in results] == ["lenet", "dlrm"]
        assert all(isinstance(r, ComparisonResult) for r in results)

    def test_batch_dedupe(self):
        service, computed = counting_service()
        request = service.request("edge", "lenet", SCHEMES)
        results = service.evaluate([request, request, request])
        assert computed == ["lenet"]
        assert results[0] is results[1] is results[2]

    def test_memo_across_calls(self):
        service, computed = counting_service()
        first = service.compare("edge", "lenet", SCHEMES)
        second = service.compare("edge", "lenet", SCHEMES)
        assert first is second
        assert computed == ["lenet"]

    def test_sweep_shape(self):
        service = EvalService()
        results = service.sweep("edge", workloads=["lenet", "dlrm"],
                                scheme_names=SCHEMES)
        assert list(results) == ["lenet", "dlrm"]
        assert results["lenet"].npu_name == "edge"


class TestDiskCache:
    def test_second_service_hits_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        service, computed = counting_service(store=store)
        fresh = service.compare("edge", "lenet", SCHEMES)
        assert computed == ["lenet"]

        rehydrated_store = ResultStore(tmp_path / "cache")
        service2, computed2 = counting_service(store=rehydrated_store)
        cached = service2.compare("edge", "lenet", SCHEMES)
        assert computed2 == []  # served entirely from disk
        assert cached.traffic("seda") == fresh.traffic("seda")
        assert cached.performance("seda") == fresh.performance("seda")

    def test_parallel_results_equal_serial(self, tmp_path):
        serial = EvalService().sweep(
            "edge", workloads=["lenet", "dlrm", "ncf"], scheme_names=SCHEMES)
        parallel = EvalService(
            store=ResultStore(tmp_path / "cache"), jobs=2).sweep(
            "edge", workloads=["lenet", "dlrm", "ncf"], scheme_names=SCHEMES)
        for workload, expected in serial.items():
            got = parallel[workload]
            for scheme in SCHEMES:
                assert got.traffic(scheme) == expected.traffic(scheme)
                assert got.performance(scheme) == expected.performance(scheme)

    def test_one_store_entry_per_cell_spelling(self, tmp_path):
        """``lenet``, ``lenet@b1`` and the abbreviation ``let`` spell one
        cell: one computation, one store entry, one result."""
        store = ResultStore(tmp_path / "cache")
        service, computed = counting_service(store=store)
        results = [service.compare("server", spec, SCHEMES)
                   for spec in ("lenet", "lenet@b1", "let")]
        assert computed == ["lenet"]
        assert store.entries() == 1
        assert results[0] is results[1] is results[2]
        assert service.request("server", "gpt2@s128@b1").workload == "gpt2"

    def test_resumable_sweep(self, tmp_path):
        # First run "dies" after completing one of three cells...
        store = ResultStore(tmp_path / "cache")
        EvalService(store=store).compare("edge", "lenet", SCHEMES)

        # ...the rerun computes only the two missing cells.
        resumed, computed = counting_service(
            store=ResultStore(tmp_path / "cache"))
        results = resumed.sweep("edge", workloads=["lenet", "dlrm", "ncf"],
                                scheme_names=SCHEMES)
        assert sorted(computed) == ["dlrm", "ncf"]
        assert set(results) == {"lenet", "dlrm", "ncf"}

    def test_results_persist_per_cell(self, tmp_path):
        # Each finished cell lands on disk even mid-batch: after a batch
        # of two, the store holds two records (not one blob).
        store = ResultStore(tmp_path / "cache")
        service = EvalService(store=store)
        service.sweep("edge", workloads=["lenet", "dlrm"],
                      scheme_names=SCHEMES)
        assert store.entries() == 2

    def test_stale_schema_recomputed(self, tmp_path):
        from repro.runner.store import fingerprint
        from repro.core.config import npu_config

        store = ResultStore(tmp_path / "cache")
        key = fingerprint(npu_config("edge"), "lenet", tuple(SCHEMES))
        store.put(key, {"schema_version": -1})

        service, computed = counting_service(store=store)
        result = service.compare("edge", "lenet", SCHEMES)
        assert computed == ["lenet"]  # stale record did not satisfy the get
        assert result.workload == "lenet"
        # The unusable record counts as a miss, not a hit.
        lifetime = store.summary().lifetime
        assert lifetime["hits"] == 0
        assert lifetime["misses"] == 1
        assert lifetime["evictions"] == 1
        # ...and the store now holds a fresh, readable record.
        service2, computed2 = counting_service(
            store=ResultStore(tmp_path / "cache"))
        service2.compare("edge", "lenet", SCHEMES)
        assert computed2 == []

    def test_stats_flushed_after_batch(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        service = EvalService(store=store)
        service.compare("edge", "lenet", SCHEMES)
        summary = store.summary()
        assert summary.lifetime.get("misses") == 1
        assert summary.lifetime.get("puts") == 1
