"""Transformer scenarios end to end: decode bottlenecks, fast-vs-ref
DRAM agreement, @sN through the eval service/fingerprints/CLI, and the
v2 -> v3 schema demotion."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.config import npu_config
from repro.core.metrics import compare_schemes
from repro.core.pipeline import Pipeline
from repro.models.zoo import get_workload
from repro.runner.service import EvalService
from repro.runner.store import ResultStore


@pytest.fixture(scope="module")
def gpt2_compare():
    """All schemes on a GPT-2 decode step (edge NPU, short context)."""
    npu = npu_config("edge")
    topology = get_workload("gpt2@s64")
    return compare_schemes(Pipeline(npu), topology,
                           ["sgx-64b", "mgx-64b", "seda"])


class TestDecodeBottleneck:
    def test_histogram_flips_to_memory_or_crypto_bound(self, gpt2_compare):
        """The acceptance criterion: autoregressive decode is the regime
        where the paper's argument replays — no layer is compute-bound."""
        for name, run in gpt2_compare.runs.items():
            histogram = run.bottleneck_histogram()
            assert histogram.get("compute", 0) == 0, (name, histogram)
            assert histogram.get("memory", 0) + histogram.get("crypto", 0) \
                == sum(histogram.values())

    def test_baseline_also_memory_bound(self, gpt2_compare):
        histogram = gpt2_compare.baseline.bottleneck_histogram()
        assert histogram.get("memory", 0) > 0
        assert histogram.get("compute", 0) == 0

    def test_metadata_overhead_measured_on_kv_traffic(self, gpt2_compare):
        """Protection metadata grows with context length because the KV
        stream is protected traffic — measured, not guessed."""
        npu = npu_config("edge")
        longer = compare_schemes(Pipeline(npu), get_workload("gpt2@s256"),
                                 ["sgx-64b"])
        short_md = gpt2_compare.runs["sgx-64b"].metadata_bytes
        long_md = longer.runs["sgx-64b"].metadata_bytes
        assert long_md > short_md

    def test_seq_travels_on_the_runs(self, gpt2_compare):
        assert gpt2_compare.baseline.seq == 64
        for run in gpt2_compare.runs.values():
            assert run.seq == 64


class TestSeqThroughTheService:
    def test_seq_variants_cache_under_distinct_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path)
        service = EvalService(store=store)
        a = service.compare("edge", "gpt2@s64", ["seda"])
        b = service.compare("edge", "gpt2@s96", ["seda"])
        assert a.workload == "gpt2_s64"
        assert b.workload == "gpt2_s96"
        assert a.runs["seda"].seq == 64
        assert b.runs["seda"].seq == 96
        # KV metadata grows with the context, so the cells differ.
        assert a.runs["seda"].total_bytes < b.runs["seda"].total_bytes

        # Both serve from cache on a fresh service.
        service2 = EvalService(store=ResultStore(tmp_path))
        service2.evaluate([
            service2.request("edge", "gpt2@s64", ["seda"]),
            service2.request("edge", "gpt2@s96", ["seda"]),
        ])
        assert service2.store.summary().last_run["hits"] == 2

    def test_stale_v2_record_demoted_never_deserialized(self, tmp_path):
        """Acceptance: v2 records (pre-KV geometry, truncated crypto
        math) are demoted — miss + eviction + recompute — not served."""
        from repro.runner.records import SCHEMA_VERSION
        from repro.runner.store import fingerprint

        store = ResultStore(tmp_path)
        service = EvalService(store=store)
        request = service.request("edge", "gpt2@s64", ["seda"])
        key = fingerprint(request.npu, request.workload, request.scheme_names)
        store.put(key, {"schema_version": 2, "stale": "pre-KV geometry"})
        store.flush_stats()

        result = service.compare("edge", "gpt2@s64", ["seda"])
        assert result.runs["seda"].total_bytes > 0
        stats = store.summary().last_run
        assert stats["hits"] == 0
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        fresh = ResultStore(tmp_path).get(key)
        assert fresh["schema_version"] == SCHEMA_VERSION == 4
        assert fresh["runs"]["seda"]["seq"] == 64


class TestSeqThroughTheCli:
    def test_run_accepts_seq_suffix(self, capsys):
        assert cli_main(["run", "gpt2@s64", "--npu", "edge",
                         "--scheme", "seda"]) == 0
        out = capsys.readouterr().out
        assert "gpt2_s64" in out
        assert "sequence length" in out
        assert "KV stream bytes" in out
        assert "compute" not in out.split("bottlenecks")[1].splitlines()[0]

    def test_run_seq_flag_equals_suffix(self, capsys):
        assert cli_main(["run", "gpt2", "--seq", "64", "--npu", "edge",
                         "--scheme", "seda"]) == 0
        flag_out = capsys.readouterr().out
        assert "gpt2_s64" in flag_out

    def test_describe_reports_seq_and_kv(self, capsys):
        assert cli_main(["describe", "gpt2", "--seq", "96"]) == 0
        out = capsys.readouterr().out
        assert "seq 96" in out
        assert "KV stream" in out

    def test_seq_flag_conflicts_with_different_suffix(self, capsys):
        rc = cli_main(["describe", "gpt2@s128", "--seq", "64"])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_sweep_seq_conflict_detected_even_at_the_default(self, capsys):
        """An explicit @s128 (the default) still clashes with --seq 256
        — canonicalization must not silently override the suffix."""
        rc = cli_main(["sweep", "--npu", "edge", "--workloads", "gpt2@s128",
                       "--seq", "256", "--no-cache"])
        assert rc == 2
        assert "conflicts" in capsys.readouterr().err

    def test_list_derives_catalog_from_zoo(self, capsys):
        from repro.models.zoo import ALL_WORKLOADS

        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_WORKLOADS:
            assert f" {name}" in out
        assert "gpt2 (default s128)" in out

    def test_seq_on_conv_workload_rejected(self, capsys):
        rc = cli_main(["describe", "resnet18@s64"])
        assert rc == 2
        assert "no sequence dimension" in capsys.readouterr().err

    def test_sweep_seq_defaults_to_transformer_set(self, tmp_path, capsys):
        out_json = tmp_path / "sweep.json"
        rc = cli_main([
            "sweep", "--npu", "edge", "--workloads", "gpt2", "vit_b16",
            "--seq", "64", "--schemes", "seda", "--no-cache",
            "--json", str(out_json),
        ])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert payload["workloads"] == ["gpt2@s64", "vit_b16@s64"]

    def test_sweep_seq_rejects_non_seq_workloads(self, capsys):
        rc = cli_main(["sweep", "--npu", "edge", "--workloads", "lenet",
                       "--seq", "64", "--no-cache"])
        assert rc == 2
        assert "no sequence dimension" in capsys.readouterr().err

    def test_sweep_default_seq_spec_shares_the_plain_fingerprint(
            self, tmp_path):
        """gpt2@s128 IS gpt2 (128 is the published default), so the
        sweep canonicalizes the spec and one cached cell serves both."""
        args = ["sweep", "--npu", "edge", "--schemes", "seda",
                "--cache-dir", str(tmp_path)]
        assert cli_main(args + ["--workloads", "gpt2@s128"]) == 0
        assert cli_main(args + ["--workloads", "gpt2"]) == 0
        assert cli_main(args + ["--workloads", "gpt2", "--seq", "128"]) == 0
        store = ResultStore(tmp_path)
        assert store.summary().entries == 1
        assert store.summary().lifetime["hits"] == 2

    def test_sweep_seq_with_batch(self, tmp_path):
        out_json = tmp_path / "s.json"
        rc = cli_main([
            "sweep", "--npu", "edge", "--workloads", "gpt2",
            "--seq", "64", "--batch", "2", "--schemes", "seda",
            "--no-cache", "--json", str(out_json),
        ])
        assert rc == 0
        payload = json.loads(out_json.read_text())
        assert payload["workloads"] == ["gpt2@s64@b2"]
