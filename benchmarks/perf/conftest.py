"""Perf-suite plumbing: collect measured medians and write them out.

Each perf case registers its median wall time under a stable key; at
session end the collected numbers are written to
``benchmarks/results/BENCH_streams.last.json``. That file is git-ignored,
so running the suite never rewrites the tracked
``benchmarks/results/BENCH_streams.json`` history. Under
``--benchmark-disable`` the cases still run (CI correctness coverage)
but no stats exist, so nothing is written.
"""

import json
import os

import pytest

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "results", "BENCH_streams.last.json")

_collected = {}


def record(name, benchmark):
    """Stash a benchmark's median seconds if stats were collected."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return
    _collected[name] = stats.stats.median


@pytest.fixture
def perf_record():
    return record


def pytest_sessionfinish(session, exitstatus):
    del session, exitstatus
    if not _collected:
        return
    path = os.path.abspath(_RESULTS_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({k: round(v, 6) for k, v in _collected.items()}, handle,
                  indent=2, sort_keys=True)
