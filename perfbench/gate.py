"""Correctness gate: every simulated record must match this repo's
reference bit for bit.

The simulator is deterministic, so a change that only makes it faster
must leave every simulated statistic identical.  The gate hashes a fixed
projection of each cell's record — per scheme (baseline included), per
layer: compute/DRAM/crypto cycles, data/metadata bytes and the row-hit
rate, plus the run's batch and seq — and compares it with the digest
committed in ``reference_digests.json``.  Record fields added later do
not enter the projection, so they do not invalidate the reference.

The server/resnet18 cell is additionally cross-checked against the
repository's golden record, ``tests/integration/golden_server_resnet18.json``
(read only).

Regenerate the reference only when a change is meant to move simulated
results::

    PYTHONPATH=src python3 perfbench/gate.py --regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "integration",
                           "golden_server_resnet18.json")
GOLDEN_CELL = "server:resnet18"


def projection(result: Any) -> Dict[str, Any]:
    """The fixed, JSON-exact view of a ``ComparisonResult`` that the
    digest covers."""
    runs = {"baseline": result.baseline, **result.runs}
    return {
        name: {
            "batch": int(run.batch),
            "seq": None if run.seq is None else int(run.seq),
            "layers": [[float(t.compute_cycles), float(t.dram_cycles),
                        float(t.crypto_cycles), int(t.data_bytes),
                        int(t.metadata_bytes), float(t.row_hit_rate)]
                       for t in run.layers],
        }
        for name, run in runs.items()
    }


def digest(result: Any) -> str:
    canonical = json.dumps(projection(result), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def golden_view(result: Any) -> Dict[str, Any]:
    """``result`` in the shape of the golden server/resnet18 file."""
    runs = {"baseline": result.baseline, **result.runs}
    return {
        name: {
            "total_cycles": run.total_cycles,
            "compute_cycles": run.compute_cycles,
            "data_bytes": run.data_bytes,
            "metadata_bytes": run.metadata_bytes,
            "layers": len(run.layers),
            "dram_cycles": [t.dram_cycles for t in run.layers],
            "row_hit_rates": [t.row_hit_rate for t in run.layers],
        }
        for name, run in runs.items()
    }


class Gate:
    """Checks cell results against the committed reference digests."""

    def __init__(self, reference: Dict[str, str],
                 golden: Optional[Dict[str, Any]]):
        self.reference = reference
        self.golden = golden

    @classmethod
    def load(cls) -> "Gate":
        with open(REFERENCE_PATH) as handle:
            reference = json.load(handle)["cells"]
        golden = None
        if os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH) as handle:
                golden = json.load(handle)
        return cls(reference, golden)

    def check(self, cell: str, result: Any) -> Optional[str]:
        """``None`` when ``result`` is the reference record for ``cell``,
        else why it is not."""
        if result is None:
            return "no result"
        expected = self.reference.get(cell)
        if expected is None:
            return "no reference digest for this cell"
        if digest(result) != expected:
            return "record differs from the reference digest"
        if cell == GOLDEN_CELL:
            if self.golden is None:
                return f"golden record missing: {GOLDEN_PATH}"
            if golden_view(result) != self.golden:
                return "record differs from the golden server/resnet18 file"
        return None


def regenerate() -> None:
    """Simulate every cell of every workload (serially, no store) and
    write the reference digests."""
    import workloads
    from repro.runner import EvalService

    cells: Dict[str, str] = {}
    service = EvalService()
    for name in workloads.NAMES:
        workload = workloads.get(name)
        requests = [service.request(npu, spec) for npu, spec in workload.cells]
        for cell, result in zip(workload.cells,
                                service.evaluate(requests)):
            cells[workloads.cell_id(cell)] = digest(result)
            if workloads.cell_id(cell) == GOLDEN_CELL:
                with open(GOLDEN_PATH) as handle:
                    if golden_view(result) != json.load(handle):
                        raise SystemExit("server/resnet18 disagrees with "
                                         "the golden record; not writing")
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"projection": "per scheme: batch, seq, per layer "
                                 "[compute, dram, crypto cycles, data "
                                 "bytes, metadata bytes, row-hit rate]",
                   "cells": dict(sorted(cells.items()))},
                  handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(cells)} digests to {REFERENCE_PATH}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite reference_digests.json")
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do (pass --regenerate)")
    regenerate()


if __name__ == "__main__":
    main()
