"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every
repetition pays its own imports and builds its own service and store.  It prints one JSON object as its last line of output:

- ``--prepare``: interpreter/library facts and whether the native kernel
  tier is live (loading it builds it into ``$REPRO_KERNEL_CACHE`` the
  first time, which ``run.py`` does before timing anything);
- ``--setup-only``: the monotonic time at which the first request would
  have been submitted;
- otherwise: the submit time, the wall time from the first request
  submitted to the last result returned and checked, cell counts,
  failures, the peak RSS of this process and any children and, with
  ``--traced``, the per-layer metrics of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Sequence

import workloads
from gate import Gate

#: Schemes whose mean slowdown is printed for information.
HEADLINE_SCHEMES = ("seda", "sgx-64b")


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _slowdowns(results: Sequence[Any]) -> Dict[str, float]:
    """Geometric-mean slowdown (%) per headline scheme over the cells."""
    out = {}
    for scheme in HEADLINE_SCHEMES:
        perfs = [r.performance(scheme) for r in results if r is not None]
        if perfs:
            mean = math.exp(sum(math.log(p) for p in perfs) / len(perfs))
            out[scheme] = (1.0 / mean - 1.0) * 100.0
    return out


def run_once(workload: workloads.Workload, order: List[workloads.Cell],
             gate: Gate, tmp_root: str, tracer: Any = None,
             setup_only: bool = False) -> Dict[str, Any]:
    """Evaluate ``order`` through the public service API and check every
    record against ``gate``.

    ``tracer`` is installed from the first submit to the last check;
    ``setup_only`` returns just before the first submit.
    """
    from repro.runner import EvalService, ResultStore

    store_dir = (tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
                 if workload.store else None)

    def service() -> EvalService:
        store = ResultStore(store_dir) if store_dir is not None else None
        return EvalService(store=store, jobs=workloads.JOBS)

    try:
        first = service()
        requests = [first.request(npu, spec) for npu, spec in order]
        cells = [workloads.cell_id(cell) for cell in order]
        if setup_only:
            return {"t_submit": time.monotonic()}
        if tracer is not None:
            tracer.install()
        t_submit = time.monotonic()
        start = time.perf_counter()
        failures: List[Dict[str, Any]] = []
        attempted = 0
        disk_hits = None
        results: List[Any] = []
        try:
            for index in range(2 if workload.reread else 1):
                # The re-read pass builds its fresh service inside the
                # timed window, as a second ``repro sweep`` would.
                svc = first if index == 0 else service()
                results, failed = svc.evaluate_tolerant(requests)
                attempted += len(requests)
                failed_at = {cell.index: cell.error for cell in failed}
                for position, (cell, result) in enumerate(zip(cells,
                                                              results)):
                    error = failed_at.get(position) or gate.check(cell,
                                                                  result)
                    if error is not None:
                        failures.append({"cell": cell, "pass": index,
                                         "error": error})
            wall_s = time.perf_counter() - start
            if workload.reread:
                # The service flushes (and resets) the session counters
                # after each batch; the re-read pass's are the last run.
                disk_hits = svc.store.summary().last_run.get("hits", 0)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    out: Dict[str, Any] = {
        "t_submit": t_submit, "wall_s": wall_s, "attempted": attempted,
        "failed": len(failures), "failures": failures[:10],
        "disk_hits": disk_hits, "peak_rss_mib": _peak_rss_mib(),
        "slowdown_pct": _slowdowns(results)}
    if tracer is not None:
        out["layer_metrics"] = tracer.metrics(wall_s)
        out["bases"] = tracer.bases()
        out["layer_table"] = tracer.layer_table(wall_s)
    return out


def prepare() -> Dict[str, Any]:
    import numpy
    from repro.utils import native

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "native_live": bool(native.available())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--tmp", default=tempfile.gettempdir(),
                        help="directory for the temp result stores")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--prepare", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's Chrome trace here")
    args = parser.parse_args()

    if args.prepare:
        print(json.dumps(prepare()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    from repro.utils import native

    native.available()
    workload = workloads.get(args.workload)
    order = workloads.submission_order(workload.cells, args.seed, args.rep)
    gate = Gate.load()
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
    result = run_once(workload, order, gate, args.tmp, tracer=tracer,
                      setup_only=args.setup_only)
    if tracer is not None and args.trace_out:
        tracer.write_chrome_trace(args.trace_out, result["layer_metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
