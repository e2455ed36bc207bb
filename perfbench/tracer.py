"""Layer timers for the traced run, kept outside the program.

:class:`Tracer` wraps the public entry points of each layer of the
simulator (``models``, ``tiling``, ``accel``, ``protection``, ``dram``,
``analytic``, ``core``, ``runner``) with spans, and restores the
originals on :meth:`Tracer.uninstall`.  A module-level function is
replaced in every loaded ``repro`` module that binds it (``from x import
f`` copies the reference), a method on the class that defines it.

Per span it keeps name, layer, start, end, the parent span and the grid
cell it belongs to.  From those it derives, per metric bucket:

- self time: the span minus the time covered by nested wrapped calls, so
  the self times of all buckets plus the unattributed remainder add up
  to the traced wall time exactly;
- RSS growth: the rise of ``ru_maxrss`` while a layer is the innermost
  active one;
- counts measured at the same boundaries (trace bytes, metadata bytes,
  DRAM requests, derivations, store hits).

The tracer only reads what the wrapped calls return; it never changes
an argument or a result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("models", "tiling", "accel", "protection", "dram", "analytic",
          "core", "runner")

#: Scheme order of the per-scheme buckets: the baseline plus
#: ``repro.protection.SCHEME_NAMES``.
SCHEMES = ("baseline", "sgx-64b", "mgx-64b", "sgx-512b", "mgx-512b", "seda")

MIB = 1024.0 * 1024.0


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args: Tuple[Any, ...], kwargs: Dict[str, Any], index: int,
         name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


class _Frame:
    __slots__ = ("name", "layer", "bucket", "start", "children", "id",
                 "parent", "cell", "scheme")

    def __init__(self, name: str, layer: str, bucket: str, start: float,
                 span_id: int, parent: Optional["_Frame"],
                 cell: Optional[str], scheme: Optional[str]):
        self.name = name
        self.layer = layer
        self.bucket = bucket
        self.start = start
        self.children = 0.0
        self.id = span_id
        self.parent = parent
        self.cell = cell
        self.scheme = scheme


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.rss_growth: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._rss = _maxrss_mib()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Entry points :meth:`install` could not find (see ``_patch``).
        self.missing: List[str] = []

    # -- spans -------------------------------------------------------------

    def _rss_step(self) -> None:
        """Charge the ``ru_maxrss`` rise since the last span boundary to
        the layer that was innermost in between."""
        rss = _maxrss_mib()
        if rss > self._rss:
            layer = self._stack[-1].layer if self._stack else "unattributed"
            self.rss_growth[layer] += rss - self._rss
            self._rss = rss

    def enter(self, name: str, layer: str, bucket: str,
              cell: Optional[str] = None,
              scheme: Optional[str] = None) -> _Frame:
        self._rss_step()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            cell = cell or parent.cell
            scheme = scheme or parent.scheme
        frame = _Frame(name, layer, bucket, time.perf_counter(),
                       self._next_id, parent, cell, scheme)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        end = time.perf_counter()
        self._rss_step()
        if self._stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        duration = end - frame.start
        self.self_s[frame.bucket] += duration - frame.children
        if frame.parent is not None:
            frame.parent.children += duration
        self.spans.append({
            "name": frame.name, "layer": frame.layer, "bucket": frame.bucket,
            "start": frame.start, "end": end, "id": frame.id,
            "parent": frame.parent.id if frame.parent is not None else None,
            "cell": frame.cell})
        return duration

    def current_scheme(self) -> Optional[str]:
        return self._stack[-1].scheme if self._stack else None

    # -- patching ----------------------------------------------------------

    def _wrap(self, original: Callable[..., Any], name: str, layer: str,
              bucket: Callable[..., str],
              cell: Optional[Callable[..., Optional[str]]] = None,
              scheme: Optional[Callable[..., Optional[str]]] = None,
              after: Optional[Callable[..., None]] = None
              ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(
                name, layer, bucket(args, kwargs),
                cell(args, kwargs) if cell is not None else None,
                scheme(args, kwargs) if scheme is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, target: str, **spec: Any) -> None:
        """Wrap ``"module:function"`` wherever a ``repro`` module binds
        it, or ``"module:Class.method"`` on the class that defines it.

        A target the program no longer has is listed in :attr:`missing`
        (and makes :meth:`install` fail).
        """
        module_name, _, qualname = target.partition(":")
        owner_name, _, attr = qualname.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        wrapper = self._wrap(original, **spec)
        if owner_name:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for loaded in list(sys.modules.values()):
            modname = getattr(loaded, "__name__", "")
            if modname != "repro" and not modname.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def install(self) -> None:
        """Wrap every layer's entry points (idempotent per tracer).

        Raises ``RuntimeError``, with nothing left patched, when an entry
        point is missing: the metrics it feeds would read 0, which a
        refactor that renamed it would otherwise report as a gain.
        """
        if self._patches:
            return
        self.missing = []
        self._install()
        if self.missing:
            self.uninstall()
            raise RuntimeError("entry points not found (update tracer.py): "
                               + ", ".join(self.missing))

    def _install(self) -> None:
        fixed = lambda value: (lambda args, kwargs: value)  # noqa: E731
        counts = self.counts

        # models / tiling
        self._patch("repro.models.zoo:get_workload",
                    name="models.get_workload", layer="models",
                    bucket=fixed("models.topology_s"))
        self._patch("repro.tiling.tile:plan_tiling",
                    name="tiling.plan_tiling", layer="tiling",
                    bucket=fixed("tiling.plan_s"))

        # accel
        def after_accel(args: Any, kwargs: Any, run: Any) -> None:
            counts["accel.trace_bytes"] += run.dram_bytes

        self._patch("repro.accel.simulator:AcceleratorSim.run",
                    name="accel.run", layer="accel",
                    bucket=fixed("accel.run_s"), after=after_accel)

        # protection: one bucket per scheme
        def after_protect(args: Any, kwargs: Any, rows: Any) -> None:
            counts["protection.metadata_bytes"] += sum(
                row.metadata_bytes for row in rows)

        self._patch("repro.protection.base:ProtectionScheme.protect_model",
                    name="protection.protect_model", layer="protection",
                    bucket=lambda args, kwargs: f"protection.{args[0].name}_s",
                    after=after_protect)

        # dram: the scheme comes from the enclosing Pipeline.run span
        def after_dram(args: Any, kwargs: Any, results: Any) -> None:
            counts["dram.requests"] += sum(r.requests for r in results)

        self._patch("repro.dram.simulator:DramSim.simulate_fast_batch_parts",
                    name="dram.simulate_fast_batch_parts", layer="dram",
                    bucket=lambda args, kwargs:
                        f"dram.{self.current_scheme() or 'unknown'}_s",
                    after=after_dram)

        # analytic
        def after_derive(args: Any, kwargs: Any, derived: Any) -> None:
            counts["analytic.attempted"] += 1
            counts["analytic.derived"] += derived is not None

        self._patch("repro.analytic.derive:derive_cell",
                    name="analytic.derive_cell", layer="analytic",
                    bucket=fixed("analytic.derive_s"), after=after_derive)
        # The executor's derivation gate, which every cell passes: on
        # batch-1 grids it is all the analytic plane costs.
        self._patch("repro.runner.executor:_derived_record",
                    name="analytic.derived_record", layer="analytic",
                    bucket=fixed("analytic.derive_s"))

        # core
        def pipeline_scheme(args: Any, kwargs: Any) -> Optional[str]:
            scheme = _arg(args, kwargs, 2, "scheme")
            return getattr(scheme, "name", None)

        self._patch("repro.core.pipeline:Pipeline.run",
                    name="core.Pipeline.run", layer="core",
                    bucket=fixed("core.self_s"), scheme=pipeline_scheme)
        self._patch("repro.core.pipeline:Pipeline.simulate_model",
                    name="core.Pipeline.simulate_model", layer="core",
                    bucket=fixed("core.self_s"))
        self._patch("repro.core.metrics:compare_schemes",
                    name="core.compare_schemes", layer="core",
                    bucket=fixed("core.self_s"))

        # runner
        runner_self = fixed("runner.self_s")
        self._patch("repro.runner.service:EvalService.evaluate_tolerant",
                    name="runner.EvalService.evaluate_tolerant",
                    layer="runner", bucket=runner_self)
        # Its self time is the executor's own overhead: the cells, store,
        # journal and record calls it makes are wrapped spans of their own.
        self._patch("repro.runner.executor:GridExecutor.run",
                    name="runner.GridExecutor.run", layer="runner",
                    bucket=fixed("runner.executor_overhead_s"))

        def payload_cell(args: Any, kwargs: Any) -> Optional[str]:
            payload = _arg(args, kwargs, 0, "payload")
            return f"{payload['npu']['name']}:{payload['workload']}"

        # ``cell`` is the span name ``repro report`` lists grid cells by.
        self._patch("repro.runner.executor:run_cell", name="cell",
                    layer="runner", bucket=runner_self, cell=payload_cell)

        def after_get(args: Any, kwargs: Any, record: Any) -> None:
            counts["runner.store_gets"] += 1
            counts["runner.store_hits"] += record is not None

        store = "repro.runner.store:ResultStore"
        self._patch(f"{store}.get", name="runner.ResultStore.get",
                    layer="runner", bucket=fixed("runner.store_get_s"),
                    after=after_get)
        self._patch(f"{store}.contains", name="runner.ResultStore.contains",
                    layer="runner", bucket=fixed("runner.store_get_s"))
        for method in ("put", "flush_stats"):
            self._patch(f"{store}.{method}",
                        name=f"runner.ResultStore.{method}", layer="runner",
                        bucket=fixed("runner.store_put_s"))
        for method in ("__init__", "record_done", "record_failed", "replay"):
            self._patch(f"repro.runner.journal:SweepJournal.{method}",
                        name=f"runner.SweepJournal.{method}", layer="runner",
                        bucket=fixed("runner.journal_s"))
        for function in ("comparison_to_dict", "comparison_from_dict"):
            self._patch(f"repro.runner.records:{function}",
                        name=f"runner.{function}", layer="runner",
                        bucket=fixed("runner.records_s"))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Every per-layer metric of one traced repetition whose traced
        wall time was ``wall_s``."""
        out: Dict[str, float] = {
            "models.topology_s": self.self_s["models.topology_s"],
            "tiling.plan_s": self.self_s["tiling.plan_s"],
            "accel.run_s": self.self_s["accel.run_s"],
            "accel.trace_mib": self.counts["accel.trace_bytes"] / MIB,
            "accel.rss_growth_mib": self.rss_growth["accel"],
        }
        for scheme in SCHEMES:
            out[f"protection.{scheme}_s"] = \
                self.self_s[f"protection.{scheme}_s"]
        out["protection.metadata_mib"] = \
            self.counts["protection.metadata_bytes"] / MIB
        out["protection.rss_growth_mib"] = self.rss_growth["protection"]
        for scheme in SCHEMES:
            out[f"dram.{scheme}_s"] = self.self_s[f"dram.{scheme}_s"]
        out["dram.requests"] = self.counts["dram.requests"]
        out["dram.rss_growth_mib"] = self.rss_growth["dram"]
        attempted = self.counts["analytic.attempted"]
        out["analytic.derive_s"] = self.self_s["analytic.derive_s"]
        out["analytic.derived_ratio"] = (
            self.counts["analytic.derived"] / attempted if attempted else 0.0)
        out["analytic.rss_growth_mib"] = self.rss_growth["analytic"]
        out["core.self_s"] = self.self_s["core.self_s"]
        gets = self.counts["runner.store_gets"]
        out.update({
            "runner.self_s": self.self_s["runner.self_s"],
            "runner.executor_overhead_s":
                self.self_s["runner.executor_overhead_s"],
            "runner.store_put_s": self.self_s["runner.store_put_s"],
            "runner.store_get_s": self.self_s["runner.store_get_s"],
            "runner.store_hit_ratio": (self.counts["runner.store_hits"] / gets
                                       if gets else 0.0),
            "runner.journal_s": self.self_s["runner.journal_s"],
            "runner.records_s": self.self_s["runner.records_s"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self.self_s.values()),
        })
        return out

    def bases(self) -> Dict[str, float]:
        """Denominators of the ratio metrics (a ratio with base 0 reads 0)."""
        return {"analytic.derived_ratio": self.counts["analytic.attempted"],
                "runner.store_hit_ratio": self.counts["runner.store_gets"]}

    def layer_table(self, wall_s: float) -> List[Tuple[str, float, float]]:
        """``(layer, self seconds, RSS growth MiB)`` per layer, then the
        unattributed remainder; the seconds add up to ``wall_s``."""
        per_layer: Dict[str, float] = defaultdict(float)
        for bucket, seconds in self.self_s.items():
            per_layer[bucket.split(".", 1)[0]] += seconds
        rows = [(layer, per_layer[layer], self.rss_growth[layer])
                for layer in LAYERS]
        rows.append(("unattributed", wall_s - sum(per_layer.values()),
                     self.rss_growth["unattributed"]))
        return rows

    def write_chrome_trace(self, path: str, metrics: Dict[str, float]) -> None:
        """Spans as a Chrome trace-event file that ``repro report`` (and
        Perfetto) can read; the per-layer metrics ride in ``otherData``."""
        pid = os.getpid()
        origin = min((span["start"] for span in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"perfbench traced run (pid {pid})"}}]
        for span in sorted(self.spans, key=lambda s: s["start"]):
            args: Dict[str, Any] = {"layer": span["layer"],
                                    "id": span["id"],
                                    "parent": span["parent"],
                                    "cell": span["cell"]}
            if span["name"] == "cell" and span["cell"]:
                npu, workload = span["cell"].split(":", 1)
                args.update(npu=npu, workload=workload)
            events.append({
                "name": span["name"], "cat": span["layer"], "ph": "X",
                "ts": int((span["start"] - origin) * 1e6),
                "dur": int((span["end"] - span["start"]) * 1e6),
                "pid": pid, "tid": 0, "args": args})
        summary = {"counters": dict(sorted(metrics.items())), "gauges": {},
                   "spans": {}}
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"repro_metrics": summary}},
                      handle, separators=(",", ":"))
            handle.write("\n")
