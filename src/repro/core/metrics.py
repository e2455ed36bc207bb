"""Result aggregation: the normalized metrics of Figs. 5 and 6.

All numbers are normalized to the unprotected baseline, matching the
paper's presentation: memory traffic as ``scheme_bytes / baseline_bytes``
(>= 1, Fig. 5) and performance as ``baseline_time / scheme_time``
(<= 1, Fig. 6).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.pipeline import CollectedRow, Pipeline, SchemeRun
from repro.models.topology import Topology
from repro.protection import make_scheme
from repro.protection.base import ProtectionScheme


def normalized_traffic(scheme_run: SchemeRun, baseline_run: SchemeRun) -> float:
    """Fig. 5 metric: total DRAM bytes relative to the baseline."""
    if baseline_run.total_bytes == 0:
        raise ValueError("baseline moved no data")
    return scheme_run.total_bytes / baseline_run.total_bytes


def normalized_performance(scheme_run: SchemeRun, baseline_run: SchemeRun) -> float:
    """Fig. 6 metric: baseline time over scheme time (1.0 = no slowdown)."""
    if scheme_run.total_cycles == 0:
        raise ValueError("scheme run has zero cycles")
    return baseline_run.total_cycles / scheme_run.total_cycles


@dataclass
class ComparisonResult:
    """All schemes on one workload/NPU, normalized to the baseline."""

    npu_name: str
    workload: str
    runs: Dict[str, SchemeRun]
    baseline: SchemeRun

    def traffic(self, scheme_name: str) -> float:
        return normalized_traffic(self.runs[scheme_name], self.baseline)

    def performance(self, scheme_name: str) -> float:
        return normalized_performance(self.runs[scheme_name], self.baseline)

    def traffic_overhead_pct(self, scheme_name: str) -> float:
        return (self.traffic(scheme_name) - 1.0) * 100.0

    def slowdown_pct(self, scheme_name: str) -> float:
        return (1.0 / self.performance(scheme_name) - 1.0) * 100.0

    @property
    def scheme_names(self) -> List[str]:
        return list(self.runs)


#: Per-scheme metrics a figure plots (and ``repro sweep --metrics``).
METRICS = ("traffic", "performance", "traffic_overhead_pct", "slowdown_pct")


def series(results: Dict[str, ComparisonResult], scheme: str,
           metric: str = "traffic") -> List[float]:
    """Per-workload values of one metric plus the trailing average,
    figure-style; ``metric`` is one of :data:`METRICS`."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: {sorted(METRICS)}")
    if not results:
        raise ValueError("no results to aggregate")
    values = [getattr(result, metric)(scheme) for result in results.values()]
    return values + [sum(values) / len(values)]


def figure_table(results: Dict[str, ComparisonResult],
                 scheme_names: Iterable[str],
                 metric: str = "traffic") -> Dict[str, List[float]]:
    """One figure's full data: scheme -> :func:`series` (+avg)."""
    return {scheme: series(results, scheme, metric)
            for scheme in scheme_names}


def compare_schemes(pipeline: Pipeline, topology: Topology,
                    scheme_names: Iterable[str],
                    schemes: Optional[Dict[str, ProtectionScheme]] = None,
                    collect: Optional[Dict[str, List[CollectedRow]]] = None,
                    ) -> ComparisonResult:
    """Run the baseline plus every named scheme over one workload.

    The accelerator simulation (stage 1) runs once and is shared across
    schemes — only the protection and DRAM stages differ. The cell runs
    layer by layer, and each layer window by window
    (:func:`~repro.protection.metadata_model.layer_windows`): every
    scheme protects a window and has DRAM serve it, then the next
    window is expanded, so one window's block streams and metadata are
    alive at a time. MGX reads SGX's MAC traffic from the window it
    was driven for (:meth:`ProtectionScheme.protect_window`), so it
    goes away with the window.
    The schemes keep their cache state, and DRAM its open rows, from
    window to window and run in a fixed order, so the records equal
    whole-model runs bit for bit.
    ``collect``, when given, is filled with one :class:`CollectedRow`
    list per scheme (the baseline under key ``"baseline"``) — the probe
    data the analytic ``@bN`` derivation consumes.
    """
    model_run = pipeline.simulate_model(topology)
    entries = [("baseline", make_scheme("baseline"))] + [
        (name, schemes[name] if schemes and name in schemes
         else make_scheme(name))
        for name in scheme_names]
    parts: List[List[SchemeRun]] = [[] for _ in entries]
    for layer in model_run.layers:
        for window in pipeline.layer_windows(model_run, layer):
            for (name, scheme), scheme_parts in zip(entries, parts):
                rows = None if collect is None else collect.setdefault(name, [])
                scheme_parts.append(pipeline.run(topology, scheme,
                                                 model_run=model_run,
                                                 collect=rows, window=window))
            # Free the window, with the MAC traffic its schemes shared,
            # before the next one is expanded.
            del window
    if not model_run.layers:
        for (name, scheme), scheme_parts in zip(entries, parts):
            scheme_parts.append(pipeline.run(topology, scheme,
                                             model_run=model_run))
    merged = [dataclasses.replace(
        scheme_parts[0],
        layers=[row for part in scheme_parts for row in part.layers])
        for scheme_parts in parts]
    return ComparisonResult(
        npu_name=pipeline.npu.name,
        workload=topology.name,
        runs={name: run for (name, _), run in zip(entries[1:], merged[1:])},
        baseline=merged[0],
    )


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("no values")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("no values")
    return sum(values) / len(values)
