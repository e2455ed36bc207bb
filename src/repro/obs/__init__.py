"""repro.obs — the flight recorder: structured tracing and metrics.

Zero-dependency observability for the whole runner stack.  The span API
instruments the four pipeline stages (accelerator simulate / protect /
DRAM / crypto) per layer and per cell; counters and gauges expose the
load-bearing internals (result-store hits, eval-service memo tiers,
native-kernel selection, executor pool state); exporters render a
whole sweep as a JSONL event log, an aggregated metrics summary, or a
Chrome trace-event file that opens in Perfetto.

Typical use::

    from repro import obs

    recorder = obs.enable()            # or: REPRO_TRACE=out.trace.json
    with obs.span("protect", scheme="seda", layer=3):
        ...
    obs.incr("store.hits")
    obs.gauge("executor.pipeline_memo_size", 2)

    from repro.obs import export
    export.write_chrome_trace(recorder, "out.trace.json")

When no recorder is enabled every call is strictly a no-op (a single
``None`` check), so instrumented hot paths cost nothing in production
runs; see :mod:`repro.obs.recorder`.
"""

from repro.obs.recorder import (
    NOOP_SPAN,
    Recorder,
    TRACE_ENV,
    absorb,
    disable,
    enable,
    enabled,
    gauge,
    get,
    incr,
    init_from_env,
    install,
    span,
)

__all__ = [
    "NOOP_SPAN",
    "Recorder",
    "TRACE_ENV",
    "absorb",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get",
    "incr",
    "init_from_env",
    "install",
    "span",
]
