"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``list`` — available workloads, schemes and NPU configurations.
- ``run`` — one (workload, NPU, scheme) pipeline run with a summary.
- ``compare`` — all schemes on one workload/NPU, Fig. 5/6 style.
- ``sweep`` — the full (workload x scheme) grid on one NPU through the
  parallel, disk-cached evaluation service, with CSV/JSON export.
- ``cache`` — inspect (``stats``) or empty (``clear``) the on-disk
  result store behind ``sweep``.
- ``report`` — render the slowest cells/stages and the counter totals
  from a profile captured with ``sweep --profile`` (or $REPRO_TRACE).
- ``attack`` — run the SECA and RePA demonstrations.

Profiling: ``sweep --profile out.trace.json`` records every span and
counter through :mod:`repro.obs` and writes a Chrome trace-event file
(open it in Perfetto) plus an ``out.metrics.json`` summary; setting
``REPRO_TRACE=out.trace.json`` does the same for any command without
flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from typing import List, Optional

from repro import obs
from repro.core.config import npu_config
from repro.core.metrics import METRICS, compare_schemes, figure_table
from repro.core.pipeline import Pipeline
from repro.models.zoo import (
    SEQ_DEFAULTS,
    TRANSFORMER_WORKLOADS,
    WORKLOAD_ABBREVIATIONS,
    canonical_workload_name,
    format_workload_spec,
    get_workload,
    parse_workload_spec,
)
from repro.protection import SCHEME_NAMES, make_scheme
from repro.runner.executor import SweepAborted
from repro.runner.journal import SweepJournal
from repro.runner.service import EvalService
from repro.runner.store import ResultStore
from repro.utils.report import format_table, percent


def _apply_seq(spec: str, seq: Optional[int]) -> str:
    """Fold a ``--seq`` flag into a workload spec (flag wins over suffix
    only when the spec has none; a conflicting suffix is an error)."""
    if seq is None:
        return spec
    base, batch, spec_seq = parse_workload_spec(spec)
    if spec_seq is not None and spec_seq != seq:
        raise KeyError(
            f"--seq {seq} conflicts with workload spec {spec!r}; "
            f"drop one of the two")
    return format_workload_spec(canonical_workload_name(base), batch, seq)


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.models.zoo import ALL_WORKLOADS

    abbrev_of = {name: abbrev
                 for abbrev, name in WORKLOAD_ABBREVIATIONS.items()}
    print("workloads:")
    for name in ALL_WORKLOADS:
        print(f"  {abbrev_of.get(name, name):6s} {name}")
    print("sequence-parametric (@sN):")
    for name, default in SEQ_DEFAULTS.items():
        print(f"  {name} (default s{default})")
    print("schemes:")
    for name in SCHEME_NAMES + ["securator", "baseline"]:
        print(f"  {name}")
    print("npus: server, edge")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    npu = npu_config(args.npu)
    topology = get_workload(_apply_seq(args.workload, args.seq))
    pipeline = Pipeline(npu)
    run = pipeline.run(topology, make_scheme(args.scheme))
    print(f"{topology.name} on {npu.name} under {args.scheme}:")
    rows = [
        ["layers", len(topology)],
        ["compute cycles", f"{run.compute_cycles:.0f}"],
        ["total cycles", f"{run.total_cycles:.0f}"],
        ["time (ms)", f"{run.total_time_ms:.3f}"],
        ["data bytes", run.data_bytes],
        ["metadata bytes", run.metadata_bytes],
        ["bottlenecks", str(run.bottleneck_histogram())],
    ]
    if topology.seq is not None:
        rows.insert(1, ["sequence length", topology.seq])
    if topology.total_kv_bytes:
        rows.insert(2, ["KV stream bytes", topology.total_kv_bytes])
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    npu = npu_config(args.npu)
    topology = get_workload(_apply_seq(args.workload, args.seq))
    result = compare_schemes(Pipeline(npu), topology, args.schemes)
    rows = []
    for scheme in args.schemes:
        rows.append([
            scheme,
            result.traffic(scheme),
            percent(result.traffic(scheme)),
            result.performance(scheme),
            f"{result.slowdown_pct(scheme):.2f}%",
        ])
    print(f"{topology.name} on {npu.name} (normalized to unprotected):")
    print(format_table(
        ["scheme", "traffic", "overhead", "performance", "slowdown"], rows))
    return 0


def _make_store(args: argparse.Namespace) -> Optional[ResultStore]:
    if getattr(args, "no_cache", False):
        return None
    return ResultStore(args.cache_dir)  # None root -> default cache dir


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.models.zoo import WORKLOADS

    workloads = list(args.workloads) if args.workloads else None
    if args.seq is not None:
        if args.seq <= 0:
            print("error: --seq must be positive", file=sys.stderr)
            return 2
        # Conflict detection runs on the *raw* specs: the service's
        # canonical spelling strips an @sN equal to the default, which
        # must still clash with a different --seq rather than being
        # silently overridden.
        selected = list(args.workloads) if args.workloads \
            else list(TRANSFORMER_WORKLOADS)
        no_seq_dim = [
            w for w in selected
            if canonical_workload_name(parse_workload_spec(w)[0])
            not in SEQ_DEFAULTS]
        if no_seq_dim:
            print(f"error: --seq {args.seq} needs sequence-parametric "
                  f"workloads; {', '.join(no_seq_dim)} have no sequence "
                  f"dimension (pick from {', '.join(sorted(SEQ_DEFAULTS))})",
                  file=sys.stderr)
            return 2
        try:
            workloads = [_apply_seq(w, args.seq) for w in selected]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.batch != 1:
        if args.batch <= 0:
            print("error: --batch must be positive", file=sys.stderr)
            return 2
        conflicting = [w for w in (workloads or [])
                       if parse_workload_spec(w)[1] not in (1, args.batch)]
        if conflicting:
            print(f"error: --batch {args.batch} conflicts with workload "
                  f"spec(s) {', '.join(conflicting)}; drop one of the two",
                  file=sys.stderr)
            return 2

        def with_batch_tag(spec: str) -> str:
            base, _, seq = parse_workload_spec(spec)
            return format_workload_spec(base, args.batch, seq)

        workloads = [with_batch_tag(w) for w in (workloads or WORKLOADS)]
    store = _make_store(args)
    if args.resume and store is None:
        print("error: --resume needs the on-disk store (drop --no-cache)",
              file=sys.stderr)
        return 2
    recorder = obs.enable() if args.profile else obs.get()
    service = EvalService(
        store=store, jobs=args.jobs, resume=args.resume,
        progress=lambda done, total, request: print(
            f"  [{done}/{total}] computed {request.workload} on {args.npu}",
            file=sys.stderr))
    requests = [service.request(args.npu, workload, args.schemes,
                                retries=args.retries,
                                timeout=args.cell_timeout)
                for workload in workloads or WORKLOADS]
    names = [request.workload for request in requests]

    started = time.time()
    try:
        with obs.span("sweep", npu=args.npu, workloads=len(names)):
            evaluated, failures = service.evaluate_tolerant(
                requests, max_failures=args.max_failures)
    except SweepAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cell in exc.failures:
            print(f"  FAILED {cell.describe()}", file=sys.stderr)
        return 1
    elapsed = time.time() - started

    results = {name: result for name, result in zip(names, evaluated)
               if result is not None}
    names = list(results)
    if not names:
        print("error: every grid cell failed", file=sys.stderr)
        for cell in failures:
            print(f"  FAILED {cell.describe()}", file=sys.stderr)
        return 1
    tables = {metric: figure_table(results, args.schemes, metric)
              for metric in args.metrics}
    for metric, table in tables.items():
        print(f"\n=== {metric} ({args.npu}, normalized to unprotected) ===")
        print(format_table(
            ["scheme"] + names + ["avg"],
            [[scheme] + values for scheme, values in table.items()]))

    note = f", {len(failures)} FAILED" if failures else ""
    if service.persist_errors:
        note += f", {service.persist_errors} persist errors"
    if store is not None:
        last = store.summary().last_run
        served = last.get("hits", 0)
        total = served + last.get("misses", 0)
        print(f"\n{total} grid cells in {elapsed:.1f}s "
              f"({served} served from cache, {total - served} computed"
              f"{note}, jobs={args.jobs})")
    else:
        print(f"\n{len(names)} grid cells in {elapsed:.1f}s "
              f"(cache disabled{note}, jobs={args.jobs})")

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["metric", "scheme"] + names + ["avg"])
            for metric, table in tables.items():
                for scheme, values in table.items():
                    writer.writerow([metric, scheme] + values)
        print(f"wrote {args.csv}")
    if args.json:
        payload = {
            "npu": args.npu,
            "schemes": args.schemes,
            "workloads": names,
            "metrics": tables,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.profile:
        from repro.obs import export

        export.write_chrome_trace(recorder, args.profile)
        metrics_path = export.metrics_path_for(args.profile)
        export.write_metrics_summary(recorder, metrics_path)
        print(f"wrote {args.profile} (open in Perfetto) and {metrics_path}")
        if args.profile_events:
            export.write_jsonl(recorder, args.profile_events)
            print(f"wrote {args.profile_events}")
        obs.disable()
    if failures:
        print(f"\n{len(failures)} grid cell(s) FAILED "
              f"(re-run with --resume to retry the transient ones):",
              file=sys.stderr)
        for cell in failures:
            print(f"  FAILED {cell.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import report as obs_report
    from repro.obs.export import load_chrome_trace

    try:
        trace = load_chrome_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}",
              file=sys.stderr)
        return 2

    ms = "{:.3f}"
    stage_rows = obs_report.stage_rows(trace)
    if stage_rows:
        print("=== stages (by total wall time) ===")
        print(format_table(
            ["span", "count", "total ms", "mean ms", "max ms"],
            stage_rows, float_fmt=ms))
    cells = obs_report.cell_rows(trace, top=args.top)
    if cells:
        print(f"\n=== slowest {len(cells)} grid cells ===")
        print(format_table(["workload", "npu", "wall ms", "pid"],
                           cells, float_fmt=ms))
    slowest = obs_report.slowest_rows(trace, name=args.span, top=args.top)
    if slowest:
        scope = f"{args.span!r} spans" if args.span else "spans"
        print(f"\n=== slowest {len(slowest)} {scope} ===")
        print(format_table(["span", "ms", "pid", "args"], slowest,
                           float_fmt=ms))
    counters = obs_report.counter_rows(trace)
    if counters:
        print("\n=== counters ===")
        print(format_table(["counter", "total"], counters))
    gauges = obs_report.gauge_rows(trace)
    if gauges:
        print("\n=== gauges (final) ===")
        print(format_table(["gauge", "value"], gauges, float_fmt=ms))
    if not (stage_rows or cells or counters):
        print("trace contains no repro spans or counters")
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    summary = store.summary()
    journal = SweepJournal(store.root)
    journal_counts = journal.counts() if journal.exists() else {}
    lifetime, last = summary.lifetime, summary.last_run
    last_total = last.get("hits", 0) + last.get("misses", 0)
    last_rate = last.get("hits", 0) / last_total if last_total else 0.0
    print(format_table(["metric", "value"], [
        ["store", summary.root],
        ["entries", summary.entries],
        ["size (KB)", f"{summary.total_bytes / 1024:.1f}"],
        ["orphaned tmp files", summary.orphan_tmp],
        ["  live (in-flight)", summary.orphan_tmp_live],
        ["  sweepable (aged)", summary.orphan_tmp_sweepable],
        ["quarantined records", summary.quarantined],
        ["journal done cells", journal_counts.get("done", 0)],
        ["journal failed cells", journal_counts.get("failed", 0)],
        ["lifetime hits", lifetime.get("hits", 0)],
        ["lifetime misses", lifetime.get("misses", 0)],
        ["lifetime quarantined", lifetime.get("quarantined", 0)],
        ["last run hits", last.get("hits", 0)],
        ["last run misses", last.get("misses", 0)],
        ["last run hit rate", f"{last_rate * 100:.1f}%"],
    ]))
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    quarantined = store.quarantined_count()
    removed = store.clear()
    SweepJournal(store.root).clear()
    note = f" (plus {quarantined} quarantined)" if quarantined else ""
    print(f"removed {removed} cached results{note} from {store.root}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.models.transforms import describe

    print(describe(get_workload(_apply_seq(args.workload, args.seq))))
    return 0


def _cmd_attack(_: argparse.Namespace) -> int:
    from repro.attacks.repa import run_repa
    from repro.attacks.seca import run_seca
    from repro.crypto.baes import BandwidthAwareAes
    from repro.crypto.ctr import AesCtr

    key = b"\x42" * 16
    plaintext = bytes(512)
    shared = AesCtr(key).encrypt_shared_otp(plaintext, pa=64, vn=1)
    baes = BandwidthAwareAes(key).encrypt(plaintext, pa=64, vn=1)
    seca_weak = run_seca(shared, plaintext)
    seca_strong = run_seca(baes, plaintext)
    print(f"SECA vs shared OTP : "
          f"{'succeeds' if seca_weak.succeeded else 'fails'} "
          f"({seca_weak.recovered_fraction * 100:.0f}% recovered)")
    print(f"SECA vs B-AES      : "
          f"{'succeeds' if seca_strong.succeeded else 'fails'} "
          f"({seca_strong.recovered_fraction * 100:.0f}% recovered)")

    blocks = [bytes([i + 1]) * 64 for i in range(16)]
    repa_weak = run_repa(key, blocks, location_bound=False)
    repa_strong = run_repa(key, blocks, location_bound=True)
    print(f"RePA vs XOR-MAC    : "
          f"{'succeeds' if repa_weak.succeeded else 'fails'}")
    print(f"RePA vs SeDA MACs  : "
          f"{'succeeds' if repa_strong.succeeded else 'fails'}")
    return 0 if (seca_weak.succeeded and not seca_strong.succeeded
                 and repa_weak.succeeded and not repa_strong.succeeded) else 1


def _cmd_check(args) -> int:
    from pathlib import Path

    from repro import analysis
    from repro.analysis.registry import get_rules

    if args.list_rules:
        for rule in analysis.list_rules():
            print(f"{rule.name:24s} {rule.description}")
        return 0
    try:
        if args.rule:
            get_rules(args.rule)     # fail fast on a typoed --rule
        result = analysis.run_check(Path(args.root),
                                    rule_names=args.rule or None)
    except (KeyError, FileNotFoundError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(analysis.render_text(result))
    return 1 if result.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SeDA secure-accelerator simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="available workloads/schemes/NPUs") \
        .set_defaults(func=_cmd_list)

    seq_help = ("sequence length for sequence-parametric workloads "
                "(same as an @sN spec suffix)")

    run_p = sub.add_parser("run", help="one pipeline run")
    run_p.add_argument("workload", help="workload name or abbreviation")
    run_p.add_argument("--npu", default="server", choices=["server", "edge"])
    run_p.add_argument("--scheme", default="seda")
    run_p.add_argument("--seq", type=int, help=seq_help)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="all schemes on one workload")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--npu", default="server", choices=["server", "edge"])
    cmp_p.add_argument("--schemes", nargs="+", default=SCHEME_NAMES)
    cmp_p.add_argument("--seq", type=int, help=seq_help)
    cmp_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser(
        "sweep", help="full (workload x scheme) grid via the eval service")
    sweep_p.add_argument("--npu", default="server", choices=["server", "edge"])
    sweep_p.add_argument("--workloads", nargs="+",
                         help="subset of workloads (default: all); accepts "
                              "name@bN specs for batched variants")
    sweep_p.add_argument("--batch", type=int, default=1,
                         help="run every workload at this batch size")
    sweep_p.add_argument("--seq", type=int,
                         help="run the selected sequence-parametric "
                              "workloads at this sequence length "
                              "(default selection: the transformer set)")
    sweep_p.add_argument("--schemes", nargs="+", default=SCHEME_NAMES)
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial in-process)")
    sweep_p.add_argument("--metrics", nargs="+", default=["traffic", "performance"],
                         choices=METRICS)
    sweep_p.add_argument("--csv", metavar="PATH", help="export tables as CSV")
    sweep_p.add_argument("--json", metavar="PATH", help="export tables as JSON")
    sweep_p.add_argument("--cache-dir", metavar="DIR",
                         help="result store location (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="skip the on-disk result store")
    sweep_p.add_argument("--retries", type=int, default=1,
                         help="extra attempts per cell after a transient "
                              "failure (default 1; 0 disables retries)")
    sweep_p.add_argument("--cell-timeout", type=float, metavar="SECONDS",
                         help="wall-time bound per cell attempt; an "
                              "attempt over budget counts as a "
                              "transient failure")
    sweep_p.add_argument("--resume", action="store_true",
                         help="skip cells already journaled: finished "
                              "cells are store hits, permanently failed "
                              "ones are not re-attempted")
    sweep_p.add_argument("--max-failures", type=int, metavar="N",
                         help="abort the sweep once more than N cells "
                              "have failed (default: never)")
    sweep_p.add_argument("--profile", metavar="TRACE.json",
                         help="record spans/counters and write a Chrome "
                              "trace-event file (plus a .metrics.json "
                              "summary next to it)")
    sweep_p.add_argument("--profile-events", metavar="EVENTS.jsonl",
                         help="with --profile: also write the raw JSONL "
                              "event log")
    sweep_p.set_defaults(func=_cmd_sweep)

    cache_p = sub.add_parser("cache", help="manage the on-disk result store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser("stats", help="entries, size, hit rates")
    stats_p.add_argument("--cache-dir", metavar="DIR")
    stats_p.set_defaults(func=_cmd_cache_stats)
    clear_p = cache_sub.add_parser("clear", help="delete every cached result")
    clear_p.add_argument("--cache-dir", metavar="DIR")
    clear_p.set_defaults(func=_cmd_cache_clear)

    desc_p = sub.add_parser("describe", help="summarize one workload")
    desc_p.add_argument("workload")
    desc_p.add_argument("--seq", type=int, help=seq_help)
    desc_p.set_defaults(func=_cmd_describe)

    report_p = sub.add_parser(
        "report", help="slowest cells/stages from a captured profile")
    report_p.add_argument("trace", help="Chrome trace-event file written by "
                                        "sweep --profile or $REPRO_TRACE")
    report_p.add_argument("--top", type=int, default=10,
                          help="rows per slowest-spans table (default 10)")
    report_p.add_argument("--span", metavar="NAME",
                          help="restrict the slowest-spans table to one "
                               "span name (e.g. protect.layer)")
    report_p.set_defaults(func=_cmd_report)

    sub.add_parser("attack", help="run the SECA/RePA demonstrations") \
        .set_defaults(func=_cmd_attack)

    check_p = sub.add_parser(
        "check", help="repo-specific invariant lints (static analysis)")
    check_p.add_argument("--root", default=".",
                         help="repository root to check (default: cwd)")
    check_p.add_argument("--rule", action="append", metavar="NAME",
                         help="run only this rule (repeatable; "
                              "default: all)")
    check_p.add_argument("--json", action="store_true",
                         help="emit the stable JSON findings document")
    check_p.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    check_p.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # $REPRO_TRACE=<path> profiles any command without flags (the trace
    # and metrics summary are written at interpreter exit).
    obs.init_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        # Point stdout at devnull so the interpreter-exit flush of the
        # dead pipe doesn't fail noisily after we return.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
