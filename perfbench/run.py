#!/usr/bin/env python3
"""Host-time benchmark of the SeDA simulator's sweep service.

Runs a workload (see ``workloads.py``) through
``repro.runner.EvalService`` in fresh subprocesses, one per repetition,
for about ``--seconds`` seconds (at least three repetitions), checks
every simulated record against the committed reference digests, and
prints a table followed by one JSON line::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics (medians over the
repetitions): ``setup_s``, ``wall_s`` and ``peak_rss_mib``; the failed
cell fraction is printed and carried by the ``attempted``/``failed``
fields.  ``--trace 1`` alternates untraced and traced serial
repetitions and reports the per-layer metrics of the traced one with
the median wall time, and writes its spans as a Chrome trace that
``repro report`` renders.  ``--workload all`` (the default) runs the
three workloads in turn.

Everything the benchmark writes goes under ``.perfbench/`` at the
repository root: the native-kernel cache (built before anything is
timed), the temp result stores, and per-run result files that carry the
machine fingerprint.  The exit code is 0 when every cell passed the
correctness gate, 1 when some did not or a repetition crashed, and 2
when the checkout holds no simulator to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from gate import REFERENCE_PATH  # noqa: E402

#: Variables that would change what a child measures or where it
#: writes; they are removed from every child's environment.
SCRUBBED_ENV = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_NO_NATIVE_KERNEL",
                "REPRO_CACHE_DIR", "REPRO_TRACE_SPILL_DIR",
                "REPRO_NATIVE_CFLAGS", "REPRO_TMP_SWEEP_AGE")

#: Fewest untraced repetitions per run, so that one slow repetition
#: cannot move the median: ``zoo_b16`` (~13 s each) would fit only two
#: into 25 seconds.
MIN_REPS = 3

#: Setup-only children started after each repetition.  They sample
#: ``setup_s`` across the whole run, in the same host conditions as the
#: repetitions' ``wall_s``: a shared host's CPU speed can drift over
#: tens of seconds, so set-ups taken in one burst see other conditions.
SETUPS_PER_REP = 3

#: A whole invocation stays under the three-minute limit of one run.
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))

PER_LAYER_UNITS = {"_s": "s", "_mib": "MiB", "requests": "count",
                   "_ratio": "ratio"}


class ChildFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


def _unit(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    """Starts worker children with a scrubbed environment and a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {key: value for key, value in os.environ.items()
                    if key not in SCRUBBED_ENV}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["REPRO_KERNEL_CACHE"] = str(STATE / "kernels")

    def spawn(self, *args: str) -> Tuple[Dict[str, Any], float, float]:
        """Run one worker; returns its JSON result and the monotonic
        times at which it was started and had exited."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("out of time before starting a repetition")
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--tmp", str(STATE / "tmp"), *args],
            stdout=subprocess.PIPE, env=self.env, cwd=str(ROOT),
            start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The child leads its own session, so this also stops any
            # pool workers it started.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"worker {' '.join(args)} timed out") from None
        ended = time.monotonic()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"worker {' '.join(args)} exited with "
                              f"{proc.returncode}")
        return json.loads(lines[-1]), started, ended


def fingerprint(prepared: Dict[str, Any]) -> Dict[str, Any]:
    """What the numbers were measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = None, None
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=git_env, capture_output=True, text=True,
                              timeout=10)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=git_env, capture_output=True, text=True,
                timeout=10)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), **prepared,
            "git_commit": commit, "git_dirty": dirty}


def measure(runner: Runner, name: str, seed: int,
            seconds: float) -> Dict[str, Any]:
    """Untraced repetitions for ``seconds``; end-to-end medians."""
    start = time.monotonic()
    reps: List[Dict[str, Any]] = []
    setups: List[float] = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        data, started, ended = runner.spawn(
            "--workload", name, "--seed", str(seed), "--rep", str(len(reps)))
        data["setup_s"] = data["t_submit"] - started
        data["elapsed_s"] = ended - started
        reps.append(data)
        setups.append(data["setup_s"])
        for _ in range(SETUPS_PER_REP):
            data, started, _ = runner.spawn(
                "--workload", name, "--seed", str(seed),
                "--rep", str(len(setups)), "--setup-only")
            setups.append(data["t_submit"] - started)
    samples = {"setup_s": setups,
               "wall_s": [rep["wall_s"] for rep in reps],
               "peak_rss_mib": [rep["peak_rss_mib"] for rep in reps]}
    return {"reps": reps, "samples": samples,
            "metrics": {metric: statistics.median(samples[metric])
                        for metric, _ in END_TO_END}}


def measure_traced(runner: Runner, name: str, seed: int, seconds: float,
                   trace_path: Path) -> Dict[str, Any]:
    """Pairs of untraced and traced repetitions for ``seconds``.

    The difference of their wall times is the tracing overhead.  The
    per-layer metrics are those of the traced repetition with the median
    wall time (so its self times still add up to its own wall time), and
    its trace is the one kept.
    """
    start = time.monotonic()
    plain: List[float] = []
    traced: List[Tuple[Dict[str, Any], Path]] = []
    while not traced or time.monotonic() - start < seconds:
        rep = str(len(traced))
        data, _, _ = runner.spawn("--workload", name, "--seed", str(seed),
                                  "--rep", rep)
        plain.append(data["wall_s"])
        path = trace_path.with_name(f"{trace_path.name}.rep{rep}")
        data, _, _ = runner.spawn("--workload", name, "--seed", str(seed),
                                  "--rep", rep, "--traced",
                                  "--trace-out", str(path))
        traced.append((data, path))
    traced.sort(key=lambda pair: pair[0]["wall_s"])
    chosen, chosen_path = traced[(len(traced) - 1) // 2]
    os.replace(chosen_path, trace_path)
    for _, path in traced:
        if path != chosen_path:
            path.unlink(missing_ok=True)
    metrics = dict(chosen["layer_metrics"])
    metrics["trace.overhead_s"] = chosen["wall_s"] - statistics.median(plain)
    return {"reps": [data for data, _ in traced], "untraced_wall_s": plain,
            "chosen": chosen, "metrics": metrics}


def _print_end_to_end(name: str, result: Dict[str, Any]) -> None:
    reps = result["reps"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"\n== {name}: {len(reps)} repetitions ==")
    print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}  unit")
    for metric, unit in END_TO_END:
        q1, median, q3 = _quartiles(result["samples"][metric])
        print(f"  {metric:<18}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}  {unit}"
              f"  (n={len(result['samples'][metric])})")
    print(f"  {'cells_failed_frac':<18}{failed / attempted:>12.4f}"
          f"{'':>24}  fraction  ({failed} of {attempted} cells)")
    hits = [rep["disk_hits"] for rep in reps if rep["disk_hits"] is not None]
    if hits:
        print(f"  store re-read disk hits per repetition: {sorted(set(hits))}")
    slowdown = reps[-1]["slowdown_pct"]
    print("  simulated mean slowdown (for information): " + ", ".join(
        f"{scheme} {pct:.2f}%" for scheme, pct in slowdown.items()))


def _print_per_layer(name: str, result: Dict[str, Any],
                     trace_path: Path) -> None:
    chosen = result["chosen"]
    wall = chosen["wall_s"]
    print(f"\n== {name}: {len(result['reps'])} traced "
          f"repetitions, median traced wall {wall:.3f} s ==")
    print(f"  {'layer':<14}{'self s':>10}{'share':>9}{'rss growth MiB':>16}")
    for layer, seconds, growth in chosen["layer_table"]:
        print(f"  {layer:<14}{seconds:>10.4f}{seconds / wall:>9.1%}"
              f"{growth:>16.1f}")
    total = sum(seconds for _, seconds, _ in chosen["layer_table"])
    print(f"  {'sum':<14}{total:>10.4f}  (traced wall {wall:.4f} s)")
    bases = chosen["bases"]
    for metric, value in result["metrics"].items():
        base = f"  (base {bases[metric]:g})" if metric in bases else ""
        print(f"  {metric:<30}{value:>14.6f}  {_unit(metric)}{base}")
    print(f"  trace: {trace_path}  (render with: repro report {trace_path})")


def run_workload(runner: Runner, name: str, args: argparse.Namespace,
                 machine: Dict[str, Any]) -> Dict[str, Any]:
    results_dir = STATE / "results"
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        trace_path = results_dir / f"{name}-seed{args.seed}.trace.json"
        result = measure_traced(runner, name, args.seed, args.seconds,
                                trace_path)
        _print_per_layer(name, result, trace_path)
        metrics = {metric: {"value": value, "unit": _unit(metric)}
                   for metric, value in result["metrics"].items()}
    else:
        result = measure(runner, name, args.seed, args.seconds)
        _print_end_to_end(name, result)
        metrics = {metric: {"value": result["metrics"][metric],
                            "unit": unit}
                   for metric, unit in END_TO_END}
    attempted = sum(rep["attempted"] for rep in result["reps"])
    failed = sum(rep["failed"] for rep in result["reps"])
    for rep in result["reps"]:
        for failure in rep["failures"]:
            print(f"  FAILED {failure['cell']} (pass {failure['pass']}): "
                  f"{failure['error']}", file=sys.stderr)
    with open(results_dir / f"{stem}.json", "w") as handle:
        json.dump({"workload": name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": machine, "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "result": result}, handle, indent=1)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the submission order of the cells")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to repeat each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not os.path.isfile(REFERENCE_PATH):
        print(f"error: no simulator sources under {ROOT / 'src'} (or no "
              f"reference digests); run from a full checkout",
              file=sys.stderr)
        return 2
    for sub in ("kernels", "tmp", "results"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    runner = Runner(deadline=begin + RUN_LIMIT_S * len(names))
    try:
        prepared, _, _ = runner.spawn("--prepare")
        machine = fingerprint(prepared)
        print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
        outcomes = {name: run_workload(runner, name, args, machine)
                    for name in names}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(STATE / "tmp", ignore_errors=True)

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    if len(outcomes) == 1:
        metrics = next(iter(outcomes.values()))["metrics"]
    else:
        metrics = {f"{name}.{metric}": value
                   for name, outcome in outcomes.items()
                   for metric, value in outcome["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
