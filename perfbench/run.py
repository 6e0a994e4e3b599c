"""Run the benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload elect-vec --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run measures end-to-end metrics with tracing off;
with ``--trace 1`` it runs every pass untraced and traced, on the same
inputs, and reports the per-layer metrics and ``bench.trace_overhead``.
A run does a fixed number of passes per workload (``catalogue.PASSES``
at 15 s, scaled by ``--seconds``).
Every run checks its outputs.  The human-readable report goes to stdout
and its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
``BENCHMARK.json`` lists; the exit code is non-zero when any check
failed.  Each run appends its full result and provenance to
``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
HISTORY = HERE / "history.jsonl"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Written into every history entry.  Version 1 entries (without this
#: field) fitted as many passes as a time budget allowed and timed the
#: calibration loop without waiting for the package to go idle.
BENCH_VERSION = 2

from catalogue import (  # noqa: E402
    E2E_BY_NAME,
    LAYER_BY_NAME,
    PER_LAYER,
    WORKLOADS,
    end_to_end_for,
    gated_end_to_end,
    passes_for,
)
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BenchFailure,
    Calibration,
    Ledger,
    engine_layers,
    make_workload,
    timing,
)


def _import_package() -> None:
    """Put ``src/`` first on the path and refuse any other ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bench_version": BENCH_VERSION,
        "unix_time": round(time.time(), 3),
    }


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def run_pairs(bench: Any, calibration: Calibration, tracer: Tracer,
              passes: int) -> Tuple[List[Any], List[Any], List[float]]:
    """Each pass untraced and traced on the same inputs, the order
    alternating from pair to pair.  Returns ``(untraced ops, traced ops,
    traced / untraced reference seconds of each pair)``."""
    plain: List[Any] = []
    traced: List[Any] = []
    ratios: List[float] = []
    for index in range(passes):
        pair: Dict[bool, List[Any]] = {}
        for trace in ((False, True) if index % 2 == 0 else (True, False)):
            if trace:
                with tracer:
                    pair[trace] = bench.run_pass(index, True)
            else:
                pair[trace] = bench.run_pass(index, False)
        plain += pair[False]
        traced += pair[True]
        ratios.append(sum(timing(pair[True], calibration)) / sum(timing(pair[False], calibration)))
    return plain, traced, ratios


def _probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its "ready" line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", workload, "--seed", str(seed)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return ready


def time_setup(workload: str, seed: int, calibration: Calibration) -> Tuple[float, float]:
    """``setup_s`` in reference and in wall seconds: medians over
    ``SETUP_PROBES`` fresh processes, each timed from spawn to the end of
    its set-up and scaled by the idle points around it.  Run after the
    timed part, so the probes do not count toward ``peak_rss_mb``."""
    calibration.idle_point()
    wall: List[float] = []
    scaled: List[float] = []
    for _ in range(SETUP_PROBES):
        ready, _, position = calibration.measure(_probe, workload, seed)
        wall.append(ready)
        scaled.append(ready * calibration.scale(position))
    return statistics.median(scaled), statistics.median(wall)


def setup_probe(workload: str, seed: int) -> None:
    work_dir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
    try:
        bench = make_workload(workload, seed, work_dir, Ledger(), Calibration())
        bench.setup()
        print("ready", flush=True)
        bench.teardown()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict[str, Any], Any]:
    """One workload run; returns ``(metrics, wall-clock metrics, ledger)``.

    ``metrics`` are in reference seconds (see ``workloads.Calibration``);
    the wall-clock twins are printed beside them and kept in the history.
    """
    ledger = Ledger()
    calibration = Calibration()
    passes = passes_for(args.workload, args.seconds)
    metrics: Dict[str, Any] = {}
    wall: Dict[str, Any] = {}
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = make_workload(args.workload, args.seed, work_dir, ledger, calibration)
    try:
        calibration.idle_point()
        bench.setup()
        calibration.idle_point()
        if not args.trace:
            ops: List[Any] = []
            for index in range(passes):
                ops += bench.run_pass(index, False)
            metrics["peak_rss_mb"] = wall["peak_rss_mb"] = peak_rss_mb()
            bench.check(ops)
            metrics.update(bench.end_to_end(ops, calibration))
            wall.update(bench.end_to_end(ops, None))
        else:
            tracer = Tracer()
            plain, traced, ratios = run_pairs(bench, calibration, tracer, passes)
            with tracer:
                bench.traced_checks(traced, tracer)
            bench.check(plain + traced)
            metrics = {m.name: 0.0 for m in PER_LAYER}
            metrics.update(engine_layers(tracer, len(traced)))
            metrics.update(bench.per_layer(tracer, traced))
            metrics["bench.traced_ops"] = len(traced)
            overhead = statistics.median(ratios)
            metrics["bench.trace_overhead"] = overhead
            metrics["bench.trace_overhead.spread"] = (max(ratios) - min(ratios)) / overhead
            metrics["_trace_overhead_pairs"] = ratios
            tracer.dump(WORK / f"spans-{args.workload}.jsonl")
    finally:
        bench.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"], wall["setup_s"] = time_setup(args.workload, args.seed, calibration)
    metrics["_passes"] = passes
    metrics["_calibration_s"] = statistics.median(calibration.samples)
    metrics["_settle_s"] = sum(calibration.settle_s)
    metrics["_busy_idle_points"] = calibration.busy_points
    metrics["failed_ratio"] = wall["failed_ratio"] = ledger.failed / max(1, ledger.attempted)
    return metrics, wall, ledger


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def report(args: argparse.Namespace, metrics: Dict[str, Any], wall: Dict[str, Any],
           ledger: Any) -> Dict[str, Any]:
    """Print the human-readable table; return the result printed as the last line."""
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={metrics['_passes']} "
          f"calibration={metrics['_calibration_s']:.6f}s (reference {Calibration.REF_S}s) "
          f"settle={metrics['_settle_s']:.2f}s busy_idle_points={metrics['_busy_idle_points']}")
    if args.trace:
        for m in PER_LAYER:
            print(f"{m.name:32s} {metrics[m.name]:>16.6g} {m.unit}")
    else:
        print(f"{'metric':32s} {'value':>16s} {'wall clock':>16s} unit")
        for m in end_to_end_for(args.workload):
            print(f"{m.name:32s} {metrics[m.name]:>16.6g} {wall[m.name]:>16.6g} {m.unit}")
    if not args.trace:
        print(f"# trial_s.tail is p{metrics['_trial_tail_pct']:.1f} of "
              f"{metrics['_trial_samples']} trial samples")
    print(f"# attempted={ledger.attempted} failed={ledger.failed}")
    for problem in ledger.problems:
        print(f"# FAILED: {problem}")
    declared = [m.name for m in PER_LAYER] if args.trace else [m.name for m in gated_end_to_end()]
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": (LAYER_BY_NAME if args.trace else E2E_BY_NAME)[name].unit}
            for name in declared
        },
    }


def append_history(args: argparse.Namespace, metrics: Dict[str, Any], wall: Dict[str, Any],
                   ledger: Any, result: Dict[str, Any]) -> None:
    entry = {
        "provenance": provenance(args),
        "correct": result["correct"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": metrics,
        "wall_clock": wall,
    }
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prints each report in turn."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined, sort_keys=True))
    return status or (0 if combined["correct"] else 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    WORK.mkdir(exist_ok=True)
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    # Everything the package and its child processes write stays here.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    try:
        metrics, wall, ledger = measure(args)
    except BenchFailure as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    result = report(args, metrics, wall, ledger)
    append_history(args, metrics, wall, ledger, result)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
