"""jetdiff benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (see workloads.py and BENCHMARK.json): basis-ladder,
transition-ladder and cli-small.  Each is a closed loop: one client, one
job at a time, on one CPU.  A run first times set-up (a fresh interpreter
that imports jetdiff.cli and builds the job list from the seed) several
times, then runs whole passes over the job list, each pass in a fresh
worker process, until the next pass would end after S seconds; a ladder
run makes at least MIN_PASSES passes.

Every time is scaled to a fixed reference speed (speed.py), because the
shared machines this runs on change speed twofold within seconds; the raw
times are printed beside the scaled ones on stderr.

With --trace 0 it reports the end-to-end metrics, each the median over the
run's passes (set-up: over its probes).  wall_s is a pass's time, basis_s
and the other per-kind times sum one pass's jobs of that kind.  For
cli-small the summary on stderr adds the p50 and p90 latency of its
`python -m jetdiff` calls, with the sample count.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus trace.overhead_s (median traced
minus median untraced pass wall_s); the spans, with raw times, go to
perfbench/out/.  Every job's output is checked (checks.py).  A human
summary goes to stderr; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

Exits 2 without a result when the checkout has no jetdiff sources, and 1
when a worker process breaks down.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS, LAYER_METRICS
from speed import SpeedClock
from workloads import SUBPROCESS_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("basis-ladder", "transition-ladder", "cli-small")
SETUP_PROBES = 11
MIN_PASSES = 3  # per in-process run; a cli-small pass alone takes about 20 s
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "basis_s": "s",
    "dim_s": "s",
    "transition_s": "s",
    "associated_s": "s",
    "peak_rss_mb": "MB",
}
KIND_METRICS = {"basis": "basis_s", "dim": "dim_s", "transition": "transition_s",
                "associated": "associated_s"}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment of every process the benchmark starts: jetdiff from the
    checkout's src/, serial (JETDIFF_JOBS unset)."""
    env = dict(os.environ)
    env.pop("JETDIFF_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU, so a job and
    the speed reference around it run on the same one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _worker(args, deadline: float, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, env=child_env(),
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", errors="replace").strip().splitlines()[-3:]
        raise WorkerError(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
    return proc


def _setup_times(args, deadline: float) -> tuple:
    """(scaled, raw) set-up times of SETUP_PROBES fresh interpreters."""
    scaled, raw = [], []
    speed = SpeedClock()
    for _ in range(SETUP_PROBES):
        with speed.timed(sample=False) as timing:
            _worker(args, deadline, "--setup-only")
        raw.append(timing["seconds"])
        scaled.append(timing["seconds"] * timing["factor"])
    return scaled, raw


def _run_pass(args, deadline: float, traced: bool, index: int) -> dict:
    extra = ()
    if traced:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-pass{index}.jsonl"
        extra = ("--trace", "--spans", str(spans))
    proc = _worker(args, deadline, *extra)
    try:
        result = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise WorkerError(f"worker printed no result: {exc}") from exc
    result["traced"] = traced
    return result


def _passes(args, deadline: float) -> list:
    """Whole passes until the next one would end after --seconds, at least
    MIN_PASSES of an in-process workload; with tracing, untraced and traced
    passes alternate, at least one of each."""
    min_passes = 1 if args.workload in SUBPROCESS_WORKLOADS else MIN_PASSES
    if args.trace:
        min_passes = max(min_passes, 2)
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(_run_pass(args, deadline, traced, len(passes)))
        elapsed = time.monotonic() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes


def _percentile(values: list, q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setup: list, time_key: str = "seconds") -> dict:
    """End-to-end metrics of the untraced passes: medians over passes (and
    over set-up probes) of scaled times, or of raw ones with
    time_key="raw_seconds"."""
    def median_sum(kinds=None):
        return statistics.median(
            sum(job[time_key] for job in p["jobs"] if kinds is None or job["kind"] in kinds)
            for p in passes)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": median_sum(),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for kind, name in KIND_METRICS.items():
        metrics[name] = median_sum({kind})
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(passes: list) -> tuple:
    """(metrics, problems): medians of the traced passes' timings, their
    exact counts, and trace.overhead_s; problems lists counts that differ
    between traced passes."""
    traced = [p["layers"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    metrics = {}
    problems = []
    for name, unit in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] for p in passes if p["traced"])
                     - statistics.median(plain))
        elif name in COUNT_METRICS:
            value = traced[0][name]
            if any(t[name] != value for t in traced):
                problems.append(f"{name} differs between traced passes")
        else:
            value = statistics.median(t[name] for t in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def output_problems(passes: list) -> list:
    """Jobs whose stdout differs between passes of the same seed (traced
    or not): tracing must not change any output."""
    seen = {}
    problems = []
    for p in passes:
        for job in p["jobs"]:
            first = seen.setdefault(job["id"], job["sha256"])
            if first != job["sha256"]:
                problems.append(f"{job['id']}: stdout differs between passes")
    return problems


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup, raw_setup = _setup_times(args, deadline)
    passes = _passes(args, deadline)
    jobs = [job for p in passes for job in p["jobs"]]
    failed = [job for job in jobs if not job["ok"] and not job["known_failure"]]
    known = [job for job in jobs if job["known_failure"]]
    problems = output_problems(passes)
    if args.trace:
        metrics, count_problems = per_layer(passes)
        problems += count_problems
        raw = None
    else:
        metrics = end_to_end(passes, setup)
        raw = end_to_end(passes, raw_setup, "raw_seconds")
    _summary(args, passes, jobs, failed, known, problems, metrics, raw)
    return {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }


def _summary(args, passes, jobs, failed, known, problems, metrics, raw) -> None:
    err = sys.stderr
    walls = ", ".join(f"{p['wall_s']:.3f} (raw {p['raw_wall_s']:.3f}){' traced' if p['traced'] else ''}"
                      for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs; pass wall_s: {walls}", file=err)
    for name, metric in metrics.items():
        raw_text = f"  raw {raw[name]['value']:14.6f}" if raw else ""
        print(f"  {name:45s} {metric['value']:14.6f} {metric['unit']:5s}{raw_text}", file=err)
    if args.workload in SUBPROCESS_WORKLOADS:
        for key, label in (("seconds", "call latency"), ("raw_seconds", "raw call latency")):
            latencies = [job[key] * 1000 for job in jobs]
            print(f"  {label} p50 {_percentile(latencies, 50):.3f} ms, "
                  f"p90 {_percentile(latencies, 90):.3f} ms, {len(latencies)} calls", file=err)
    print(f"  failed_ratio {len(failed)}/{len(jobs)} = {len(failed) / len(jobs):.4f}", file=err)
    print(f"  known_failure_ratio {len(known)}/{len(jobs)} = {len(known) / len(jobs):.4f}",
          file=err)
    for job in {job["id"]: job for job in known}.values():
        print(f"    known failure {job['id']}: {job['reason'][:120]}", file=err)
    for job in failed:
        print(f"    FAILED {job['id']}: {job['reason']}", file=err)
    for problem in problems:
        print(f"    PROBLEM {problem}", file=err)


def main() -> int:
    parser = argparse.ArgumentParser(description="jetdiff benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jetdiff" / "cli.py").is_file():
        print(f"run.py: no jetdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
