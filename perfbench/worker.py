"""One pass of a workload, in a fresh interpreter.

    python perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]
    python perfbench/worker.py --workload NAME --seed N --setup-only

Imports jetdiff.cli, builds the job list from the seed and runs every job
once, closed loop: in-process through jetdiff.cli.main, or for cli-small
as `python -m jetdiff` subprocesses.  Each job is timed against the speed
reference (speed.py).  Then it checks the outputs and prints
one JSON line: per-job times (scaled and raw) and verdicts, the pass wall
time, peak RSS and, when traced, the per-layer metrics.  With --setup-only it stops
after building the job list; the harness times that as set-up.
"""

from __future__ import annotations

import time

_start = time.perf_counter()
import jetdiff.cli  # noqa: E402  (first, so its import time is what a user pays)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_CLI = HERE / "traced_cli.py"
JOB_TIMEOUT_S = 60


def run_in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of jetdiff.cli.main(argv); raises what it raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = jetdiff.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def linear_transition(rank: int, order: int, weight: int, matrix: str) -> list:
    """Matrix of the linear map w = g z on the weight-m invariants, through
    differential_transition (no CLI, no irreducible partition)."""
    from fractions import Fraction

    from jetdiff.invariants import invariant_basis
    from jetdiff.jets import JetSpec, TargetMap
    from jetdiff.transitions import differential_transition

    g = [[Fraction(v) for v in row.split(",")] for row in matrix.split(";")]
    space = invariant_basis(JetSpec(rank, order), weight)
    tm = differential_transition(space, TargetMap.linear(g, order), [0] * rank)
    return [[str(v) for v in row] for row in tm.entries]


def _result(job, timing, rc, error, stdout, stderr) -> dict:
    return {"id": job.id, "kind": job.kind, "seconds": timing["seconds"] * timing["factor"],
            "raw_seconds": timing["seconds"], "rc": rc, "error": error, "stdout": stdout,
            "stderr": stderr}


def _pass_times(results) -> tuple:
    """(wall_s, raw_wall_s) of a pass: its jobs run back to back, so the
    pass takes the sum of their times (the reference runs between jobs are
    left out)."""
    return sum(r["seconds"] for r in results), sum(r["raw_seconds"] for r in results)


def in_process_pass(jobs, tracer=None) -> tuple:
    """(results, wall_s, raw_wall_s, peak RSS in MB) of one pass; job times
    are scaled to the reference speed (speed.py), raw ones kept beside them."""
    speed = SpeedClock(tracer.clock) if tracer else SpeedClock()
    results = []
    for job in jobs:
        if tracer:
            tracer.job = job.id
        rc, stdout, stderr, error = None, "", "", None
        with speed.timed(sample=True) as timing:
            try:
                rc, stdout, stderr = run_in_process(job.argv)
            except Exception as exc:  # a job that raises is a failed job, not a harness error
                error = f"{type(exc).__name__}: {exc}"
        results.append(_result(job, timing, rc, error, stdout, stderr))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (results, *_pass_times(results), peak_mb)


def subprocess_pass(jobs, spans_path=None) -> tuple:
    """Like in_process_pass, with each job a `python -m jetdiff` call; peak
    RSS is that of the largest call.  The calls inherit this worker's
    environment and CPU, which run.py set up."""
    speed = SpeedClock()
    results = []
    for job in jobs:
        if spans_path is None:
            cmd = [sys.executable, "-m", "jetdiff", *job.argv]
        else:
            cmd = [sys.executable, str(TRACED_CLI), job.id, str(spans_path), *job.argv]
        rc, stdout, stderr, error = None, "", "", None
        with speed.timed(sample=False) as timing:
            try:
                proc = subprocess.run(cmd, capture_output=True, timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                error = f"TimeoutExpired: no exit within {JOB_TIMEOUT_S} s"
            else:
                rc = proc.returncode
                stdout = proc.stdout.decode("utf-8", errors="replace")
                stderr = proc.stderr.decode("utf-8", errors="replace")
        results.append(_result(job, timing, rc, error, stdout, stderr))
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return (results, *_pass_times(results), peak_mb)


def _scale(results) -> dict:
    """job id -> the factor speed.py found for the job."""
    return {r["id"]: r["seconds"] / r["raw_seconds"] for r in results}


def _merge_child_layers(spans_path: Path, scale: dict) -> dict:
    """Sum the per-call layer metrics the traced subprocesses appended,
    with each call's times scaled by its job's factor."""
    from spans import LAYER_METRICS

    total = {name: 0 for name in LAYER_METRICS
             if name not in ("trace.overhead_s", "jobs.known_failures")}
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            for name, value in record["layers"].items():
                if name == "invariants.basis.max_coeff_bits":
                    total[name] = max(total[name], value)
                elif LAYER_METRICS[name] == "s":
                    total[name] += value * scale[record["job"]]
                else:
                    total[name] += value
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="file the traced pass writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import SUBPROCESS_WORKLOADS, jobs_for

    jobs = jobs_for(args.workload, args.seed)
    if args.setup_only:
        return 0
    from checks import check_pass, sha256

    layers = None
    if args.workload in SUBPROCESS_WORKLOADS:
        if args.trace:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text("")
        results, wall, raw_wall, peak_mb = subprocess_pass(jobs, args.spans if args.trace else None)
        if args.trace:
            layers = _merge_child_layers(args.spans, _scale(results))
    else:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            results, wall, raw_wall, peak_mb = in_process_pass(jobs, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            from spans import layer_metrics, write_spans

            scale = _scale(results)
            # the import ran just before the pass: scale it like the first job
            import_s = IMPORT_S * scale[results[0]["id"]]
            layers = layer_metrics(tracer.spans, tracer.prime_retries, import_s, scale)
            write_spans(args.spans, tracer.spans)

    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    check_pass(jobs, results, digests, ROOT / "tests" / "golden", args.seed,
               run_cli=lambda argv: run_in_process(argv)[:2], linear_transition=linear_transition)
    if layers is not None:
        layers["jobs.known_failures"] = sum(r["known_failure"] for r in results)
    for r in results:
        r["sha256"] = sha256(r.pop("stdout"))
        stderr = r.pop("stderr")
        if r["reason"] is None and not r["ok"]:
            r["reason"] = (stderr.strip().splitlines() or ["failed"])[-1]
    print(json.dumps({"wall_s": wall, "raw_wall_s": raw_wall, "peak_rss_mb": peak_mb,
                      "jobs": results, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
