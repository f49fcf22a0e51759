"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs the small `selftest` job list in-process, so it takes seconds.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import json  # noqa: E402
import signal  # noqa: E402

import pytest  # noqa: E402

import worker  # noqa: E402
from checks import check_pass, digest_key  # noqa: E402
from spans import WRAPPED, Tracer, _resolve, layer_metrics  # noqa: E402
from workloads import ISOTYPIC_ERROR, Job, jobs_for  # noqa: E402

GOLDEN = HERE.parent / "tests" / "golden"
DIGESTS = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
SEED = 7


def _originals():
    return [vars(owner)[name] for owner, name in (_resolve(m, a) for m, a, _ in WRAPPED)]


def _traced_pass(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        results, *_ = worker.in_process_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    return results, tracer


def _check(jobs, results, digests=DIGESTS):
    check_pass(jobs, results, digests, GOLDEN, SEED,
               run_cli=lambda argv: worker.run_in_process(argv)[:2],
               linear_transition=worker.linear_transition)
    return results


def test_traced_pass_restores_every_wrapped_function():
    before = _originals()
    results, tracer = _traced_pass(jobs_for("selftest", SEED))
    assert tracer.spans, "the traced pass recorded no spans"
    after = _originals()
    assert all(a is b for a, b in zip(before, after))
    assert all(not hasattr(fn, "__wrapped__") for fn in after)
    # the speed samples' timer is off and its handler put back
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_traced_and_untraced_outputs_are_byte_identical():
    jobs = jobs_for("selftest", SEED)
    plain, *_ = worker.in_process_pass(jobs)
    traced, _ = _traced_pass(jobs)
    assert [r["stdout"] for r in plain] == [r["stdout"] for r in traced]
    assert all(r["ok"] for r in _check(jobs, plain))


def test_wrong_digest_counts_as_failed_job():
    jobs = jobs_for("selftest", SEED)
    target = next(job for job in jobs if job.fixed)
    digests = dict(DIGESTS)
    digests[digest_key(target)] = "0" * 64
    results, *_ = worker.in_process_pass(jobs)
    _check(jobs, results, digests)
    failed = [job.id for job, r in zip(jobs, results) if not r["ok"] and not r["known_failure"]]
    assert failed == [target.id]


def test_known_failure_is_recognised_and_other_errors_fail():
    argv = ("transition", "--rank", "2", "--order", "3", "--weight", "6",
            "--map", "w1 = z1; w2 = z2 + z1^2", "--point=0,0", "--json")
    known = Job("known", "transition", argv, expect={"known_failure": ISOTYPIC_ERROR})
    other = Job("other", "transition", argv)
    results, *_ = worker.in_process_pass([known, other])
    _check([known, other], results)
    if results[0]["rc"] == 0:
        pytest.skip("the order-3 transition no longer fails")
    assert results[0]["known_failure"] and not results[0]["ok"]
    assert not results[1]["known_failure"] and not results[1]["ok"]


def test_traced_counts_repeat_exactly():
    jobs = jobs_for("selftest", SEED)
    counts = []
    for _ in range(2):
        _, tracer = _traced_pass(jobs)
        metrics = layer_metrics(tracer.spans, tracer.prime_retries, 0.0, {})
        counts.append({k: v for k, v in metrics.items() if k.endswith(("calls", "rows", "nnz"))})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.nullspace.calls"] > 0
