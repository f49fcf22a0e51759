"""Output checks for one pass of jobs.

Every job result is a dict with at least `rc` (exit code, None when the
job raised), `error` (exception text or None) and `stdout`.  `check_pass`
adds `ok`, `known_failure` and `reason` to each result:

- a fixed job's stdout must match its pinned sha256, and a golden job's
  stdout must equal its file under tests/golden byte for byte;
- seeded jobs are checked by a second route: a linear `transition` must
  equal the `associated` action of its Jacobian, the partition must cover
  every basis index once, the first-derivative block must be closed, a
  linear map must split, a
  `verify` verdict must match how its polynomial was built, a `dim` must
  equal the length of the basis of the same shape, a random combination
  of a basis must verify as invariant while a perturbed one must not, and
  an `associated` matrix must equal the library's differential_transition
  of the linear map with that matrix;
- a job marked as a known failure may fail with its known error; it is
  then counted as a known failure, not as failed.  Once it exits 0 it is
  checked like any other job.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from workloads import Job

# Exit codes documented by jetdiff: success, mathematical error, usage error.
DOCUMENTED_RC = {0, 1, 2}

# Runs one jetdiff command line in-process and returns (exit code, stdout).
RunCli = Callable[[Sequence[str]], tuple]
# (rank, order, weight, matrix text) -> the transition matrix, as strings,
# of the linear map with that matrix.
LinearTransition = Callable[[int, int, int, str], List[List[str]]]


class CheckFailure(Exception):
    pass


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_key(job: Job) -> str:
    return json.dumps(list(job.argv))


def _shape(job: Job):
    argv = list(job.argv)
    return tuple(argv[argv.index(flag) + 1] for flag in ("--rank", "--order", "--weight"))


def _payload(result: Dict) -> Dict:
    try:
        return json.loads(result["stdout"])
    except ValueError as exc:
        raise CheckFailure(f"stdout is not JSON: {exc}") from exc


def _check_transition(payload: Dict) -> None:
    dim = len(payload["basis"])
    indices = sorted(i for block in payload["splitting"]["partition"] for i in block["indices"])
    if indices != list(range(dim)):
        raise CheckFailure(f"partition does not cover 0..{dim - 1} exactly once")
    if payload["first_order_block_closed"] is not True:
        raise CheckFailure("first-derivative block not closed")
    if payload["splitting"]["splits"] != (not payload["splitting"]["witnesses"]):
        raise CheckFailure("splitting verdict disagrees with its witnesses")


def _check_basis_combination(job: Job, payload: Dict, run_cli: RunCli, rng: random.Random) -> None:
    """A random combination of basis elements verifies as invariant; adding
    f1'^(m-2)*f1'' makes it fail."""
    basis = payload["basis"]
    rank, order, weight = _shape(job)
    picks = rng.sample(range(len(basis)), min(3, len(basis)))
    combo = " + ".join(f"{rng.choice((1, 2, 3, -1, -2))}*({basis[i]})" for i in picks)
    combo = combo.replace("+ -", "- ")  # the parser has no unary minus after "+"
    perturbed = f"{combo} + f1'^{int(weight) - 2}*f1''"
    for poly, want in ((combo, True), (perturbed, False)):
        rc, out = run_cli(["verify", "--rank", rank, "--order", order, f"--poly={poly}", "--json"])
        if rc != 0 or json.loads(out)["invariant"] is not want:
            raise CheckFailure(f"basis combination verify gave rc {rc}, expected invariant={want}")


def _check_one(job: Job, result: Dict, digests: Dict[str, str], golden_dir: Path) -> None:
    want_rc = job.expect.get("rc", 0)
    if result["error"] is not None:
        raise CheckFailure(f"raised {result['error']}")
    if result["rc"] not in DOCUMENTED_RC:
        raise CheckFailure(f"undocumented exit code {result['rc']}")
    if result["rc"] != want_rc:
        raise CheckFailure(f"exit code {result['rc']}, expected {want_rc}")
    if want_rc != 0 and result["stdout"]:
        raise CheckFailure("a failing call printed on stdout")
    if job.fixed:
        pinned = digests.get(digest_key(job))
        if pinned is None:
            raise CheckFailure("no pinned digest")
        if sha256(result["stdout"]) != pinned:
            raise CheckFailure("stdout differs from the pinned sha256")
    if "golden" in job.expect:
        golden = (golden_dir / job.expect["golden"]).read_text(encoding="utf-8")
        if result["stdout"] != golden:
            raise CheckFailure(f"stdout differs from tests/golden/{job.expect['golden']}")
    if job.kind == "transition":
        _check_transition(_payload(result))
    if "splits" in job.expect and _payload(result)["splitting"]["splits"] is not job.expect["splits"]:
        raise CheckFailure(f"splitting verdict is not splits={job.expect['splits']}")
    if "invariant" in job.expect:
        if _payload(result)["invariant"] is not job.expect["invariant"]:
            raise CheckFailure(f"verify verdict is not invariant={job.expect['invariant']}")
    if "second_derivatives" in job.expect:
        flag = _payload(result)["uses_second_derivatives"]
        if flag is not job.expect["second_derivatives"]:
            raise CheckFailure(f"second-derivative flag is {flag}")


def _is_known_failure(job: Job, result: Dict) -> bool:
    marker = job.expect.get("known_failure")
    if marker is None or result["rc"] == 0:
        return False
    text = result["error"] or result.get("stderr", "")
    return marker in text


def check_pass(
    jobs: List[Job],
    results: List[Dict],
    digests: Dict[str, str],
    golden_dir: Path,
    seed: int,
    run_cli: RunCli,
    linear_transition: LinearTransition,
) -> None:
    """Mark each result ok / known failure / failed, with a reason.

    `run_cli` runs the basis-combination `verify` calls; `linear_transition`
    is the library route an `associated` matrix is checked against.
    """
    rng = random.Random(f"checks:{seed}")
    by_id = {job.id: (job, result) for job, result in zip(jobs, results)}
    for job, result in zip(jobs, results):
        result.update(ok=False, known_failure=False, reason=None)
        if _is_known_failure(job, result):
            result.update(known_failure=True, reason=result["error"] or result.get("stderr", ""))
            continue
        try:
            _check_one(job, result, digests, golden_dir)
            if "equals" in job.expect:
                other_job, other = by_id[job.expect["equals"]]
                if other["rc"] != 0 or _payload(other)["matrix"] != _payload(result)["matrix"]:
                    raise CheckFailure(f"matrix differs from {other_job.id}")
            if job.kind == "dim":
                _check_dim(job, result, jobs, results)
            if job.expect.get("combo"):
                _check_basis_combination(job, _payload(result), run_cli, rng)
            if job.expect.get("library_check"):
                rank, order, weight = _shape(job)
                matrix = next(a for a in job.argv if a.startswith("--matrix=")).partition("=")[2]
                if linear_transition(int(rank), int(order), int(weight), matrix) != _payload(result)["matrix"]:
                    raise CheckFailure("matrix differs from the transition of the linear map")
        except CheckFailure as exc:
            result["reason"] = str(exc)
            continue
        except Exception as exc:  # output a check cannot even read is wrong output
            result["reason"] = f"check raised {type(exc).__name__}: {exc}"
            continue
        result["ok"] = True


def _check_dim(job: Job, result: Dict, jobs: List[Job], results: List[Dict]) -> None:
    for other_job, other in zip(jobs, results):
        if (other_job.kind == "basis" and "--json" in other_job.argv
                and _shape(other_job) == _shape(job) and other["rc"] == 0):
            if _payload(other)["dimension"] != _payload(result)["dimension"]:
                raise CheckFailure(f"dimension differs from {other_job.id}")
