"""Pin the sha256 of every fixed job's stdout into digests.json.

    PYTHONPATH=src python3 perfbench/pin_digests.py

Fixed jobs do not depend on the seed.  Run this only at a commit whose
outputs are known to be right: the benchmark counts any later change of
these bytes as a failed job.  It refuses to pin a job whose exit code is
not the expected one.
"""

import json
import sys
from pathlib import Path

from checks import digest_key, sha256
from worker import run_in_process
from workloads import GENERATORS, jobs_for


def main() -> int:
    digests = {}
    for workload in GENERATORS:
        for job in jobs_for(workload, 0):
            if not job.fixed or digest_key(job) in digests:
                continue
            rc, stdout, _ = run_in_process(job.argv)
            if rc != job.expect.get("rc", 0):
                print(f"{job.id}: exit code {rc}, not pinned", file=sys.stderr)
                return 1
            digests[digest_key(job)] = sha256(stdout)
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
