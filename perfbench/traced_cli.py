"""`python -m jetdiff` with the layer tracer installed, for traced cli-small passes.

    python perfbench/traced_cli.py JOB_ID SPANS_FILE ARGV...

Runs jetdiff.cli.main(ARGV) and exits with its code, like `python -m
jetdiff ARGV`.  Appends one JSON line to SPANS_FILE: the job id, its
per-layer metrics (raw times; the worker scales them) and its spans.
"""

import time

_start = time.perf_counter()
import jetdiff.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402


def main() -> int:
    job_id, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.job = job_id
    tracer.install()
    try:
        rc = jetdiff.cli.main(argv)
    finally:
        tracer.uninstall()
        record = {
            "job": job_id,
            "layers": layer_metrics(tracer.spans, tracer.prime_retries, IMPORT_S, {}),
            "spans": tracer.spans,
        }
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
