"""Span tracer that times jetdiff's layers from outside.

`Tracer.install` replaces each public function listed in WRAPPED, at the
name through which it is actually called, by a wrapper that records a span
(name, start, end, parent span, job id).  `uninstall` puts every original
back.  Spans stay in memory until the benchmark writes them out.

Two measurements need more than a span:

- `linalg.kernel_extract_s`: after the nullspace of an invariance system
  returns, the tracer ranks the same system once more, off the clock, and
  counts the nullspace time minus that rank time.
- `linalg.prime_retries`: a logging handler on the `jetdiff.linalg`
  logger counts the modular-rank prime retries it reports.
"""

from __future__ import annotations

import importlib
import json
import logging
from contextlib import contextmanager
from typing import Dict, List, Optional

import speed

# (module, attribute, span name).  The span name is the layer that defines
# the function; several call sites may share one name.
WRAPPED = (
    ("jetdiff.cli", "main", "cli.main"),
    ("jetdiff.cli", "invariant_basis", "invariants.invariant_basis"),
    ("jetdiff.cli", "invariance_system", "invariants.invariance_system"),
    ("jetdiff.cli", "decompose", "invariants.decompose"),
    ("jetdiff.cli", "irrep_partition", "invariants.irrep_partition"),
    ("jetdiff.cli", "verify_invariance", "invariants.verify_invariance"),
    ("jetdiff.cli", "matrix_rank", "linalg.rank"),
    ("jetdiff.cli", "rank_modular_check", "linalg.rank_modular_check"),
    ("jetdiff.cli", "parse_map", "parsing.parse_map"),
    ("jetdiff.cli", "parse_polynomial", "parsing.parse_polynomial"),
    ("jetdiff.cli", "differential_transition", "transitions.differential_transition"),
    ("jetdiff.cli", "associated_action", "transitions.associated_action"),
    ("jetdiff.cli", "s_block_closure", "transitions.s_block_closure"),
    ("jetdiff.cli", "splitting_check", "transitions.splitting_check"),
    ("jetdiff.cli", "v1_frame_transition", "transitions.v1_frame_transition"),
    ("jetdiff.cli", "contradiction_audit", "transitions.contradiction_audit"),
    ("jetdiff.invariants", "enumerate_monomials", "invariants.enumerate_monomials"),
    ("jetdiff.invariants", "invariance_system", "invariants.invariance_system"),
    ("jetdiff.invariants", "verify_invariance", "invariants.verify_invariance"),
    ("jetdiff.invariants", "decompose", "invariants.decompose"),
    ("jetdiff.invariants", "nullspace", "linalg.nullspace"),
    ("jetdiff.invariants", "matrix_rank", "linalg.rank"),
    ("jetdiff.invariants", "solve_in_span", "linalg.solve_in_span"),
    ("jetdiff.invariants", "act_reparam", "jets.act_reparam"),
    ("jetdiff.transitions", "differential_transition", "transitions.differential_transition"),
    ("jetdiff.transitions", "act_target", "jets.act_target"),
    ("jetdiff.poly", "SparsePolynomial.substitute", "poly.substitute"),
)

# Per-layer metrics: name -> unit, in the order they are reported.
LAYER_METRICS = {
    "invariants.invariance_system.s": "s",
    "poly.substitute.s": "s",
    "poly.substitute.calls": "count",
    "linalg.nullspace.s": "s",
    "linalg.nullspace.calls": "count",
    "linalg.kernel_extract_s": "s",
    "linalg.rank.s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank_modular_check.s": "s",
    "linalg.prime_retries": "count",
    "invariants.verify_invariance.s": "s",
    "invariants.verify_invariance.calls": "count",
    "jets.act_reparam.s": "s",
    "jets.act_reparam.calls": "count",
    "invariants.irrep_partition.self_s": "s",
    "invariants.decompose.s": "s",
    "transitions.differential_transition.s": "s",
    "transitions.differential_transition.calls": "count",
    "transitions.s_block_closure.self_s": "s",
    "transitions.splitting_check.s": "s",
    "transitions.associated_action.s": "s",
    "linalg.solve_in_span.s": "s",
    "linalg.solve_in_span.calls": "count",
    "jets.act_target.s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "parsing.parse_map.s": "s",
    "parsing.parse_polynomial.s": "s",
    "invariants.system.rows": "count",
    "invariants.system.cols": "count",
    "invariants.system.nnz": "count",
    "invariants.basis.dim": "count",
    "invariants.basis.max_coeff_bits": "bits",
    "jobs.known_failures": "count",
    "trace.overhead_s": "s",
}

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit != "s")


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name) for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class _RetryCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "retrying" in record.getMessage():
            self.count += 1


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, job id, attrs]
        self.spans: List[list] = []
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._paused = 0.0
        self._saved: List[tuple] = []
        self._retries = _RetryCounter()
        self._logger_state = None

    def clock(self) -> float:
        """Seconds of speed.clock(), excluding work the tracer itself did
        off the clock."""
        return speed.clock() - self._paused

    @contextmanager
    def off_clock(self):
        start = speed.clock()
        try:
            yield
        finally:
            self._paused += speed.clock() - start

    @property
    def prime_retries(self) -> int:
        return self._retries.count

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in WRAPPED:
            owner, name = _resolve(module_name, attr)
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(span_name, original))
        logger = logging.getLogger("jetdiff.linalg")
        self._logger_state = (logger.level, logger.propagate)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self._retries)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        if self._logger_state is not None:
            logger = logging.getLogger("jetdiff.linalg")
            logger.removeHandler(self._retries)
            logger.setLevel(self._logger_state[0])
            logger.propagate = self._logger_state[1]
            self._logger_state = None

    def _wrap(self, span_name: str, fn):
        hook = _HOOKS.get(span_name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [span_name, 0.0, 0.0, parent, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if hook is not None:
                with self.off_clock():
                    span[5] = hook(self, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _system_sizes(tracer, span, args, matrix):
    return {"rows": matrix.nrows, "cols": matrix.ncols,
            "nnz": sum(len(row) for row in matrix.rows)}


def _basis_sizes(tracer, span, args, space):
    bits = max((abs(c.numerator).bit_length() for vec in space.coefficients for c in vec),
               default=0)
    return {"dim": space.dimension, "max_coeff_bits": bits}


def _kernel_extract(tracer, span, args, vectors):
    """Rank the invariance system again to split elimination from the
    extraction of the kernel vectors."""
    parent = span[3]
    if parent is None or tracer.spans[parent][0] != "invariants.invariant_basis":
        return None
    from jetdiff.linalg import rank

    start = speed.clock()
    rank(args[0])
    return {"rank_s": speed.clock() - start}


_HOOKS = {
    "invariants.invariance_system": _system_sizes,
    "invariants.invariant_basis": _basis_sizes,
    "linalg.nullspace": _kernel_extract,
}


def layer_metrics(spans: List[list], prime_retries: int, import_s: float,
                  scale: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one pass, except trace.overhead_s and
    jobs.known_failures, which the harness adds.

    `.s` is inclusive time, counted once where a layer calls itself;
    `.self_s` subtracts the time of child spans; `.calls` counts spans.
    A span's time is multiplied by `scale[job id]`, the factor speed.py
    found for its job; jobs `scale` does not name are not scaled.
    """
    def seconds(span):
        return (span[2] - span[1]) * scale.get(span[4], 1.0)

    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += seconds(span)
    inclusive: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, span in enumerate(spans):
        name, parent = span[0], span[3]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + seconds(span) - child_time[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] = inclusive.get(name, 0.0) + seconds(span)

    def attrs(span_name, key):
        return [span[5][key] for span in spans if span[0] == span_name and span[5]]

    out: Dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "s":
            out[metric] = inclusive.get(layer, 0.0)
        elif stat == "self_s":
            out[metric] = self_time.get(layer, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(layer, 0)
    extract = [
        seconds(span) - span[5]["rank_s"] * scale.get(span[4], 1.0)
        for span in spans
        if span[0] == "linalg.nullspace" and span[5]
    ]
    out["linalg.kernel_extract_s"] = sum(extract)
    out["linalg.prime_retries"] = prime_retries
    out["cli.import_s"] = import_s
    for key in ("rows", "cols", "nnz"):
        out[f"invariants.system.{key}"] = sum(attrs("invariants.invariance_system", key))
    out["invariants.basis.dim"] = sum(attrs("invariants.invariant_basis", "dim"))
    out["invariants.basis.max_coeff_bits"] = max(
        attrs("invariants.invariant_basis", "max_coeff_bits"), default=0)
    return out


def write_spans(path, spans: List[list]) -> None:
    """One JSON object per span; `parent` is the index of the parent span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job, attrs in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "job": job, "attrs": attrs}) + "\n")
