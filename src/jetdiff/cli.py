"""Command line front end.

Subcommands mirror the library: basis / dim / decompose / verify for the
invariant spaces, transition / associated for the matrices, v1 for the
order-1 frame certificate, theta for the threshold audit.  Every
subcommand takes --json for machine-readable output and --golden DIR to
additionally write that JSON to a deterministically named file; JSON is
byte-stable across runs.

Exit codes: 0 on success, 1 on a mathematical error (singular Jacobian,
chart breakdown, pole of the bound, weight outside the audited range),
2 on usage errors including expression syntax errors and a --golden
directory that cannot be written, 3 when a computation fails one of its
own consistency checks (for instance a basis that is not adapted to the
isotypic decomposition).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .invariants import (
    InvariantSpace,
    IrrepLabel,
    decompose,
    invariance_system,  # noqa: F401  perfbench's tracer wraps this name
    invariant_basis,
    invariant_dimension,
    irrep_partition,
    verify_invariance,
)
from .jets import JetSpec
from .linalg import rank as matrix_rank  # noqa: F401  perfbench's tracer wraps this name
from .linalg import rank_modular_check  # noqa: F401  perfbench's tracer wraps this name
from .parsing import ParseError, parse_map, parse_polynomial
from .poly import terms_str
from .transitions import (
    SplittingVerdict,
    associated_action,
    contradiction_audit,
    differential_transition,
    s_block_closure,
    splitting_check,
    v1_frame_transition,
)

PROG = "jetdiff"
# `theta --d` audits one row per degree, so its range is capped before any
# row is built.
MAX_DEGREES = 10_000


# ---- small shared helpers ----


def _fraction(text: str, column: int) -> Fraction:
    """The rational number in `text`, which starts at 1-based `column`;
    an error points at its first non-blank character."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        column += len(text) - len(text.lstrip())
        raise ParseError(f"not a rational number: {text.strip()!r}", 1, column) from exc


def _split(text: str, sep: str, column: int = 1) -> List[Tuple[str, int]]:
    """`text` split at `sep`, each piece with the 1-based column it starts at."""
    pieces = []
    for piece in text.split(sep):
        pieces.append((piece, column))
        column += len(piece) + len(sep)
    return pieces


def _parse_point(text: str, rank: int) -> List[Fraction]:
    parts = _split(text, ",")
    if len(parts) != rank:
        raise ParseError(f"expected {rank} comma-separated coordinates, got {len(parts)}", 1, 1)
    return [_fraction(p, column) for p, column in parts]


def _parse_matrix(text: str, rank: int) -> List[List[Fraction]]:
    rows = [_split(chunk, ",", column) for chunk, column in _split(text, ";")]
    if len(rows) != rank or any(len(row) != rank for row in rows):
        message = f"expected {rank} ';'-separated rows of {rank} comma-separated entries"
        raise ParseError(message, 1, 1)
    return [[_fraction(p, column) for p, column in row] for row in rows]


def _parse_degree_range(text: str) -> List[int]:
    lo_text, colon, hi_text = text.partition(":")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if colon else lo
    except ValueError as exc:
        raise ParseError(f"not a degree or degree range: {text!r}", 1, 1) from exc
    if hi < lo:
        raise ParseError(f"empty degree range {text!r}", 1, 1)
    if hi - lo + 1 > MAX_DEGREES:
        raise ParseError(
            f"degree range {text!r} has {hi - lo + 1} degrees; the limit is {MAX_DEGREES}", 1, 1
        )
    return list(range(lo, hi + 1))


def _spec(args) -> JetSpec:
    try:
        return JetSpec(args.rank, args.order, allow_large=args.allow_large)
    except ValueError as exc:
        raise ValueError(str(exc).replace("pass allow_large=True", "pass --allow-large")) from exc


def _decomposition_payload(space: InvariantSpace) -> List[Dict]:
    return [
        {"highest_weight": list(l.highest_weight), "multiplicity": l.multiplicity}
        for l in decompose(space)
    ]


def _basis_payload(space: InvariantSpace) -> List[str]:
    """The printed basis elements.  `InvariantSpace` builds each one in
    increasing column order, which is canonical order, so the terms are
    printed as they are stored, with no sort."""
    return [terms_str(q.terms.items()) for q in space.basis]


def _space_payload(space: InvariantSpace) -> Dict:
    return {
        "spec": {"rank": space.spec.rank, "order": space.spec.order},
        "weight": space.weight,
        "dimension": space.dimension,
        "basis": _basis_payload(space),
        "torus_weights": [list(w) for w in space.torus_weights()],
        "decomposition": _decomposition_payload(space) if space.spec.rank == 2 else None,
    }


def _matrix_payload(entries: Sequence[Sequence[Fraction]]) -> List[List[str]]:
    return [[str(v) for v in row] for row in entries]


def _splitting_payload(verdict: SplittingVerdict) -> Dict:
    return {
        "partition": [
            {"highest_weight": list(label.highest_weight), "indices": list(idxs)}
            for label, idxs in verdict.partition
        ],
        "splits": verdict.splits,
        "witnesses": [
            {"row": w.row, "col": w.col, "value": str(w.value)} for w in verdict.witnesses
        ],
    }


def _emit(
    args, payload: Dict, human: Callable[[Dict], str], stem: str, *digest_parts: str
) -> None:
    """Print the result: its JSON with --json, else `human(payload)`, so
    the text is built only when printed and from the payload's strings.
    With --golden also write the JSON to DIR/<stem>.json, or
    DIR/<stem>_<digest of digest_parts>.json.  The file is written first,
    so a failed write (an OSError) prints nothing."""
    text = json.dumps(payload, indent=2) + "\n" if args.json or args.golden else ""
    if args.golden:
        name = f"{stem}_{_digest(*digest_parts)}" if digest_parts else stem
        os.makedirs(args.golden, exist_ok=True)
        path = os.path.join(args.golden, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"golden output written to {path}", file=sys.stderr)
    if args.json:
        sys.stdout.write(text)
    else:
        sys.stdout.write(human(payload) + "\n")


def _digest(*parts: str) -> str:
    import hashlib  # only here: golden names need it, and it is slow to import

    h = hashlib.sha256("|".join(parts).encode("utf-8"))
    return h.hexdigest()[:8]


def _format_table(rows: List[List[str]], header: Optional[List[str]] = None) -> str:
    data = ([header] if header else []) + rows
    widths = [max(len(r[i]) for r in data) for i in range(len(data[0]))]
    lines = []
    for r in data:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    if header:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _label_str(weight: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in weight) + ")"


# ---- subcommand handlers ----


def _cmd_basis(args) -> int:
    space = invariant_basis(_spec(args), args.weight)
    stem = f"basis_r{args.rank}_k{args.order}_m{args.weight}"
    _emit(args, _space_payload(space), _basis_text, stem)
    return 0


def _basis_text(payload: Dict) -> str:
    spec = payload["spec"]
    lines = [
        f"rank {spec['rank']}, order {spec['order']}, weight {payload['weight']}",
        f"dimension: {payload['dimension']}",
        "basis:",
    ]
    for q, w in zip(payload["basis"], payload["torus_weights"]):
        lines.append(f"  [{_label_str(w)}]  {q}")
    if payload["decomposition"] is not None:
        parts = ", ".join(
            f"{_label_str(d['highest_weight'])} x{d['multiplicity']}"
            for d in payload["decomposition"]
        )
        lines.append(f"decomposition: {parts}")
    return "\n".join(lines)


def _cmd_dim(args) -> int:
    counts = invariant_dimension(_spec(args), args.weight)
    payload = {
        "spec": {"rank": args.rank, "order": args.order},
        "weight": args.weight,
        "num_monomials": counts.num_monomials,
        "system_shape": [counts.rows, counts.num_monomials],
        "system_rank": counts.rank,
        # no modular rank is computed: the key repeats the exact rank and
        # is kept for the bytes of the output and of the golden files
        "system_rank_modular": counts.rank,
        "dimension": counts.dimension,
    }
    _emit(args, payload, _dim_text, f"dim_r{args.rank}_k{args.order}_m{args.weight}")
    return 0


def _dim_text(payload: Dict) -> str:
    spec = payload["spec"]
    return (
        f"rank {spec['rank']}, order {spec['order']}, weight {payload['weight']}: "
        f"{payload['num_monomials']} monomials, system rank {payload['system_rank']} "
        f"(modular check {payload['system_rank_modular']}), dimension {payload['dimension']}"
    )


def _cmd_decompose(args) -> int:
    space = invariant_basis(_spec(args), args.weight)
    payload = {
        "spec": {"rank": space.spec.rank, "order": space.spec.order},
        "weight": space.weight,
        "dimension": space.dimension,
        "decomposition": _decomposition_payload(space),
    }
    _emit(args, payload, _decompose_text, f"decompose_r{args.rank}_k{args.order}_m{args.weight}")
    return 0


def _decompose_text(payload: Dict) -> str:
    parts = []
    for d in payload["decomposition"]:
        label = IrrepLabel(tuple(d["highest_weight"]), d["multiplicity"])
        parts.append(
            f"{_label_str(label.highest_weight)} x{label.multiplicity} (dim {label.dimension()})"
        )
    return f"dimension {payload['dimension']} = " + " + ".join(parts)


def _cmd_verify(args) -> int:
    spec = _spec(args)
    poly = parse_polynomial(args.poly, spec)
    verdict = verify_invariance(poly, spec)
    payload = {
        "spec": {"rank": spec.rank, "order": spec.order},
        "polynomial": str(poly),
        "invariant": verdict.invariant,
        "weight": verdict.weight,
        "residual": None if verdict.residual is None else str(verdict.residual),
    }
    _emit(args, payload, _verify_text, f"verify_r{args.rank}_k{args.order}", args.poly)
    return 0


def _verify_text(payload: Dict) -> str:
    if payload["invariant"]:
        return f"invariant of weight {payload['weight']}"
    return f"not invariant (weight {payload['weight']}); residual: {payload['residual']}"


def _cmd_transition(args) -> int:
    spec = _spec(args)
    psi = parse_map(args.map, spec.rank)
    point = _parse_point(args.point, spec.rank)
    space = invariant_basis(spec, args.weight)
    tm = differential_transition(space, psi, point)
    partition = irrep_partition(space)
    verdict = splitting_check(tm, partition)
    closure = s_block_closure(tm)
    payload = {
        "spec": {"rank": spec.rank, "order": spec.order},
        "weight": space.weight,
        "psi": str(psi),
        "basepoint": [str(v) for v in point],
        "basis": _basis_payload(space),
        "matrix": _matrix_payload(tm.entries),
        "splitting": _splitting_payload(verdict),
        "first_order_block_closed": closure.closed,
    }
    stem = f"transition_r{args.rank}_k{args.order}_m{args.weight}"
    _emit(args, payload, _transition_text, stem, args.map, args.point)
    return 0


def _transition_text(payload: Dict) -> str:
    splitting = payload["splitting"]
    lines = [
        f"transition of the weight-{payload['weight']} invariants under {payload['psi']} at "
        f"({', '.join(payload['basepoint'])})",
        _format_table(payload["matrix"]),
        "splits: " + ("yes" if splitting["splits"] else "no"),
    ]
    if not splitting["splits"]:
        w = splitting["witnesses"][0]
        lines.append(
            f"witness: entry ({w['row']}, {w['col']}) = {w['value']} crosses "
            f"from block {_block_of(splitting, w['col'])} "
            f"into block {_block_of(splitting, w['row'])}"
        )
    lines.append(
        "pure first-derivative block closed: "
        + ("yes" if payload["first_order_block_closed"] else "NO (bug)")
    )
    return "\n".join(lines)


def _block_of(splitting: Dict, index: int) -> str:
    for block in splitting["partition"]:
        if index in block["indices"]:
            return _label_str(block["highest_weight"])
    raise ValueError(f"index {index} not in partition")


def _cmd_associated(args) -> int:
    spec = _spec(args)
    g = _parse_matrix(args.matrix, spec.rank)
    space = invariant_basis(spec, args.weight)
    tm = associated_action(g, space)
    payload = {
        "spec": {"rank": spec.rank, "order": spec.order},
        "weight": space.weight,
        "group_element": _matrix_payload(g),
        "basis": _basis_payload(space),
        "matrix": _matrix_payload(tm.entries),
    }
    stem = f"associated_r{args.rank}_k{args.order}_m{args.weight}"
    _emit(args, payload, _associated_text, stem, args.matrix)
    return 0


def _associated_text(payload: Dict) -> str:
    return (
        f"fiberwise action on the weight-{payload['weight']} invariants\n"
        + _format_table(payload["matrix"])
    )


def _cmd_v1(args) -> int:
    psi = parse_map(args.map, 2)
    point = _parse_point(args.point, 2)
    slope = _fraction(args.slope, 1)
    matrix, flag = v1_frame_transition(psi, point, slope)
    payload = {
        "psi": str(psi),
        "point": [str(v) for v in point],
        "slope": str(slope),
        "matrix": _matrix_payload(matrix),
        "uses_second_derivatives": flag,
    }
    _emit(args, payload, _v1_text, "v1", args.map, args.point, args.slope)
    return 0


def _v1_text(payload: Dict) -> str:
    return (
        _format_table(payload["matrix"])
        + "\nsecond derivatives of the coordinate change enter: "
        + ("yes" if payload["uses_second_derivatives"] else "no")
    )


def _cmd_theta(args) -> int:
    degrees = _parse_degree_range(args.d)
    upper = _fraction(args.upper_bound, 1)
    rows = contradiction_audit(degrees, args.m, upper)
    payload = {
        "weight": args.m,
        "upper_bound": str(upper),
        "rows": [
            {
                "degree": r.degree,
                "lower_bound": str(r.lower_bound),
                "lower_bound_decimal": float(r.lower_bound),
                "contradiction": r.contradiction,
            }
            for r in rows
        ],
    }
    _emit(args, payload, _theta_text, f"theta_m{args.m}_d{degrees[0]}_{degrees[-1]}")
    return 0


def _theta_text(payload: Dict) -> str:
    return _format_table(
        [
            [
                str(r["degree"]),
                r["lower_bound"],
                f"{r['lower_bound_decimal']:+.6f}",
                payload["upper_bound"],
                "CONTRADICTION" if r["contradiction"] else "consistent",
            ]
            for r in payload["rows"]
        ],
        header=["d", "lower", "lower (dec)", "upper", "verdict"],
    )


# ---- parser wiring ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Exact computation of reparametrization-invariant jet differentials, "
            "their decomposition into irreducibles, and their behavior under "
            "polynomial coordinate changes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit canonical JSON")
    output.add_argument(
        "--golden",
        metavar="DIR",
        help="also write the canonical JSON to DIR under a deterministic name",
    )

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--rank", type=int, required=True, help="number of curve components")
    shape.add_argument("--order", type=int, required=True, help="jet order")
    shape.add_argument(
        "--allow-large",
        action="store_true",
        help="override the rank<=4, order<=4 guardrail",
    )

    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument("--weight", type=int, required=True, help="weighted degree")

    p = sub.add_parser(
        "basis",
        parents=[shape, weight, output],
        help="canonical basis of the invariant space, with torus weights",
    )
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser(
        "dim",
        parents=[shape, weight, output],
        help="dimension via series substitution, each block's kernel checked exactly",
    )
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "decompose",
        parents=[shape, weight, output],
        help="irreducible constituents (two components only)",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "verify",
        parents=[shape, output],
        help="check one polynomial for invariance under the formal action",
    )
    p.add_argument("--poly", required=True, help="polynomial, e.g. \"f1'*f2'' - f2'*f1''\"")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "transition",
        parents=[shape, weight, output],
        help="matrix of a polynomial coordinate change on the invariant space",
    )
    p.add_argument("--map", required=True, help='coordinate change, e.g. "w1 = z1; w2 = z2 + z1^2"')
    p.add_argument("--point", required=True, help='basepoint, e.g. "0,0"')
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser(
        "associated",
        parents=[shape, weight, output],
        help="matrix of the naive fiberwise action of a constant matrix",
    )
    p.add_argument("--matrix", required=True, help='matrix rows, e.g. "1,0;0,1"')
    p.set_defaults(func=_cmd_associated)

    p = sub.add_parser(
        "v1",
        parents=[output],
        help="order-1 frame transition on the direction bundle (two components)",
    )
    p.add_argument("--map", required=True, help='coordinate change, e.g. "w1 = z1; w2 = z2 + z1^2"')
    p.add_argument("--point", required=True, help='base point, e.g. "0,0"')
    p.add_argument("--slope", default="0", help="direction coordinate xi (default 0)")
    p.set_defaults(func=_cmd_v1)

    p = sub.add_parser(
        "theta",
        parents=[output],
        help="exact threshold lower bounds against a splitting upper bound",
    )
    p.add_argument("--d", required=True, help='surface degree or range, e.g. "6:20"')
    p.add_argument("--m", type=int, default=3, help="weight (3, 4 or 5; default 3)")
    p.add_argument(
        "--upper-bound",
        default="-1/3",
        help="upper bound to audit against (default -1/3)",
    )
    p.set_defaults(func=_cmd_theta)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the --golden file could not be written
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
