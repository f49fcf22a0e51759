"""Job lists of the benchmark workloads, generated from a seed.

A job is one jetdiff command line.  The shapes of every workload are
fixed; the seed picks the coordinate maps, basepoints, group elements,
`verify` polynomials and the order of the jobs within a pass.  Seeded maps
come from families whose members cost the same to process (same monomial
pattern, coefficients and basepoint coordinates of magnitude 1), so the
seed changes the inputs without changing the amount of work.

`Job.expect` names the checks `checks.py` applies to the job's output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SHEAR = "w1 = z1; w2 = z2 + z1^2"

# Substring of the error the order-3 `transition` jobs raise until the
# isotypic splitting is fixed at order >= 3.
ISOTYPIC_ERROR = "lie in no single isotypic span"


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    argv: Tuple[str, ...]
    # Fixed jobs do not depend on the seed: their stdout is pinned by sha256.
    fixed: bool = False
    expect: Dict = field(default_factory=dict)


def _shape(cmd: str, rank: int, order: int, weight: int = None) -> List[str]:
    argv = [cmd, "--rank", str(rank), "--order", str(order)]
    if weight is not None:
        argv += ["--weight", str(weight)]
    return argv


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _point(rng: random.Random) -> str:
    # seeded values are passed as --flag=X: argparse takes a leading "-" for an option
    return f"{_sign(rng)},{_sign(rng)}"


def _nonlinear_map(rng: random.Random) -> Tuple[str, str]:
    """(map, basepoint): w1 = z1 + s*z2^2; w2 = z2 + t*z1^2 at a point p
    with coordinates +-1, always with s*p1 = 1 and t*p2 = -1.  The seed
    picks p; the members differ by sign flips of the coordinates, so they
    cost the same, and the Jacobian (determinant 5) is never singular."""
    p1, p2 = _sign(rng), _sign(rng)
    s, t = ("+" if v > 0 else "-" for v in (p1, -p2))
    return f"w1 = z1 {s} z2^2; w2 = z2 {t} z1^2", f"{p1},{p2}"


def _linear(rng: random.Random) -> Tuple[str, str]:
    """An upper triangular matrix with entries +-1 as (map text, matrix text)."""
    a, b, c = _sign(rng), _sign(rng), _sign(rng)
    g = [[a, b], [0, c]]

    def form(row):
        terms = " + ".join(f"{v}*z{j}" for j, v in enumerate(row, start=1) if v)
        return terms.replace("+ -", "- ")

    map_text = f"w1 = {form(g[0])}; w2 = {form(g[1])}"
    matrix_text = ";".join(",".join(str(v) for v in row) for row in g)
    return map_text, matrix_text


def _wronskian(i: int, j: int) -> str:
    return f"(f{i}'*f{j}'' - f{j}'*f{i}'')"


def verify_polynomial(rng: random.Random, rank: int, weight: int, invariant: bool) -> str:
    """A weight-homogeneous order-2 polynomial whose invariance is known.

    Products of first derivatives and Wronskians are invariant, and so is
    any combination of them.  Adding f1'^(m-2)*f1'' breaks invariance:
    its image picks up 2*a2*a1^(m-2)*f1'^(m-1), which nothing cancels.
    """
    terms = []
    for _ in range(3):
        wr = rng.randint(0, weight // 3)
        factors = []
        if wr:
            i, j = sorted(rng.sample(range(1, rank + 1), 2))
            factors.append(f"{_wronskian(i, j)}^{wr}")
        for _ in range(weight - 3 * wr):
            factors.append(f"f{rng.randint(1, rank)}'")
        coeff = rng.choice((1, 2, 3, 5)) * _sign(rng)
        terms.append(f"{coeff}*" + "*".join(factors))
    if not invariant:
        terms.append(f"{rng.choice((1, 2, 3))}*f1'^{weight - 2}*f1''")
    return " + ".join(terms).replace("+ -", "- ")


def _transition(job_id: str, rank: int, order: int, weight: int, map_text: str,
                point: str, **expect) -> Job:
    argv = _shape("transition", rank, order, weight) + ["--map", map_text, f"--point={point}", "--json"]
    return Job(job_id, "transition", tuple(argv), expect=expect)


def _associated(job_id: str, rank: int, order: int, weight: int, matrix: str, **expect) -> Job:
    argv = _shape("associated", rank, order, weight) + [f"--matrix={matrix}", "--json"]
    return Job(job_id, "associated", tuple(argv), expect=expect)


def _linear_pair(rng: random.Random, order: int, weight: int) -> List[Job]:
    """A linear `transition` and the `associated` action of its Jacobian,
    which must produce the same matrix; a linear map splits."""
    map_text, matrix = _linear(rng)
    tag = f"r2k{order}m{weight}"
    return [
        _transition(f"transition-linear-{tag}", 2, order, weight, map_text, _point(rng),
                    equals=f"associated-{tag}", splits=True),
        _associated(f"associated-{tag}", 2, order, weight, matrix),
    ]


def _basis(rank: int, order: int, weight: int, json_out: bool = True, **expect) -> Job:
    argv = _shape("basis", rank, order, weight) + (["--json"] if json_out else [])
    suffix = "" if json_out else "-text"
    return Job(f"basis-r{rank}k{order}m{weight}{suffix}", "basis", tuple(argv), fixed=True,
               expect=expect)


def _dim(rank: int, order: int, weight: int) -> Job:
    argv = _shape("dim", rank, order, weight) + ["--json"]
    return Job(f"dim-r{rank}k{order}m{weight}", "dim", tuple(argv), fixed=True)


def _verify(rng: random.Random, rank: int, weight: int, invariant: bool, n: int) -> Job:
    poly = verify_polynomial(rng, rank, weight, invariant)
    tag = "inv" if invariant else "noninv"
    argv = _shape("verify", rank, 2) + [f"--poly={poly}", "--json"]
    return Job(f"verify-r{rank}k2m{weight}-{tag}-{n}", "verify", tuple(argv),
               expect={"invariant": invariant})


def _basis_ladder(rng: random.Random) -> List[Job]:
    return [
        _basis(2, 4, 12, combo=True),
        _basis(4, 3, 7, combo=True),
        _basis(3, 4, 9, combo=True),
        _dim(2, 4, 12),
        _transition("transition-r2k2m14", 2, 2, 14, *_nonlinear_map(rng)),
        _associated("associated-r2k4m10", 2, 4, 10, _linear(rng)[1], library_check=True),
        _verify(rng, 3, 9, invariant=True, n=0),
    ]


def _transition_ladder(rng: random.Random) -> List[Job]:
    jobs = [
        _transition("transition-r2k2m12", 2, 2, 12, *_nonlinear_map(rng)),
        _transition("transition-r2k2m16", 2, 2, 16, *_nonlinear_map(rng)),
        *_linear_pair(rng, 2, 20),
        _basis(2, 4, 10, combo=True),
        _dim(2, 4, 10),
        _verify(rng, 2, 12, invariant=False, n=0),
    ]
    for weight in (6, 8):
        jobs.append(_transition(f"transition-r2k3m{weight}", 2, 3, weight,
                                *_nonlinear_map(rng), known_failure=ISOTYPIC_ERROR))
    return jobs


# Calls that must fail with a documented exit code and print nothing on stdout.
_ERROR_CALLS: Tuple[Tuple[str, int, Tuple[str, ...]], ...] = (
    ("syntax", 2, ("verify", "--rank", "2", "--order", "2", "--poly", "f1'*(")),
    ("bad-component", 2, ("verify", "--rank", "2", "--order", "2", "--poly", "f3'")),
    ("unknown-command", 2, ("bogus",)),
    ("missing-weight", 2, ("basis", "--rank", "2", "--order", "2")),
    ("bad-point", 2, ("transition", "--rank", "2", "--order", "2", "--weight", "3",
                      "--map", SHEAR, "--point", "1,2,3")),
    ("missing-component", 2, ("transition", "--rank", "2", "--order", "2", "--weight", "3",
                              "--map", "w1 = z1", "--point", "0,0")),
    ("bad-matrix", 2, ("associated", "--rank", "2", "--order", "2", "--weight", "3",
                       "--matrix", "1,x;0,1")),
    ("bad-slope", 2, ("v1", "--map", SHEAR, "--point", "0,0", "--slope", "abc")),
    ("empty-range", 2, ("theta", "--d", "9:3")),
    ("singular-map", 1, ("transition", "--rank", "2", "--order", "2", "--weight", "3",
                         "--map", "w1 = z1; w2 = z1", "--point", "0,0")),
    ("guardrail", 1, ("basis", "--rank", "5", "--order", "2", "--weight", "3")),
    ("negative-weight", 1, ("basis", "--rank", "2", "--order", "2", "--weight", "-1")),
    ("mixed-weight", 1, ("verify", "--rank", "2", "--order", "2", "--poly", "f1' + f1''")),
    ("singular-matrix", 1, ("associated", "--rank", "2", "--order", "2", "--weight", "3",
                            "--matrix", "1,1;1,1")),
    ("theta-weight", 1, ("theta", "--d", "6", "--m", "7")),
    ("chart", 1, ("v1", "--map", "w1 = z2; w2 = z1", "--point", "0,0", "--slope", "0")),
)

# Calls whose stdout must equal a file in tests/golden byte for byte.
_GOLDEN_CALLS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("basis_r2_k2_m3.json", ("basis", "--rank", "2", "--order", "2", "--weight", "3", "--json")),
    ("decompose_r2_k2_m6.json", ("decompose", "--rank", "2", "--order", "2", "--weight", "6", "--json")),
    ("transition_r2_k2_m3_c5805508.json", ("transition", "--rank", "2", "--order", "2",
                                            "--weight", "3", "--map", SHEAR, "--point", "0,0",
                                            "--json")),
    ("v1_3f387c9d.json", ("v1", "--map", SHEAR, "--point", "0,0", "--slope", "0", "--json")),
    ("theta_m3_d6_20.json", ("theta", "--d", "6:20", "--json")),
)


def _cli_small(rng: random.Random) -> List[Job]:
    jobs = [Job(f"golden-{name}", argv[0], argv, fixed=True, expect={"golden": name})
            for name, argv in _GOLDEN_CALLS]
    for rank, order, weight in ((2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7), (1, 3, 6),
                                (3, 2, 4), (2, 3, 5)):
        jobs.append(_basis(rank, order, weight, json_out=False))
    jobs += [_basis(2, 2, 8), _basis(3, 3, 4)]
    for rank, order, weight in ((2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 2, 8),
                                (2, 3, 6), (3, 3, 5), (4, 2, 4)):
        jobs.append(_dim(rank, order, weight))
    for order, weight in ((2, 4), (2, 5), (2, 7), (2, 8), (3, 4)):
        argv = _shape("decompose", 2, order, weight)
        jobs.append(Job(f"decompose-r2k{order}m{weight}", "decompose", tuple(argv), fixed=True))
    for d, m in (("6:30", "4"), ("7:30", "5"), ("7", "3")):
        jobs.append(Job(f"theta-m{m}-d{d}", "theta", ("theta", "--d", d, "--m", m), fixed=True))
    n = 0
    for rank, weight in ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 6)):
        for invariant in (True, False):
            for _ in range(2):
                jobs.append(_verify(rng, rank, weight, invariant, n))
                n += 1
    for weight in (3, 4, 5, 6, 7, 8):
        for copy in (0, 1):
            jobs.append(_transition(f"transition-r2k2m{weight}-{copy}", 2, 2, weight,
                                    *_nonlinear_map(rng)))
    for weight in (3, 4, 5, 6):
        jobs += _linear_pair(rng, 2, weight)
    for copy in range(4):
        map_text, _ = _linear(rng)
        jobs.append(_v1(f"v1-linear-{copy}", map_text, rng, second_derivatives=False))
        shear = f"w1 = z1; w2 = z2 {'+' if _sign(rng) > 0 else '-'} {rng.randint(1, 3)}*z1^2"
        jobs.append(_v1(f"v1-shear-{copy}", shear, rng, second_derivatives=True))
    for name, rc, argv in _ERROR_CALLS:
        jobs.append(Job(f"error-{name}", "error", argv, fixed=True, expect={"rc": rc}))
    return jobs


def _v1(job_id: str, map_text: str, rng: random.Random, second_derivatives: bool) -> Job:
    slope = rng.choice(("0", "1/2", "-1/2", "2"))
    argv = ("v1", "--map", map_text, f"--point={_point(rng)}", f"--slope={slope}", "--json")
    return Job(job_id, "v1", argv, expect={"second_derivatives": second_derivatives})


def _selftest(rng: random.Random) -> List[Job]:
    """A few quick jobs covering every check; used by the harness self-test."""
    name, argv = _GOLDEN_CALLS[2]
    return [
        _basis(2, 2, 6, combo=True),
        _dim(2, 2, 6),
        Job(f"golden-{name}", argv[0], argv, fixed=True, expect={"golden": name}),
        *_linear_pair(rng, 2, 4),
        _transition("transition-r2k2m5", 2, 2, 5, *_nonlinear_map(rng)),
        _associated("associated-r2k3m5", 2, 3, 5, _linear(rng)[1], library_check=True),
        _verify(rng, 2, 5, invariant=False, n=0),
    ]


GENERATORS = {
    "basis-ladder": _basis_ladder,
    "transition-ladder": _transition_ladder,
    "cli-small": _cli_small,
    "selftest": _selftest,
}

# Workloads whose jobs run as `python -m jetdiff` subprocesses; the others
# call jetdiff.cli.main in one fresh interpreter per pass.
SUBPROCESS_WORKLOADS = {"cli-small"}


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The job list of one pass, in the order the seed picks."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    ids = [job.id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate job ids in workload {workload}")
    rng.shuffle(jobs)
    return jobs
