"""Tests for the command line interface: schema, determinism, exit codes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetdiff
from jetdiff import invariants, linalg
from jetdiff.cli import _digest, main
from jetdiff.invariants import decompose, enumerate_monomials, invariance_system, invariant_basis
from jetdiff.jets import JetSpec

GOLDEN_DIR = Path(__file__).parent / "golden"

# The directory holding the jetdiff under test, for subprocesses.
SRC = str(Path(jetdiff.__file__).resolve().parent.parent)

SHEAR = "w1 = z1; w2 = z2 + z1^2"


def run_module(*argv):
    """`python -m jetdiff` in a subprocess importing the jetdiff under test."""
    return subprocess.run(
        [sys.executable, "-m", "jetdiff", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_basis_json_schema(capsys):
    payload = run_json(capsys, ["basis", "--rank", "2", "--order", "2", "--weight", "3"])
    assert payload["spec"] == {"rank": 2, "order": 2}
    assert payload["weight"] == 3
    assert payload["dimension"] == 5
    assert payload["basis"] == [
        "f1'^3",
        "f1'^2*f2'",
        "f1'*f2'^2",
        "f2'^3",
        "f1'*f2'' - f2'*f1''",
    ]
    assert payload["torus_weights"] == [[3, 0], [2, 1], [1, 2], [0, 3], [1, 1]]
    assert payload["decomposition"] == [
        {"highest_weight": [3, 0], "multiplicity": 1},
        {"highest_weight": [1, 1], "multiplicity": 1},
    ]


def test_basis_human_output(capsys):
    assert main(["basis", "--rank", "2", "--order", "2", "--weight", "3"]) == 0
    out = capsys.readouterr().out
    assert "dimension: 5" in out
    assert "f1'*f2'' - f2'*f1''" in out
    assert "decomposition: (3,0) x1, (1,1) x1" in out


def test_dim_cross_checks_rank(capsys):
    payload = run_json(capsys, ["dim", "--rank", "2", "--order", "2", "--weight", "3"])
    assert payload["num_monomials"] == 8
    assert payload["system_shape"] == [3, 8]
    assert payload["system_rank"] == 3
    assert payload["system_rank_modular"] == 3
    assert payload["dimension"] == 5


def test_dim_rank_matches_fraction_rank(capsys):
    # dim reads its rank off a checked modular kernel; the Fraction rank of
    # the same system is the reference, zero rows (order 1) and weight 0
    # included.
    # dim solves the dominant torus blocks only, so the shape is an
    # orbit-weighted row count that must match the whole system's.
    for r, k, m in itertools.product(range(1, 5), range(1, 5), range(7)):
        payload = run_json(capsys, ["dim", "--rank", str(r), "--order", str(k), "--weight", str(m)])
        system = invariance_system(JetSpec(r, k), m)
        assert all(type(v) is int for row in system.rows for v in row.values()), (r, k, m)
        exact = linalg.rank(system)
        assert payload["system_rank"] == payload["system_rank_modular"] == exact, (r, k, m)
        assert payload["system_shape"] == [system.nrows, system.ncols], (r, k, m)
        assert payload["dimension"] == payload["num_monomials"] - exact


def test_dim_at_ladder_shapes(capsys):
    # The benchmark's ladder shapes, pinned from the output of dim before
    # its system was built on packed integers, so these counts do not rest
    # on invariance_system, which shares dim's system builder.
    pinned = {
        (2, 4, 12): (685, [3093, 685], 608, 77),
        (3, 4, 9): (1221, [2507, 1221], 907, 314),
        (4, 3, 7): (1004, [1110, 1004], 585, 419),
    }
    for (r, k, m), (monomials, shape, rank, dimension) in pinned.items():
        payload = run_json(capsys, ["dim", "--rank", str(r), "--order", str(k), "--weight", str(m)])
        assert payload["num_monomials"] == monomials, (r, k, m)
        assert payload["system_shape"] == shape, (r, k, m)
        assert payload["system_rank"] == payload["system_rank_modular"] == rank, (r, k, m)
        assert payload["dimension"] == dimension, (r, k, m)


def dominant_weights(spec, m):
    """The sorted component counts of the weight-m monomials."""
    dominant = set()
    for mono in enumerate_monomials(spec, m):
        counts = [0] * spec.rank
        for v, e in mono:
            counts[v.comp - 1] += e
        dominant.add(tuple(sorted(counts, reverse=True)))
    return dominant


def test_orbit_route_solves_dominant_blocks_only(capsys, monkeypatch):
    # At r4k3m7, 123 of the 1,004 monomials lie in dominant torus blocks
    # (weakly decreasing component counts).  dim and invariant_basis both
    # take one kernel per dominant weight, on the same blocks, so no dim
    # matrix is wider than its largest block.
    seen = []
    nullspace = invariants.nullspace

    def counted(matrix, **kwargs):
        seen.append(matrix.ncols)
        return nullspace(matrix, **kwargs)

    monkeypatch.setattr(invariants, "nullspace", counted)
    payload = run_json(capsys, ["dim", "--rank", "4", "--order", "3", "--weight", "7"])
    assert payload["num_monomials"] == 1004
    from_dim = list(seen)
    seen.clear()
    invariant_basis(JetSpec(4, 3), 7)
    assert from_dim == seen
    assert len(seen) == len(dominant_weights(JetSpec(4, 3), 7))
    assert sum(seen) == 123


def test_dim_eliminates_once_per_block(capsys, monkeypatch):
    # Per dominant block, one kernel modulo 2**61 - 1 and nothing else: no
    # Fraction elimination, no 31-bit prime.  The block systems are built
    # with int entries, so the kernel neither clears nor copies a row:
    # each block's rows are cleared to integers at most once, where they
    # are built.
    primes = []
    calls = []
    eliminate = linalg._eliminate
    integer_rows = linalg._integer_rows

    def spy(rows, prime=0):
        primes.append(prime)
        return eliminate(rows, prime)

    def rows_spy(rows):
        out = integer_rows(rows)
        given = {id(row) for row in rows}
        calls.append(all(id(row) in given for row in out))
        return out

    monkeypatch.setattr(linalg, "_eliminate", spy)
    monkeypatch.setattr(linalg, "_integer_rows", rows_spy)
    run_json(capsys, ["dim", "--rank", "2", "--order", "4", "--weight", "12"])
    blocks = len(dominant_weights(JetSpec(2, 4), 12))
    assert blocks == 45
    assert primes == [2**61 - 1] * blocks
    assert calls == [True] * blocks


@pytest.mark.parametrize("prime", [3, 101])
def test_dim_is_exact_at_small_kernel_primes(capsys, monkeypatch, caplog, prime):
    # `dim` takes each block's rank from the checked kernel alone.  Modulo
    # 3 the rank drops in 32 of r2k4m12's 45 dominant blocks; modulo 101
    # entries outgrow the reconstruction bound.  Either way those blocks
    # get no checked kernel and fall back to Fraction elimination, and the
    # counts must still be exact.
    shapes = [("2", "2", "6"), ("2", "4", "8"), ("3", "3", "6"), ("2", "4", "12")]

    def dim(shape):
        r, k, m = shape
        return run_json(capsys, ["dim", "--rank", r, "--order", k, "--weight", m])

    expected = [dim(shape) for shape in shapes]
    monkeypatch.setattr(linalg, "_KERNEL_PRIME", prime)
    with caplog.at_level("INFO", logger="jetdiff.linalg"):
        assert [dim(shape) for shape in shapes] == expected
    assert any("retrying" in record.getMessage() for record in caplog.records)


def test_decompose_json(capsys):
    payload = run_json(capsys, ["decompose", "--rank", "2", "--order", "2", "--weight", "6"])
    assert payload["dimension"] == 12
    assert [tuple(d["highest_weight"]) for d in payload["decomposition"]] == [
        (6, 0),
        (4, 1),
        (2, 2),
    ]


def test_decompose_and_partition_eliminate_nothing(monkeypatch):
    # `decompose` and `irrep_partition` read the labels off torus-block
    # sizes after a span check of the raised vectors, with no `nullspace`
    # and no coordinate solve; raising and lowering share one packed
    # column index, built on the first move.
    space = invariant_basis(JetSpec(2, 2), 20)
    calls = {"nullspace": 0, "solve_in_span": 0, "_column_index": 0}
    for name in calls:

        def spy(*args, name=name, original=getattr(invariants, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(invariants, name, spy)
    labels = decompose(space)
    partition = invariants.irrep_partition(space)
    assert [label for label, _ in partition] == labels and len(labels) == 7
    assert calls == {"nullspace": 0, "solve_in_span": 0, "_column_index": 1}


def leak_raising(monkeypatch, source, target):
    """Make raising add one monomial of torus weight `target` with a second
    derivative to the image of the basis vector of torus weight `source`.

    D1 sends such a monomial to a sum of distinct monomials with positive
    coefficients, so it is not invariant, and the image leaves the span
    of the basis."""
    root_move = invariants._root_move

    def leaky(space, vectors, from_comp, to_comp):
        out = root_move(space, vectors, from_comp, to_comp)
        if (from_comp, to_comp) == (2, 1):
            col = next(
                c
                for c, mono in enumerate(space.monomials)
                if invariants._mono_torus_weight(mono, 2) == target
                and any(v.order == 2 for v, _ in mono)
            )
            idx = space.torus_weights().index(source)
            out[idx] = {**out[idx], col: out[idx].get(col, 0) + 1}
        return out

    monkeypatch.setattr(invariants, "_root_move", leaky)


def test_decompose_rejects_raising_out_of_span(capsys, monkeypatch):
    # At r2k2m6 the one basis vector of torus weight (3, 2) is raised into
    # the block (4, 1), and its image gains a monomial of that block.  Both
    # `decompose` and `transition` (through `irrep_partition`) exit 3,
    # naming the weight.
    leak_raising(monkeypatch, (3, 2), (4, 1))
    with pytest.raises(RuntimeError, match=r"left the invariant span at torus weight \(3, 2\)"):
        decompose(invariant_basis(JetSpec(2, 2), 6))
    shape = ["--rank", "2", "--order", "2", "--weight", "6"]
    for argv in (["decompose", *shape], ["transition", *shape, "--map", SHEAR, "--point", "0,0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3, argv
        assert captured.out == ""
        assert captured.err.startswith("jetdiff: ") and captured.err.count("\n") == 1
        assert "left the invariant span at torus weight (3, 2)" in captured.err


def test_decompose_rejects_raising_into_an_empty_block(monkeypatch):
    # The vector of torus weight (4, 1) is a highest-weight vector and
    # raises to 0; no basis vector has weight (5, 0), so the leaked
    # monomial there leaves the (empty) span.
    leak_raising(monkeypatch, (4, 1), (5, 0))
    with pytest.raises(RuntimeError, match=r"left the invariant span at torus weight \(4, 1\)"):
        decompose(invariant_basis(JetSpec(2, 2), 6))


def test_verify_json_not_invariant(capsys):
    payload = run_json(
        capsys, ["verify", "--rank", "1", "--order", "2", "--poly", "f1'*f1''"]
    )
    assert payload["invariant"] is False
    assert payload["weight"] == 3
    assert payload["residual"] == "2*f1'^2*a1*a2"


def test_verify_json_invariant(capsys):
    payload = run_json(
        capsys,
        ["verify", "--rank", "2", "--order", "2", "--poly", "f1'*f2'' - f2'*f1''"],
    )
    assert payload["invariant"] is True
    assert payload["residual"] is None
    # Demailly's order-3 invariant W1 = f1'*W' - 3*f1''*W, W the Wronskian
    w1 = "f1'*(f1'*f2''' - f2'*f1''') - 3*f1''*(f1'*f2'' - f2'*f1'')"
    payload = run_json(capsys, ["verify", "--rank", "2", "--order", "3", "--poly", w1])
    assert payload["invariant"] is True
    assert payload["weight"] == 5


def test_transition_json(capsys):
    payload = run_json(
        capsys,
        [
            "transition",
            "--rank", "2",
            "--order", "2",
            "--weight", "3",
            "--map", SHEAR,
            "--point", "0,0",
        ],
    )
    assert payload["matrix"][0] == ["1", "0", "0", "0", "2"]
    assert payload["splitting"]["splits"] is False
    assert payload["splitting"]["witnesses"] == [{"row": 0, "col": 4, "value": "2"}]
    assert payload["first_order_block_closed"] is True


def test_associated_json(capsys):
    payload = run_json(
        capsys,
        [
            "associated",
            "--rank", "2",
            "--order", "2",
            "--weight", "3",
            "--matrix", "2,0;0,3",
        ],
    )
    diag = [payload["matrix"][i][i] for i in range(5)]
    assert diag == ["8", "12", "18", "27", "6"]


def test_transition_keeps_map_terms_above_the_order_away_from_the_origin(capsys):
    # At order 1 the transition depends only on the Jacobian, here
    # [[1, 4], [0, 1]] at (1, 1); the z2^4 term that produces the 4 has
    # degree above order + 1 and must survive parsing.
    shape = ["--rank", "2", "--order", "1", "--weight", "2"]
    moved = run_json(
        capsys,
        ["transition", *shape, "--map", "w1 = z1 + z2^4; w2 = z2", "--point", "1,1"],
    )
    linear = run_json(capsys, ["associated", *shape, "--matrix", "1,4;0,1"])
    assert moved["matrix"] == linear["matrix"]
    assert moved["psi"] == "w1 = z2^4 + z1; w2 = z2"


def test_v1_json(capsys):
    payload = run_json(capsys, ["v1", "--map", SHEAR, "--point", "0,0", "--slope", "0"])
    assert payload["matrix"] == [["1", "2"], ["0", "1"]]
    assert payload["uses_second_derivatives"] is True


def test_theta_json(capsys):
    payload = run_json(capsys, ["theta", "--d", "6:8"])
    assert payload["weight"] == 3
    assert payload["upper_bound"] == "-1/3"
    assert [r["degree"] for r in payload["rows"]] == [6, 7, 8]
    assert payload["rows"][0]["lower_bound"] == "1/4"
    assert all(r["contradiction"] for r in payload["rows"])


def test_json_is_byte_stable_across_runs(capsys):
    argv = ["dim", "--rank", "2", "--order", "2", "--weight", "5", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


GOLDEN_CASES = [
    (
        "basis_r2_k2_m3.json",
        ["basis", "--rank", "2", "--order", "2", "--weight", "3"],
    ),
    (
        "decompose_r2_k2_m6.json",
        ["decompose", "--rank", "2", "--order", "2", "--weight", "6"],
    ),
    (
        f"transition_r2_k2_m3_{_digest(SHEAR, '0,0')}.json",
        [
            "transition",
            "--rank", "2",
            "--order", "2",
            "--weight", "3",
            "--map", SHEAR,
            "--point", "0,0",
        ],
    ),
    (
        f"v1_{_digest(SHEAR, '0,0', '0')}.json",
        ["v1", "--map", SHEAR, "--point", "0,0", "--slope", "0"],
    ),
    (
        "theta_m3_d6_20.json",
        ["theta", "--d", "6:20"],
    ),
    # the ladder shapes whose bytes the benchmark also pins
    (
        "dim_r2_k4_m10.json",
        ["dim", "--rank", "2", "--order", "4", "--weight", "10"],
    ),
    (
        "basis_r2_k4_m10.json",
        ["basis", "--rank", "2", "--order", "4", "--weight", "10"],
    ),
    # rank 4: the orbit copies include one-vector and two-vector kernels
    (
        "basis_r4_k3_m4.json",
        ["basis", "--rank", "4", "--order", "3", "--weight", "4"],
    ),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_files(capsys, name, argv):
    golden = (GOLDEN_DIR / name).read_text()
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == golden


# Larger ladder shapes, pinned by the sha256 of their --json stdout, so a
# change of representation that moves one byte fails here, not only in
# the benchmark.
LADDER_DIGESTS = [
    (
        ["basis", "--rank", "2", "--order", "4", "--weight", "12"],
        "fe363c0c8d846dd3d0cdbd31b53288cc1763cffcb451a803fc3c9694036d566c",
    ),
    (
        ["basis", "--rank", "4", "--order", "3", "--weight", "7"],
        "67eb8838683bb86693f2af97b43bc3928214542367a4c9e731aaf5df89f5a164",
    ),
    (
        ["basis", "--rank", "3", "--order", "4", "--weight", "9"],
        "e3913cb8b857a68ddf830e4046c3681112a8064cc7e21c244e19508c2bd81c42",
    ),
    (
        ["decompose", "--rank", "2", "--order", "4", "--weight", "12"],
        "14e0f5e6eeb32885ae41b3bd867c19264321b72b31c8fe5897c81dbdd65626bf",
    ),
    (
        [
            "transition",
            "--rank", "2",
            "--order", "2",
            "--weight", "20",
            "--map", "w1 = z1 + z2^2; w2 = z2 - z1^2",
            "--point=1,-1",
        ],
        "9e5e72f892a37681595782bdb3f415426ed58febfd7267059a6a92837cce29eb",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", LADDER_DIGESTS, ids=["_".join(c[0][:7:2]) for c in LADDER_DIGESTS]
)
def test_ladder_json_digests(capsys, argv, digest):
    assert main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_golden_flag_writes_file(capsys, tmp_path):
    # the digest-named file is pinned literally, not through _digest
    cases = [
        ("basis_r2_k2_m3.json", ["basis", "--rank", "2", "--order", "2", "--weight", "3"]),
        (
            "transition_r2_k2_m3_c5805508.json",
            [
                "transition",
                "--rank", "2",
                "--order", "2",
                "--weight", "3",
                "--map", SHEAR,
                "--point", "0,0",
            ],
        ),
    ]
    for name, argv in cases:
        out_dir = tmp_path / name.split("_")[0]
        assert main(argv + ["--json", "--golden", str(out_dir)]) == 0
        captured = capsys.readouterr()
        written = out_dir / name
        assert written.read_text() == captured.out
        assert name in captured.err
        assert [p.name for p in out_dir.iterdir()] == [name]


def test_exit_code_zero_on_success(capsys):
    assert main(["theta", "--d", "6"]) == 0
    capsys.readouterr()


def test_exit_code_one_on_mathematical_errors(capsys):
    singular = [
        "transition",
        "--rank", "2",
        "--order", "2",
        "--weight", "3",
        "--map", "w1 = z1; w2 = z1",
        "--point", "0,0",
    ]
    assert main(singular) == 1
    chart = ["v1", "--map", "w1 = z2; w2 = z1", "--point", "0,0", "--slope", "0"]
    assert main(chart) == 1
    assert main(["theta", "--d", "4:6"]) == 1
    err = capsys.readouterr().err
    assert err.count("jetdiff:") == 3
    assert "singular Jacobian" in err


def test_exit_code_two_on_usage_errors(capsys, tmp_path):
    assert main(["verify", "--rank", "2", "--order", "2", "--poly", "f1'''"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    assert main(["basis", "--rank", "2", "--order", "2"]) == 2  # missing --weight
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    for degrees in ("abc", "6:x"):
        assert main(["theta", "--d", degrees]) == 2
        assert f"not a degree or degree range: {degrees!r}" in capsys.readouterr().err
    # a range is capped before it is built: one stderr line and no output
    assert main(["theta", "--d", "6:20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "has 19995 degrees; the limit is 10000" in captured.err
    shape = ["associated", "--rank", "2", "--order", "2", "--weight", "3", "--matrix"]
    assert main([*shape, "1,0;0"]) == 2
    assert "expected 2 ';'-separated rows of 2 comma-separated entries" in capsys.readouterr().err
    # a bad number is reported at its own column, not at the start of the argument
    assert main([*shape, "1,x;0,1"]) == 2
    assert "line 1, column 3: not a rational number: 'x'" in capsys.readouterr().err
    assert main([*shape, "1,0;0,1/0"]) == 2
    assert "line 1, column 7: not a rational number: '1/0'" in capsys.readouterr().err
    transition = ["transition", "--rank", "2", "--order", "2", "--weight", "3"]
    assert main([*transition, "--map", SHEAR, "--point", "1,abc"]) == 2
    assert "line 1, column 3: not a rational number: 'abc'" in capsys.readouterr().err
    # a --golden directory under a plain file: one stderr line and no output
    blocker = tmp_path / "f"
    blocker.touch()
    basis = ["basis", "--rank", "2", "--order", "2", "--weight", "3", "--json"]
    assert main([*basis, "--golden", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jetdiff: ") and captured.err.count("\n") == 1


def test_exit_code_three_on_internal_consistency_failure():
    proc = run_module(
        "transition",
        "--rank", "2",
        "--order", "3",
        "--weight", "6",
        "--map", SHEAR,
        "--point", "0,0",
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("jetdiff: ")
    assert "lie in no single isotypic span" in lines[0]
    assert "Traceback" not in proc.stderr


def test_guardrail_exit_and_override(capsys):
    assert main(["basis", "--rank", "2", "--order", "9", "--weight", "3"]) == 1
    err = capsys.readouterr().err
    assert "--allow-large" in err
    assert (
        main(
            [
                "basis",
                "--rank", "1",
                "--order", "5",
                "--weight", "5",
                "--allow-large",
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_module_entry_point_runs_in_subprocess():
    proc = run_module("basis", "--rank", "2", "--order", "2", "--weight", "3")
    assert proc.returncode == 0
    assert "dimension: 5" in proc.stdout


def test_subprocess_exit_code_for_parse_error():
    proc = run_module("verify", "--rank", "1", "--order", "1", "--poly", "f1''")
    assert proc.returncode == 2


def test_cli_import_loads_no_dataclasses_logging_or_hashlib():
    # Every call pays for `import jetdiff.cli`.  These modules are slow to
    # import and needed only on rare branches, which import them locally.
    # -S keeps site-packages hooks from loading them first.
    heavy = ("dataclasses", "inspect", "logging", "hashlib")
    code = f"import sys, jetdiff.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
