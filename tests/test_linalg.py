"""Tests for exact integer elimination and the modular rank cross-check."""

import random
from fractions import Fraction

import pytest

from jetdiff import linalg
from jetdiff.linalg import (
    RationalMatrix,
    dense_rank,
    nullspace,
    rank,
    rank_modular_check,
    solve_in_span,
)

from helpers import (
    apply_matrix,
    canonical,
    matmul,
    nonzero_rational,
    pivot_rows,
    rational,
    rational_nullspace,
    rref,
    scan_eliminate,
)


def dense(rows):
    return RationalMatrix.from_rows(rows)


def random_matrix(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        rows.append(
            [rational(rng, -9, 9, 4) if rng.random() < density else 0 for _ in range(ncols)]
        )
    return dense(rows)


def test_rref_examples():
    m = dense([[2, 4], [1, 2]])
    assert rref(m).to_rows() == [[1, 2], [0, 0]]
    m2 = dense([[0, 1], [1, 0]])
    assert rref(m2).to_rows() == [[1, 0], [0, 1]]
    assert rank(m) == 1
    assert rank(m2) == 2
    assert rank(dense([[0, 0], [0, 0]])) == 0


def test_rref_is_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        r = rref(m)
        assert rref(r) == r


def test_rref_pivots_are_unit_columns():
    rng = random.Random(13)
    for _ in range(10):
        m = random_matrix(rng, 5, 7)
        r = rref(m).to_rows()
        for i, row in enumerate(r):
            pivots = [j for j, v in enumerate(row) if v]
            if not pivots:
                continue
            j = pivots[0]
            assert row[j] == 1
            for i2, other in enumerate(r):
                if i2 != i:
                    assert other[j] == 0


def test_nullspace_examples():
    # One relation between two columns.
    basis = nullspace(dense([[1, 1]]))
    assert basis == [{0: 1, 1: -1}]
    # Full-rank square matrix has trivial kernel.
    assert nullspace(dense([[1, 0], [0, 1]])) == []
    # Zero matrix: kernel is everything, canonical basis is the identity.
    basis = nullspace(RationalMatrix(0, 3, []))
    assert basis == [{0: 1}, {1: 1}, {2: 1}]
    # Fractions are cleared to coprime integers with a positive lead.
    basis = nullspace(dense([[Fraction(1, 2), Fraction(1, 3)]]))
    assert basis == [{0: 2, 1: -3}]


def test_nullspace_vectors_are_canonical_and_exact():
    rng = random.Random(17)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        basis = nullspace(m)
        assert basis == rational_nullspace(m)
        assert len(basis) == ncols - rank(m)
        free = [next(reversed(vec)) for vec in basis]
        assert free == sorted(set(free))
        assert set(free) == set(range(ncols)) - {min(row) for row in rref(m).rows if row}
        for vec in basis:
            # Sparse, in increasing column order, the free column last.
            assert list(vec) == sorted(vec)
            dense_vec = [vec.get(c, Fraction(0)) for c in range(ncols)]
            # Exactly in the kernel.
            assert all(v == 0 for v in apply_matrix(m, dense_vec))
            # Integer entries, content one, positive leading entry.
            ints = list(vec.values())
            assert ints and all(ints), "kernel basis vector must be nonzero, zeros omitted"
            assert all(v.denominator == 1 for v in ints)
            from math import gcd
            g = 0
            for v in ints:
                g = gcd(g, abs(v.numerator))
            assert g == 1
            assert ints[0] > 0


def test_nullspace_is_deterministic():
    rng = random.Random(19)
    m = random_matrix(rng, 4, 7)
    assert nullspace(m) == nullspace(dense(m.to_rows()))


def spy_eliminate(monkeypatch):
    """The list of primes `_eliminate` is called with, 0 for Z."""
    primes = []
    eliminate = linalg._eliminate

    def spy(rows, prime=0):
        primes.append(prime)
        return eliminate(rows, prime)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return primes


def test_nullspace_is_one_integer_elimination(caplog, monkeypatch):
    # Entries past any small modulus, a row a prime would zero, a pivot
    # of 2**40: each kernel is one elimination over Z, read off the
    # integer echelon form, with nothing logged.
    p = 2**61 - 1
    cases = [
        (
            [[Fraction(1, 3**25), Fraction(1, 5**13), 1]],
            [{0: 3**25, 1: -(5**13)}, {0: 3**25, 2: -1}],
        ),
        ([[p, p]], [{0: 1, 1: -1}]),
        ([[p, 1]], [{0: 1, 1: -p}]),
        ([[2**40, 1]], [{0: 1, 1: -(2**40)}]),
        ([[1, 1, 0, 0], [0, 0, p, p]], [{0: 1, 1: -1}, {2: 1, 3: -1}]),
    ]
    primes = spy_eliminate(monkeypatch)
    for rows, expected in cases:
        m = dense(rows)
        caplog.clear()
        primes.clear()
        with caplog.at_level("DEBUG", logger="jetdiff.linalg"):
            assert nullspace(m) == expected
        assert primes == [0], rows
        assert [r for r in caplog.records if r.name == "jetdiff.linalg"] == [], rows
        assert expected == rational_nullspace(m)


def test_nullspace_raises_on_a_spoiled_elimination(monkeypatch):
    # Every vector is checked against the integer rows: an echelon form
    # with one entry off gives a vector outside the kernel, which raises.
    eliminate = linalg._eliminate

    def spoiled(rows, prime=0):
        rows, pivots = eliminate(rows, prime)
        rows[0][next(reversed(rows[0]))] += 1
        return rows, pivots

    monkeypatch.setattr(linalg, "_eliminate", spoiled)
    with pytest.raises(RuntimeError, match="free column 2 is not in the kernel"):
        nullspace(dense([[1, 0, 2], [0, 1, 3]]))


def test_nullspace_rational_takes_ints():
    # Block columns arrive as ints; both `nullspace` and its reference
    # must read them as the Fractions they equal, and return the kernel
    # as int vectors.
    mixed = RationalMatrix(2, 4, [{0: 2, 1: Fraction(1, 3), 3: -1}, {1: 6, 2: Fraction(-1, 2)}])
    as_fractions = dense(mixed.to_rows())
    expected = [{0: 1, 1: -6, 2: -72}, {0: 1, 3: 2}]
    assert rational_nullspace(mixed) == expected
    assert rational_nullspace(as_fractions) == expected
    assert nullspace(mixed) == expected
    assert nullspace(as_fractions) == expected
    for kernel in (nullspace(mixed), rational_nullspace(mixed)):
        assert all(type(v) is int for vec in kernel for v in vec.values())


def last_pivot_reference(rows):
    """The Fraction route to `_canonical_span`: the column scan on
    reversed column labels (so each pivot is its row's last column), then
    `canonical` on each pivot row, in increasing pivot order."""
    top = max(c for row in rows for c in row)
    flipped = [{top - c: Fraction(v) for c, v in row.items()} for row in rows]
    reduced, pivots = scan_eliminate(flipped)
    out = [
        canonical({top - c: row[c] for c in sorted(row, reverse=True)})
        for row in reduced[: len(pivots)]
    ]
    return sorted(out, key=lambda vec: next(reversed(vec)))


def test_canonical_span_matches_fraction_reduction():
    rng = random.Random(29)
    big = 2**64 + 13
    cases = [
        [{3: -5}],  # a single row with a negative leading entry
        [{0: 2, 4: 6, 7: -4}],  # a single row with content 2
        [{0: 1, 2: 3, 5: 2}, {1: -2, 5: 7}, {0: 4, 3: 1, 5: -1}],  # one shared last column
        [{0: big, 3: -big + 1}, {1: -big * big, 3: 5}, {2: 3, 4: big}],
        [{0: -1, 1: 2}, {0: 2, 1: -4}],  # dependent: one row is left
    ]
    for _ in range(60):
        ncols = rng.randint(1, 9)
        nrows = rng.randint(1, ncols + 1)
        top = rng.choice([9, big])
        last = rng.randrange(ncols)
        rows = []
        for _ in range(nrows):
            cols = rng.sample(range(ncols), rng.randint(1, ncols))
            if rng.random() < 0.5:  # share one last column
                cols = [c for c in cols if c < last] + [last]
            row = {c: rng.randint(-top, top) or -1 for c in sorted(cols)}
            rows.append(row)
        cases.append(rows)
    for rows in cases:
        got = linalg._canonical_span(rows)
        assert got == last_pivot_reference(rows), rows
        assert all(type(v) is int for vec in got for v in vec.values())
        assert all(list(vec) == sorted(vec) for vec in got)


def test_modular_rank_agrees_with_exact():
    rng = random.Random(29)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        m = random_matrix(rng, nrows, ncols)
        assert rank_modular_check(m, stop_at=rank(m)) == rank(m)


def test_modular_rank_agrees_on_structured_low_rank():
    # Products of thin matrices have small rank; the reduction must see it.
    rng = random.Random(37)
    for _ in range(4):
        n, k = 50, rng.randint(1, 4)
        a = random_matrix(rng, n, k, density=0.9)
        b = random_matrix(rng, k, n, density=0.9)
        m = matmul(a, b)
        r = rank(m)
        assert r <= k
        assert rank_modular_check(m, stop_at=r) == r


def test_denominator_divisible_by_prime_is_cleared_not_skipped(monkeypatch):
    # Rows are cleared to integers before they are reduced, so a
    # denominator equal to the working prime costs nothing: one elimination
    # mod p reaches the rank.  `nullspace` clears them the same way and
    # eliminates once over Z.
    p, q = 2147483647, 2**61 - 1
    primes = spy_eliminate(monkeypatch)
    assert rank_modular_check(dense([[Fraction(1, p), 0], [0, 1]]), 2) == 2
    assert primes == [p]
    primes.clear()
    assert nullspace(dense([[Fraction(1, q), Fraction(2, q)]])) == [{0: 2, 1: -1}]
    assert primes == [0]


def test_modular_rank_undercounts_only_at_one_prime(monkeypatch):
    # p divides the pivot p, so the rank mod p alone drops to 1; the
    # call takes the next prime and sees 2.
    p = 2147483647
    m = dense([[p, 0], [0, 1]])
    assert rank_modular_check(m, stop_at=2) == 2
    monkeypatch.setattr(linalg, "_DEFAULT_PRIMES", (p,))
    assert rank_modular_check(m, stop_at=2) == 1


def test_matmul_and_apply():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]
    assert apply_matrix(a, [1, 1]) == [3, 7]
    ident = RationalMatrix.identity(2)
    assert matmul(a, ident) == a
    assert matmul(ident, a) == a


def test_dense_rank_matches_matrix_rank():
    rng = random.Random(41)
    for _ in range(10):
        rows = [[rational(rng) for _ in range(4)] for _ in range(3)]
        assert dense_rank(rows) == rank(dense(rows))


def as_map(vec, key=lambda i: i):
    """The sparse form of a dense vector, coordinates mapped through key."""
    return {key(i): v for i, v in enumerate(vec) if v}


def test_solve_in_span_examples():
    cols = [{0: 1, 2: 1}, {1: 1, 2: 1}]
    coords = solve_in_span(cols, [{0: 1, 1: 1, 2: 2}, {0: 2, 2: 2}])
    assert coords == [{0: 1, 1: 1}, {0: 2}]
    with pytest.raises(ValueError):
        solve_in_span(cols, [{0: 1}])


def test_solve_in_span_randomized():
    rng = random.Random(47)
    for _ in range(10):
        ncols, dim = rng.randint(1, 4), rng.randint(4, 6)
        cols = [[rational(rng) for _ in range(dim)] for _ in range(ncols)]
        weights = [rational(rng) for _ in range(ncols)]
        target = [
            sum((w * c[i] for w, c in zip(weights, cols)), Fraction(0))
            for i in range(dim)
        ]
        coords = solve_in_span([as_map(c) for c in cols], [as_map(target)])[0]
        assert all(coords.values())
        rebuilt = [
            sum((coords.get(j, 0) * c[i] for j, c in enumerate(cols)), Fraction(0))
            for i in range(dim)
        ]
        assert rebuilt == target


# ---- the indexed kernels against the plain column scan ----


def sparse_matrix(rng, nrows, ncols, density):
    rows = [
        {j: nonzero_rational(rng, -9, 9, 4) for j in range(ncols) if rng.random() < density}
        for _ in range(nrows)
    ]
    return RationalMatrix(nrows, ncols, rows)


def with_zero_lines(rng, m):
    """Clear a random set of rows and of columns."""
    dead_rows = {i for i in range(m.nrows) if rng.random() < 0.3}
    dead_cols = {j for j in range(m.ncols) if rng.random() < 0.3}
    rows = [
        {} if i in dead_rows else {j: v for j, v in row.items() if j not in dead_cols}
        for i, row in enumerate(m.rows)
    ]
    return RationalMatrix(m.nrows, m.ncols, rows)


def with_duplicate_rows(rng, m):
    """Overwrite some rows with scaled copies of others."""
    rows = [dict(row) for row in m.rows]
    for _ in range(rng.randint(1, 3)):
        src, dst = rng.randrange(m.nrows), rng.randrange(m.nrows)
        scale = nonzero_rational(rng)
        rows[dst] = {j: v * scale for j, v in rows[src].items()}
    return RationalMatrix(m.nrows, m.ncols, rows)


def low_rank(rng, nrows, ncols):
    k = rng.randint(1, 3)
    return matmul(sparse_matrix(rng, nrows, k, 0.5), sparse_matrix(rng, k, ncols, 0.5))


def arrow(rng, n):
    """n rows over a dense column 0, row i also holding column i + 1.
    The first pivot fills in its own column i + 1 in every other row, and
    each later pivot does the same to the rows left."""
    rows = []
    for i in range(n):
        row = {0: nonzero_rational(rng), i + 1: nonzero_rational(rng)}
        if rng.random() < 0.3:
            row[n] = nonzero_rational(rng)
        rows.append(row)
    rng.shuffle(rows)
    return RationalMatrix(n, n + 1, rows)


def oracle_matrices():
    rng = random.Random(53)
    out = [RationalMatrix(0, 4, []), RationalMatrix(4, 0), RationalMatrix(0, 0, [])]
    for density in (0.1, 0.3, 0.6, 1.0):
        for _ in range(8):
            out.append(sparse_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), density))
    for _ in range(8):
        out.append(with_zero_lines(rng, sparse_matrix(rng, rng.randint(2, 8), rng.randint(2, 8), 0.5)))
        out.append(with_duplicate_rows(rng, sparse_matrix(rng, rng.randint(2, 8), rng.randint(1, 8), 0.4)))
        out.append(low_rank(rng, rng.randint(2, 9), rng.randint(2, 9)))
        out.append(arrow(rng, rng.randint(2, 10)))
    for _ in range(3):
        out.append(sparse_matrix(rng, 20, 24, 0.12))
        out.append(low_rank(rng, 20, 16))
        out.append(arrow(rng, 24))
    return out


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def reference(monkeypatch, fn, *args):
    """fn evaluated with the column-scan kernel in place of the indexed one."""
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_eliminate", scan_eliminate)
        return outcome(fn, *args)


def mod_rows(m, p):
    """The rows of m as dicts of ints in [0, p), zero entries dropped;
    every denominator of the oracle matrices is prime to p."""
    rows = []
    for row in m.rows:
        reduced = {c: v.numerator * pow(v.denominator, -1, p) % p for c, v in row.items()}
        rows.append({c: v for c, v in reduced.items() if v})
    return rows


def test_kernels_match_column_scan():
    # The indexed loop over Z and over GF(p) against the column scan over
    # Fraction and GF(p): the same pivots and, each divided by its pivot,
    # the same pivot rows.
    p = 2147483647
    for m in oracle_matrices():
        ints = [dict(row) for row in linalg._integer_rows(m.rows)]
        over_q = scan_eliminate([dict(row) for row in m.rows])
        for got, expected, prime in [
            (linalg._eliminate(ints), over_q, 0),
            (linalg._eliminate(mod_rows(m, p), p), scan_eliminate(mod_rows(m, p), p), p),
        ]:
            (rows, pivots), (ref_rows, ref_pivots) = got, expected
            assert pivots == ref_pivots, (prime, m.to_rows())
            assert pivot_rows(rows, pivots, prime) == ref_rows[: len(pivots)], (prime, m.to_rows())
            assert not any(rows[len(pivots) :]), (prime, m.to_rows())
        assert rank(m) == len(over_q[1]), m.to_rows()
        assert nullspace(m) == rational_nullspace(m), m.to_rows()
        assert rank_modular_check(m, stop_at=rank(m)) == rank(m), m.to_rows()


def test_solve_in_span_sparse_errors():
    cols = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}]
    assert solve_in_span(cols, [{0: 1, 1: 1, 2: 2}, {}]) == [{0: 1, 1: 1}, {}]
    with pytest.raises(ValueError, match="target 1 is outside the span"):
        solve_in_span(cols, [{}, {3: Fraction(1)}])
    with pytest.raises(ValueError, match="not linearly independent"):
        solve_in_span([{0: 1}, {0: 2}], [{0: 1}])
    with pytest.raises(ValueError, match="target 1 is outside the span"):
        solve_in_span([], [{}, {0: 1}])
    assert solve_in_span([], [{}, {0: 0}]) == [{}, {}]


def test_solve_in_span_matches_column_scan(monkeypatch):
    rng = random.Random(59)
    for m in oracle_matrices():
        if not m.nrows:
            continue
        columns = m.to_rows()
        n = m.ncols
        targets = [
            [sum((rational(rng) * col[i] for col in columns), Fraction(0)) for i in range(n)]
            for _ in range(2)
        ]
        if rng.random() < 0.3:
            targets.append([rational(rng) for _ in range(n)])
        # coordinates may be any hashable
        columns = [as_map(col, key=lambda i: ("c", i)) for col in columns]
        targets = [as_map(t, key=lambda i: ("c", i)) for t in targets]
        got = outcome(solve_in_span, columns, targets)
        assert got == reference(monkeypatch, solve_in_span, columns, targets), columns


def test_rank_needs_index_fill_in():
    # Rows 1 and 2 tie as the shortest holders of column 0, so row 1 is
    # the first pivot; eliminating it puts a new entry in column 2 of
    # row 2.  Column 2 can only be pivoted on row 2, through that fill-in,
    # so a kernel whose column index misses fill-in stops at rank 2.
    m = dense([[0, 1, 0], [-1, 0, 2], [-1, -1, 0]])
    assert rank(m) == 3
    assert rank_modular_check(m, stop_at=3) == 3
    assert rref(m) == RationalMatrix.identity(3)
