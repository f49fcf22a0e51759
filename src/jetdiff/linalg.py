"""Exact linear algebra over the rationals, by integer elimination.

Matrices are stored as sparse rows (dict column -> nonzero Fraction), one
representation for every size; constraint systems arriving from the
invariance machinery are naturally sparse and the small dense cases lose
nothing.  Vectors are sparse the same way: `solve_in_span` takes and
returns mappings from coordinate to value, and `nullspace` returns each
kernel vector in its canonical integer form (content 1) as a
{column: nonzero int} dict.

The elimination loop keeps an index from each column to the rows with
a nonzero there, updated on every fill-in and cancellation, so a pivot
step visits only the rows holding the pivot column.  Columns are taken
left to right; among the rows not yet used as pivots, the shortest one
holding the column is the pivot (ties go to the lowest row index), which
keeps fill-in low (Markowitz 1957).  Output does not depend on that
choice: the reduced row echelon form of a matrix is unique, and so are
the nullspace basis and the coordinates read off it, so results are
byte-identical across runs and across pivot rules.

Every elimination is the one pivot loop, `_eliminate`: fraction-free
Gauss-Jordan on int rows, over Z, or over GF(prime) for
`rank_modular_check`, the rank over 31-bit primes that the test suite
compares with the exact one.  No pivot is normalized and no Fraction is
made; each caller clears the denominators of its rows first
(`_integer_rows`), which keeps rank, kernel and span.  A row of ints is
used as it is, and the systems of `basis` and `dim` arrive with int
entries, so they are not rebuilt.  `nullspace` reads its canonical
kernel off the integer echelon form and checks every vector exactly
against the integer rows (`_in_kernel`, which sums each vector over its
own columns of a column index); `dim` uses that check too, to test the
kernel of a block's a-linear rows against the whole block.  `rank`
checks that a transition's r x r Jacobian or group element is invertible
(`dense_rank`), and `solve_in_span` backs `InvariantSpace.expand_many`,
the tests' reference for the transitions' coordinates.  The test suite
checks the loop, in both settings, against a plain column-scan
elimination over Fraction and GF(p), and `nullspace` against a kernel
read off that scan.

One reduction runs outside that loop, also over the integers:
`_canonical_span` brings a few int vectors spanning a kernel (in
`basis`, a dominant block's kernel permuted onto another block) to
`nullspace`'s canonical form, each row's pivot at its last column and
each row divided by its content after every update.  The test suite
checks it against the column scan over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = Dict[int, Fraction]  # entries may also be ints


# The primes below 2**31 that `rank_modular_check` eliminates with.
_DEFAULT_PRIMES: Tuple[int, ...] = (2147483647, 2147483629, 2147483587)


class RationalMatrix:
    """A rows-by-cols matrix of Fractions or ints with sparse row storage."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Optional[List[Row]] = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        self.rows = rows

    @classmethod
    def from_rows(cls, dense_rows: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(dense_rows)
        ncols = len(dense_rows[0]) if nrows else 0
        rows: List[Row] = []
        for r in dense_rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            rows.append({j: f for j, f in enumerate(map(Fraction, r)) if f})
        return cls(nrows, ncols, rows)

    @classmethod
    def from_columns(cls, columns: Collection[Mapping[Hashable, Fraction]]) -> "RationalMatrix":
        """The matrix whose j-th column is the sparse vector `columns[j]`.

        A column maps row coordinates (any hashable) to values, Fractions
        or ints; zero values are dropped.  Rows come in order of first
        appearance of their coordinate.
        """
        by_coord: Dict[Hashable, Row] = {}
        for j, column in enumerate(columns):
            for i, v in column.items():
                if not v:
                    continue
                row = by_coord.get(i)
                if row is None:
                    by_coord[i] = {j: v}
                else:
                    row[j] = v
        return cls(len(by_coord), len(columns), list(by_coord.values()))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [{i: _ONE} for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, _ZERO)

    def to_rows(self) -> List[List[Fraction]]:
        return [[row.get(j, _ZERO) for j in range(self.ncols)] for row in self.rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"


def _eliminate(
    rows: List[Dict[int, int]], prime: int = 0
) -> Tuple[List[Dict[int, int]], List[int]]:
    """Fraction-free Gauss-Jordan form.  Returns (rows, pivot columns).

    The entries are ints.  With `prime` 0 the arithmetic is over Z;
    otherwise the entries lie in [0, prime) and every update is reduced
    modulo `prime`.  A row t holding the pivot column becomes a*t - b*prow,
    where a and b are the pivot-column entries of prow and t divided by
    their gcd; over Z it is then divided by its content.  No pivot is
    normalized.  The input rows are reduced in place; the returned list
    holds the pivot rows in pivot order (each pivot column cleared in
    every other row), followed by the zero rows.  `holders` is the column
    index described in the module docstring.
    """
    holders: Dict[int, Set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            found = holders.get(c)
            if found is None:
                holders[c] = {i}
            else:
                found.add(i)
    used = [False] * len(rows)
    order: List[int] = []
    pivots: List[int] = []
    # Fill-in only lands in columns of the pivot row, which are already
    # keys, so the key set never grows.
    for col in sorted(holders):
        if len(order) == len(rows):
            break
        cands = holders.pop(col)
        free = [i for i in cands if not used[i]]
        if not free:
            continue
        p = min(free, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        lead = prow[col]
        tail = [(c, v) for c, v in prow.items() if c != col]
        for t in cands:
            if t == p:
                continue
            target = rows[t]
            b = target.pop(col)
            g = gcd(lead, b)
            a, b = lead // g, b // g
            if a != 1:
                for c, v in target.items():
                    target[c] = a * v % prime if prime else a * v
            for c, v in tail:
                old = target.get(c)
                if old is None:
                    s = -b * v
                    target[c] = s % prime if prime else s
                    holders[c].add(t)
                else:
                    s = old - b * v
                    if prime:
                        s %= prime
                    if s:
                        target[c] = s
                    else:
                        del target[c]
                        holders[c].discard(t)
            if not prime and target:
                g = gcd(*target.values())
                if g > 1:
                    for c, v in target.items():
                        target[c] = v // g
        used[p] = True
        order.append(p)
        pivots.append(col)
    out = [rows[i] for i in order]
    out.extend(row for i, row in enumerate(rows) if not used[i])
    return out, pivots


def rank(matrix: RationalMatrix) -> int:
    return len(_eliminate([dict(r) for r in _integer_rows(matrix.rows)])[1])


def _canonical_vector(vec: Mapping[int, int]) -> Dict[int, int]:
    """A nonzero int vector scaled to content 1 and a positive leading entry."""
    g = gcd(*vec.values())
    if next(iter(vec.values())) < 0:
        g = -g
    return {c: n // g for c, n in vec.items()}


def _cross_eliminate(row: Dict[int, int], prow: Dict[int, int], col: int) -> Dict[int, int]:
    """`row` with column `col` cleared against `prow`, over the integers:
    row * prow[col] - prow * row[col], each multiplier divided by their
    gcd, zeros dropped, the result divided by its content."""
    g = gcd(row[col], prow[col])
    a, b = prow[col] // g, row[col] // g
    out = {c: a * n for c, n in row.items()}
    for c, n in prow.items():
        s = out.get(c, 0) - b * n
        if s:
            out[c] = s
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: n // g for c, n in out.items()} if g > 1 else out


def _canonical_span(rows: Sequence[Mapping[int, int]]) -> List[Dict[int, int]]:
    """The rows, {column: nonzero int}, reduced to the canonical basis of
    their span, in increasing pivot order: fraction-free Gauss-Jordan
    with each row's pivot at its last (largest) column, every other row
    cleared there, then `_canonical_vector`.  For kernel vectors spanning
    a kernel this is `nullspace`'s basis: one vector per free column, 0
    at the others.  Zero rows (dependent input) are dropped; no Fraction
    is made.
    """
    reduced: Dict[int, Dict[int, int]] = {}  # pivot column -> row
    for row in rows:  # each update makes a new dict; the input is not changed
        for p, prow in reduced.items():
            if p in row:
                row = _cross_eliminate(row, prow, p)
        if not row:
            continue
        col = max(row)
        for p, prow in reduced.items():
            if col in prow:
                reduced[p] = _cross_eliminate(prow, row, col)
        reduced[col] = row
    return [_canonical_vector(dict(sorted(reduced[p].items()))) for p in sorted(reduced)]


def _integer_rows(rows: Sequence[Row]) -> List[Dict[int, int]]:
    """The nonzero rows as ints, each times the lcm of its denominators (a
    row scale keeps rank and kernel).  A row of ints is returned itself,
    not copied."""
    out: List[Dict[int, int]] = []
    for row in rows:
        if not row:
            continue
        if all(type(v) is int for v in row.values()):
            out.append(row)
            continue
        den = lcm(*(v.denominator for v in row.values()))
        out.append({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    return out


def _modular_rows(ints: Sequence[Dict[int, int]], prime: int) -> List[Dict[int, int]]:
    """Integer rows reduced modulo `prime`, zero entries dropped."""
    return [{c: r for c, a in row.items() if (r := a % prime)} for row in ints]


def _in_kernel(vec: Mapping[int, int], columns: Sequence[Mapping[Hashable, int]]) -> bool:
    """A.v == 0, summing only over the columns of v: `columns[c]` is
    column c of A as {row: entry}, rows keyed by any hashable."""
    sums: Dict[Hashable, int] = {}
    for c, n in vec.items():
        for i, a in columns[c].items():
            sums[i] = sums.get(i, 0) + a * n
    return not any(sums.values())


def nullspace(matrix: RationalMatrix) -> List[Dict[int, int]]:
    """Canonical basis of the right kernel.

    One vector per free column, in increasing column order.  Each is a
    {column: nonzero int} dict in increasing column order, so its free
    column is the last key; its entries have content 1 and a positive
    leading (first) entry.  The result is fully deterministic.

    The rows are taken as integers (`_integer_rows`) and brought to
    fraction-free Gauss-Jordan form over Z.  There a pivot row holds its
    pivot d and, right of it, free columns only.  The vector of free
    column f holds L at f, where L is the lcm of the pivots of the rows
    holding f, and -row[f] * L / d at each such row's pivot; it is then
    scaled to content 1 with a positive lead.  Every vector must satisfy
    A.v = 0 exactly over the integer rows (`_in_kernel`); one that does
    not raises RuntimeError.
    """
    ints = _integer_rows(matrix.rows)
    rows, pivots = _eliminate([dict(row) for row in ints])
    entries: Dict[int, List[Tuple[int, int, int]]] = {}  # free column -> (pivot, d, row[f])
    for row, pcol in zip(rows, pivots):
        d = row[pcol]
        for c, v in row.items():
            if c != pcol:
                entries.setdefault(c, []).append((pcol, d, v))
    pivot_set = set(pivots)
    columns: List[Dict[int, int]] = [{} for _ in range(matrix.ncols)]
    for i, row in enumerate(ints):
        for c, a in row.items():
            columns[c][i] = a
    basis: List[Dict[int, int]] = []
    for f in range(matrix.ncols):
        if f in pivot_set:
            continue
        held = entries.get(f, ())
        scale = lcm(*(d for _, d, _ in held))
        vec = {pcol: -v * (scale // d) for pcol, d, v in held}
        vec[f] = scale
        vec = _canonical_vector(vec)
        if not _in_kernel(vec, columns):
            raise RuntimeError(f"nullspace: the vector of free column {f} is not in the kernel")
        basis.append(vec)
    return basis


def rank_modular_check(matrix: RationalMatrix, stop_at: int) -> int:
    """Rank computed modulo large primes, a reference for the exact rank.

    No production code calls it: the test suite compares it with exact
    ranks, and `jetdiff.cli` keeps the name for perfbench's tracer.

    The rows are taken as integers (`_integer_rows`) and reduced modulo
    each prime of `_DEFAULT_PRIMES` in turn.  The rank of an integer
    matrix modulo any prime is at most its rank over Q, and falls short
    only when the prime divides every minor of that size, so the maximum
    over the primes is returned, and the loop stops at the first rank >=
    `stop_at`.  With
    `stop_at` the rank over Q, the result, and whether it differs from
    `stop_at`, is that of the full loop.
    """
    ints = _integer_rows(matrix.rows)
    best = 0
    for p in _DEFAULT_PRIMES:
        best = max(best, len(_eliminate(_modular_rows(ints, p), p)[1]))
        if best >= stop_at:
            break
    return best


def dense_rank(dense_rows: Sequence[Sequence]) -> int:
    """Rank of a small dense matrix given as nested sequences."""
    if not dense_rows:
        return 0
    return rank(RationalMatrix.from_rows(dense_rows))


def solve_in_span(
    columns: Sequence[Mapping[Hashable, Fraction]],
    targets: Sequence[Mapping[Hashable, Fraction]],
) -> List[Row]:
    """Express each target vector in the span of `columns`.

    Vectors are sparse: a mapping from coordinate (any hashable) to
    value, Fraction or int, where absent coordinates and zero values both
    mean zero.  The columns are assumed linearly independent; each target
    is written as their unique combination, returned as {column index:
    nonzero Fraction coefficient}.  Raises ValueError naming the first
    target that is outside the span.
    """
    width = len(columns)
    rows, pivots = _eliminate(_integer_rows(RationalMatrix.from_columns([*columns, *targets]).rows))
    for p in pivots:
        if p >= width:
            raise ValueError(f"target {p - width} is outside the span")
    if pivots != list(range(width)):
        raise ValueError("columns are not linearly independent")
    out: List[Row] = [{} for _ in targets]
    for i in range(width):
        # pivot row i holds coordinate i of every target in the span, times its pivot
        row = rows[i]
        for c, v in row.items():
            if c >= width:
                out[c - width][i] = Fraction(v, row[i])
    return out
