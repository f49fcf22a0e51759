"""Exact linear algebra over the rationals.

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

Both fields run through the one pivot loop, `_eliminate`.  `rank` and
`solve_in_span` eliminate over Fraction: `rank` checks that a transition's
r x r Jacobian or group element is invertible (`dense_rank`), and
`solve_in_span` backs `InvariantSpace.expand_many`, the tests' reference
for the transitions' coordinates.  `nullspace` takes the rows as integers
and reduces them modulo 2**61 - 1, which is valid for every prime: a row
of ints is used as it is, with no copy, and any other row is cleared of
its denominators once per call.  The systems of `basis` and `dim` arrive
with int entries, so they are not rebuilt.  The kernel comes back
through rational reconstruction and an exact check against the same
integer rows, with one Fraction elimination (`_nullspace_rational`) as
the fallback and the test suite's reference.  The check, `_in_kernel`,
sums each vector over its own columns of a column index; `dim` uses it
too, to check the kernel of a block's a-linear rows against the whole
block.  `rank_modular_check`, the rank over 31-bit primes, is a
reference for the test suite.  The loop itself is checked against a
plain column-scan elimination in both fields by the test suite.

One reduction runs outside that loop, over the integers: `_canonical_span`
brings a few int vectors spanning a kernel (in `basis`, a dominant block's
kernel permuted onto another block) to `nullspace`'s canonical form by
fraction-free Gauss-Jordan, each row divided by its content after every
update.  The test suite checks it against `_eliminate` over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Collection, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)

Row = Dict[int, Fraction]  # entries may also be ints


# The primes below 2**31 that `rank_modular_check` eliminates with.
_DEFAULT_PRIMES: Tuple[int, ...] = (2147483647, 2147483629, 2147483587)

# The prime `nullspace` eliminates with.
_KERNEL_PRIME = 2**61 - 1


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


def _eliminate(rows: List[Row], prime: int = 0) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form.  Returns (rows, pivot columns).

    With `prime` 0 the entries are Fractions and the arithmetic is over Q;
    otherwise they are ints in [0, prime) and every update is reduced
    modulo `prime`.  The input rows are reduced in place; the returned list
    holds the pivot rows in pivot order (pivots normalized to 1, pivot
    columns cleared everywhere else), followed by the zero rows.
    `holders` is the column index described in the module docstring.
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
        inv = pow(prow[col], -1, prime) if prime else _ONE / prow[col]
        if inv != 1:
            if prime:
                prow = {c: v * inv % prime for c, v in prow.items()}
            else:
                prow = {c: v * inv for c, v in prow.items()}
            rows[p] = prow
        tail = [(c, v) for c, v in prow.items() if c != col]
        for t in cands:
            if t == p:
                continue
            target = rows[t]
            factor = target.pop(col)
            for c, v in tail:
                old = target.get(c)
                if old is None:
                    s = -factor * v
                    target[c] = s % prime if prime else s
                    holders[c].add(t)
                else:
                    s = old - factor * v
                    if prime:
                        s %= prime
                    if s:
                        target[c] = s
                    else:
                        del target[c]
                        holders[c].discard(t)
        used[p] = True
        order.append(p)
        pivots.append(col)
    out = [rows[i] for i in order]
    out.extend(row for i, row in enumerate(rows) if not used[i])
    return out, pivots


def rank(matrix: RationalMatrix) -> int:
    rows = [dict(r) for r in matrix.rows]
    _, pivots = _eliminate(rows)
    return len(pivots)


def _canonical_vector(vec: Row) -> Dict[int, int]:
    """Scale to int entries with content 1 and positive leading entry."""
    (ints,) = _integer_rows([vec])
    g = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        g = -g
    return {c: n // g for c, n in ints.items()}


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


def _rref_kernel(rows: List[Row], pivots: List[int], ncols: int, prime: int = 0) -> List[Row]:
    """The kernel basis read off a reduced echelon form over Q, or over
    GF(prime): per free column, in increasing order, the vector with 1
    there and 0 at the other free columns.  A pivot row holds its pivot
    and free columns right of it, so each vector's entries come in
    increasing column order, its free column last."""
    entries: Dict[int, Row] = {}
    for r, pcol in enumerate(pivots):
        for c, v in rows[r].items():
            if c != pcol:
                entries.setdefault(c, {})[pcol] = prime - v if prime else -v
    pivot_set = set(pivots)
    return [{**entries.get(f, {}), f: 1} for f in range(ncols) if f not in pivot_set]


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
        den = 1
        for v in row.values():
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        out.append({c: v.numerator * (den // v.denominator) for c, v in row.items()})
    return out


def _modular_rows(ints: Sequence[Dict[int, int]], prime: int) -> List[Dict[int, int]]:
    """Integer rows reduced modulo `prime`, zero entries dropped."""
    return [{c: r for c, a in row.items() if (r := a % prime)} for row in ints]


def _log_retry(message: str, *args) -> None:
    import logging  # only here: a retry is rare, and logging is slow to import

    logging.getLogger(__name__).info(message, *args)


def _nullspace_rational(matrix: RationalMatrix) -> List[Dict[int, int]]:
    """`nullspace` by Fraction elimination: its fallback and reference."""
    rows, pivots = _eliminate([dict(r) for r in matrix.rows])
    return [_canonical_vector(vec) for vec in _rref_kernel(rows, pivots, matrix.ncols)]


def _reconstructed_kernel(
    rows: List[Row], pivots: List[int], ncols: int, prime: int
) -> Optional[List[Dict[int, int]]]:
    """The canonical vectors of `_rref_kernel` over GF(prime), as ints, or
    None.

    Each entry but the free column's 1, times the lcm `den` of the
    denominators found before it, is rebuilt as the n/d congruent to it
    with |n|, d <= sqrt(prime/2), unique when it exists (Wang 1981;
    Monagan 2004); carrying `den` makes most rebuilds trivial.  None when
    some entry has no such n/d.  Each n/d is in lowest terms, so the
    vector times the final `den` already has content 1.
    """
    bound = isqrt(prime // 2)
    basis: List[Dict[int, int]] = []
    for vec in _rref_kernel(rows, pivots, ncols, prime):
        free_col, _ = vec.popitem()
        den = 1
        for c, a in vec.items():
            # extended Euclid on (prime, a * den), with r == t * a * den
            r0, r1, t0, t1 = prime, a * den % prime, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            if t1 != 1:
                if t1 > bound:
                    return None
                den *= t1
                for k in vec:  # the entries before c, now times the new den
                    if k == c:
                        break
                    vec[k] *= t1
            vec[c] = r1
        vec[free_col] = den
        if next(iter(vec.values())) < 0:
            vec = {c: -n for c, n in vec.items()}
        basis.append(vec)
    return basis


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

    The rows are taken as integers (`_integer_rows`), reduced and
    eliminated modulo p = 2**61 - 1, and each kernel entry is rebuilt by
    rational reconstruction; every vector must then satisfy A.v = 0
    exactly over the integer rows (`_in_kernel`), which makes it the
    rational one.  Write F for the free columns of A over Q and F' for
    those modulo p.  Rank can only drop modulo p, so |F'| >= |F|.  A
    checked vector is a kernel vector of A over Q whose last nonzero
    entry is at its free column f', so f' depends on the columns before
    it and lies in F: F' is F.  A kernel vector is fixed by its entries on
    F, so each checked vector is the rational one up to the canonical
    scale, and there are exactly ncols - rank(A) of them.
    There is one modular attempt.  An entry with no reconstruction (too
    large for the bound) or a failed check (p divides a pivotal minor)
    logs one retry and falls back to Fraction elimination.
    """
    p = _KERNEL_PRIME
    ints = _integer_rows(matrix.rows)
    basis = _reconstructed_kernel(*_eliminate(_modular_rows(ints, p), p), matrix.ncols, p)
    if basis is not None:
        columns: List[Dict[int, int]] = [{} for _ in range(matrix.ncols)]
        for i, row in enumerate(ints):
            for c, a in row.items():
                columns[c][i] = a
        if all(_in_kernel(vec, columns) for vec in basis):
            return basis
    _log_retry("nullspace: no checked kernel mod %d, retrying over Q", p)
    return _nullspace_rational(matrix)


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
    nonzero coefficient}, an int or a Fraction.  Raises ValueError naming
    the first target that is outside the span.
    """
    width = len(columns)
    rows, pivots = _eliminate(RationalMatrix.from_columns([*columns, *targets]).rows)
    for p in pivots:
        if p >= width:
            raise ValueError(f"target {p - width} is outside the span")
    if pivots != list(range(width)):
        raise ValueError("columns are not linearly independent")
    out: List[Row] = [{} for _ in targets]
    for i in range(width):
        # pivot row i holds coordinate i of every target in the span
        for c, v in rows[i].items():
            if c >= width:
                out[c - width][i] = v
    return out
