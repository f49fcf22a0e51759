"""Shared constructors for the test suite.

Everything here is driven by an explicit random.Random instance passed in
by the caller, so each test file controls its own seed and the suite stays
deterministic.
"""

from fractions import Fraction
from math import gcd, lcm

from jetdiff import linalg
from jetdiff.invariants import IrrepLabel, _root_move, _torus_blocks
from jetdiff.jets import JetPoint, JetSpec, ReparamJet, TargetMap
from jetdiff.linalg import RationalMatrix, dense_rank, nullspace
from jetdiff.poly import SparsePolynomial, base_var


def rational(rng, lo=-5, hi=5, max_den=3):
    """A random Fraction with numerator in [lo, hi] and denominator in [1, max_den]."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def nonzero_rational(rng, lo=-5, hi=5, max_den=3):
    while True:
        q = rational(rng, lo, hi, max_den)
        if q:
            return q


def monomial(v, e):
    """v^e with coefficient 1, built directly rather than by `**` (itself a
    substitution), so that test data does not depend on the kernel."""
    return SparsePolynomial.monomial(((v, e),))


def random_poly(rng, variables, terms=4, max_exp=3, lo=-5, hi=5):
    """A random sparse polynomial in the given variables (possibly zero)."""
    p = SparsePolynomial.zero()
    for _ in range(terms):
        mono = SparsePolynomial.constant(1)
        for v in rng.sample(list(variables), k=rng.randint(1, min(2, len(variables)))):
            mono = mono * monomial(v, rng.randint(1, max_exp))
        p = p + mono * rational(rng, lo, hi)
    return p


def matmul(a, b):
    """Product of two RationalMatrix values, kept sparse."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.ncols} vs {b.nrows}")
    rows = []
    for arow in a.rows:
        acc = {}
        for k, av in arow.items():
            for j, bv in b.rows[k].items():
                s = acc.get(j, Fraction(0)) + av * bv
                if s:
                    acc[j] = s
                else:
                    acc.pop(j, None)
        rows.append(acc)
    return RationalMatrix(a.nrows, b.ncols, rows)


def as_matrix(tm):
    """The entries of a TransitionMatrix as a RationalMatrix."""
    return RationalMatrix.from_rows(tm.entries)


def apply_matrix(matrix, vec):
    """A RationalMatrix times a dense vector, as a list of Fractions."""
    if len(vec) != matrix.ncols:
        raise ValueError(f"vector length {len(vec)} does not match {matrix.ncols} columns")
    out = []
    for row in matrix.rows:
        s = Fraction(0)
        for c, v in row.items():
            s += v * vec[c]
        out.append(s)
    return out


def pivot_rows(rows, pivots, prime=0):
    """The pivot rows of an echelon form, each divided by its pivot, over
    Q (Fraction entries) or GF(prime)."""
    out = []
    for row, p in zip(rows, pivots):
        if prime:
            inv = pow(row[p], -1, prime)
            out.append({c: v * inv % prime for c, v in row.items()})
        else:
            out.append({c: Fraction(v) / row[p] for c, v in row.items()})
    return out


def rref(matrix):
    """Reduced row echelon form (pivots 1, pivot columns cleared) over
    Fraction: `jetdiff.linalg._eliminate` on the integer rows, each pivot
    row then divided by its pivot, zero rows last."""
    out = pivot_rows(*linalg._eliminate([dict(r) for r in linalg._integer_rows(matrix.rows)]))
    out.extend({} for _ in range(matrix.nrows - len(out)))
    return RationalMatrix(matrix.nrows, matrix.ncols, out)


def rational_nullspace(matrix):
    """The canonical kernel basis of `jetdiff.linalg.nullspace`, by the
    column scan over Fraction (`scan_eliminate`): per free column, in
    increasing order, the vector with 1 there, 0 at the other free
    columns and minus the pivot row's entry at each pivot, cleared of
    denominators, content 1, positive lead.  It shares no pivot loop with
    `nullspace`, so it is the reference for it."""
    rows, pivots = scan_eliminate([{c: Fraction(v) for c, v in r.items()} for r in matrix.rows])
    entries = {}
    for row, p in zip(rows, pivots):
        for c, v in row.items():
            if c != p:
                entries.setdefault(c, {})[p] = -v
    return [
        canonical({**entries.get(f, {}), f: Fraction(1)})
        for f in sorted(set(range(matrix.ncols)) - set(pivots))
    ]


def canonical(vec):
    """A nonzero rational vector scaled to coprime ints with a positive
    leading entry."""
    den = lcm(*(Fraction(v).denominator for v in vec.values()))
    ints = {c: int(v * den) for c, v in vec.items()}
    g = gcd(*ints.values())
    if next(iter(ints.values())) < 0:
        g = -g
    return {c: n // g for c, n in ints.items()}


def scan_eliminate(rows, prime=0):
    """Reference Gauss-Jordan elimination with the contract of
    `jetdiff.linalg._eliminate`, but with each pivot normalized to 1:
    reduces `rows` and returns (pivot rows in pivot order then zero rows,
    pivot columns).  With `prime` 0 the rows are dicts column -> nonzero
    Fraction or int and the field is Q; otherwise their entries are ints
    in [0, prime) and the field is GF(prime).

    This is the plain column scan: for each column in order, the first
    row at or below the current pivot position holding it becomes the
    pivot.  No index, no pivot choice, so it is the oracle for the
    indexed kernel.
    """
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    pivots = []
    piv_row = 0
    nrows = len(rows)
    for col in range(ncols):
        if piv_row == nrows:
            break
        hit = None
        for r in range(piv_row, nrows):
            if col in rows[r]:
                hit = r
                break
        if hit is None:
            continue
        rows[piv_row], rows[hit] = rows[hit], rows[piv_row]
        prow = rows[piv_row]
        inv = pow(prow[col], -1, prime) if prime else Fraction(1) / prow[col]
        if inv != 1:
            prow = {c: v * inv for c, v in prow.items()}
            if prime:
                prow = {c: v % prime for c, v in prow.items()}
            rows[piv_row] = prow
        for r in range(nrows):
            if r == piv_row:
                continue
            factor = rows[r].get(col)
            if factor is None:
                continue
            target = rows[r]
            for c, v in prow.items():
                s = target.get(c, 0) - factor * v
                if prime:
                    s %= prime
                if s:
                    target[c] = s
                else:
                    target.pop(c, None)
        pivots.append(col)
        piv_row += 1
    return rows, pivots


def reference_substitute(p, bindings):
    """Reference substitution with the contract of
    `SparsePolynomial.substitute`: simultaneous, unbound variables pass
    through.

    Term by term in Fraction arithmetic: each monomial's bound factors
    are powered by repeated polynomial products (image^e = image^(e-1) *
    image, cached per call) and multiplied as polynomials.  No packing, no
    common denominator and no `**` (which is itself a substitution), so it
    is the oracle for the packed substitution kernel.
    """
    if not bindings or not p.terms:
        return p
    bound = {v: SparsePolynomial._coerce(val) for v, val in bindings.items()}
    pow_cache = {}
    total = SparsePolynomial.zero()
    for mono, coeff in p.terms.items():
        passthrough = []
        factor = None
        for v, e in mono:
            if v in bound:
                power = _reference_power(bound[v], v, e, pow_cache)
                factor = power if factor is None else factor * power
            else:
                passthrough.append((v, e))
        term = SparsePolynomial({tuple(passthrough): coeff})
        if factor is not None:
            term = term * factor
        total = total + term
    return total


def _reference_power(base, v, e, cache):
    """base^e by repeated products, cached under (v, e) for every e reached."""
    power = cache.get((v, e))
    if power is None:
        power = base if e == 1 else _reference_power(base, v, e - 1, cache) * base
        cache[(v, e)] = power
    return power


def random_reparam(rng, order):
    coeffs = [nonzero_rational(rng)] + [rational(rng) for _ in range(order - 1)]
    return ReparamJet(coeffs)


def random_jet(rng, spec):
    entries = [
        [rational(rng) for _ in range(spec.rank)] for _ in range(spec.order)
    ]
    return JetPoint(spec, entries)


def random_invertible(rng, n, lo=-4, hi=4, max_den=2):
    """A random n-by-n matrix of Fractions with full rank."""
    while True:
        rows = [[rational(rng, lo, hi, max_den) for _ in range(n)] for _ in range(n)]
        if dense_rank(rows) == n:
            return rows


def random_target_map(rng, rank, degree=2, points=((0, 0),)):
    """A random polynomial coordinate change whose Jacobian is invertible.

    The Jacobian is checked at every point in `points`; candidates failing
    the check are resampled.  Components have degree at most `degree`.
    """
    zs = [base_var(j) for j in range(1, rank + 1)]
    while True:
        comps = []
        for _ in range(rank):
            p = SparsePolynomial.zero()
            for z in zs:
                p = p + SparsePolynomial.variable(z) * rational(rng, -3, 3, 1)
            if degree >= 2:
                for a in range(rank):
                    for b in range(a, rank):
                        q = SparsePolynomial.variable(zs[a]) * SparsePolynomial.variable(zs[b])
                        p = p + q * rational(rng, -2, 2, 1)
            if degree >= 3:
                for z in zs:
                    p = p + monomial(z, 3) * rational(rng, -2, 2, 1)
            comps.append(p)
        psi = TargetMap(comps)
        if all(dense_rank(psi.jacobian(pt)) == rank for pt in points):
            return psi


def raising_kernel_labels(space):
    """Rank-2 irreducible labels of an `InvariantSpace`, highest weight
    first, from one `nullspace` per torus block.

    Block w gives the kernel of its raised basis vectors E b_i followed by
    the basis vectors of weight w + (1, -1).  Those are independent, so the
    kernel has one vector per E b_i exactly when every E b_i stays in their
    span, and the kernel vectors whose free column is a raised vector
    count the kernel of E on w: the highest-weight vectors there, which
    must have a dominant weight.  This is the reference for the
    block-size differences of `decompose`, with which it shares no count.
    """
    raised = _root_move(space, space.vectors, 2, 1)
    blocks = _torus_blocks(space.torus_weights())
    labels = []
    for wt, idxs in sorted(blocks.items(), reverse=True):
        above = [space.vectors[j] for j in blocks.get((wt[0] + 1, wt[1] - 1), ())]
        kernel = nullspace(RationalMatrix.from_columns([raised[i] for i in idxs] + above))
        assert len(kernel) == len(idxs), f"raising left the span at torus weight {wt}"
        count = sum(next(reversed(vec)) < len(idxs) for vec in kernel)
        if count:
            assert wt[0] >= wt[1], f"highest-weight vector at non-dominant torus weight {wt}"
            labels.append(IrrepLabel(wt, count))
    return labels
