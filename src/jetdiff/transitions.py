"""How invariant jet differentials move under target coordinate changes.

Two constructions are deliberately kept as independent code paths:

  * differential_transition pushes the tautological jet through a
    polynomial coordinate change (full chain rule, all derivative orders)
    and re-expands each basis element in the basis;
  * associated_action substitutes f^(i) -> g * f^(i) for a constant
    matrix g, the naive fiberwise linear action, with no series machinery
    at all.

For linear coordinate changes the two agree; for genuinely nonlinear ones
they differ, and the difference is exactly where second derivatives of
the coordinate change enter.  splitting_check makes that visible as
nonzero off-diagonal blocks against a basis partition, with witnesses.

The module also carries the order-1 counterpart (transition of a natural
frame on the direction bundle over a two-dimensional base, again with a
second-derivative flag) and the exact threshold arithmetic used by the
contradiction audit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .invariants import InvariantSpace, IrrepLabel
from .jets import JetPoint, TargetMap, act_target
from .linalg import dense_rank
from .poly import SparsePolynomial, jet_var, substitute_all

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TransitionMatrix:
    """A square matrix over the canonical basis of an invariant space.

    Convention: column j holds the coordinates of the image of basis
    element j, so the matrix acts on coefficient vectors from the left.
    Built either from a polynomial coordinate change at a basepoint or
    from a constant fiberwise matrix.  Entries are stored as given, so
    they must already be Fractions; only the n x n shape is checked.
    """

    __slots__ = ("space", "entries")

    def __init__(self, space: InvariantSpace, entries: Sequence[Sequence[Fraction]]):
        n = space.dimension
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        self.space = space
        self.entries = rows

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def apply(self, vec: Sequence[Fraction]) -> List[Fraction]:
        n = self.space.dimension
        if len(vec) != n:
            raise ValueError(f"vector length {len(vec)}, expected {n}")
        return [
            sum((row[j] * vec[j] for j in range(n)), _ZERO) for row in self.entries
        ]

    def matmul(self, other: "TransitionMatrix") -> "TransitionMatrix":
        if other.space is not self.space and other.space.monomials != self.space.monomials:
            raise ValueError("matrices live over different spaces")
        n = self.space.dimension
        prod = [
            [
                sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), _ZERO)
                for j in range(n)
            ]
            for i in range(n)
        ]
        return TransitionMatrix(self.space, prod)

    def is_identity(self) -> bool:
        n = self.space.dimension
        return all(
            self.entries[i][j] == (_ONE if i == j else _ZERO)
            for i in range(n)
            for j in range(n)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"TransitionMatrix({self.space!r}, {len(self.entries)}x{len(self.entries)})"


def differential_transition(
    space: InvariantSpace, psi: TargetMap, basepoint: Sequence
) -> TransitionMatrix:
    """Matrix of Q -> Q(jet of psi o f) on the invariant space.

    The tautological jet is pushed through psi at the basepoint, each
    basis element is evaluated on the moved jet and re-expanded in the
    basis.  A singular Jacobian is rejected (the fiber substitution is not
    invertible there); an image outside the span would mean the invariant
    subspace is not respected, which is a bug, not user error.
    """
    spec = space.spec
    if psi.rank != spec.rank:
        raise ValueError(f"rank mismatch: space {spec.rank} vs map {psi.rank}")
    point = tuple(Fraction(v) for v in basepoint)
    if dense_rank(psi.jacobian(point)) < spec.rank:
        raise ValueError("target map has singular Jacobian at the basepoint")
    moved = act_target(JetPoint.formal(spec), psi, point)
    bindings = {
        jet_var(j, i): moved.entry(i, j)
        for i in range(1, spec.order + 1)
        for j in range(1, spec.rank + 1)
    }
    images = substitute_all(space.basis, bindings)
    try:
        columns = space.expand_many(images)
    except ValueError as exc:
        raise RuntimeError(
            f"transition left the invariant span (bug in the action): {exc}"
        ) from exc
    return TransitionMatrix(space, _square(columns))


def associated_action(g: Sequence[Sequence], space: InvariantSpace) -> TransitionMatrix:
    """Matrix of the naive fiberwise action f^(i) -> g f^(i), all orders i.

    Pure substitution with a constant invertible matrix; shares no code
    with differential_transition on purpose, so agreement between the two
    on linear coordinate changes is an actual cross-check.
    """
    spec = space.spec
    rows = [[Fraction(v) for v in row] for row in g]
    if len(rows) != spec.rank or any(len(r) != spec.rank for r in rows):
        raise ValueError(f"expected a {spec.rank}x{spec.rank} matrix")
    if dense_rank(rows) < spec.rank:
        raise ValueError("group element must be invertible")
    bindings = {}
    for i in range(1, spec.order + 1):
        for j in range(1, spec.rank + 1):
            image = SparsePolynomial.zero()
            for l in range(1, spec.rank + 1):
                if rows[j - 1][l - 1]:
                    image = image + SparsePolynomial.variable(jet_var(l, i)) * rows[j - 1][l - 1]
            bindings[jet_var(j, i)] = image
    images = substitute_all(space.basis, bindings)
    try:
        columns = space.expand_many(images)
    except ValueError as exc:
        raise RuntimeError(
            f"fiberwise action left the invariant span (bug): {exc}"
        ) from exc
    return TransitionMatrix(space, _square(columns))


def _square(columns: Sequence[Dict[int, Fraction]]) -> List[List[Fraction]]:
    """The n x n entries whose column j is the sparse coordinate vector
    columns[j]; every entry is printed, so this is the one dense step."""
    n = len(columns)
    entries = [[_ZERO] * n for _ in range(n)]
    for j, col in enumerate(columns):
        for i, value in col.items():
            entries[i][j] = value
    return entries


class Witness(NamedTuple):
    row: int
    col: int
    value: Fraction


def _nonzero_entries(
    matrix: TransitionMatrix, rows: Sequence[int], cols: Sequence[int]
) -> List[Witness]:
    """The nonzero entries of one block of `matrix`, row by row."""
    return [Witness(i, j, v) for i in rows for j in cols if (v := matrix.entry(i, j))]


class SplittingVerdict(NamedTuple):
    """Whether a transition matrix is block diagonal for a basis partition.

    `splits` is True when every off-diagonal block vanishes; `witnesses`
    lists the nonzero off-diagonal entries (row, column, value) in row
    major order, and `block_mixing` records, per ordered pair of distinct
    partition labels, whether the corresponding block is nonzero.
    """

    partition: Tuple[Tuple[IrrepLabel, Tuple[int, ...]], ...]
    splits: bool
    witnesses: Tuple[Witness, ...]
    block_mixing: Tuple[Tuple[Tuple[IrrepLabel, IrrepLabel], bool], ...]


def splitting_check(
    matrix: TransitionMatrix,
    partition: Sequence[Tuple[IrrepLabel, Sequence[int]]],
) -> SplittingVerdict:
    """Test block-diagonality of `matrix` against a basis partition."""
    n = matrix.space.dimension
    seen: Dict[int, IrrepLabel] = {}
    for label, idxs in partition:
        for i in idxs:
            if i < 0 or i >= n:
                raise ValueError(f"partition index {i} out of range")
            if i in seen:
                raise ValueError(f"partition repeats index {i}")
            seen[i] = label
    if len(seen) != n:
        missing = [i for i in range(n) if i not in seen]
        raise ValueError(f"partition misses indices {missing}")
    witnesses: List[Witness] = []
    mixing: List[Tuple[Tuple[IrrepLabel, IrrepLabel], bool]] = []
    for row_label, row_idxs in partition:
        for col_label, col_idxs in partition:
            if row_label == col_label:
                continue
            found = _nonzero_entries(matrix, row_idxs, col_idxs)
            witnesses.extend(found)
            mixing.append(((row_label, col_label), bool(found)))
    witnesses.sort(key=lambda w: (w.row, w.col))
    return SplittingVerdict(
        partition=tuple((l, tuple(ix)) for l, ix in partition),
        splits=not witnesses,
        witnesses=tuple(witnesses),
        block_mixing=tuple(mixing),
    )


class ClosureVerdict(NamedTuple):
    """Whether the pure-first-derivative coefficient block maps into itself."""

    indices: Tuple[int, ...]  # basis indices supported on order-1 variables only
    closed: bool
    violations: Tuple[Witness, ...]


def s_block_closure(matrix: TransitionMatrix) -> ClosureVerdict:
    """Check that basis elements built purely from first derivatives stay
    inside their own span under the transition.

    Structurally this must hold for every map: the first derivative of
    psi o f involves only first derivatives of f, so a polynomial in the
    f_j' alone transforms into another such.  The check reads the actual
    matrix entries instead of trusting the argument.
    """
    space = matrix.space
    # a weight-m monomial has total degree m exactly when every variable
    # is a first derivative, and the torus weight counts the total degree
    pure = tuple(i for i, w in enumerate(space.torus_weights()) if sum(w) == space.weight)
    outside = [i for i in range(space.dimension) if i not in pure]
    violations = _nonzero_entries(matrix, outside, pure)
    return ClosureVerdict(pure, not violations, tuple(violations))


def v1_frame_transition(
    psi: TargetMap, point: Sequence, slope: Fraction
) -> Tuple[Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]], bool]:
    """Order-1 analogue on the direction bundle over a two-dimensional base.

    Chart data: a point (z1, z2) and a slope xi describing the direction
    (1, xi); the frame is (vertical direction-coordinate vector, the
    horizontal lift of the direction itself).  Under a coordinate change
    psi the direction transforms by the projectivized Jacobian and the
    frame by the returned 2x2 matrix: column 1 is the image of the
    vertical vector, column 2 the image of the lift.

    Returns (matrix, flag) where the flag says whether any second
    derivative of psi actually entered the entries: the matrix is
    recomputed with all second derivatives forced to zero and compared.
    Raises when the Jacobian is singular or when the image direction
    leaves the first-component chart (its first component vanishes).
    """
    if psi.rank != 2:
        raise ValueError("direction-bundle frame transition is a rank-2 computation")
    pt = [Fraction(v) for v in point]
    xi = Fraction(slope)
    first = psi.jacobian(pt)
    if dense_rank(first) < 2:
        raise ValueError("target map has singular Jacobian at the point")
    second = psi.second_derivatives(pt)
    zero_second = [[[_ZERO] * 2 for _ in range(2)] for _ in range(2)]
    full = _frame_entries(first, second, xi)
    linearized = _frame_entries(first, zero_second, xi)
    return full, full != linearized


def _frame_entries(first, second, xi):
    """The 2x2 frame matrix from first/second derivative values.

    Writing the image slope as a quotient N/D of Jacobian contractions,
    entry (1,1) is its derivative along the slope coordinate, entry (1,2)
    its derivative along the base flowed in the direction (1, xi), entry
    (2,2) the first component of the image direction, and entry (2,1) is
    structurally zero (the vertical stays vertical).
    """
    d0 = first[0][0] + xi * first[0][1]
    if d0 == 0:
        raise ValueError(
            "image direction leaves the first-component chart (vanishing first component)"
        )
    n0 = first[1][0] + xi * first[1][1]
    dsq = d0 * d0
    dxi_dxi = (first[1][1] * d0 - first[0][1] * n0) / dsq
    dxi_dz = []
    for l in range(2):
        dn = second[1][0][l] + xi * second[1][1][l]
        dd = second[0][0][l] + xi * second[0][1][l]
        dxi_dz.append((dn * d0 - n0 * dd) / dsq)
    e12 = dxi_dz[0] + xi * dxi_dz[1]
    return ((dxi_dxi, e12), (_ZERO, d0))


def theta_lower_bound(degree: int, weight: int) -> Fraction:
    """Exact lower bound for the order-2 threshold slope at the given
    surface degree and weight.

    Defined for weight in {3, 4, 5} and degree >= 5; degree 4 is the pole
    of the formula and is rejected separately.
    """
    if weight not in (3, 4, 5):
        raise ValueError(f"weight must be 3, 4 or 5, got {weight}")
    if degree == 4:
        raise ValueError("degree 4 is the pole of the bound (division by zero)")
    if degree < 5:
        raise ValueError(f"degree must be >= 5, got {degree}")
    return Fraction(-1, 2 * weight) + (2 - Fraction(7, 2 * weight)) / (degree - 4)


class ThetaAuditRow(NamedTuple):
    degree: int
    weight: int
    lower_bound: Fraction
    upper_bound: Fraction
    contradiction: bool  # lower bound exceeds the upper bound


def contradiction_audit(
    degrees: Sequence[int],
    weight: int = 3,
    upper_bound: Fraction = Fraction(-1, 3),
) -> List[ThetaAuditRow]:
    """Compare the exact lower bound against a fixed upper bound.

    The default upper bound -1/3 is what a globally split cubic-part /
    canonical-line decomposition at order 2, weight 3 would force; a row
    with lower > upper certifies that no such splitting can exist at that
    degree.  Passing a different upper bound (say +1/3) gives the
    flag-off control.  Degrees below 6 are outside the audit's regime.
    """
    degrees = list(degrees)
    if not degrees:
        raise ValueError("audit needs at least one degree")
    upper = Fraction(upper_bound)
    rows = []
    for d in degrees:
        if d < 6:
            raise ValueError(f"audit regime needs degree >= 6, got {d}")
        low = theta_lower_bound(d, weight)
        rows.append(ThetaAuditRow(d, weight, low, upper, low > upper))
    return rows
