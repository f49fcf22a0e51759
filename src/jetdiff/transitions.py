"""How invariant jet differentials move under target coordinate changes.

Two substitutions of the jet variables are deliberately built by
independent code paths, then re-expanded in the basis by one shared step:

  * differential_transition pushes the tautological jet through a
    polynomial coordinate change (full chain rule, all derivative orders);
  * associated_action substitutes f^(i) -> g * f^(i) for a constant
    matrix g, the naive fiberwise linear action, with no series machinery
    at all.

For linear coordinate changes the two agree; for genuinely nonlinear ones
they differ, and the difference is exactly where second derivatives of
the coordinate change enter.  splitting_check makes that visible as
nonzero off-diagonal blocks against a basis partition, with witnesses.

The module also carries the order-1 counterpart (transition of a natural
frame on the direction bundle over a two-dimensional base, read off the
same moved jet at order 2, with a flag for whether second derivatives of
the coordinate change enter) and the exact threshold arithmetic used by
the contradiction audit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .invariants import InvariantSpace, IrrepLabel
from .jets import JetPoint, JetSpec, TargetMap, act_target
from .linalg import dense_rank
from .poly import SparsePolynomial, Variable, jet_var, substitute_all

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TransitionMatrix:
    """A square matrix over the canonical basis of an invariant space.

    Convention: column j holds the coordinates of the image of basis
    element j, so the matrix acts on coefficient vectors from the left.
    Both producers, differential_transition and associated_action, build
    it in `_transition_matrix`, so its entries are Fractions; the
    constructor checks only the n x n shape.
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

    def __repr__(self) -> str:
        return f"TransitionMatrix({self.space!r}, {len(self.entries)}x{len(self.entries)})"


def differential_transition(
    space: InvariantSpace, psi: TargetMap, basepoint: Sequence
) -> TransitionMatrix:
    """Matrix of Q -> Q(jet of psi o f) on the invariant space.

    The tautological jet is pushed through psi at the basepoint, each
    basis element is evaluated on the moved jet and re-expanded in the
    basis.  A singular Jacobian, read off the order-1 block of the moved
    jet, is rejected (the fiber substitution is not invertible there); an
    image outside the span would mean the invariant subspace is not
    respected, which is a bug, not user error.
    """
    spec = space.spec
    moved = act_target(JetPoint.formal(spec), psi, basepoint)
    if dense_rank(_jacobian(moved)) < spec.rank:
        raise ValueError("target map has singular Jacobian at the basepoint")
    return _transition_matrix(
        space, moved.bindings(), "transition left the invariant span (bug in the action)"
    )


def associated_action(g: Sequence[Sequence], space: InvariantSpace) -> TransitionMatrix:
    """Matrix of the naive fiberwise action f^(i) -> g f^(i), all orders i.

    The substitution is written down directly from the constant invertible
    matrix, with no series machinery; only the substitute-and-expand tail
    is shared with differential_transition, so agreement between the two
    on linear coordinate changes is an actual cross-check of act_target.
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
    return _transition_matrix(space, bindings, "fiberwise action left the invariant span (bug)")


def _transition_matrix(
    space: InvariantSpace, bindings: Mapping[Variable, SparsePolynomial], failure: str
) -> TransitionMatrix:
    """The matrix of Q -> Q(bindings) on the space, densified last (every
    entry is printed).  An image outside the span raises RuntimeError
    with the message `failure: <reason>`."""
    images = substitute_all(space.basis, bindings)
    try:
        columns = space.expand_many(images)
    except ValueError as exc:
        raise RuntimeError(f"{failure}: {exc}") from exc
    n = space.dimension
    entries = [[_ZERO] * n for _ in range(n)]
    for j, col in enumerate(columns):
        for i, value in col.items():
            entries[i][j] = value
    return TransitionMatrix(space, entries)


class Witness(NamedTuple):
    row: int
    col: int
    value: Fraction


class SplittingVerdict(NamedTuple):
    """Whether a transition matrix is block diagonal for a basis partition.

    `splits` is True when every off-diagonal block vanishes; `witnesses`
    lists the nonzero off-diagonal entries (row, column, value) in row
    major order.
    """

    partition: Tuple[Tuple[IrrepLabel, Tuple[int, ...]], ...]
    splits: bool
    witnesses: Tuple[Witness, ...]


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
    witnesses = tuple(
        Witness(i, j, v)
        for i, row in enumerate(matrix.entries)
        for j, v in enumerate(row)
        if v and seen[i] != seen[j]
    )
    return SplittingVerdict(
        partition=tuple((l, tuple(ix)) for l, ix in partition),
        splits=not witnesses,
        witnesses=witnesses,
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
    violations = tuple(
        Witness(i, j, v) for i in outside for j in pure if (v := matrix.entry(i, j))
    )
    return ClosureVerdict(pure, not violations, violations)


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

    The entries are read off the formal 2-jet moved by psi.  With J its
    order-1 block, (D, N) = J (1, xi) and (P1, P2) its order-2 block at
    f' = (1, xi), f'' = 0, the image slope is N/D and the matrix is
    ((det J / D^2, (P2 D - N P1) / D^2), (0, D)).  Only entry (1,2) holds
    second derivatives of psi, so the returned flag, whether any of them
    entered, is whether it is nonzero.
    Raises when the Jacobian is singular or when the image direction
    leaves the first-component chart (D = 0).
    """
    if psi.rank != 2:
        raise ValueError("direction-bundle frame transition is a rank-2 computation")
    xi = Fraction(slope)
    moved = act_target(JetPoint.formal(JetSpec(2, 2)), psi, point)
    (j11, j12), (j21, j22) = _jacobian(moved)
    det = j11 * j22 - j12 * j21
    if det == 0:
        raise ValueError("target map has singular Jacobian at the point")
    d = j11 + xi * j12
    if d == 0:
        raise ValueError(
            "image direction leaves the first-component chart (vanishing first component)"
        )
    n = j21 + xi * j22
    along = {jet_var(1, 1): _ONE, jet_var(2, 1): xi, jet_var(1, 2): _ZERO, jet_var(2, 2): _ZERO}
    p1, p2 = (moved.entry(2, j).evaluate(along) for j in (1, 2))
    dsq = d * d
    e12 = (p2 * d - n * p1) / dsq
    return ((det / dsq, e12), (_ZERO, d)), e12 != 0


def _jacobian(moved: JetPoint) -> List[List[Fraction]]:
    """[d psi_j / d z_l] at the basepoint, read off the order-1 block of the
    formal jet moved by psi, whose entry j is sum_l J[j][l] * f_l'."""
    rank = moved.spec.rank
    return [
        [moved.entry(1, j).coefficient(((jet_var(l, 1), 1),)) for l in range(1, rank + 1)]
        for j in range(1, rank + 1)
    ]


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
