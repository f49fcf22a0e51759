"""Reparametrization-invariant jet differentials of fixed weight.

A weight-m jet differential is a polynomial in the jet variables in which
f_j^(i) counts with weight i.  It is invariant when substituting a formal
reparametrization with leading coefficient a1 rescales it by exactly a1^m:

    Q(f o phi) = a1^m * Q(f)    as a polynomial identity in the a_i.

Weighted homogeneity already settles the a1 scaling, so the condition
reduces to invariance under the unipotent part (a1 = 1, formal a2..ak).
The module builds that linear condition on the coefficients of a general
weight-m polynomial, one constraint row per mixed monomial in (parameters
x jet variables), and reads the invariants off the exact nullspace.  Every
basis element is re-verified against the fully formal action, including
formal a1, before it is returned.

Highest-weight bookkeeping for the standard linear action on components
(f^(i) -> g * f^(i) for all i at once) lives here too: torus weights are
component counts, the raising operator is the polynomial derivation
sum_i f_to^(i) * d/df_from^(i), and for two components the decomposition
into irreducibles is computed from per-weight kernels of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .jets import JetPoint, JetSpec, ReparamJet, act_reparam
from .linalg import RationalMatrix, nullspace, solve_in_span
from .linalg import rank as matrix_rank  # noqa: F401  perfbench's tracer wraps this name
from .poly import (
    JET,
    Monomial,
    SparsePolynomial,
    Variable,
    jet_var,
    mono_degree,
    mono_sort_key,
    param_var,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mono_weight(m: Monomial) -> int:
    """Weighted degree of a jet monomial: each f_j^(i) counts with weight i."""
    total = 0
    for v, e in m:
        if v.kind != JET:
            raise ValueError(f"monomial contains non-jet variable {v.name}")
        total += v.order * e
    return total


def enumerate_monomials(spec: JetSpec, weight: int) -> List[Monomial]:
    """All jet monomials of the given weighted degree, canonically ordered.

    Variables of derivative order above the weight can never occur (their
    weight alone exceeds the budget), so an order beyond the weight
    contributes nothing new.  weight 0 yields just the constant monomial.
    """
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    variables = [v for v in spec.jet_variables() if v.order <= weight]
    results: List[Monomial] = []

    def extend(idx: int, remaining: int, acc: List[Tuple[Variable, int]]):
        if remaining == 0:
            results.append(tuple(sorted(acc)))
            return
        if idx == len(variables):
            return
        v = variables[idx]
        max_exp = remaining // v.order
        for e in range(max_exp, -1, -1):
            if e:
                acc.append((v, e))
                extend(idx + 1, remaining - e * v.order, acc)
                acc.pop()
            else:
                extend(idx + 1, remaining, acc)
    extend(0, weight, [])
    results.sort(key=mono_sort_key)
    return results


def _unipotent_moved_entries(spec: JetSpec) -> Dict[Variable, SparsePolynomial]:
    """jet variable -> its image under the formal unipotent action."""
    phi = ReparamJet.formal(spec.order, unipotent=True)
    moved = act_reparam(JetPoint.formal(spec), phi)
    out: Dict[Variable, SparsePolynomial] = {}
    for i in range(1, spec.order + 1):
        for j in range(1, spec.rank + 1):
            value = moved.entry(i, j)
            if isinstance(value, Fraction):
                value = SparsePolynomial.constant(value)
            out[jet_var(j, i)] = value
    return out


def invariance_system(spec: JetSpec, weight: int) -> RationalMatrix:
    """Linear constraints on weight-m coefficient vectors for unipotent
    invariance.

    Column order is the canonical monomial order from enumerate_monomials;
    rows are indexed by the mixed monomials (parameters and jet variables
    together) appearing in any residual, in canonical order.  Order 1 has
    no unipotent part, so the matrix has zero rows there.
    """
    monomials = enumerate_monomials(spec, weight)
    ncols = len(monomials)
    if spec.order == 1:
        return RationalMatrix(0, ncols, [])
    bindings = _unipotent_moved_entries(spec)

    residuals = []
    for mono in monomials:
        original = SparsePolynomial.monomial(mono)
        residuals.append(original.substitute(bindings) - original)

    row_keys = sorted({key for res in residuals for key in res.terms}, key=mono_sort_key)
    row_index = {key: i for i, key in enumerate(row_keys)}
    rows: List[Dict[int, Fraction]] = [dict() for _ in row_keys]
    for col, res in enumerate(residuals):
        for key, coeff in res.terms.items():
            rows[row_index[key]][col] = coeff
    return RationalMatrix(len(row_keys), ncols, rows)


@dataclass(frozen=True)
class InvarianceVerdict:
    """Outcome of checking one polynomial against the fully formal action."""

    invariant: bool
    weight: int
    residual: Optional[SparsePolynomial]  # None exactly when invariant


def verify_invariance(q: SparsePolynomial, spec: JetSpec) -> InvarianceVerdict:
    """Check Q(f o phi) = a1^m Q(f) with every a_i formal, a1 included.

    The input must be a polynomial in jet variables within the spec's
    shape, weighted-homogeneous (a mixed-weight input raises, naming the
    weights found); m is read off the input, never passed in.  Both sides
    are polynomials in the a_i, so the identity holds for all a1 != 0 as
    soon as the difference vanishes identically.
    """
    weights = set()
    for mono in q.terms:
        for v, _ in mono:
            if v.kind != JET:
                raise ValueError(f"not a jet polynomial: contains {v.name}")
            if v.comp > spec.rank or v.order > spec.order:
                raise ValueError(
                    f"variable {v.name} outside shape (rank {spec.rank}, order {spec.order})"
                )
        weights.add(mono_weight(mono))
    if len(weights) > 1:
        raise ValueError(
            f"mixed weights {sorted(weights)}: invariance is only defined for "
            "weighted-homogeneous polynomials"
        )
    weight = weights.pop() if weights else 0
    phi = ReparamJet.formal(spec.order)
    moved = act_reparam(JetPoint.formal(spec), phi)
    bindings = {
        jet_var(j, i): moved.entry(i, j)
        for i in range(1, spec.order + 1)
        for j in range(1, spec.rank + 1)
    }
    scaled = SparsePolynomial.variable(param_var(1)) ** weight * q
    residual = q.substitute(bindings) - scaled
    if residual.is_zero():
        return InvarianceVerdict(True, weight, None)
    return InvarianceVerdict(False, weight, residual)


@dataclass(frozen=True)
class IrrepLabel:
    """Highest weight of an irreducible constituent, with multiplicity."""

    highest_weight: Tuple[int, ...]
    multiplicity: int

    def dimension(self) -> int:
        if len(self.highest_weight) != 2:
            raise ValueError("dimension formula implemented for two components only")
        a, b = self.highest_weight
        return a - b + 1


class InvariantSpace:
    """The space of invariant weight-m jet differentials for one shape.

    Carries the canonical monomial column order, the canonical basis
    (integer coefficient vectors from the nullspace, content 1, positive
    leading entry, ordered by free column), and the torus weight of each
    basis element.  Construction verifies every basis element against the
    fully formal action before returning.
    """

    __slots__ = ("spec", "weight", "monomials", "coefficients", "basis", "system_shape")

    def __init__(
        self,
        spec: JetSpec,
        weight: int,
        monomials: Sequence[Monomial],
        coefficients: Sequence[Sequence[Fraction]],
        system_shape: Tuple[int, int],
    ):
        self.spec = spec
        self.weight = weight
        self.monomials = tuple(monomials)
        self.coefficients = tuple(tuple(v) for v in coefficients)
        self.system_shape = system_shape
        basis = []
        for vec in self.coefficients:
            poly = SparsePolynomial(
                {m: c for m, c in zip(self.monomials, vec) if c}
            )
            basis.append(poly)
        self.basis = tuple(basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def expand_many(self, polys: Sequence[SparsePolynomial]) -> List[List[Fraction]]:
        """Coordinates of each polynomial in the basis; raises ValueError
        when one of them leaves the span (or even the monomial support)."""
        index = {m: i for i, m in enumerate(self.monomials)}
        targets = []
        for p in polys:
            vec = [_ZERO] * len(self.monomials)
            for m, c in p.terms.items():
                if m not in index:
                    raise ValueError(
                        f"monomial {SparsePolynomial.monomial(m)} is outside the "
                        f"weight-{self.weight} support"
                    )
                vec[index[m]] = c
            targets.append(vec)
        columns = [list(vec) for vec in self.coefficients]
        return solve_in_span(columns, targets)

    def expand_in_basis(self, p: SparsePolynomial) -> List[Fraction]:
        return self.expand_many([p])[0]

    def torus_weights(self) -> List[Tuple[int, ...]]:
        return [_torus_weight_of(p, self.spec.rank) for p in self.basis]

    def __repr__(self) -> str:
        return (
            f"InvariantSpace(rank={self.spec.rank}, order={self.spec.order}, "
            f"weight={self.weight}, dim={self.dimension})"
        )


def invariant_basis(spec: JetSpec, weight: int) -> InvariantSpace:
    """Solve the unipotent constraint system and package the nullspace.

    Every returned element is checked to be invariant under the fully
    formal action (formal a1 too); a failure there would be a bug in the
    construction, not in the input, hence RuntimeError.
    """
    monomials = enumerate_monomials(spec, weight)
    system = invariance_system(spec, weight)
    vectors = nullspace(system)
    space = InvariantSpace(spec, weight, monomials, vectors, (system.nrows, system.ncols))
    for q in space.basis:
        verdict = verify_invariance(q, spec)
        if not verdict.invariant:
            raise RuntimeError(
                f"constructed element failed formal invariance: {q} "
                f"(residual {verdict.residual})"
            )
    return space


def _torus_weight_of(p: SparsePolynomial, rank: int) -> Tuple[int, ...]:
    """Component-count vector (d1..dr), demanding all terms agree."""
    if p.is_zero():
        raise ValueError("torus weight of the zero polynomial is undefined")
    seen = None
    for mono in p.terms:
        counts = [0] * rank
        for v, e in mono:
            if v.kind != JET:
                raise ValueError(f"not a jet polynomial: contains {v.name}")
            counts[v.comp - 1] += e
        counts = tuple(counts)
        if seen is None:
            seen = counts
        elif seen != counts:
            raise ValueError(
                f"mixed torus weights {seen} and {counts}; the polynomial is not "
                "weight-homogeneous for the component torus"
            )
    return seen


def torus_weights(space: InvariantSpace) -> List[Tuple[int, ...]]:
    return space.torus_weights()


def raising_action(
    q: SparsePolynomial, from_comp: int, to_comp: int
) -> SparsePolynomial:
    """The derivation sum_i f_to^(i) * dQ/df_from^(i).

    Moving weight toward the lower component index is the raising
    direction: with from=2, to=1 the kernel consists of highest-weight
    vectors for the two-component action.
    """
    if from_comp == to_comp:
        raise ValueError("raising between identical components is the degree derivation")
    orders = sorted({v.order for v in q.variables() if v.kind == JET})
    out = SparsePolynomial.zero()
    for i in orders:
        out = out + SparsePolynomial.variable(jet_var(to_comp, i)) * q.derivative(
            jet_var(from_comp, i)
        )
    return out


def _weight_blocks(space: InvariantSpace) -> Dict[Tuple[int, ...], List[int]]:
    blocks: Dict[Tuple[int, ...], List[int]] = {}
    for idx, wt in enumerate(space.torus_weights()):
        blocks.setdefault(wt, []).append(idx)
    return blocks


def decompose(space: InvariantSpace) -> List[IrrepLabel]:
    """Multiplicities of irreducible constituents for two components.

    For each torus weight, the kernel of the raising operator restricted
    to that weight block counts the highest-weight vectors there; a kernel
    vector at a non-dominant weight cannot occur in a finite-dimensional
    representation and raises.  The dimension identity
    sum (l1 - l2 + 1) * multiplicity = dim is checked before returning.
    """
    return [label for label, _, _ in _highest_weight_vectors(space)]


def _highest_weight_vectors(
    space: InvariantSpace,
) -> List[Tuple[IrrepLabel, List[int], List[List[Fraction]]]]:
    """Each irreducible label, highest weight first, with the basis
    indices of its torus weight block and the kernel vectors of raising
    on that block (coordinates over those indices).

    Every basis element is raised once and the results are expanded with
    one solve; each torus weight block then gives one nullspace.
    """
    if space.spec.rank != 2:
        raise ValueError(
            "irreducible labels are only certified for two components; dimensions "
            "are available at any rank"
        )
    raised = [raising_action(q, from_comp=2, to_comp=1) for q in space.basis]
    columns = _raising_columns(space, raised)
    found: List[Tuple[IrrepLabel, List[int], List[List[Fraction]]]] = []
    for wt, idxs in sorted(_weight_blocks(space).items(), reverse=True):
        block = [columns[i] for i in idxs]
        mat = RationalMatrix.from_rows(_transpose(block, space.dimension))
        kernel = nullspace(mat)
        if not kernel:
            continue
        if wt[0] < wt[1]:
            raise RuntimeError(
                f"highest-weight vector found at non-dominant torus weight {wt}"
            )
        found.append((IrrepLabel(wt, len(kernel)), idxs, kernel))
    total = sum(l.dimension() * l.multiplicity for l, _, _ in found)
    if total != space.dimension:
        raise RuntimeError(
            f"decomposition dimensions sum to {total}, expected {space.dimension}"
        )
    return found


def _raising_columns(
    space: InvariantSpace, raised: Sequence[SparsePolynomial]
) -> List[List[Fraction]]:
    """Coordinates of each raised basis element; zero polynomials allowed."""
    zero_vec = [_ZERO] * space.dimension
    nonzero = [(i, p) for i, p in enumerate(raised) if not p.is_zero()]
    columns = [list(zero_vec) for _ in raised]
    if nonzero:
        try:
            solved = space.expand_many([p for _, p in nonzero])
        except ValueError as exc:
            raise RuntimeError(
                f"raising operator left the invariant span: {exc}"
            ) from exc
        for (i, _), vec in zip(nonzero, solved):
            columns[i] = vec
    return columns


def _transpose(columns: Sequence[Sequence[Fraction]], height: int) -> List[List[Fraction]]:
    if not columns:
        return [[] for _ in range(height)]
    return [[col[i] for col in columns] for i in range(height)]


def irrep_partition(
    space: InvariantSpace,
) -> List[Tuple[IrrepLabel, Tuple[int, ...]]]:
    """Assign each basis index to the isotypic component containing it.

    Isotypic spans are generated by lowering strings from the per-weight
    highest-weight vectors; together the strings form an adapted basis P.
    Basis element i lies in the span of label l exactly when column i of
    P^-1 is supported on l's strings.  The canonical basis must be adapted
    (each basis vector inside one isotypic span); when it is not, this
    raises rather than fabricating a partition.
    """
    found = _highest_weight_vectors(space)
    strings: List[SparsePolynomial] = []
    owner: List[int] = []  # label index of each string element, i.e. column of P
    for which, (label, idxs, kernel) in enumerate(found):
        for kvec in kernel:
            current = SparsePolynomial.zero()
            for coeff, idx in zip(kvec, idxs):
                current = current + space.basis[idx] * coeff
            for _ in range(label.dimension()):
                strings.append(current)
                owner.append(which)
                current = raising_action(current, from_comp=1, to_comp=2)
            if not current.is_zero():
                raise RuntimeError(
                    "lowering string did not terminate at the expected length"
                )
    try:
        adapted = space.expand_many(strings)
    except ValueError as exc:
        raise RuntimeError(f"lowering left the invariant span: {exc}") from exc
    n = space.dimension
    units = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    try:
        coords = solve_in_span(adapted, units)
    except ValueError as exc:
        raise RuntimeError(f"lowering strings do not form a basis: {exc}") from exc
    members: List[List[int]] = [[] for _ in found]
    missing = []
    for idx, vec in enumerate(coords):
        owners = {owner[col] for col, v in enumerate(vec) if v}
        if len(owners) == 1:
            members[owners.pop()].append(idx)
        else:
            missing.append(idx)
    if missing:
        raise RuntimeError(
            f"basis elements {missing} lie in no single isotypic span; basis "
            "is not adapted to the decomposition"
        )
    return [(label, tuple(idxs)) for (label, _, _), idxs in zip(found, members)]
