"""Reparametrization-invariant jet differentials of fixed weight.

A weight-m jet differential is a polynomial in the jet variables in which
f_j^(i) counts with weight i.  It is invariant when substituting a formal
reparametrization with leading coefficient a1 rescales it by exactly a1^m:

    Q(f o phi) = a1^m * Q(f)    as a polynomial identity in the a_i.

Weighted homogeneity already settles the a1 scaling, so the condition
reduces to invariance under the unipotent part (a1 = 1, formal a2..ak).
That group is connected and its Lie algebra is generated by t^2 d/dt and
t^3 d/dt, so invariance is the same as D1 Q = D2 Q = 0 for the derivations

    D_s f_j^(i) = i!/(i-s-1)! * f_j^(i-s)    (i > s, else 0),

the first-order terms of phi = t + eps*t^(s+1) (Demailly 1997; Merker
2010).  Both derivations keep the component counts of a monomial (its
torus weight), so the linear system splits into one small integer block
per torus weight.  `invariant_basis` takes the exact kernel of each block
(`_kernel`, the one block kernel here) and merges the kernels in the
global column order; every basis element is then re-verified against the
fully formal action, including formal a1, before it is returned.

`invariance_system` is the independent route: one constraint row per mixed
monomial (parameters x jet variables) of the series-substitution residuals.
It backs `dim` and the tests that check the derivation kernel against it.

Highest-weight bookkeeping for the standard linear action on components
(f^(i) -> g * f^(i) for all i at once) lives here too: torus weights are
component counts, the raising operator is the derivation with
f_from^(i) -> f_to^(i) (`_derive` applies this rule and those of D1, D2),
and for two components the decomposition into irreducibles is computed
from per-weight kernels of raising.  Lowering after raising acts on each
weight space of an isotypic component by a scalar that tells the
components apart, so `irrep_partition` reads the component of every basis
element off that scalar, with no second basis and no second solve.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .jets import JetPoint, JetSpec, ReparamJet, act_reparam
from .linalg import RationalMatrix, nullspace, solve_in_span
from .linalg import rank as matrix_rank  # noqa: F401  perfbench's tracer wraps this name
from .poly import (
    JET,
    Monomial,
    Scalar,
    SparsePolynomial,
    Variable,
    jet_var,
    mono_mul,
    mono_sort_key,
    param_var,
    substitute_all,
)

_ZERO = Fraction(0)


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


def _derive(
    terms: Mapping[Monomial, Scalar], rule: Mapping[Variable, Tuple[Variable, int]]
) -> Dict[Monomial, Scalar]:
    """The derivation sending each variable v in `rule`, with rule[v] =
    (image, factor), to factor * image and every other variable to 0,
    applied to the polynomial with these terms; zero terms dropped.
    Integer coefficients give integer results."""
    out: Dict[Monomial, Scalar] = {}
    for mono, coeff in terms.items():
        for idx, (v, e) in enumerate(mono):
            hit = rule.get(v)
            if hit is None:
                continue
            target, factor = hit
            rest = mono[:idx] + (((v, e - 1),) if e > 1 else ()) + mono[idx + 1:]
            image = mono_mul(rest, ((target, 1),))
            out[image] = out.get(image, 0) + e * factor * coeff
    return {m: c for m, c in out.items() if c}


def _reparam_rule(spec: JetSpec, s: int) -> Dict[Variable, Tuple[Variable, int]]:
    """The rule of D_s: f_j^(i) -> i!/(i-s-1)! * f_j^(i-s) for i > s."""
    return {
        jet_var(j, i): (jet_var(j, i - s), factorial(i) // factorial(i - s - 1))
        for i in range(s + 1, spec.order + 1)
        for j in range(1, spec.rank + 1)
    }


def _kernel(columns: Mapping[int, Mapping[Hashable, int]]) -> List[Dict[int, Fraction]]:
    """`nullspace` of one block: `columns` maps each column index, in
    increasing order, to its sparse integer column (rows keyed by any
    hashable), as `_derive` computes it.
    The kernel vectors are keyed by those column indices."""
    labels = list(columns)
    kernel = nullspace(RationalMatrix.from_columns(columns.values()))
    return [{labels[j]: value for j, value in vec.items()} for vec in kernel]


@lru_cache(maxsize=16)
def _formal_action(rank: int, order: int, unipotent: bool) -> Mapping[Variable, SparsePolynomial]:
    """jet variable -> its image under the formal action (a1 = 1 when
    unipotent), computed once per shape and shared read-only."""
    spec = JetSpec(rank, order, allow_large=True)
    moved = act_reparam(JetPoint.formal(spec), ReparamJet.formal(order, unipotent))
    return MappingProxyType(
        {jet_var(j, i): moved.entry(i, j) for i in range(1, order + 1) for j in range(1, rank + 1)}
    )


def invariance_system(spec: JetSpec, weight: int) -> RationalMatrix:
    """Linear constraints on weight-m coefficient vectors for unipotent
    invariance.

    Column order is the canonical monomial order from enumerate_monomials;
    rows are indexed by the mixed monomials (parameters and jet variables
    together) appearing in any residual, in order of first appearance.
    Order 1 has no unipotent part, so the matrix has zero rows there.
    """
    monomials = enumerate_monomials(spec, weight)
    if spec.order == 1:
        return RationalMatrix(0, len(monomials), [])
    bindings = _formal_action(spec.rank, spec.order, True)
    images = substitute_all([SparsePolynomial.monomial(m) for m in monomials], bindings)
    for m, image in zip(monomials, images):
        del image.terms[m]  # the a-free part of the image, m itself; the dict is fresh
    return RationalMatrix.from_columns([image.terms for image in images])


class InvarianceVerdict(NamedTuple):
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
    return _verify_all([q], spec)[0]


def _verify_all(polys: Sequence[SparsePolynomial], spec: JetSpec) -> List[InvarianceVerdict]:
    """`verify_invariance` for a batch, with one substitution call."""
    weights = [_homogeneous_weight(q, spec) for q in polys]
    images = substitute_all(polys, _formal_action(spec.rank, spec.order, False))
    a1 = param_var(1)
    verdicts = []
    for q, weight, image in zip(polys, weights, images):
        # a1 sorts after every jet variable, so appending a1^m keeps each
        # monomial canonical; the residual is only built on a mismatch.
        scaled = {mono + ((a1, weight),): c for mono, c in q.terms.items()} if weight else q.terms
        if image.terms == scaled:
            verdicts.append(InvarianceVerdict(True, weight, None))
        else:
            verdicts.append(InvarianceVerdict(False, weight, image - SparsePolynomial(scaled)))
    return verdicts


def _homogeneous_weight(q: SparsePolynomial, spec: JetSpec) -> int:
    """The weight of a weighted-homogeneous jet polynomial in the shape."""
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
    return weights.pop() if weights else 0


class IrrepLabel(NamedTuple):
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

    The constructor takes each basis vector as {column: nonzero value} in
    increasing column order, and the torus weight of each; the
    weights are the torus blocks the vectors were found in, so they are
    stored rather than read back off the polynomials.  `coefficients`
    holds the vectors densely, built on first access.
    """

    __slots__ = ("spec", "weight", "monomials", "basis", "_torus_weights", "_coefficients")

    def __init__(
        self,
        spec: JetSpec,
        weight: int,
        monomials: Sequence[Monomial],
        vectors: Sequence[Mapping[int, Fraction]],
        torus_weights: Sequence[Tuple[int, ...]],
    ):
        self.spec = spec
        self.weight = weight
        self.monomials = tuple(monomials)
        self.basis = tuple(
            SparsePolynomial({self.monomials[col]: value for col, value in vec.items()})
            for vec in vectors
        )
        self._torus_weights = tuple(torus_weights)
        self._coefficients = None

    @property
    def coefficients(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """The basis vectors densely, one entry per monomial column."""
        if self._coefficients is None:
            column = {m: i for i, m in enumerate(self.monomials)}
            dense_rows = []
            for q in self.basis:
                dense = [_ZERO] * len(self.monomials)
                for m, value in q.terms.items():
                    dense[column[m]] = value
                dense_rows.append(tuple(dense))
            self._coefficients = tuple(dense_rows)
        return self._coefficients

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def expand_many(self, polys: Sequence[SparsePolynomial]) -> List[Dict[int, Fraction]]:
        """Coordinates of each polynomial in the basis, as {basis index:
        nonzero coefficient}; raises ValueError when one of them leaves the
        span, a monomial outside the weight-m support included."""
        return solve_in_span([q.terms for q in self.basis], [p.terms for p in polys])

    def torus_weights(self) -> List[Tuple[int, ...]]:
        return list(self._torus_weights)

    def __repr__(self) -> str:
        return (
            f"InvariantSpace(rank={self.spec.rank}, order={self.spec.order}, "
            f"weight={self.weight}, dim={self.dimension})"
        )


def invariant_basis(spec: JetSpec, weight: int) -> InvariantSpace:
    """The kernel of D1 and D2, one torus block at a time.

    Each block holds the monomials of one torus weight, in global column
    order; its rows are the image monomials of each D_s, kept apart by s.
    The block kernels are embedded in the global columns and sorted by
    free column (the last key), which reproduces the canonical nullspace
    of the whole system: the reduced kernel basis is unique once the
    kernel and the column order are fixed.

    Every returned element is checked to be invariant under the fully
    formal action (formal a1 too); a failure there would be a bug in the
    construction, not in the input, hence RuntimeError.
    """
    monomials = enumerate_monomials(spec, weight)
    rules = [_reparam_rule(spec, s) for s in (1, 2) if s < spec.order]
    blocks: Dict[Tuple[int, ...], List[int]] = {}
    for col, mono in enumerate(monomials):
        blocks.setdefault(_mono_torus_weight(mono, spec.rank), []).append(col)
    keyed: List[Tuple[Dict[int, Fraction], Tuple[int, ...]]] = []
    for torus, cols in blocks.items():
        columns = {
            col: {
                (s, image): coeff
                for s, rule in enumerate(rules)
                for image, coeff in _derive({monomials[col]: 1}, rule).items()
            }
            for col in cols
        }
        keyed.extend((vec, torus) for vec in _kernel(columns))
    keyed.sort(key=lambda item: next(reversed(item[0])))
    space = InvariantSpace(
        spec,
        weight,
        monomials,
        [vec for vec, _ in keyed],
        [torus for _, torus in keyed],
    )
    for q, verdict in zip(space.basis, _verify_all(space.basis, spec)):
        if not verdict.invariant:
            raise RuntimeError(
                f"constructed element failed formal invariance: {q} "
                f"(residual {verdict.residual})"
            )
    return space


def _mono_torus_weight(mono: Monomial, rank: int) -> Tuple[int, ...]:
    """Component-count vector (d1..dr) of one jet monomial."""
    counts = [0] * rank
    for v, e in mono:
        counts[v.comp - 1] += e
    return tuple(counts)


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
    rule = {
        v: (jet_var(to_comp, v.order), 1)
        for v in q.variables()
        if v.kind == JET and v.comp == from_comp
    }
    return SparsePolynomial(_derive(q.terms, rule))


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
    return _highest_weight_vectors(space)[0]


def _highest_weight_vectors(
    space: InvariantSpace,
) -> Tuple[List[IrrepLabel], List[SparsePolynomial]]:
    """The irreducible labels, highest weight first, and the raised basis
    elements E b_i they were counted from.

    Every basis element is raised once and the results are expanded with
    one solve; each torus weight block then gives one `_kernel` of the
    coordinates of its raised elements, whose size is the number of
    highest-weight vectors there.
    """
    if space.spec.rank != 2:
        raise ValueError(
            "irreducible labels are only certified for two components; dimensions "
            "are available at any rank"
        )
    raised = [raising_action(q, from_comp=2, to_comp=1) for q in space.basis]
    try:
        coords = space.expand_many(raised)
    except ValueError as exc:
        raise RuntimeError(f"raising operator left the invariant span: {exc}") from exc
    labels: List[IrrepLabel] = []
    for wt, idxs in sorted(_weight_blocks(space).items(), reverse=True):
        kernel = _kernel({idx: coords[idx] for idx in idxs})
        if not kernel:
            continue
        if wt[0] < wt[1]:
            raise RuntimeError(
                f"highest-weight vector found at non-dominant torus weight {wt}"
            )
        labels.append(IrrepLabel(wt, len(kernel)))
    total = sum(l.dimension() * l.multiplicity for l in labels)
    if total != space.dimension:
        raise RuntimeError(
            f"decomposition dimensions sum to {total}, expected {space.dimension}"
        )
    return labels, raised


def irrep_partition(
    space: InvariantSpace,
) -> List[Tuple[IrrepLabel, Tuple[int, ...]]]:
    """Assign each basis index to the isotypic component containing it.

    On a vector of torus weight (w1, w2) in the irreducible with highest
    weight (a, b), lowering after raising is the scalar
    kappa = (a - w1) * (w1 - b + 1), and constituents sharing a weight have
    distinct kappa.  So basis element i lies in the isotypic span of a
    label with a + b = w1 + w2 and b <= w1 <= a exactly when lowering its
    raised image gives kappa * b_i.  The canonical basis must be adapted
    (each basis vector inside one isotypic span); when it is not, this
    raises rather than fabricating a partition.
    """
    labels, raised = _highest_weight_vectors(space)
    members: List[List[int]] = [[] for _ in labels]
    missing = []
    for idx, (q, (w1, w2), up) in enumerate(zip(space.basis, space.torus_weights(), raised)):
        lowered = raising_action(up, from_comp=1, to_comp=2)
        for which, ((a, b), _) in enumerate(labels):
            if a + b == w1 + w2 and b <= w1 <= a and lowered == q * ((a - w1) * (w1 - b + 1)):
                members[which].append(idx)
                break
        else:
            missing.append(idx)
    if missing:
        raise RuntimeError(
            f"basis elements {missing} lie in no single isotypic span; basis "
            "is not adapted to the decomposition"
        )
    for label, idxs in zip(labels, members):
        if len(idxs) != label.dimension() * label.multiplicity:
            raise RuntimeError(
                f"isotypic span {label.highest_weight} holds {len(idxs)} basis "
                f"elements, expected {label.dimension() * label.multiplicity}"
            )
    return [(label, tuple(idxs)) for label, idxs in zip(labels, members)]
