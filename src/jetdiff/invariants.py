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
per torus weight.  A permutation of the components (the Weyl group of
GL(W)) commutes with the action, so it carries each block onto the block
of the permuted weight; only the dominant blocks, whose torus weight is
weakly decreasing, are solved.  `invariant_basis` builds each dominant
block on packed monomials, one bit field per jet variable, so applying
D_s to one variable is one integer add (`_packed_derivations`), takes its
exact kernel (`_kernel`, the one block kernel here), carries it to the
other blocks of its orbit (`_permuted_kernel`) and merges the kernels in
the global column order; every basis element is then re-verified against
the fully formal action, including formal a1, before it is returned.

`invariance_system` is the independent route: one constraint row per mixed
monomial (parameters x jet variables) of the series-substitution residuals.
Its entries are ints, read straight off the packed images of poly's
substitution kernel (`_substitution_system`).  `invariant_dimension` solves
it one dominant block at a time, weighting each by its orbit size, with one
packing for all the blocks; the whole system is the reference that the
tests check the derivation kernel and `invariant_dimension` against.

Highest-weight bookkeeping for the standard linear action on components
(f^(i) -> g * f^(i) for all i at once) lives here too: torus weights are
component counts, raising and lowering are the root derivations
f2^(i) -> f1^(i) and f1^(i) -> f2^(i), applied as packed moves like D1
and D2 (`_root_move`), and for two components the decomposition into
irreducibles is computed from per-weight kernels of raising.  Lowering
after raising acts on each weight space of an isotypic component by a
scalar that tells the components apart, so `irrep_partition` reads the
component of every basis element off that scalar, with no second basis
and no second solve.  `raising_action`, built from partial derivatives,
is the independent check of the packed moves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .jets import JetPoint, JetSpec, ReparamJet, act_reparam
from .linalg import RationalMatrix, _canonical_vector, _eliminate, nullspace
from .linalg import rank as matrix_rank  # noqa: F401  perfbench's tracer wraps this name
from .linalg import solve_in_span
from .poly import (
    JET,
    Monomial,
    PackedSubstitution,
    Scalar,
    SparsePolynomial,
    Variable,
    jet_var,
    mono_degree,
    mono_str,
    param_var,
    substitute_all,
)


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

    The recursion takes the variables in global order, each exponent from
    largest to smallest, so each monomial comes out already sorted by
    variable and the monomials come out in decreasing lexicographic order
    of their exponent vectors.  Within one total degree that is the
    canonical order (`mono_sort_key`), so a stable sort on decreasing total
    degree yields the canonical order without comparing monomials.
    """
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    variables = [v for v in spec.jet_variables() if v.order <= weight]
    results: List[Monomial] = []

    def extend(idx: int, remaining: int, acc: List[Tuple[Variable, int]]):
        if remaining == 0:
            results.append(tuple(acc))
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
    results.sort(key=mono_degree, reverse=True)  # stable, even reversed
    return results


def _reparam_rule(spec: JetSpec, s: int) -> Dict[Variable, Tuple[Variable, int]]:
    """The rule of D_s: f_j^(i) -> i!/(i-s-1)! * f_j^(i-s) for i > s."""
    return {
        jet_var(j, i): (jet_var(j, i - s), factorial(i) // factorial(i - s - 1))
        for i in range(s + 1, spec.order + 1)
        for j in range(1, spec.rank + 1)
    }


def _kernel(columns: Mapping[int, Mapping[Hashable, Scalar]]) -> List[Dict[int, int]]:
    """`nullspace` of one block: `columns` maps each column index, in
    increasing order, to its sparse column (rows keyed by any hashable):
    ints as `_packed_derivations` computes them, or the coordinates
    `_highest_weight_vectors` solves for.
    The kernel vectors are int vectors keyed by those column indices."""
    labels = list(columns)
    kernel = nullspace(RationalMatrix.from_columns(columns.values()))
    return [{labels[j]: value for j, value in vec.items()} for vec in kernel]


@lru_cache(maxsize=16)
def _formal_action(spec: JetSpec, unipotent: bool) -> Mapping[Variable, SparsePolynomial]:
    """jet variable -> its image under the formal action (a1 = 1 when
    unipotent), computed once per shape and shared read-only."""
    moved = act_reparam(JetPoint.formal(spec), ReparamJet.formal(spec.order, unipotent))
    return MappingProxyType(moved.bindings())


def _substitution_system(
    packing: PackedSubstitution, monomials: Sequence[Monomial]
) -> RationalMatrix:
    """The series-substitution constraints on the given columns: one row
    per mixed monomial (parameters and jet variables together) of their
    residuals, in order of first appearance.

    `packing` is a `PackedSubstitution` of the unipotent formal action,
    sized for these monomials (or more); each column is a monomial's
    packed image less its a-free part, the monomial itself, so rows are
    keyed by packed keys and the entries are ints, never unpacked.  The
    action has integer coefficients, so each image's common denominator
    is 1; anything else raises RuntimeError.
    """
    columns = []
    for m in monomials:
        common, column = packing.image({m: 1})
        if common != 1:
            raise RuntimeError(f"unipotent image of {mono_str(m)} has denominator {common}")
        del column[packing.pack(m)]
        columns.append(column)
    return RationalMatrix.from_columns(columns)


def invariance_system(spec: JetSpec, weight: int) -> RationalMatrix:
    """Linear constraints on weight-m coefficient vectors for unipotent
    invariance.

    Column order is the canonical monomial order from enumerate_monomials;
    rows are indexed by the mixed monomials (parameters and jet variables
    together) appearing in any residual, in order of first appearance.
    The entries are ints.  Order 1 has no unipotent part, so the matrix
    has zero rows there.
    """
    monomials = enumerate_monomials(spec, weight)
    packing = PackedSubstitution(_formal_action(spec, True), monomials)
    return _substitution_system(packing, monomials)


class InvariantDimension(NamedTuple):
    """The counts of `invariance_system` that `invariant_dimension` returns."""

    num_monomials: int  # its columns
    rows: int
    rank: int
    dimension: int  # its kernel size, num_monomials - rank


def invariant_dimension(spec: JetSpec, weight: int) -> InvariantDimension:
    """The shape, rank and kernel size of `invariance_system`, solved one
    dominant torus block at a time, the blocks `invariant_basis` solves.

    Every row of `invariance_system` lies in one torus block, since the
    unipotent action keeps each component's variables, and a permutation
    of the components carries the block of weight w onto that of the
    permuted weight.  So each block is a copy of the dominant block of its
    orbit, rows, rank and kernel size included, and the whole system's
    counts are the dominant blocks' weighted by orbit size.  A block's
    rank is its columns minus its kernel size, from its one elimination:
    `nullspace` eliminates modulo 2**61 - 1 and checks every vector
    exactly, so the kernel it returns is the rational one, of size
    ncols - rank over Q (its Fraction fallback is exact on its own).

    All blocks share one packing, with fields sized from every dominant
    monomial, and so one power table; the block systems have int entries,
    which `nullspace` uses as they are.  One block's system is held at a
    time.
    """
    monomials = enumerate_monomials(spec, weight)
    torus_blocks = _torus_blocks(_mono_torus_weight(m, spec.rank) for m in monomials)
    blocks = {
        torus: [monomials[col] for col in cols]
        for torus, cols in torus_blocks.items()
        if _is_dominant(torus)
    }
    dominant = (m for block in blocks.values() for m in block)
    packing = PackedSubstitution(_formal_action(spec, True), dominant)
    rows = rank = 0
    for torus, block in blocks.items():
        system = _substitution_system(packing, block)
        orbit = _orbit_size(torus)
        rows += orbit * system.nrows
        rank += orbit * (system.ncols - len(nullspace(system)))
    return InvariantDimension(len(monomials), rows, rank, len(monomials) - rank)


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
    images = substitute_all(polys, _formal_action(spec, False))
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

    The constructor takes each basis vector as {column: nonzero int} in
    increasing column order, kept as `vectors`, and the torus weight of
    each; the weights are the torus blocks the vectors were found in,
    solved there or carried there from the dominant block of their Weyl
    orbit, so they are stored rather than read back off the polynomials.
    `basis` and the dense `coefficients` hold the same ints as `vectors`.
    """

    __slots__ = ("spec", "weight", "monomials", "vectors", "basis", "_torus_weights")

    def __init__(
        self,
        spec: JetSpec,
        weight: int,
        monomials: Sequence[Monomial],
        vectors: Sequence[Mapping[int, int]],
        torus_weights: Sequence[Tuple[int, ...]],
    ):
        self.spec = spec
        self.weight = weight
        self.monomials = tuple(monomials)
        self.vectors = tuple(vectors)
        self.basis = tuple(
            SparsePolynomial({self.monomials[col]: value for col, value in vec.items()})
            for vec in self.vectors
        )
        self._torus_weights = tuple(torus_weights)

    @property
    def coefficients(self) -> Tuple[Tuple[int, ...], ...]:
        """The basis vectors densely, one int per monomial column."""
        dense_rows = []
        for vec in self.vectors:
            dense = [0] * len(self.monomials)
            for col, value in vec.items():
                dense[col] = value
            dense_rows.append(tuple(dense))
        return tuple(dense_rows)

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
    """The kernel of D1 and D2, one Weyl orbit of torus blocks at a time.

    Each block holds the monomials of one torus weight, in global column
    order; its rows are the image monomials of each D_s, kept apart by s,
    as (s, packed image) with one bit field per jet variable, each as wide
    as the weight (no exponent exceeds it).  Monomial tuples are only
    built for the columns, which are enumerated already canonical.
    Only the dominant blocks (weakly decreasing torus weight) are solved.
    A permutation of the components commutes with D1 and D2, so it carries
    a dominant block's kernel onto the kernel of each block in its orbit;
    those permuted vectors are reduced to canonical form there
    (`_permuted_kernel`).  The block kernels are embedded in the global
    columns and sorted by free column (the last key), which reproduces the
    canonical nullspace of the whole system: the reduced kernel basis is
    unique once the kernel and the column order are fixed.

    Every returned element is checked to be invariant under the fully
    formal action (formal a1 too); a failure there would be a bug in the
    construction, not in the input, hence RuntimeError.
    """
    monomials = enumerate_monomials(spec, weight)
    rules = [_reparam_rule(spec, s) for s in (1, 2) if s < spec.order]
    shift, moves = _packed_moves(spec, weight, rules)
    blocks = _torus_blocks(_mono_torus_weight(mono, spec.rank) for mono in monomials)
    kernels = {
        torus: _kernel({col: _packed_derivations(monomials[col], shift, moves) for col in cols})
        for torus, cols in blocks.items()
        if _is_dominant(torus)
    }
    column = {mono: col for col, mono in enumerate(monomials)}
    variables = spec.jet_variables()
    keyed: List[Tuple[Dict[int, int], Tuple[int, ...]]] = []
    for torus in blocks:
        kernel = kernels.get(torus)
        if kernel is None:
            dominant = tuple(sorted(torus, reverse=True))
            kernel = _permuted_kernel(kernels[dominant], torus, variables, monomials, column)
        keyed.extend((vec, torus) for vec in kernel)
    keyed.sort(key=lambda item: next(reversed(item[0])))
    vectors, tori = [vec for vec, _ in keyed], [torus for _, torus in keyed]
    space = InvariantSpace(spec, weight, monomials, vectors, tori)
    for q, verdict in zip(space.basis, _verify_all(space.basis, spec)):
        if not verdict.invariant:
            raise RuntimeError(
                f"constructed element failed formal invariance: {q} "
                f"(residual {verdict.residual})"
            )
    return space


def _packed_moves(
    spec: JetSpec, weight: int, rules: Iterable[Mapping[Variable, Tuple[Variable, int]]]
) -> Tuple[Dict[Variable, int], List[Dict[Variable, Tuple[int, int]]]]:
    """(shift, moves) for `_packed_derivations` at this shape and weight:
    the jet variables in global order, each with a bit field as wide as
    the weight, and each derivation rule {v: (image, factor)}, sending v
    to factor * image, as key changes.  A rule must keep the weight."""
    width = weight.bit_length()
    shift = {v: i * width for i, v in enumerate(spec.jet_variables())}
    moves = [
        {v: ((1 << shift[image]) - (1 << shift[v]), factor) for v, (image, factor) in rule.items()}
        for rule in rules
    ]
    return shift, moves


def _packed_derivations(
    mono: Monomial,
    shift: Mapping[Variable, int],
    moves: Sequence[Mapping[Variable, Tuple[int, int]]],
) -> Dict[Tuple[int, int], int]:
    """The images of one monomial under each move (D1 and D2, or a root
    operator), as one sparse integer column with rows (s, packed image).

    A packed monomial has one bit field per jet variable, starting at
    shift[v] and wide enough for any exponent at this weight.  moves[s]
    maps each variable v that move s moves to (key change, factor): taking
    one v into its image changes the key by (1 << shift[image]) -
    (1 << shift[v]), and the term's coefficient is e * factor for v^e.
    Distinct variables have distinct images under one move, so no two
    terms of the column share a row.
    """
    key = 0
    for v, e in mono:
        key += e << shift[v]
    column: Dict[Tuple[int, int], int] = {}
    for s, move in enumerate(moves):
        for v, e in mono:
            hit = move.get(v)
            if hit is not None:
                column[(s, key + hit[0])] = e * hit[1]
    return column


def _permuted_kernel(
    kernel: Sequence[Mapping[int, int]],
    torus: Tuple[int, ...],
    variables: Sequence[Variable],
    monomials: Sequence[Monomial],
    column: Mapping[Monomial, int],
) -> List[Dict[int, int]]:
    """The canonical kernel of the block of weight `torus`, given that of
    the dominant block in its orbit.

    The permutation sending component j to the position of the j-th
    largest entry of `torus` (ties in index order) carries the dominant
    block onto this one; it is applied to each of `variables` once, and
    `column` maps each permuted monomial back to its global column.  The
    permuted vectors span the kernel here.  A one-vector kernel is the
    permuted vector itself: its integer entries keep content 1, so only
    the sign of its leading entry can be wrong, which `_canonical_vector`
    fixes.  Otherwise, reducing the vectors with the pivot at each one's
    last nonzero column (`_eliminate` on negated column labels) gives one
    vector per free column, 1 there and 0 at the other free columns,
    which `_canonical_vector` scales as `nullspace` does.
    """
    target = [0] + [j + 1 for j in sorted(range(len(torus)), key=lambda j: -torus[j])]
    moved = {v: jet_var(target[v.comp], v.order) for v in variables}
    image = {
        c: column[tuple(sorted((moved[v], e) for v, e in monomials[c]))]
        for c in {c for vec in kernel for c in vec}
    }
    if len(kernel) == 1:
        return [_canonical_vector(dict(sorted((image[c], value) for c, value in kernel[0].items())))]
    rows, _ = _eliminate([{-image[c]: value for c, value in vec.items()} for vec in kernel])
    return [_canonical_vector({-c: row[c] for c in sorted(row, reverse=True)}) for row in rows]


def _torus_blocks(weights: Iterable[Tuple[int, ...]]) -> Dict[Tuple[int, ...], List[int]]:
    """{torus weight: [index]}, the weights in order of first appearance."""
    blocks: Dict[Tuple[int, ...], List[int]] = {}
    for idx, torus in enumerate(weights):
        blocks.setdefault(torus, []).append(idx)
    return blocks


def _mono_torus_weight(mono: Monomial, rank: int) -> Tuple[int, ...]:
    """Component-count vector (d1..dr) of one jet monomial."""
    counts = [0] * rank
    for v, e in mono:
        counts[v.comp - 1] += e
    return tuple(counts)


def _is_dominant(torus: Tuple[int, ...]) -> bool:
    """Whether a torus weight is weakly decreasing, the one such weight in
    its Weyl orbit."""
    return all(a >= b for a, b in zip(torus, torus[1:]))


def _orbit_size(torus: Tuple[int, ...]) -> int:
    """The number of distinct permutations of a torus weight."""
    size = factorial(len(torus))
    for value in set(torus):
        size //= factorial(torus.count(value))
    return size


def raising_action(
    q: SparsePolynomial, from_comp: int, to_comp: int
) -> SparsePolynomial:
    """The derivation sum_i f_to^(i) * dQ/df_from^(i), built from partial
    derivatives, so it shares no code with the packed `_root_move`.

    Moving weight toward the lower component index is the raising
    direction: with from=2, to=1 the kernel consists of highest-weight
    vectors for the two-component action.
    """
    if from_comp == to_comp:
        raise ValueError("raising between identical components is the degree derivation")
    out = SparsePolynomial.zero()
    for v in q.variables():
        if v.kind == JET and v.comp == from_comp:
            out = out + SparsePolynomial.variable(jet_var(to_comp, v.order)) * q.derivative(v)
    return out


def _root_move(
    space: InvariantSpace, vectors: Iterable[Mapping[int, int]], from_comp: int, to_comp: int
) -> List[Dict[int, int]]:
    """Each {column: int} vector of the space moved by the root operator
    f_from^(i) -> f_to^(i), column by column; zero entries dropped.

    A column's image is its monomial's packed move (`_packed_derivations`)
    as {image column: nonzero int}, computed once.  The operator keeps
    the weight, so every image is a column of the space.
    """
    spec, monomials = space.spec, space.monomials
    rule = {jet_var(from_comp, i): (jet_var(to_comp, i), 1) for i in range(1, spec.order + 1)}
    shift, moves = _packed_moves(spec, space.weight, [rule])
    column = {sum(e << shift[v] for v, e in mono): col for col, mono in enumerate(monomials)}
    images: Dict[int, Dict[int, int]] = {}
    out = []
    for vec in vectors:
        moved: Dict[int, int] = {}
        for col, value in vec.items():
            image = images.get(col)
            if image is None:
                packed = _packed_derivations(monomials[col], shift, moves)
                image = images[col] = {column[key]: n for (_, key), n in packed.items()}
            for target, n in image.items():
                moved[target] = moved.get(target, 0) + n * value
        out.append({col: value for col, value in moved.items() if value})
    return out


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
) -> Tuple[List[IrrepLabel], List[Dict[int, int]]]:
    """The irreducible labels, highest weight first, and the raised basis
    vectors E b_i they were counted from, as {column: int}.

    Every basis vector is raised once, column by column, and the results
    are expanded with one solve; each torus weight block then gives one
    `_kernel` of the coordinates of its raised elements, whose size is the
    number of highest-weight vectors there.
    """
    if space.spec.rank != 2:
        raise ValueError(
            "irreducible labels are only certified for two components; dimensions "
            "are available at any rank"
        )
    raised = _root_move(space, space.vectors, 2, 1)
    try:
        coords = solve_in_span(space.vectors, raised)
    except ValueError as exc:
        raise RuntimeError(f"raising operator left the invariant span: {exc}") from exc
    labels: List[IrrepLabel] = []
    for wt, idxs in sorted(_torus_blocks(space.torus_weights()).items(), reverse=True):
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
    lowered = _root_move(space, raised, 1, 2)
    members: List[List[int]] = [[] for _ in labels]
    missing = []
    rows = zip(space.vectors, space.torus_weights(), lowered)
    for idx, (vec, (w1, w2), down) in enumerate(rows):
        for which, ((a, b), _) in enumerate(labels):
            if a + b == w1 + w2 and b <= w1 <= a:
                kappa = (a - w1) * (w1 - b + 1)
                if down == ({col: kappa * value for col, value in vec.items()} if kappa else {}):
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
