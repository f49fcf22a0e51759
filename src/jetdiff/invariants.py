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
weakly decreasing, are solved.  `invariant_basis` packs the monomials,
one bit field of one width per jet variable, into one {packed key:
column} index, so applying D_s to one variable is one integer add
(`_packed_derivations`); it takes each dominant block's exact kernel
(`_kernel`), carries it to the other blocks of its orbit by permuting
the bit fields (`_permuted_kernel`) and merges the kernels in the
global column order.  The elements of the dominant blocks are then
re-verified against the fully formal action, including formal a1; each
permuted block is certified by an exact span check against its dominant
block (`_check_permuted`), which the Weyl symmetry of the action extends
to invariance.

`invariance_system` is the independent route: one constraint row per mixed
monomial (parameters x jet variables) of the series-substitution residuals.
Its entries are ints, read straight off the packed images of poly's
substitution kernel (`_substitution_columns`).  `invariant_dimension`
solves it one dominant block at a time, weighting each by its orbit size,
with one packing for all the blocks: it takes the kernel of a block's
a-linear rows alone, which span its row space, and checks that kernel
against the block's whole columns.  The whole system is the reference
that the tests check the derivation kernel and `invariant_dimension`
against.

Highest-weight bookkeeping for the standard linear action on components
(f^(i) -> g * f^(i) for all i at once) lives here too: torus weights are
component counts, raising and lowering are the root derivations
f2^(i) -> f1^(i) and f1^(i) -> f2^(i), applied as packed moves like D1
and D2 through the same index (`_root_move`).  For two components, each
raised basis vector is checked to lie in the span of the basis block it
lands in, by the same free-column span check as the permuted blocks
(`_span_residual`); the span is then a GL(2)-module, so the multiplicity
of each label is a difference of two torus-block sizes, with no
elimination.  Lowering after raising is a scalar on each weight space of
an isotypic component that tells the components apart, so
`irrep_partition` reads each basis element's component off it, with no
second basis and no solve.  The transitions solve nothing either:
`InvariantSpace.expand_images` reads each packed image's coordinates off
the basis's free columns and certifies it by the same residual.
`raising_action`, built from partial derivatives, and `expand_many`,
which solves over Fraction (`solve_in_span`), are the independent checks
of the packed moves and of those coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .jets import JetPoint, JetSpec, ReparamJet, act_reparam
from .linalg import RationalMatrix, _canonical_span, _in_kernel, nullspace
from .linalg import rank as matrix_rank  # noqa: F401  perfbench's tracer wraps this name
from .linalg import solve_in_span
from .poly import (
    JET,
    PARAM,
    Monomial,
    PackedSubstitution,
    PolyLike,
    SparsePolynomial,
    Variable,
    jet_var,
    mono_degree,
    mono_str,
    param_var,
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

    `suffixes(idx, w)` lists the monomials in the variables from `idx` on
    (in global order) of weight w: for each exponent e of the first, from
    largest to smallest, the list of (idx + 1, w - e * order) with (v, e)
    prefixed when e > 0.  Each (idx, w) list is built once per call and shared by
    every prefix that reaches it.  So each monomial comes out already
    sorted by variable and the monomials come out in decreasing
    lexicographic order of their exponent vectors.  Within one total degree
    that is the canonical order (`mono_sort_key`), so a stable sort on
    decreasing total degree yields the canonical order without comparing
    monomials; the sort returns a new list, so no call shares its result.
    """
    if weight < 0:
        raise ValueError(f"weight must be >= 0, got {weight}")
    variables = [v for v in spec.jet_variables() if v.order <= weight]
    built: Dict[Tuple[int, int], List[Monomial]] = {}

    def suffixes(idx: int, remaining: int) -> List[Monomial]:
        if remaining == 0:
            return [()]
        found = built.get((idx, remaining))
        if found is None:
            found = built[(idx, remaining)] = []
            if idx < len(variables):
                v = variables[idx]
                for e in range(remaining // v.order, 0, -1):
                    head = ((v, e),)
                    tails = suffixes(idx + 1, remaining - e * v.order)
                    found.extend([head + tail for tail in tails])
                found.extend(suffixes(idx + 1, remaining))
        return found

    return sorted(suffixes(0, weight), key=mono_degree, reverse=True)  # stable, even reversed


def _reparam_rule(spec: JetSpec, s: int) -> Dict[Variable, Tuple[Variable, int]]:
    """The rule of D_s: f_j^(i) -> i!/(i-s-1)! * f_j^(i-s) for i > s."""
    return {
        jet_var(j, i): (jet_var(j, i - s), factorial(i) // factorial(i - s - 1))
        for i in range(s + 1, spec.order + 1)
        for j in range(1, spec.rank + 1)
    }


def _kernel(columns: Mapping[int, Mapping[Hashable, int]]) -> List[Dict[int, int]]:
    """`nullspace` of one block: `columns` maps each column index, in
    increasing order, to its sparse int column as `_packed_derivations`
    computes it.  The kernel vectors are keyed by those column indices."""
    labels = list(columns)
    kernel = nullspace(RationalMatrix.from_columns(columns.values()))
    return [{labels[j]: value for j, value in vec.items()} for vec in kernel]


@lru_cache(maxsize=16)
def _formal_action(spec: JetSpec, unipotent: bool) -> Mapping[Variable, SparsePolynomial]:
    """jet variable -> its image under the formal action (a1 = 1 when
    unipotent), computed once per shape and shared read-only."""
    moved = act_reparam(JetPoint.formal(spec), ReparamJet.formal(spec.order, unipotent))
    return MappingProxyType(moved.bindings())


def _substitution_columns(
    packing: PackedSubstitution, monomials: Sequence[Monomial]
) -> List[Dict[int, int]]:
    """The series-substitution constraints on the given monomials, one
    sparse int column per monomial: its packed image less its a-free part,
    the monomial itself.

    `packing` is a `PackedSubstitution` of the unipotent formal action,
    sized for these monomials (or more).  Each column is keyed by the
    packed mixed monomials (parameters and jet variables together) of the
    residual, whose parameter fields give their degree in the a_i; the
    entries are ints, never unpacked.  The action has integer
    coefficients, so each image's common denominator is 1; anything else
    raises RuntimeError.
    """
    columns: List[Dict[int, int]] = []
    for m in monomials:
        common, column = packing.image({m: 1})
        if common != 1:
            raise RuntimeError(f"unipotent image of {mono_str(m)} has denominator {common}")
        del column[packing.key(m)]
        columns.append(column)
    return columns


def invariance_system(spec: JetSpec, weight: int) -> RationalMatrix:
    """Linear constraints on weight-m coefficient vectors for unipotent
    invariance.

    Column order is the canonical monomial order from enumerate_monomials;
    rows are indexed by the mixed monomials (parameters and jet variables
    together) appearing in any residual, in order of first appearance
    (`_substitution_columns`).  The entries are ints.  Order 1 has no
    unipotent part, so the matrix has zero rows there.
    """
    monomials = enumerate_monomials(spec, weight)
    packing = PackedSubstitution(_formal_action(spec, True), monomials)
    return RationalMatrix.from_columns(_substitution_columns(packing, monomials))


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
    counts are the dominant blocks' weighted by orbit size.

    A block's a-linear rows, those of total degree 1 in the parameters,
    are the matrices of D_1, ..., D_(k-1) (the coefficient of a_(s+1)
    alone is D_s applied), and a polynomial they kill is invariant
    (module docstring), so they span the block's row space.  `nullspace`
    takes the exact kernel of those rows alone, as their own matrix, and
    each kernel vector is checked exactly against the block's whole
    columns (`_in_kernel`).  The kernel of the a-linear rows contains the
    block's, so when every vector passes the two are equal, and the
    block's rank is its columns minus the kernel size; a vector that fails
    raises RuntimeError naming the torus weight.  The row count is the
    number of distinct keys over the columns.

    All blocks share one packing, with fields sized from every dominant
    monomial, and so one power table; the columns have int entries, which
    `nullspace` uses as they are.  One block's columns are held at a time.
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
    params = packing.fields(PARAM)
    part = sum(mask << off for off, mask in params)
    single = {1 << off for off, _ in params}  # the parameter part of a_s alone
    rows = rank = 0
    for torus, block in blocks.items():
        columns = _substitution_columns(packing, block)
        linear = [{key: n for key, n in col.items() if (key & part) in single} for col in columns]
        kernel = nullspace(RationalMatrix.from_columns(linear))
        if not all(_in_kernel(vec, columns) for vec in kernel):
            raise RuntimeError(
                f"the a-linear rows miss the row space of the substitution system"
                f" at torus weight {torus}"
            )
        orbit = _orbit_size(torus)
        rows += orbit * len(set().union(*columns))
        rank += orbit * (len(block) - len(kernel))
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
    """`verify_invariance` for a batch, on one `PackedSubstitution` of the
    formal action sized from all its monomials.

    Each image stays packed, (common, {packed key: int}), and is compared
    with the checked keys (`PackedSubstitution.key`) of q * a1^m, each
    coefficient times `common`.  A monomial with no checked key occurs in
    no image, so it is a mismatch.  Only a mismatch is unpacked, to build
    its residual, the same polynomial an unpacked comparison gives.
    """
    weights = [_homogeneous_weight(q, spec) for q in polys]
    packing = PackedSubstitution(_formal_action(spec, False), (m for q in polys for m in q.terms))
    a1 = param_var(1)
    verdicts = []
    for q, weight in zip(polys, weights):
        common, image = packing.image(q.terms)
        lift = packing.key(((a1, weight),)) if weight else 0
        keys = [packing.key(mono) for mono in q.terms]
        if lift is not None and None not in keys and image == {
            key + lift: c * common for key, c in zip(keys, q.terms.values())
        }:
            verdicts.append(InvarianceVerdict(True, weight, None))
            continue
        # a1 sorts after every jet variable, so appending a1^m keeps each
        # monomial canonical.
        scaled = {mono + ((a1, weight),): c for mono, c in q.terms.items()} if weight else q.terms
        residual = SparsePolynomial(packing.unpack(common, image)) - SparsePolynomial(scaled)
        verdicts.append(InvarianceVerdict(False, weight, residual))
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
    basis element.  Construction verifies the elements of the dominant
    blocks against the fully formal action, and certifies the others by
    their span over those (`invariant_basis`), before returning.

    The constructor takes each basis vector as {column: nonzero int} in
    increasing column order, kept as `vectors`, and the torus weight of
    each; the weights are the torus blocks the vectors were found in,
    solved there or carried there from the dominant block of their Weyl
    orbit, so they are stored rather than read back off the polynomials.
    `basis` and the dense `coefficients` hold the same ints as `vectors`.
    `index` is the {packed key: column} of the monomials that
    `invariant_basis` packs, which the root moves reuse (`_root_move`).
    """

    __slots__ = ("spec", "weight", "monomials", "vectors", "basis", "index", "_torus_weights")

    def __init__(
        self,
        spec: JetSpec,
        weight: int,
        monomials: Sequence[Monomial],
        vectors: Sequence[Mapping[int, int]],
        torus_weights: Sequence[Tuple[int, ...]],
        index: Mapping[int, int],
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
        self.index = index

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

    def expand_images(self, bindings: Mapping[Variable, PolyLike]) -> List[Dict[int, Fraction]]:
        """The coordinates of each basis element with `bindings`
        substituted, as `expand_many` gives them, read off one
        `PackedSubstitution` with no image unpacked and nothing eliminated.

        The basis vectors are keyed by the checked keys of their monomials
        (`PackedSubstitution.key`); a monomial with none occurs in no
        image, so it is its own key.  The basis is reduced, b_i the one
        vector nonzero at its free column f (last key), so an image v has
        coordinate v[f] / b_i[f] (over its common denominator), and v lies
        in the span exactly when `_span_residual` leaves nothing.  Raises
        ValueError naming the first image off the span, as `solve_in_span`.
        """
        packing = PackedSubstitution(bindings, (m for q in self.basis for m in q.terms))
        keys = {c: packing.key(self.monomials[c]) for vec in self.vectors for c in vec}
        keys = {c: self.monomials[c] if k is None else k for c, k in keys.items()}
        lead, scale = _free_columns([{keys[c]: n for c, n in vec.items()} for vec in self.vectors])
        free = list(enumerate(lead.items()))
        coords = []
        for j, q in enumerate(self.basis):
            common, v = packing.image(q.terms)
            if _span_residual({k: scale * n for k, n in v.items()}, lead):
                raise ValueError(f"target {j} is outside the span")
            coords.append({i: Fraction(v[f], common * b[f]) for i, (f, b) in free if f in v})
        return coords

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
    order; its rows are the image monomials of D1 and D2, packed with one
    bit field per jet variable, each as wide as the weight (no exponent
    exceeds it).  The columns, enumerated already canonical, are packed
    once, into the space's {packed key: column} index, whose keys the
    derivations start from.
    Only the dominant blocks (weakly decreasing torus weight) are solved.
    A permutation of the components commutes with D1 and D2, so it carries
    a dominant block's kernel onto the kernel of each block in its orbit;
    those permuted vectors are reduced to canonical form there
    (`_permuted_kernel`, one shift table per permutation) and checked
    against the dominant kernel, whose free columns are found once per
    orbit.  The block kernels are embedded
    in the global columns and sorted by free column (the last key), which
    reproduces the canonical nullspace of the whole system: the reduced
    kernel basis is unique once the kernel and the column order are fixed.

    The elements of the dominant blocks are checked to be invariant under
    the fully formal action (formal a1 too).  Each permuted block's
    vectors are certified instead by an exact integer span check against
    their dominant block (`_check_permuted`); since permuting components
    commutes with the formal action, that certifies every returned
    element.  A failure of either check would be a bug in the
    construction, not in the input, hence RuntimeError.
    """
    monomials = enumerate_monomials(spec, weight)
    rules = [_reparam_rule(spec, s) for s in (1, 2) if s < spec.order]
    shift, moves = _packed_moves(spec, weight, rules)
    index: Dict[int, int] = {}
    for col, mono in enumerate(monomials):
        key = 0
        for v, e in mono:
            key += e << shift[v]
        index[key] = col
    keys = list(index)
    blocks = _torus_blocks(_mono_torus_weight(mono, spec.rank) for mono in monomials)
    kernels = {
        torus: _kernel({c: _packed_derivations(keys[c], monomials[c], moves) for c in cols})
        for torus, cols in blocks.items()
        if _is_dominant(torus)
    }
    tables: Dict[Tuple[int, ...], Dict[Variable, int]] = {}
    spans: Dict[Tuple[int, ...], Tuple[Dict[int, Mapping[int, int]], int]] = {}
    keyed: List[Tuple[Dict[int, int], Tuple[int, ...]]] = []
    for torus in blocks:
        kernel = kernels.get(torus)
        if kernel is None:
            # one shift table per permutation, shared by every block it reaches
            perm = tuple(sorted(range(spec.rank), key=lambda j: -torus[j]))
            if perm not in tables:
                tables[perm] = {v: shift[jet_var(perm[v.comp - 1] + 1, v.order)] for v in shift}
            dominant = tuple(sorted(torus, reverse=True))
            span = spans.get(dominant)
            if span is None:
                span = spans[dominant] = _free_columns(kernels[dominant])
            kernel = _permuted_kernel(span, tables[perm], monomials, index)
        keyed.extend((vec, torus) for vec in kernel)
    keyed.sort(key=lambda item: next(reversed(item[0])))
    vectors, tori = [vec for vec, _ in keyed], [torus for _, torus in keyed]
    space = InvariantSpace(spec, weight, monomials, vectors, tori, index)
    solved = [q for q, torus in zip(space.basis, tori) if torus in kernels]
    for q, verdict in zip(solved, _verify_all(solved, spec)):
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
    key: int, mono: Monomial, moves: Sequence[Mapping[Variable, Tuple[int, int]]]
) -> Dict[int, int]:
    """The images of one monomial, packed as `key`, under each move (D1
    and D2, or a root operator), as one sparse int column keyed by image.

    A packed key has one bit field per jet variable, starting at shift[v]
    (`_packed_moves`) and wide enough for any exponent at this weight.
    Each move maps each variable v that it moves to (key change, factor):
    taking one v into its image changes the key by (1 << shift[image]) -
    (1 << shift[v]), and the term's coefficient is e * factor for v^e.
    Distinct variables have distinct images under one move, and D_s
    lowers the weight by s, so no two terms of the column share a row.
    """
    column: Dict[int, int] = {}
    for move in moves:
        for v, e in mono:
            hit = move.get(v)
            if hit is not None:
                column[key + hit[0]] = e * hit[1]
    return column


def _permuted_kernel(
    span: Tuple[Mapping[int, Mapping[int, int]], int],
    table: Mapping[Variable, int],
    monomials: Sequence[Monomial],
    index: Mapping[int, int],
) -> List[Dict[int, int]]:
    """The canonical kernel of a block, given the kernel of the dominant
    block in its orbit, as `_free_columns` gives it (`span`), and the
    renaming that carries the dominant block onto it as a shift `table`:
    f_j^(i) goes to the field of f_p^(i), p the position of the j-th
    largest entry of the block's torus weight (ties in index order).

    Every field of `_packed_moves` has one width, so sum(e << table[v])
    is the renamed monomial's key in `index`, {packed key: column}.  The
    permuted vectors, ints with content 1, span the kernel there;
    `_canonical_span` reduces them over the integers to one vector per
    free column, 1 there and 0 at the other free columns, scaled as
    `nullspace` scales.  A one-vector kernel only has its sign fixed.
    `_check_permuted` then certifies the result against `span`.
    """
    kernel = span[0].values()
    image = {
        c: index[sum(e << table[v] for v, e in monomials[c])]
        for c in {c for vec in kernel for c in vec}
    }
    permuted = _canonical_span([{image[c]: value for c, value in vec.items()} for vec in kernel])
    _check_permuted(span, permuted, {p: c for c, p in image.items()})
    return permuted


def _check_permuted(
    span: Tuple[Mapping[int, Mapping[int, int]], int],
    permuted: Sequence[Mapping[int, int]],
    back: Mapping[int, int],
) -> None:
    """Certify a permuted block's kernel against its dominant kernel,
    whose elements `_verify_all` checks, given as `_free_columns` gives
    it (`span`); raises RuntimeError on failure.

    `permuted` must hold as many vectors as the dominant kernel, with
    distinct free columns (last keys), so they are independent.  Each
    one, renamed back column by column through `back` (the inverse of the
    renaming that built it), must lie in the span of the dominant kernel
    (`_span_residual`).  A vector that passes is a combination of
    verified invariants, and the renaming commutes with the formal
    action, so every permuted vector is invariant, and together they span
    the permuted kernel, whose dimension is the dominant kernel's.
    """
    lead, scale = span
    if len(permuted) != len(lead):
        raise RuntimeError(
            f"permuted block kernel has {len(permuted)} vectors, its dominant block {len(lead)}"
        )
    if len({next(reversed(vec)) for vec in permuted}) != len(permuted):
        raise RuntimeError("permuted block kernel vectors share a free column")
    for vec in permuted:
        if not back.keys() >= vec.keys():
            raise RuntimeError("permuted block kernel vector leaves the renamed columns")
        if _span_residual({back[c]: scale * n for c, n in vec.items()}, lead):
            raise RuntimeError(
                "permuted block kernel vector is not in the span of its dominant block"
            )


def _free_columns(
    vectors: Sequence[Mapping[Hashable, int]],
) -> Tuple[Dict[Hashable, Mapping[Hashable, int]], int]:
    """(lead, scale) of reduced int vectors for `_span_residual`: lead maps
    each vector's free column (its last key, where the other vectors are
    0) to the vector, in the order given, and scale is the lcm of the
    vectors' entries there (1 when there are none).  Two vectors with one
    free column would be a bug in the basis, hence RuntimeError."""
    lead = {next(reversed(b)): b for b in vectors}
    if len(lead) != len(vectors):
        raise RuntimeError("reduced basis vectors share a free column")
    return lead, lcm(*(b[f] for f, b in lead.items()))


def _span_residual(
    residual: Dict[Hashable, int], lead: Mapping[Hashable, Mapping[Hashable, int]]
) -> Dict[Hashable, int]:
    """Reduce `residual`, an int vector v times the scale that
    `_free_columns` returns with `lead`, in place by the one candidate
    combination of the vectors b_f of `lead`, the sum over their free
    columns f of (residual[f] / b_f[f]) * b_f, and return it as
    {column: nonzero int}.

    b_f is 0 at every other free column, so no other combination can
    equal scale * v, and the residual is empty exactly when v lies in
    their span.  b_f[f] divides the scale, so on the span every quotient
    is an int; a remainder means v is off the span, and the residual is
    returned as it stands, nonzero at f.
    """
    for f, b in lead.items():
        x = residual.get(f)
        if x:
            x, remainder = divmod(x, b[f])
            if remainder:
                break
            for c, n in b.items():
                left = residual.get(c, 0) - x * n
                if left:
                    residual[c] = left
                else:
                    del residual[c]
    return residual


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
    as {image column: nonzero int}, computed once per call.  The operator
    keeps the weight, so every image is a column of the space, found in
    the space's {packed key: column} `index`, the one `invariant_basis`
    built, in the same fields.
    """
    spec, monomials, column = space.spec, space.monomials, space.index
    keys = list(column)
    rule = {jet_var(from_comp, i): (jet_var(to_comp, i), 1) for i in range(1, spec.order + 1)}
    _, moves = _packed_moves(spec, space.weight, [rule])
    images: Dict[int, Dict[int, int]] = {}
    out = []
    for vec in vectors:
        moved: Dict[int, int] = {}
        for col, value in vec.items():
            image = images.get(col)
            if image is None:
                packed = _packed_derivations(keys[col], monomials[col], moves)
                image = images[col] = {column[key]: n for key, n in packed.items()}
            for target, n in image.items():
                moved[target] = moved.get(target, 0) + n * value
        out.append({col: value for col, value in moved.items() if value})
    return out


def decompose(space: InvariantSpace) -> List[IrrepLabel]:
    """Multiplicities of irreducible constituents for two components,
    highest weight first.

    Every raised basis vector is checked to stay in the span; the
    multiplicity of highest weight (a, b) is then the number of basis
    vectors of torus weight (a, b) less that of (a + 1, b - 1), with no
    elimination (`_highest_weight_vectors`).  A negative difference, and
    labels whose dimensions do not sum to dim
    (sum (l1 - l2 + 1) * multiplicity = dim), raise RuntimeError.
    """
    return _highest_weight_vectors(space)[0]


def _highest_weight_vectors(
    space: InvariantSpace,
) -> Tuple[List[IrrepLabel], List[Dict[int, int]]]:
    """The irreducible labels, highest weight first, and the raised basis
    vectors E b_i they were certified with, as {column: int}.

    Every basis vector is raised once, and each E b_i, of torus weight
    w + (1, -1) for b_i of weight w, must lie in the span of the basis
    vectors of that weight: the canonical basis is reduced, so those are
    0 at each other's free columns (last keys), and the coordinates of
    E b_i are read off its entries there, with an exact int residual
    (`_span_residual`).  Then the multiplicity of (a, b), a >= b, is
    n(a, b) - n(a + 1, b - 1), n(w) the number of basis vectors of torus
    weight w.

    Why the counts are exact.  The span V is closed under E, as just
    checked.  The swap s of the two components maps V onto itself: the
    blocks of torus weight (w2, w1) are those of (w1, w2) carried by s
    and certified against them (`invariant_basis`).  The lowering
    operator is F = s E s, so V is closed under F too, and, with the
    torus acting on each block by its weight, V is a finite-dimensional
    gl2-module.  It is a direct sum of irreducibles, of highest weights
    (a, b) with a >= b, each with one vector at each weight
    (a - j, b + j), 0 <= j <= a - b.  The highest-weight vectors of
    weight (a, b) span the kernel of E there, and E maps the weight (a, b)
    space onto the (a + 1, b - 1) space when a >= b, so the kernel has
    dimension n(a, b) - n(a + 1, b - 1): the count the per-block kernels
    of E would give.  A negative difference, or a dimension sum other
    than dim, means the span is not such a module, and raises.
    """
    if space.spec.rank != 2:
        raise ValueError(
            "irreducible labels are only certified for two components; dimensions "
            "are available at any rank"
        )
    raised = _root_move(space, space.vectors, 2, 1)
    blocks = _torus_blocks(space.torus_weights())
    for (w1, w2), idxs in sorted(blocks.items(), reverse=True):
        lead, scale = _free_columns([space.vectors[j] for j in blocks.get((w1 + 1, w2 - 1), ())])
        if any(_span_residual({c: scale * n for c, n in raised[i].items()}, lead) for i in idxs):
            raise RuntimeError(
                f"raising operator left the invariant span at torus weight {(w1, w2)}"
            )
    labels: List[IrrepLabel] = []
    for a, b in sorted(blocks.keys() | {(w1 - 1, w2 + 1) for w1, w2 in blocks}, reverse=True):
        if a < b:
            continue
        here, above = len(blocks.get((a, b), ())), len(blocks.get((a + 1, b - 1), ()))
        if here < above:
            raise RuntimeError(
                f"torus weight {(a, b)} holds {here} basis elements, fewer than the "
                f"{above} of torus weight {(a + 1, b - 1)}"
            )
        if here > above:
            labels.append(IrrepLabel((a, b), here - above))
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
    raised image gives kappa * b_i.  The labels and the raised vectors
    are `decompose`'s (`_highest_weight_vectors`), and lowering reuses the
    column index that raising built, so nothing is eliminated or solved.
    The canonical basis must be adapted (each basis vector inside one
    isotypic span); when it is not, this raises rather than fabricating a
    partition.
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
