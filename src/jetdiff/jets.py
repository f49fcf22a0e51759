"""Jets of parametrized curves and the two compositions that act on them.

A k-jet of a curve with r components is the table of raw derivatives
f_j^(i)(0) for 1 <= i <= k, 1 <= j <= r, taken at t = 0.  Two group-like
actions matter:

  * reparametrization of the source: f -> f o phi, where
    phi(t) = a1*t + a2*t^2 + ... + ak*t^k with a1 invertible, composition
    of such jets being truncated after t^k;
  * polynomial coordinate change of the target: f -> psi o f, computed
    around a basepoint.

Conventions (the factorials bite otherwise):

  * jets store raw derivative values, not Taylor coefficients; every
    series computation divides by i! on the way in and multiplies by i!
    on the way out;
  * a reparametrization stores the coefficients a_i, so its i-th
    derivative at 0 is i! * a_i.

Both compositions substitute one polynomial into another, so both go
through `poly.substitute_all`.  Entries are polynomials; rational input
is stored as constants.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .poly import (
    BASE,
    PolyLike,
    SparsePolynomial,
    Variable,
    base_var,
    jet_var,
    param_var,
    poly_sum,
    substitute_all,
)

# Guardrail on formal computations; everything is exact, so runaway sizes
# come from the user, not from roundoff.  Override with allow_large=True.
MAX_RANK = 4
MAX_ORDER = 4

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JetSpec(namedtuple("JetSpec", "rank order")):
    """Shape of a jet problem: number of curve components and jet order.

    A plain (rank, order) record.  `allow_large` lifts the guardrail when
    the shape is made; it is not stored and does not make another shape.
    """

    __slots__ = ()

    def __new__(cls, rank: int, order: int, allow_large: bool = False):
        if rank < 1 or order < 1:
            raise ValueError(f"rank and order must be >= 1, got ({rank}, {order})")
        if not allow_large and (rank > MAX_RANK or order > MAX_ORDER):
            raise ValueError(
                f"rank {rank}, order {order} beyond the guardrail "
                f"({MAX_RANK}, {MAX_ORDER}); pass allow_large=True to override"
            )
        return super().__new__(cls, rank, order)

    def __getnewargs__(self):
        # copies and pickles rebuild a shape that already passed the guardrail
        return (self.rank, self.order, True)

    def jet_variables(self) -> List[Variable]:
        """All jet variables of this shape, in the global variable order."""
        return [jet_var(j, i) for i in range(1, self.order + 1) for j in range(1, self.rank + 1)]


def _as_poly(x: PolyLike) -> SparsePolynomial:
    """A jet entry, coefficient or coordinate as a polynomial."""
    return x if isinstance(x, SparsePolynomial) else SparsePolynomial.constant(x)


class ReparamJet:
    """A k-jet of a source reparametrization, phi(t) = sum a_i t^i.

    Coefficients are polynomials in formal parameters; rational input is
    stored as constants.  The leading coefficient must be nonzero; when
    it is not constant its invertibility cannot be decided here and is
    checked at the point of use (inversion requires a numeric leading
    coefficient).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        if order < 1:
            raise ValueError(f"reparametrization order must be >= 1, got {order}")
        coeffs = tuple(_as_poly(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        if not coeffs[0]:
            raise ValueError("leading coefficient a1 must be nonzero")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def identity(cls, order: int) -> "ReparamJet":
        return cls(order, [_ONE] + [_ZERO] * (order - 1))

    @classmethod
    def formal(cls, order: int, unipotent: bool = False) -> "ReparamJet":
        """Fully formal phi; with unipotent=True the leading coefficient is 1."""
        lead = _ONE if unipotent else SparsePolynomial.variable(param_var(1))
        tail = [SparsePolynomial.variable(param_var(i)) for i in range(2, order + 1)]
        return cls(order, [lead] + tail)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReparamJet):
            return NotImplemented
        return self.order == other.order and list(self.coeffs) == list(other.coeffs)

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            parts.append(f"({c})*t^{i}" if i > 1 else f"({c})*t")
        return "ReparamJet(" + " + ".join(parts) + ")"


class JetPoint:
    """A point of the k-jet fiber: entries[i-1][j-1] = f_j^(i)(0)."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec: JetSpec, entries: Sequence[Sequence]):
        rows = tuple(tuple(_as_poly(v) for v in row) for row in entries)
        if len(rows) != spec.order or any(len(r) != spec.rank for r in rows):
            raise ValueError(
                f"entries must be {spec.order} rows of {spec.rank} values"
            )
        self.spec = spec
        self.entries = rows

    @classmethod
    def formal(cls, spec: JetSpec) -> "JetPoint":
        """The tautological jet whose entries are the jet variables themselves."""
        return cls(
            spec,
            [
                [SparsePolynomial.variable(jet_var(j, i)) for j in range(1, spec.rank + 1)]
                for i in range(1, spec.order + 1)
            ],
        )

    def entry(self, order: int, comp: int) -> SparsePolynomial:
        return self.entries[order - 1][comp - 1]

    def bindings(self) -> Dict[Variable, SparsePolynomial]:
        """f_j^(i) -> entry(i, j), for substituting this jet into a polynomial."""
        return {
            jet_var(j, i): value
            for i, row in enumerate(self.entries, start=1)
            for j, value in enumerate(row, start=1)
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetPoint):
            return NotImplemented
        return self.spec == other.spec and self.entries == other.entries

    def __repr__(self) -> str:
        return f"JetPoint({self.spec.rank}, {self.spec.order}, {self.entries!r})"


# ---- jets as polynomials in a series variable ----
#
# A jet component becomes its Taylor polynomial in the private variable t,
# `substitute_all` composes, and the coefficients of t^1..t^order are read
# back.  The substitution truncates after t^order product by product, so
# the degree of a target map or the number of formal coefficients never
# outgrows the order.  base_var refuses component 0, so no polynomial a
# caller writes contains t, and t sorts first, leading every monomial.

_T = Variable(BASE, 0, 0)


def _series(coeffs: Sequence[PolyLike]) -> SparsePolynomial:
    """sum_i coeffs[i] * t^i."""
    t = SparsePolynomial.variable(_T)
    return poly_sum(c * t ** i for i, c in enumerate(coeffs))


def _coefficients(series: SparsePolynomial, order: int) -> List[SparsePolynomial]:
    """The coefficients of t^1..t^order."""
    out = [{} for _ in range(order)]
    for m, v in series.terms.items():
        if m and m[0][0] == _T and m[0][1] <= order:
            out[m[0][1] - 1][m[1:]] = v
    return [SparsePolynomial(terms) for terms in out]


def _taylor(jet: JetPoint, comp: int, constant: PolyLike) -> SparsePolynomial:
    """constant + sum_i f_comp^(i) t^i / i!, one component of the jet."""
    orders = range(1, jet.spec.order + 1)
    return _series([constant] + [jet.entry(i, comp) * Fraction(1, factorial(i)) for i in orders])


def _jet_of(spec: JetSpec, taylors: Sequence[SparsePolynomial]) -> JetPoint:
    """The jet whose component j has Taylor polynomial taylors[j-1]."""
    columns = [_coefficients(s, spec.order) for s in taylors]
    return JetPoint(
        spec,
        [[col[i - 1] * factorial(i) for col in columns] for i in range(1, spec.order + 1)],
    )


def compose_reparam(outer: ReparamJet, inner: ReparamJet) -> ReparamJet:
    """The jet of outer(inner(t)), truncated after t^order.

    This is the (associative) composition law; identity() is neutral on
    both sides.
    """
    if outer.order != inner.order:
        raise ValueError(f"order mismatch: {outer.order} vs {inner.order}")
    outer_t, inner_t = (_series([_ZERO, *phi.coeffs]) for phi in (outer, inner))
    (composed,) = substitute_all([outer_t], {_T: inner_t}, truncate=(_T, outer.order))
    return ReparamJet(outer.order, _coefficients(composed, outer.order))


def invert_reparam(phi: ReparamJet) -> ReparamJet:
    """The compositional inverse: compose_reparam(phi, result) is t.

    Needs a numeric leading coefficient (the inverse divides by powers of
    a1); the higher coefficients may be formal.  Solved order by order:
    the t^n coefficient of phi(psi(t)) is a1*b_n plus terms in b_1..b_{n-1}
    only, so each b_n comes from one division.
    """
    if not phi.coeffs[0].is_constant():
        raise ValueError(
            "inversion needs a numeric leading coefficient; a formal a1 has no "
            "polynomial inverse"
        )
    a1 = phi.coeffs[0].constant_value()
    k = phi.order
    b = [_ONE / a1] + [_ZERO] * (k - 1)
    for n in range(2, k + 1):
        partial = ReparamJet(k, b)
        c = compose_reparam(phi, partial).coeffs[n - 1]
        b[n - 1] = c * (Fraction(-1) / a1)
    return ReparamJet(k, b)


def act_reparam(jet: JetPoint, phi: ReparamJet) -> JetPoint:
    """The jet of f o phi, where f is the curve germ with jet `jet`.

    Each component's Taylor polynomial has t -> phi(t) substituted, all
    components in one `substitute_all` batch.  Exact for any mix of
    rational and formal entries.
    """
    spec = jet.spec
    if phi.order != spec.order:
        raise ValueError(f"order mismatch: jet {spec.order} vs reparametrization {phi.order}")
    taylors = [_taylor(jet, j, _ZERO) for j in range(1, spec.rank + 1)]
    bindings = {_T: _series([_ZERO, *phi.coeffs])}
    return _jet_of(spec, substitute_all(taylors, bindings, truncate=(_T, spec.order)))


class TargetMap:
    """A polynomial coordinate change on the target: w_j = psi_j(z1..zr).

    `order` is the highest jet order the map may move (act_target rejects
    a jet of higher order).  Components are kept exactly as given: a term
    of any degree reaches the jets at a nonzero basepoint.
    """

    __slots__ = ("rank", "order", "components")

    def __init__(self, rank: int, order: int, components: Sequence[SparsePolynomial]):
        if rank < 1 or order < 1:
            raise ValueError(f"rank and order must be >= 1, got ({rank}, {order})")
        if len(components) != rank:
            raise ValueError(f"expected {rank} components, got {len(components)}")
        comps = []
        for c in components:
            poly = _as_poly(c)
            for v in poly.variables():
                if v.kind != BASE or v.comp > rank:
                    raise ValueError(f"component uses non-base variable {v.name}")
            comps.append(poly)
        self.rank = rank
        self.order = order
        self.components = tuple(comps)

    @classmethod
    def identity(cls, rank: int, order: int) -> "TargetMap":
        return cls(rank, order, [SparsePolynomial.variable(base_var(j)) for j in range(1, rank + 1)])

    @classmethod
    def linear(cls, matrix: Sequence[Sequence], order: int) -> "TargetMap":
        """The map w = matrix * z."""
        rank = len(matrix)
        comps = []
        for row in matrix:
            if len(row) != rank:
                raise ValueError("linear map needs a square matrix")
            comp = SparsePolynomial.zero()
            for l, v in enumerate(row, start=1):
                comp = comp + SparsePolynomial.variable(base_var(l)) * Fraction(v)
            comps.append(comp)
        return cls(rank, order, comps)

    def evaluate(self, point: Sequence) -> Tuple[Fraction, ...]:
        values = {base_var(l): Fraction(v) for l, v in enumerate(point, start=1)}
        return tuple(c.substitute(values).constant_value() for c in self.components)

    def jacobian(self, point: Sequence) -> List[List[Fraction]]:
        """First derivatives [d psi_j / d z_l] at the point, exact."""
        values = {base_var(l): Fraction(v) for l, v in enumerate(point, start=1)}
        out = []
        for c in self.components:
            out.append(
                [
                    c.derivative(base_var(l)).substitute(values).constant_value()
                    for l in range(1, self.rank + 1)
                ]
            )
        return out

    def second_derivatives(self, point: Sequence) -> List[List[List[Fraction]]]:
        """hess[j][l][m] = d^2 psi_{j+1} / dz_{l+1} dz_{m+1} at the point."""
        values = {base_var(l): Fraction(v) for l, v in enumerate(point, start=1)}
        out = []
        for c in self.components:
            firsts = [c.derivative(base_var(l)) for l in range(1, self.rank + 1)]
            out.append(
                [
                    [
                        fl.derivative(base_var(m)).substitute(values).constant_value()
                        for m in range(1, self.rank + 1)
                    ]
                    for fl in firsts
                ]
            )
        return out

    def compose(self, inner: "TargetMap") -> "TargetMap":
        """self after inner, with every term of the substitution kept."""
        if inner.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {inner.rank}")
        bindings = {
            base_var(l): inner.components[l - 1] for l in range(1, self.rank + 1)
        }
        comps = [c.substitute(bindings) for c in self.components]
        return TargetMap(self.rank, max(self.order, inner.order), comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetMap):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.order == other.order
            and self.components == other.components
        )

    def __str__(self) -> str:
        return "; ".join(f"w{j} = {c}" for j, c in enumerate(self.components, start=1))

    def __repr__(self) -> str:
        return f"TargetMap({self})"


def act_target(jet: JetPoint, psi: TargetMap, basepoint: Sequence) -> JetPoint:
    """The jet of psi o f at the basepoint: substitute the Taylor expansion
    of f into psi and read off derivatives.

    The basepoint supplies the constant terms of the expansion (f(0) = x);
    entries of the result are the raw derivatives of psi o f at 0.  A
    map that is singular at the basepoint still gives a well-defined jet;
    callers that need a fiber isomorphism check the Jacobian themselves.
    """
    spec = jet.spec
    if psi.rank != spec.rank:
        raise ValueError(f"rank mismatch: jet {spec.rank} vs map {psi.rank}")
    if psi.order < spec.order:
        raise ValueError(
            f"map prepared for order {psi.order} cannot move an order-{spec.order} jet"
        )
    if len(basepoint) != spec.rank:
        raise ValueError(f"basepoint needs {spec.rank} coordinates")
    point = [_as_poly(v) for v in basepoint]
    bindings = {
        base_var(l): _taylor(jet, l, point[l - 1]) for l in range(1, spec.rank + 1)
    }
    return _jet_of(spec, substitute_all(psi.components, bindings, truncate=(_T, spec.order)))
