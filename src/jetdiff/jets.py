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

Entries may be Fractions or polynomials (formal jets, formal group
coefficients); all helpers are generic over both because SparsePolynomial
interoperates with Fraction arithmetic.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple, Union

from .linalg import dense_rank
from .poly import (
    BASE,
    SparsePolynomial,
    Variable,
    base_var,
    jet_var,
    param_var,
)

Value = Union[Fraction, SparsePolynomial]

# Guardrail on formal computations; everything is exact, so runaway sizes
# come from the user, not from roundoff.  Override with allow_large=True.
MAX_RANK = 4
MAX_ORDER = 4

_ZERO = Fraction(0)
_ONE = Fraction(1)


class JetSpec:
    """Shape of a jet problem: number of curve components and jet order.

    Immutable.  Equality and hashing look at (rank, order) only:
    `allow_large` lifts the guardrail, it does not make another shape.
    """

    __slots__ = ("rank", "order", "allow_large")

    def __init__(self, rank: int, order: int, allow_large: bool = False):
        if rank < 1 or order < 1:
            raise ValueError(f"rank and order must be >= 1, got ({rank}, {order})")
        if not allow_large and (rank > MAX_RANK or order > MAX_ORDER):
            raise ValueError(
                f"rank {rank}, order {order} beyond the guardrail "
                f"({MAX_RANK}, {MAX_ORDER}); pass allow_large=True to override"
            )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "allow_large", allow_large)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable JetSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable JetSpec")

    def __reduce__(self):
        # rebuild through __init__ (copy, deepcopy, pickle): slot-by-slot
        # restoring would go through the blocked __setattr__
        return (JetSpec, (self.rank, self.order, self.allow_large))

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetSpec):
            return NotImplemented
        return self.rank == other.rank and self.order == other.order

    def __hash__(self) -> int:
        return hash((self.rank, self.order))

    def __repr__(self) -> str:
        return f"JetSpec(rank={self.rank}, order={self.order})"

    def jet_variables(self) -> List[Variable]:
        """All jet variables of this shape, in the global variable order."""
        return [jet_var(j, i) for i in range(1, self.order + 1) for j in range(1, self.rank + 1)]


def _as_value(x) -> Value:
    if isinstance(x, SparsePolynomial):
        return x.constant_value() if x.is_constant() else x
    return Fraction(x)


def _is_scalar(x: Value) -> bool:
    return isinstance(x, Fraction)


class ReparamJet:
    """A k-jet of a source reparametrization, phi(t) = sum a_i t^i.

    Coefficients may be rational numbers or polynomials in formal
    parameters.  The leading coefficient must be nonzero; when it is a
    genuine polynomial its invertibility cannot be decided here and is
    checked at the point of use (inversion requires a numeric leading
    coefficient).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence):
        if order < 1:
            raise ValueError(f"reparametrization order must be >= 1, got {order}")
        coeffs = tuple(_as_value(c) for c in coeffs)
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
        lead: Value = _ONE if unipotent else SparsePolynomial.variable(param_var(1))
        tail = [SparsePolynomial.variable(param_var(i)) for i in range(2, order + 1)]
        return cls(order, [lead] + tail)

    def is_identity(self) -> bool:
        if not (_is_scalar(self.coeffs[0]) and self.coeffs[0] == 1):
            return False
        return all(_is_scalar(c) and c == 0 for c in self.coeffs[1:])

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
        rows = tuple(tuple(_as_value(v) for v in row) for row in entries)
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

    def entry(self, order: int, comp: int) -> Value:
        return self.entries[order - 1][comp - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetPoint):
            return NotImplemented
        return self.spec == other.spec and self.entries == other.entries

    def __repr__(self) -> str:
        return f"JetPoint({self.spec.rank}, {self.spec.order}, {self.entries!r})"


# ---- truncated power series helpers ----
#
# A series is a list of Values indexed by the power of t, length order+1.
# Multiplication truncates beyond t^order.  These are private because the
# public objects speak raw derivatives, not coefficients.


def _series_mul(a: List[Value], b: List[Value], order: int) -> List[Value]:
    out: List[Value] = [_ZERO] * (order + 1)
    for i, av in enumerate(a):
        if not av:
            continue
        top = order - i
        for j, bv in enumerate(b[: top + 1]):
            if not bv:
                continue
            out[i + j] = out[i + j] + av * bv
    return out


def _series_compose(coeffs: List[Value], inner: List[Value], order: int) -> List[Value]:
    """sum_{n>=1} coeffs[n] * inner^n truncated, for inner with inner[0] = 0.

    coeffs is indexed from 1 (coeffs[0] is ignored); evaluated by Horner,
    so only order-1 series multiplications happen.
    """
    if inner[0]:
        raise ValueError("inner series must have no constant term")
    top = len(coeffs) - 1
    acc: List[Value] = [coeffs[top]] + [_ZERO] * order
    for n in range(top - 1, 0, -1):
        acc = _series_mul(inner, acc, order)
        acc[0] = acc[0] + coeffs[n]
    return _series_mul(inner, acc, order)


def compose_reparam(outer: ReparamJet, inner: ReparamJet) -> ReparamJet:
    """The jet of outer(inner(t)), truncated after t^order.

    This is the (associative) composition law; identity() is neutral on
    both sides.
    """
    if outer.order != inner.order:
        raise ValueError(f"order mismatch: {outer.order} vs {inner.order}")
    k = outer.order
    u: List[Value] = [_ZERO, *inner.coeffs]
    composed = _series_compose([_ZERO, *outer.coeffs], u, k)
    return ReparamJet(k, composed[1:])


def invert_reparam(phi: ReparamJet) -> ReparamJet:
    """The compositional inverse: compose_reparam(phi, result) is t.

    Needs a numeric leading coefficient (the inverse divides by powers of
    a1); the higher coefficients may be formal.  Solved order by order:
    the t^n coefficient of phi(psi(t)) is a1*b_n plus terms in b_1..b_{n-1}
    only, so each b_n comes from one division.
    """
    a1 = phi.coeffs[0]
    if not _is_scalar(a1):
        raise ValueError(
            "inversion needs a numeric leading coefficient; a formal a1 has no "
            "polynomial inverse"
        )
    if a1 == 0:
        raise ValueError("leading coefficient a1 must be nonzero")
    k = phi.order
    b: List[Value] = [_ONE / a1] + [_ZERO] * (k - 1)
    for n in range(2, k + 1):
        partial = ReparamJet(k, b)
        c = compose_reparam(phi, partial).coeffs[n - 1]
        b[n - 1] = c * (Fraction(-1) / a1)
    return ReparamJet(k, b)


def act_reparam(jet: JetPoint, phi: ReparamJet) -> JetPoint:
    """The jet of f o phi, where f is the curve germ with jet `jet`.

    Componentwise: convert raw derivatives to Taylor coefficients, compose
    with phi as truncated series, convert back.  Exact for any mix of
    rational and formal entries.
    """
    spec = jet.spec
    if phi.order != spec.order:
        raise ValueError(f"order mismatch: jet {spec.order} vs reparametrization {phi.order}")
    k = spec.order
    u: List[Value] = [_ZERO, *phi.coeffs]
    new_rows: List[List[Value]] = [[_ZERO] * spec.rank for _ in range(k)]
    for j in range(1, spec.rank + 1):
        taylor: List[Value] = [_ZERO] + [
            jet.entry(i, j) * Fraction(1, factorial(i)) for i in range(1, k + 1)
        ]
        moved = _series_compose(taylor, u, k)
        for i in range(1, k + 1):
            new_rows[i - 1][j - 1] = moved[i] * Fraction(factorial(i))
    return JetPoint(spec, new_rows)


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
            poly = c if isinstance(c, SparsePolynomial) else SparsePolynomial.constant(c)
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
    singular Jacobian at the basepoint only warns: the substitution is
    still a well-defined jet, it just fails to be a fiber isomorphism.
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
    point = [_as_value(v) for v in basepoint]
    if all(_is_scalar(v) for v in point):
        jac = psi.jacobian(point)
        if dense_rank(jac) < spec.rank:
            warnings.warn(
                "target map has singular Jacobian at the basepoint; the jet "
                "substitution is still well defined",
                stacklevel=2,
            )
    k = spec.order
    series = {}
    for l in range(1, spec.rank + 1):
        series[l] = [point[l - 1]] + [
            jet.entry(i, l) * Fraction(1, factorial(i)) for i in range(1, k + 1)
        ]
    new_rows: List[List[Value]] = [[_ZERO] * spec.rank for _ in range(k)]
    for j in range(1, spec.rank + 1):
        total: List[Value] = [_ZERO] * (k + 1)
        for mono, coeff in psi.components[j - 1].terms.items():
            term: List[Value] = [coeff] + [_ZERO] * k
            for v, e in mono:
                s = series[v.comp]
                for _ in range(e):
                    term = _series_mul(term, s, k)
            for i in range(k + 1):
                total[i] = total[i] + term[i]
        for i in range(1, k + 1):
            new_rows[i - 1][j - 1] = total[i] * Fraction(factorial(i))
    return JetPoint(spec, new_rows)
