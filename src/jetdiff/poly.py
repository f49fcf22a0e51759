"""Exact sparse multivariate polynomials over the rationals.

Everything downstream (jet actions, constraint systems, transition matrices)
is built on the arithmetic in this module, so the conventions here are the
load-bearing ones.

Three kinds of variables occur:

    base coordinates   z1, z2, ...    coordinates on the target chart
    jet variables      fj with i primes, the raw i-th derivative of curve
                       component j at 0 (not the Taylor coefficient)
    formal parameters  a1, a2, ...    coefficients of a formal
                       reparametrization t -> a1*t + a2*t^2 + ...

The global variable order is: base coordinates by component, then jet
variables by (derivative order, component), then parameters by index.
Monomials are compared gradedly (total degree first) and then
lexicographically in that variable order, with larger powers of earlier
variables winning.  "Canonical order" always means decreasing in this
comparison; every printed term sequence, matrix column order and golden
file uses it, which is what makes serialized output byte-stable.

Representation: a polynomial holds a dict mapping monomials to nonzero
exact rationals, `fractions.Fraction` or int.  A monomial is a tuple of
(variable, exponent) pairs sorted by variable, every exponent positive;
the empty tuple is the constant monomial.  All results are exact and in
lowest terms.  Arithmetic makes Fractions; the integral invariant basis
is stored as ints, and printing, equality and hashing treat an int and
the Fraction equal to it alike.

Substitution has one kernel, `PackedSubstitution`, and one polynomial
front end on it, `substitute_all`, which pushes a batch of polynomials
through one binding map; `SparsePolynomial.substitute` is its one-element
call.  A power is a substitution as well: p^n is the image of x^n under
x -> p for a private variable x, so it is squared up in the kernel's power
table.  The jet actions compose through it too: jets.py writes each jet
component as its Taylor polynomial in a private series variable,
substitutes the reparametrization or the target map and truncates after
the jet order.  The kernel works on packed integers:

    packed keys        the variables that can occur in a result (bound
                       images plus pass-through variables) are numbered in
                       global variable order, and a monomial becomes one
                       int with one bit field per variable;
    carry-free fields  each field is as wide as the largest exponent its
                       variable can reach in any product, computed from the
                       input monomials and the degrees of the images, so
                       adding two keys multiplies the monomials and no sum
                       ever carries into a neighbouring field;
    common denominator each image is scaled by the lcm of its denominators,
                       and each polynomial's terms by the lcm of theirs, so
                       products are int adds (keys) and int multiplies
                       (coefficients).  One (variable, exponent) -> power
                       table serves the whole batch; a power next to a
                       cached one takes one product, any other is squared
                       up from half its exponent.

Each result is accumulated in one dict from key to integer; the kernel
returns it as (common denominator, {packed key: nonzero int}).
`substitute_all` unpacks it into canonical monomial tuples with
Fraction(num, common_den) coefficients.  The output is therefore the same
canonical polynomial exact arithmetic defines, whatever the packing; since
every printer sorts terms canonically, serialized output stays byte-stable.

`dim`, `verify` and the transitions read the packed images directly, with
one packing per call.  invariants.py builds `dim`'s substitution system
from them.  The formal re-check of `verify` and `invariant_basis`
compares each image with the keys of q * a1^m, and unpacks only the image
of a polynomial that is not invariant, to build its residual.  The
transition solve keys the basis vectors by the same packed keys as the
images and unpacks nothing.  Within the substitution kernel,
`PackedSubstitution.key` is the one packer, of image terms and of every
other monomial alike: it refuses a monomial that does not fit the fields
instead of letting it alias another.  invariants.py's derivation blocks,
Weyl renamings and root moves use their own layout (`_packed_moves`):
one field per jet variable, each as wide as the weight, so no exponent
of a monomial of that weight overflows it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

# variable kinds, in global sort order
BASE = 0
JET = 1
PARAM = 2

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Variable(NamedTuple):
    """A variable token.

    The field order (kind, order, comp) is chosen so that plain tuple
    comparison implements the global variable order directly.
    """

    kind: int
    order: int  # derivative order for JET, parameter index for PARAM, 0 for BASE
    comp: int   # component index for BASE and JET, 0 for PARAM

    @property
    def name(self) -> str:
        if self.kind == BASE:
            return f"z{self.comp}"
        if self.kind == JET:
            return f"f{self.comp}" + "'" * self.order
        return f"a{self.order}"


def base_var(comp: int) -> Variable:
    if comp < 1:
        raise ValueError(f"base coordinate index must be >= 1, got {comp}")
    return Variable(BASE, 0, comp)


def jet_var(comp: int, order: int) -> Variable:
    """The jet variable for derivative `order` of curve component `comp`."""
    if comp < 1 or order < 1:
        raise ValueError(f"jet variable needs comp >= 1 and order >= 1, got ({comp}, {order})")
    return Variable(JET, order, comp)


def param_var(index: int) -> Variable:
    """Formal reparametrization coefficient a_index (index >= 1)."""
    if index < 1:
        raise ValueError(f"parameter index must be >= 1, got {index}")
    return Variable(PARAM, index, 0)


# The variable `SparsePolynomial.__pow__` binds to its base; param_var
# refuses index 0, so no polynomial a caller writes contains it.
_POWER = Variable(PARAM, 0, 0)


# A monomial: ((variable, exponent), ...) sorted by variable, exponents > 0.
Monomial = Tuple[Tuple[Variable, int], ...]

MONO_ONE: Monomial = ()


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Merge two sorted monomials, adding exponents of shared variables."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_sort_key(m: Monomial):
    """Sort key such that ascending order is the canonical decreasing order.

    Total degree first; ties broken lexicographically with larger powers of
    earlier variables first.  Negating exponents makes plain tuple
    comparison do the lex part.
    """
    return (-mono_degree(m), tuple((v, -e) for v, e in m))


def mono_from_pairs(pairs: Iterable[Tuple[Variable, int]]) -> Monomial:
    """Build a canonical monomial from unordered (variable, exponent) pairs."""
    acc: Dict[Variable, int] = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


@lru_cache(maxsize=4096)
def _factor_str(factor: Tuple[Variable, int]) -> str:
    """One printed factor such as f1'^3, formatted once per (variable, exponent)."""
    v, e = factor
    return v.name if e == 1 else f"{v.name}^{e}"


def mono_str(m: Monomial) -> str:
    return "*".join(map(_factor_str, m)) if m else "1"


def terms_str(terms: Iterable[Tuple[Monomial, Fraction]]) -> str:
    """The printed sum of (monomial, nonzero coefficient) terms, in the
    order given; "0" when there are none.  `str` of a polynomial passes
    its terms in canonical order."""
    chunks = []
    for mono, coeff in terms:
        num, den = coeff.numerator, coeff.denominator
        chunks.append(" - " if num < 0 else " + ")
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            chunks.append(mag)
        elif mag == "1":
            chunks.append(mono_str(mono))
        else:
            chunks.append(f"{mag}*{mono_str(mono)}")
    if not chunks:
        return "0"
    chunks[0] = "-" if chunks[0] == " - " else ""  # the first separator is a sign
    return "".join(chunks)


Scalar = Union[int, Fraction]
PolyLike = Union["SparsePolynomial", int, Fraction]


class SparsePolynomial:
    """A sparse polynomial with exact (Fraction or int) coefficients.

    The term dict is treated as immutable after construction; arithmetic
    always returns fresh objects.  The constructor trusts its input to be
    canonical (no zero coefficients, monomials sorted), which all internal
    call sites guarantee; external code should use the classmethods.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction]):
        self.terms = terms

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls({})

    @classmethod
    def constant(cls, value: Scalar) -> "SparsePolynomial":
        c = Fraction(value)
        return cls({MONO_ONE: c} if c else {})

    @classmethod
    def variable(cls, v: Variable) -> "SparsePolynomial":
        return cls({((v, 1),): _ONE})

    @classmethod
    def monomial(cls, m: Monomial, coeff: Scalar = 1) -> "SparsePolynomial":
        c = Fraction(coeff)
        return cls({m: c} if c else {})

    # ---- predicates and views ----

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, raising otherwise."""
        if not self.terms:
            return _ZERO
        if self.is_constant():
            return self.terms[MONO_ONE]
        raise ValueError(f"polynomial is not constant: {self}")

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, _ZERO)

    def variables(self) -> frozenset:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return frozenset(out)

    def sorted_terms(self):
        """Terms in canonical decreasing monomial order."""
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))

    # ---- arithmetic ----

    @staticmethod
    def _coerce(other: PolyLike):
        if isinstance(other, SparsePolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return SparsePolynomial.constant(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __add__(self, other: PolyLike) -> "SparsePolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.terms:
            return self
        if not self.terms:
            return o
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SparsePolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: PolyLike) -> "SparsePolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: PolyLike) -> "SparsePolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: PolyLike) -> "SparsePolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return SparsePolynomial({})
        # scalar fast path
        if o.is_constant():
            c = o.terms[MONO_ONE]
            return SparsePolynomial({m: v * c for m, v in self.terms.items()})
        if self.is_constant():
            c = self.terms[MONO_ONE]
            return SparsePolynomial({m: v * c for m, v in o.terms.items()})
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, _ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return SparsePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SparsePolynomial":
        """self^n for an int n >= 0, and 1 for n = 0 (0^0 included).

        It is the image of x^n under x -> self for a private variable x,
        through the one substitution kernel and its power table.  The
        substitution is simultaneous, so a base containing x is exact too.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a nonnegative integer, got {n!r}")
        power = SparsePolynomial({mono_from_pairs([(_POWER, n)]): _ONE})
        return substitute_all([power], {_POWER: self})[0]

    # ---- structural operations ----

    def substitute(self, bindings: Mapping[Variable, PolyLike]) -> "SparsePolynomial":
        """Simultaneously replace variables by polynomials (or scalars).

        Unbound variables pass through unchanged.  The replacement is
        simultaneous: {x -> y, y -> x} swaps.  This is the one-element
        call of `substitute_all`.
        """
        return substitute_all([self], bindings)[0]

    def derivative(self, v: Variable) -> "SparsePolynomial":
        """Formal partial derivative with respect to `v`."""
        out: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for idx, (w, e) in enumerate(mono):
                if w == v:
                    if e == 1:
                        new = mono[:idx] + mono[idx + 1:]
                    else:
                        new = mono[:idx] + ((w, e - 1),) + mono[idx + 1:]
                    s = out.get(new, _ZERO) + coeff * e
                    if s:
                        out[new] = s
                    else:
                        out.pop(new, None)
                    break
        return SparsePolynomial(out)

    def collect(self, variables: Iterable[Variable]) -> Dict[Monomial, "SparsePolynomial"]:
        """Group terms by their monomial in `variables`.

        Returns a dict from monomials (in the collected variables only) to
        the cofactor polynomials in the remaining variables.  Summing
        key * value over the result reconstructs the polynomial.
        """
        vset = frozenset(variables)
        out: Dict[Monomial, SparsePolynomial] = {}
        for mono, coeff in self.terms.items():
            inside = tuple((v, e) for v, e in mono if v in vset)
            outside = tuple((v, e) for v, e in mono if v not in vset)
            bucket = out.get(inside)
            if bucket is None:
                out[inside] = SparsePolynomial({outside: coeff})
            else:
                out[inside] = bucket + SparsePolynomial({outside: coeff})
        return {m: p for m, p in out.items() if p}

    def evaluate(self, values: Mapping[Variable, Scalar]) -> Fraction:
        """Fully evaluate at rational values; raises if variables remain."""
        return self.substitute(values).constant_value()

    # ---- display ----

    def __str__(self) -> str:
        return terms_str(self.sorted_terms())

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


def poly_sum(items: Iterable[PolyLike]) -> SparsePolynomial:
    total = SparsePolynomial.zero()
    for item in items:
        total = total + item
    return total


def _mul_into(
    acc: Dict[int, int], left: List[Tuple[int, int]], right: List[Tuple[int, int]]
) -> Dict[int, int]:
    """Add the product of two packed polynomials into `acc`; returns it.

    Packed keys add where monomials multiply, because no field carries.
    """
    get = acc.get
    for k1, c1 in left:
        for k2, c2 in right:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


class PackedSubstitution:
    """The substitution kernel of the module docstring for one binding map.

    It is sized once, from the monomials it is to meet: the bit fields,
    the images with their denominators cleared and the power table then
    serve every `image` call.  `image` must only be given polynomials
    whose monomials were among those it was sized from; another monomial
    can overflow a field.  Every key of an image fits the fields; `key`
    packs any other monomial, or refuses it when it does not fit.

    truncate=(v, n) drops the terms of v-degree above n after every
    product; products only raise degrees, so the kept terms are exact and
    the work is bounded by n, not by the degrees of the inputs.
    """

    __slots__ = (
        "_shift", "_limit", "_fields", "_kept", "_trim", "_cleared", "_powers", "_unpacked"
    )

    def __init__(
        self,
        bindings: Mapping[Variable, PolyLike],
        monomials: Iterable[Monomial],
        truncate: Tuple[Variable, int] | None = None,
    ):
        images: Dict[Variable, SparsePolynomial] = {}
        for v, value in bindings.items():
            image = SparsePolynomial._coerce(value)
            if image is None:
                raise TypeError(f"cannot bind {v.name} to {value!r}")
            images[v] = image

        # Largest exponent each variable can reach in any product: pass-through
        # exponents plus e times the image's degree in it, per input monomial.
        degrees: Dict[Variable, List[Tuple[Variable, int]]] = {}
        top: Dict[Variable, int] = {}
        for mono in set(monomials):
            need: Dict[Variable, int] = {}
            for v, e in mono:
                image = images.get(v)
                if image is None:
                    need[v] = need.get(v, 0) + e
                    continue
                degs = degrees.get(v)
                if degs is None:
                    most: Dict[Variable, int] = {}
                    for m in image.terms:
                        for w, d in m:
                            if d > most.get(w, 0):
                                most[w] = d
                    degs = degrees[v] = list(most.items())
                for w, d in degs:
                    need[w] = need.get(w, 0) + e * d
            for w, n in need.items():
                if n > top.get(w, 0):
                    top[w] = n

        # One bit field per variable, in global variable order, wide enough
        # for its largest exponent: exponent sums never carry into a neighbour.
        shift: Dict[Variable, int] = {}
        limit: Dict[Variable, int] = {}
        fields: List[Tuple[Variable, int, int]] = []
        offset = 0
        for w in sorted(top):
            width = top[w].bit_length()
            shift[w] = offset
            limit[w] = (1 << width) - 1
            fields.append((w, offset, limit[w]))
            offset += width
        self._shift = shift
        self._limit = limit
        self._fields = fields

        # The nonzero terms of a product within the truncation (mask 0 keeps
        # all), as a list for further products; `trim` drops the others from
        # a finished result in place, as they are usually few.
        cut, limit = truncate if truncate is not None else (None, 0)
        cut_off, cut_mask = next(((off, mask) for w, off, mask in fields if w == cut), (0, 0))

        def kept(product: Dict[int, int]) -> List[Tuple[int, int]]:
            return [(k, c) for k, c in product.items() if c and (k >> cut_off) & cut_mask <= limit]

        def trim(product: Dict[int, int]) -> Dict[int, int]:
            for k in [k for k, c in product.items() if not c or (k >> cut_off) & cut_mask > limit]:
                del product[k]
            return product

        self._kept = kept
        self._trim = trim

        # Each used image as (common denominator, [(packed key, integer coeff)]).
        cleared: Dict[Variable, Tuple[int, List[Tuple[int, int]]]] = {}
        for v in degrees:
            terms = images[v].terms
            den = 1
            for c in terms.values():
                den = den * c.denominator // gcd(den, c.denominator)
            packed = [(self.key(m), c.numerator * (den // c.denominator)) for m, c in terms.items()]
            cleared[v] = (den, packed)
        self._cleared = cleared
        self._powers: Dict[Tuple[Variable, int], List[Tuple[int, int]]] = {}  # (v, e) -> image^e
        self._unpacked: Dict[int, Monomial] = {}

    def key(self, mono: Monomial) -> Optional[int]:
        """The packed key of a monomial in the result variables, or None
        when a variable of the monomial has no field or an exponent wider
        than its field, so no monomial takes another's key.  Every image
        key is made here, so a monomial without one occurs in no image."""
        shift, limit = self._shift, self._limit
        key = 0
        for v, e in mono:
            if e > limit.get(v, 0):
                return None
            key += e << shift[v]
        return key

    def fields(self, kind: int) -> List[Tuple[int, int]]:
        """(offset, mask) of the bit field of each variable of one kind
        (BASE, JET or PARAM), in global order: (key >> offset) & mask is
        that variable's exponent in the monomial of a packed key."""
        return [(off, mask) for w, off, mask in self._fields if w.kind == kind]

    def _power(self, v: Variable, e: int) -> List[Tuple[int, int]]:
        """The packed image of v, to the power e >= 1, from the table.

        Next to a cached power, one product with the image; otherwise the
        square of power e // 2, times the image when e is odd, so a power
        far from any cached one takes O(log e) products, not e."""
        powers = self._powers
        found = powers.get((v, e))
        if found is None:
            kept, base = self._kept, self._cleared[v][1]
            halved = []  # the exponents to square back up to, in reverse
            while e > 1 and (v, e) not in powers and (v, e - 1) not in powers:
                halved.append(e)
                e //= 2
            found = powers.get((v, e))
            if found is None:
                below = powers[(v, e - 1)] if e > 1 else [(0, 1)]
                found = powers[(v, e)] = kept(_mul_into({}, below, base))
            for e in reversed(halved):
                found = kept(_mul_into({}, found, found))
                if e & 1:
                    found = kept(_mul_into({}, found, base))
                powers[(v, e)] = found
        return found

    def image(self, terms: Mapping[Monomial, Scalar]) -> Tuple[int, Dict[int, int]]:
        """The image of the polynomial with these terms (int or Fraction
        coefficients) as (common, {packed key: nonzero int n}), meaning the
        sum of n / common times the monomial of each key."""
        shift, cleared, power, kept = self._shift, self._cleared, self._power, self._kept
        # Clear the denominators of the terms, images included.
        prepared = []
        common = 1
        for mono, coeff in terms.items():
            key = 0
            num, den = coeff.numerator, coeff.denominator
            factors = []
            for v, e in mono:
                image = cleared.get(v)
                if image is None:
                    key += e << shift[v]
                else:
                    factors.append(power(v, e))
                    if image[0] != 1:
                        den *= image[0] ** e
            g = gcd(num, den)
            num, den = num // g, den // g
            common = common * den // gcd(common, den)
            prepared.append((key, num, den, factors))
        acc: Dict[int, int] = {}
        for key, num, den, factors in prepared:
            partial = [(key, num * (common // den))]
            for factor in factors[:-1]:
                partial = kept(_mul_into({}, partial, factor))
            _mul_into(acc, partial, factors[-1] if factors else [(0, 1)])
        return common, self._trim(acc)

    def unpack(self, common: int, packed: Mapping[int, int]) -> Dict[Monomial, Fraction]:
        """The terms of an `image` result as canonical monomial tuples with
        Fraction(n, common) coefficients."""
        unpacked, fields = self._unpacked, self._fields
        terms: Dict[Monomial, Fraction] = {}
        for k, n in packed.items():
            mono = unpacked.get(k)
            if mono is None:
                pairs = []
                for w, off, mask in fields:
                    e = (k >> off) & mask
                    if e:
                        pairs.append((w, e))
                mono = unpacked[k] = tuple(pairs)
            terms[mono] = Fraction(n, common)
        return terms


def substitute_all(
    polys: Sequence[SparsePolynomial],
    bindings: Mapping[Variable, PolyLike],
    truncate: Tuple[Variable, int] | None = None,
) -> List[SparsePolynomial]:
    """Substitute one binding map into every polynomial of a batch.

    Same semantics as `SparsePolynomial.substitute` (simultaneous,
    unbound variables pass through), returning one result per input in
    order.  The batch shares one `PackedSubstitution`, sized from all its
    monomials, and each image is unpacked; `truncate` is as there.
    """
    if not bindings:
        return list(polys)
    packing = PackedSubstitution(bindings, (m for p in polys for m in p.terms), truncate)
    return [
        SparsePolynomial(packing.unpack(*packing.image(p.terms))) if p.terms else p for p in polys
    ]
