"""Tests for the sparse exact-rational polynomial core."""

import random
from fractions import Fraction

import pytest

from jetdiff import poly
from jetdiff.poly import (
    PackedSubstitution,
    SparsePolynomial,
    base_var,
    jet_var,
    mono_degree,
    mono_from_pairs,
    mono_mul,
    mono_sort_key,
    param_var,
    poly_sum,
    substitute_all,
)

from helpers import random_poly, rational, reference_substitute

X = base_var(1)
Y = base_var(2)


def var(v):
    return SparsePolynomial.variable(v)


def test_zero_and_constants():
    z = SparsePolynomial.zero()
    assert z.is_zero()
    assert not z
    assert str(z) == "0"
    three = SparsePolynomial.constant(3)
    assert three.is_constant()
    assert three.constant_value() == 3
    assert (var(X) - var(X)).is_zero()
    assert SparsePolynomial.constant(Fraction(2, 4)).constant_value() == Fraction(1, 2)


def test_product_difference_of_squares():
    x = var(X)
    one = SparsePolynomial.constant(1)
    assert (x + one) * (x - one) == x ** 2 - one


def test_binomial_coefficients():
    x, y = var(X), var(Y)
    cube = (x + y) ** 3
    assert cube.coefficient(mono_from_pairs([(X, 2), (Y, 1)])) == 3
    assert cube.coefficient(mono_from_pairs([(X, 3)])) == 1
    assert cube.coefficient(mono_from_pairs([(X, 1), (Y, 1)])) == 0
    assert cube.total_degree() == 3


def test_pow_matches_repeated_multiplication():
    rng = random.Random(101)
    p = random_poly(rng, [X, Y], terms=3, max_exp=2)
    q = SparsePolynomial.constant(1)
    for n in range(5):
        assert p ** n == q
        q = q * p


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        var(X) ** -1


def test_ring_axioms_randomized():
    rng = random.Random(7)
    vars_ = [X, Y, jet_var(1, 1), jet_var(2, 2)]
    for _ in range(25):
        p = random_poly(rng, vars_, terms=3)
        q = random_poly(rng, vars_, terms=3)
        r = random_poly(rng, vars_, terms=3)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == SparsePolynomial.zero()
        assert p * SparsePolynomial.zero() == SparsePolynomial.zero()


def test_scalar_coercion_both_sides():
    x = var(X)
    assert 2 * x == x * 2
    assert 1 + x == x + 1
    assert 3 - x == -(x - 3)
    assert Fraction(1, 2) * (x + x) == x


def test_substitute_swap_is_involutive():
    x, y = var(X), var(Y)
    p = x ** 2 + 2 * y
    swap = {X: y, Y: x}
    assert p.substitute(swap) == y ** 2 + 2 * x
    assert p.substitute(swap).substitute(swap) == p


def test_substitute_is_simultaneous():
    # x -> y, y -> x must not turn everything into x.
    x, y = var(X), var(Y)
    p = x * y ** 2
    assert p.substitute({X: y, Y: x}) == y * x ** 2


def assert_matches_reference(polys, bindings):
    got = substitute_all(polys, bindings)
    assert got == [reference_substitute(p, bindings) for p in polys], (polys, bindings)
    for p in got:
        for mono, coeff in p.terms.items():
            assert type(coeff) is Fraction and coeff
            assert list(mono) == sorted(mono) and all(e > 0 for _, e in mono)
    return got


def test_substitute_all_matches_reference_randomized():
    # every variable kind, pass-through variables that also occur in the
    # images, and scalar, Fraction and zero bindings
    rng = random.Random(67)
    variables = [X, Y, jet_var(1, 1), jet_var(2, 2), param_var(1), param_var(2)]
    for _ in range(60):
        polys = [random_poly(rng, variables, terms=rng.randint(1, 5), max_exp=4)
                 for _ in range(rng.randint(1, 4))]
        polys.append(rng.choice([SparsePolynomial.zero(), SparsePolynomial.constant(rational(rng))]))
        bindings = {}
        for v in rng.sample(variables, k=rng.randint(1, len(variables))):
            kind = rng.random()
            if kind < 0.15:
                bindings[v] = rng.randint(-3, 3)
            elif kind < 0.3:
                bindings[v] = rational(rng)
            elif kind < 0.35:
                bindings[v] = SparsePolynomial.zero()
            else:
                bindings[v] = random_poly(rng, variables, terms=rng.randint(1, 3), max_exp=2)
        assert_matches_reference(polys, bindings)


def test_substitute_all_edge_cases():
    x, y = var(X), var(Y)
    a1, f1 = var(param_var(1)), var(jet_var(1, 1))
    zero, one = SparsePolynomial.zero(), SparsePolynomial.constant(1)
    # simultaneous swap, and a swap with a pass-through variable in the image
    assert_matches_reference([x ** 2 * y + 3 * y, x - y], {X: y, Y: x})
    assert_matches_reference([x ** 3 * y ** 2], {X: x + y})
    # cancellation to zero, within one term product and across terms
    got = assert_matches_reference([x - y, x ** 2 - y ** 2], {X: y, Y: y})
    assert got[0].is_zero() and got[1].is_zero()
    got = assert_matches_reference([x * y + f1 ** 2 - 1], {X: 1 + f1, Y: 1 - f1})
    assert got[0].is_zero()
    assert substitute_all([x * y - 2], {X: Fraction(2, 3), Y: 3}) == [zero]
    # constant and zero polynomials, scalar and Fraction bindings
    assert_matches_reference([zero, one, SparsePolynomial.constant(Fraction(-5, 7))], {X: y})
    assert_matches_reference([Fraction(1, 3) * x * a1 ** 2 - f1], {X: 2, param_var(1): Fraction(3, 4)})
    # denominators in the images and in the coefficients, all variable kinds
    assert_matches_reference(
        [Fraction(2, 5) * x ** 2 * f1 + Fraction(1, 3) * a1 * y],
        {X: Fraction(1, 6) * f1 + Fraction(5, 4) * a1, jet_var(1, 1): Fraction(3, 2) * y - a1},
    )
    # unchanged objects without bindings or terms
    assert substitute_all([x, zero], {})[0] is x
    assert substitute_all([zero], {X: y})[0] is zero


def test_substitute_all_truncate_drops_only_the_high_terms():
    # truncate=(v, n) returns the full substitution less its terms of
    # v-degree above n, whether v is bound, passes through or occurs only
    # in the images; cut products must not feed the kept terms.
    rng = random.Random(109)
    variables = [X, Y, jet_var(1, 1), param_var(1)]
    for _ in range(60):
        polys = [random_poly(rng, variables, terms=rng.randint(1, 5), max_exp=4)
                 for _ in range(rng.randint(1, 3))]
        bindings = {
            v: random_poly(rng, variables, terms=rng.randint(1, 3), max_exp=2)
            for v in rng.sample(variables, k=rng.randint(1, 3))
        }
        cut, limit = rng.choice(variables), rng.randint(0, 6)
        want = []
        for p in polys:
            full = reference_substitute(p, bindings)
            want.append(SparsePolynomial(
                {m: c for m, c in full.terms.items() if dict(m).get(cut, 0) <= limit}
            ))
        got = substitute_all(polys, bindings, truncate=(cut, limit))
        assert got == want, (polys, bindings, cut, limit)


def test_substitute_all_exponents_fill_their_bit_fields():
    # Exponents 2^n - 1 fill every bit of their field and 2^n needs a new
    # one; each variable is packed next to another, so a field that is
    # one bit short carries into its neighbour or loses the top bit.
    x, y = var(X), var(Y)
    f1, f2 = var(jet_var(1, 1)), var(jet_var(2, 1))
    for n in range(1, 7):
        for e in (2 ** n - 1, 2 ** n):
            assert_matches_reference([x ** e * y], {X: x + 2 * y})
            assert_matches_reference([f1 ** e + f2], {jet_var(1, 1): f2 - f1})
            assert_matches_reference([x ** e, y ** e * x], {X: y, Y: x})


def test_checked_key_refuses_what_pack_would_alias():
    # x is bound to y and z passes through, so y has a one-bit field right
    # below z's: y^2 packs onto z's key, and x has no field at all.  The
    # checked key refuses both and agrees with `pack` on every monomial
    # that fits, image keys included.
    Z = base_var(3)
    packing = PackedSubstitution({X: var(Y)}, [((X, 1),), ((Z, 1),)])
    assert packing.pack(((Y, 2),)) == packing.pack(((Z, 1),))
    assert packing.key(((Y, 2),)) is None
    assert packing.key(((X, 1),)) is None
    for mono in [(), ((Y, 1),), ((Z, 1),), ((Y, 1), (Z, 1))]:
        assert packing.key(mono) == packing.pack(mono)
    assert packing.image({((X, 1), (Z, 1)): 3}) == (1, {packing.key(((Y, 1), (Z, 1))): 3})


def test_power_table_squares_far_powers(monkeypatch):
    # A power far from every cached one is reached by repeated squaring, in
    # O(log e) products; next to a cached power it takes one product, so
    # powers asked for in increasing order are built one step at a time.
    calls = []
    mul_into = poly._mul_into

    def counted(acc, left, right):
        calls.append(1)
        return mul_into(acc, left, right)

    monkeypatch.setattr(poly, "_mul_into", counted)
    f1, a1 = jet_var(1, 1), param_var(1)
    e = 10 ** 6
    monomials = [((f1, n),) for n in (e, e + 1, *range(1, 9))]
    packing = PackedSubstitution({f1: var(a1) * var(f1)}, monomials)
    assert packing.image({((f1, e),): 1}) == (1, {packing.key(((f1, e), (a1, e))): 1})
    assert len(calls) <= 2 * e.bit_length()  # one image product included
    calls.clear()
    packing.image({((f1, e + 1),): 1})
    assert len(calls) == 2
    calls.clear()
    fresh = PackedSubstitution({f1: var(a1) * var(f1)}, monomials)
    for n in range(1, 9):
        fresh.image({((f1, n),): 1})
    assert len(calls) == 2 * 8


def test_power_table_orders_agree_with_reference():
    # Squared and one-step powers, asked for out of order, with and without
    # truncation, match the term-by-term reference.
    x, y = var(X), var(Y)
    polys = [x ** e * y for e in (13, 6, 7, 30, 2, 1, 15)]
    bindings = {X: x + 2 * y - 1}
    assert_matches_reference(polys, bindings)
    got = substitute_all(polys, bindings, truncate=(X, 9))
    for p, q in zip(got, polys):
        full = reference_substitute(q, bindings)
        assert p == SparsePolynomial({m: c for m, c in full.terms.items() if dict(m).get(X, 0) <= 9})


def test_substitute_composition_law():
    # Substituting in two stages agrees with substituting the composite,
    # for bindings whose values involve only later-stage variables.
    rng = random.Random(23)
    f1, f2 = jet_var(1, 1), jet_var(2, 1)
    a1, a2 = param_var(1), param_var(2)
    for _ in range(10):
        p = random_poly(rng, [f1, f2], terms=3)
        sigma = {
            f1: random_poly(rng, [X, Y], terms=2),
            f2: random_poly(rng, [X, Y], terms=2),
        }
        tau = {
            X: random_poly(rng, [a1, a2], terms=2),
            Y: random_poly(rng, [a1, a2], terms=2),
        }
        composite = {v: s.substitute(tau) for v, s in sigma.items()}
        assert p.substitute(sigma).substitute(tau) == p.substitute(composite)


def test_substitute_constants_matches_evaluate():
    rng = random.Random(31)
    for _ in range(10):
        p = random_poly(rng, [X, Y], terms=4)
        vals = {X: rational(rng), Y: rational(rng)}
        subbed = p.substitute({v: SparsePolynomial.constant(c) for v, c in vals.items()})
        assert subbed.is_constant()
        assert subbed.constant_value() == p.evaluate(vals)


def test_collect_reconstructs_polynomial():
    rng = random.Random(43)
    f1 = jet_var(1, 1)
    f2 = jet_var(1, 2)
    for _ in range(10):
        p = random_poly(rng, [f1, f2, X], terms=5)
        grouped = p.collect([f1, f2])
        rebuilt = SparsePolynomial.zero()
        for mono, cofactor in grouped.items():
            for v in cofactor.variables():
                assert v not in (f1, f2)
            rebuilt = rebuilt + SparsePolynomial.monomial(mono) * cofactor
        assert rebuilt == p


def test_derivative_power_rule():
    x = var(X)
    assert (x ** 5).derivative(X) == 5 * x ** 4
    assert SparsePolynomial.constant(7).derivative(X).is_zero()
    assert var(Y).derivative(X).is_zero()


def test_derivative_product_rule_randomized():
    rng = random.Random(59)
    for _ in range(10):
        p = random_poly(rng, [X, Y], terms=3)
        q = random_poly(rng, [X, Y], terms=3)
        lhs = (p * q).derivative(X)
        rhs = p.derivative(X) * q + p * q.derivative(X)
        assert lhs == rhs


def test_monomial_helpers():
    m1 = mono_from_pairs([(X, 1), (Y, 2)])
    m2 = mono_from_pairs([(Y, 1)])
    assert mono_mul(m1, m2) == mono_from_pairs([(X, 1), (Y, 3)])
    assert mono_degree(m1) == 3
    assert mono_degree(()) == 0


def test_canonical_term_order():
    # Graded lexicographic, highest degree first: x^2, x*y, y^2, x, 1.
    x, y = var(X), var(Y)
    p = 1 + x + y ** 2 + x * y + x ** 2
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == sorted(monos, key=mono_sort_key)
    degrees = [mono_degree(m) for m in monos]
    assert degrees == sorted(degrees, reverse=True)
    assert monos[0] == mono_from_pairs([(X, 2)])
    assert monos[-1] == ()


def test_string_rendering():
    f1p = var(jet_var(1, 1))
    f2p = var(jet_var(2, 1))
    f1pp = var(jet_var(1, 2))
    f2pp = var(jet_var(2, 2))
    wronskian = f1p * f2pp - f2p * f1pp
    assert str(wronskian) == "f1'*f2'' - f2'*f1''"
    assert str(f1p ** 3 + Fraction(2, 3) * f2p ** 3) == "f1'^3 + 2/3*f2'^3"
    assert str(-var(X) + 1) == "-z1 + 1"
    assert str(var(param_var(2)) * 2) == "2*a2"
    # signs and magnitudes the printer reads off numerator and denominator
    assert str(Fraction(-3, 4) * f1p ** 2 - f2p) == "-3/4*f1'^2 - f2'"
    assert str(f1p - f2p ** 2) == "-f2'^2 + f1'"
    assert str(-f1p + 2) == "-f1' + 2"
    assert str(f1p ** 2 - Fraction(5, 2)) == "f1'^2 - 5/2"
    assert str(SparsePolynomial.constant(Fraction(-1, 2))) == "-1/2"


def test_poly_sum_matches_loop():
    rng = random.Random(61)
    polys = [random_poly(rng, [X, Y], terms=2) for _ in range(6)]
    total = SparsePolynomial.zero()
    for p in polys:
        total = total + p
    assert poly_sum(polys) == total
    assert poly_sum([]).is_zero()
