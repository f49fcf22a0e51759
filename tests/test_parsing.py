"""Tests for the expression grammar and its error reporting."""

import random
from fractions import Fraction

import pytest

from jetdiff.jets import JetSpec, TargetMap
from jetdiff.parsing import MAX_NESTING, ParseError, parse_map, parse_polynomial
from jetdiff.poly import SparsePolynomial, base_var, jet_var, param_var

from helpers import random_poly


def var(v):
    return SparsePolynomial.variable(v)


SPEC22 = JetSpec(2, 2)


def test_parse_wronskian():
    p = parse_polynomial("f1'*f2'' - f2'*f1''", SPEC22)
    expected = var(jet_var(1, 1)) * var(jet_var(2, 2)) - var(jet_var(2, 1)) * var(jet_var(1, 2))
    assert p == expected


def test_parse_rational_literals():
    p = parse_polynomial("2/3*f1'^3 + 1/2", JetSpec(1, 1))
    f = var(jet_var(1, 1))
    assert p == Fraction(2, 3) * f ** 3 + Fraction(1, 2)


def test_parse_juxtaposition_multiplies():
    f1p, f2p = var(jet_var(1, 1)), var(jet_var(2, 1))
    assert parse_polynomial("2f1'", SPEC22) == 2 * f1p
    assert parse_polynomial("3(f1' + f2')", SPEC22) == 3 * (f1p + f2p)
    assert parse_polynomial("2 f1'^2 f2'", SPEC22) == 2 * f1p ** 2 * f2p
    # a rational literal followed directly by a name
    assert parse_polynomial("1/2 f1'", SPEC22) == Fraction(1, 2) * f1p
    assert parse_polynomial("2f1' - 1/2f2'^3", SPEC22) == 2 * f1p - Fraction(1, 2) * f2p ** 3


def test_parse_precedence_and_signs():
    f = var(jet_var(1, 1))
    spec = JetSpec(1, 1)
    assert parse_polynomial("-f1'^2", spec) == -(f ** 2)
    assert parse_polynomial("+f1'", spec) == f
    assert parse_polynomial("2*f1'^3", spec) == 2 * f ** 3
    assert parse_polynomial("(f1' + 1)^2", spec) == (f + 1) ** 2


def test_parse_base_and_param_variables():
    p = parse_polynomial("z1*f1' + a2", SPEC22)
    assert p == var(base_var(1)) * var(jet_var(1, 1)) + var(param_var(2))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("f1'''", SPEC22)
    assert err.value.line == 1
    assert err.value.column == 1
    with pytest.raises(ParseError) as err:
        parse_polynomial("f1'^3 + f1'''*f1'", SPEC22)
    assert err.value.line == 1
    assert err.value.column == 9
    with pytest.raises(ParseError) as err:
        parse_polynomial("f1' +\nf9'", SPEC22)
    assert err.value.line == 2
    assert err.value.column == 1


def test_parse_error_cases():
    for bad in ("f3'", "f1", "f'", "x", "q2'", "z1'", "(f1'", "f1' +", "f1'^", "1/0", "f1' & f2'"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, SPEC22)
    with pytest.raises(ParseError):
        parse_polynomial("f1'^(2)", SPEC22)  # exponent must be a literal


def test_parse_nesting_limit():
    nested = "(" * MAX_NESTING + "f1'" + ")" * MAX_NESTING
    assert parse_polynomial(nested, SPEC22) == parse_polynomial("f1'", SPEC22)
    with pytest.raises(ParseError) as err:
        parse_polynomial("(" + nested + ")", SPEC22)
    assert err.value.column == MAX_NESTING + 1
    with pytest.raises(ParseError):
        parse_polynomial("(" * 3000 + "f1'" + ")" * 3000, SPEC22)


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


def test_parse_map_shear():
    tm = parse_map("w1 = z1; w2 = z2 + z1^2", 2, 2)
    z1, z2 = var(base_var(1)), var(base_var(2))
    assert tm == TargetMap(2, 2, [z1, z2 + z1 ** 2])


def test_parse_map_order_of_components_is_by_index():
    tm = parse_map("w2 = z1; w1 = z2", 2, 2)
    assert tm.components[0] == var(base_var(2))
    assert tm.components[1] == var(base_var(1))


def test_parse_map_keeps_terms_above_the_order():
    # z1^4 cannot reach an order-2 jet at the origin, but it does at any
    # other basepoint, so the map keeps it.
    assert parse_map("w1 = z1^4", 1, 2).components[0] == var(base_var(1)) ** 4


def test_parse_map_errors():
    with pytest.raises(ParseError):
        parse_map("w1 = z1", 2, 2)  # missing w2
    with pytest.raises(ParseError):
        parse_map("w1 = z1; w1 = z2", 2, 2)  # duplicate
    with pytest.raises(ParseError):
        parse_map("w1 = z1; w3 = z2", 2, 2)  # out of range
    with pytest.raises(ParseError):
        parse_map("w1 = f1'", 1, 2)  # jet variables don't belong here
    with pytest.raises(ParseError):
        parse_map("v1 = z1", 1, 2)
    with pytest.raises(ParseError):
        parse_map("w1 z1", 1, 2)  # missing '='
    # a component that ends early is reported at its ';', not at the end
    for text, column in (("w1 = ; w2 = z2", 6), ("w1 = z1 +; w2 = z2", 10)):
        with pytest.raises(ParseError, match=f"column {column}: expected a term, found ';'"):
            parse_map(text, 2, 2)


def test_printed_polynomials_reparse():
    rng = random.Random(251)
    spec = JetSpec(2, 3)
    pool = spec.jet_variables() + [base_var(1), base_var(2), param_var(1), param_var(2)]
    for _ in range(25):
        p = random_poly(rng, pool, terms=5, max_exp=3)
        assert parse_polynomial(str(p), spec) == p
    assert parse_polynomial(str(SparsePolynomial.zero()), spec).is_zero()


def test_printed_maps_reparse():
    tm = parse_map("w1 = z1 - 2/3 z2^2; w2 = z2 + z1 z2", 2, 2)
    assert parse_map(str(tm), 2, 2) == tm
