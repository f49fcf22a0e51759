"""Tests for reparametrization jets, jet points, and both group actions."""

import copy
import pickle
import random
import warnings
from fractions import Fraction
from math import factorial

import pytest

from jetdiff import jets
from jetdiff.jets import (
    JetPoint,
    JetSpec,
    ReparamJet,
    TargetMap,
    act_reparam,
    act_target,
    compose_reparam,
    invert_reparam,
)
from jetdiff.poly import SparsePolynomial, base_var, jet_var, param_var

from helpers import (
    random_invertible,
    random_jet,
    random_poly,
    random_reparam,
    random_target_map,
    rational,
)


def var(v):
    return SparsePolynomial.variable(v)


def reparam(*coeffs):
    return ReparamJet(len(coeffs), [Fraction(c) for c in coeffs])


# ---- shapes and constructors ----


def test_jet_spec_validation():
    with pytest.raises(ValueError, match=r"rank and order must be >= 1, got \(0, 1\)"):
        JetSpec(0, 1)
    with pytest.raises(ValueError):
        JetSpec(1, 0)
    with pytest.raises(ValueError, match=r"beyond the guardrail \(4, 4\); pass allow_large=True"):
        JetSpec(2, 5)
    with pytest.raises(ValueError):
        JetSpec(5, 2)
    big = JetSpec(2, 5, allow_large=True)
    assert big.order == 5
    assert JetSpec(2, 3) == JetSpec(2, 3)


def test_jet_spec_equality_immutability_and_copies():
    big = JetSpec(2, 5, allow_large=True)
    # allow_large lifts the guardrail; it does not tell shapes apart
    assert JetSpec(2, 3, allow_large=True) == JetSpec(2, 3)
    assert hash(JetSpec(2, 3, allow_large=True)) == hash(JetSpec(2, 3))
    assert JetSpec(2, 3) != JetSpec(3, 2)
    assert repr(JetSpec(2, 3)) == "JetSpec(rank=2, order=3)"
    with pytest.raises(AttributeError):
        big.order = 2
    with pytest.raises(AttributeError):
        del big.rank
    for clone in (copy.copy(big), copy.deepcopy(big), pickle.loads(pickle.dumps(big))):
        assert clone == big


def test_jet_variables_enumeration():
    spec = JetSpec(2, 2)
    assert spec.jet_variables() == [
        jet_var(1, 1),
        jet_var(2, 1),
        jet_var(1, 2),
        jet_var(2, 2),
    ]


def test_jet_point_shape_and_access():
    spec = JetSpec(2, 2)
    jet = JetPoint(spec, [[1, 2], [3, 4]])
    assert isinstance(jet.entry(1, 1), SparsePolynomial)
    assert jet.entry(1, 1) == 1
    assert jet.entry(1, 2) == 2
    assert jet.entry(2, 1) == 3
    with pytest.raises(ValueError):
        JetPoint(spec, [[1, 2]])
    with pytest.raises(ValueError):
        JetPoint(spec, [[1], [2]])


def test_formal_jet_point_entries():
    spec = JetSpec(2, 2)
    jet = JetPoint.formal(spec)
    assert jet.entry(2, 1) == var(jet_var(1, 2))


def test_reparam_validation():
    with pytest.raises(ValueError):
        ReparamJet(2, [0, 1])
    with pytest.raises(ValueError):
        ReparamJet(2, [1])
    formal = ReparamJet.formal(3)
    assert formal.coeffs[0] == var(param_var(1))
    unip = ReparamJet.formal(3, unipotent=True)
    assert unip.coeffs[0] == 1
    assert unip.coeffs[1] == var(param_var(2))


# ---- composition and inversion ----


def test_compose_examples():
    phi = reparam(1, 1)  # t + t^2
    assert compose_reparam(phi, phi) == reparam(1, 2)
    # Non-commuting pair pins down the outer/inner convention.
    scale = reparam(2, 0)
    assert compose_reparam(scale, phi) == reparam(2, 2)   # 2*(t + t^2)
    assert compose_reparam(phi, scale) == reparam(2, 4)   # 2t + (2t)^2


def test_compose_order_three():
    phi = ReparamJet(3, [1, 1, 0])   # t + t^2
    psi = ReparamJet(3, [1, 0, 1])   # t + t^3
    assert compose_reparam(phi, psi) == ReparamJet(3, [1, 1, 1])


def test_compose_identity_neutral():
    rng = random.Random(71)
    for order in (1, 2, 3, 4):
        e = ReparamJet.identity(order)
        for _ in range(5):
            phi = random_reparam(rng, order)
            assert compose_reparam(phi, e) == phi
            assert compose_reparam(e, phi) == phi


def test_compose_is_associative():
    rng = random.Random(73)
    for _ in range(15):
        order = rng.randint(1, 4)
        a, b, c = (random_reparam(rng, order) for _ in range(3))
        left = compose_reparam(compose_reparam(a, b), c)
        right = compose_reparam(a, compose_reparam(b, c))
        assert left == right


def test_invert_examples():
    assert invert_reparam(reparam(1, 1)) == reparam(1, -1)
    assert invert_reparam(ReparamJet(3, [1, 1, 0])) == ReparamJet(3, [1, -1, 2])
    assert invert_reparam(reparam(2)) == reparam(Fraction(1, 2))
    lead = SparsePolynomial.constant(2)
    inverse = ReparamJet(2, [Fraction(1, 2), Fraction(-1, 8)])
    inverted = invert_reparam(ReparamJet(2, [lead, 1]))
    assert inverted == inverse
    assert all(isinstance(c, SparsePolynomial) for c in inverted.coeffs)


def test_invert_is_two_sided():
    rng = random.Random(79)
    for _ in range(15):
        order = rng.randint(1, 4)
        phi = random_reparam(rng, order)
        inv = invert_reparam(phi)
        e = ReparamJet.identity(order)
        assert compose_reparam(phi, inv) == e
        assert compose_reparam(inv, phi) == e


def test_invert_formal_unipotent_tail():
    inv = invert_reparam(ReparamJet.formal(2, unipotent=True))
    assert inv.coeffs[0] == 1
    assert inv.coeffs[1] == -var(param_var(2))


def test_invert_rejects_formal_lead():
    with pytest.raises(ValueError):
        invert_reparam(ReparamJet.formal(2))


# ---- the reparametrization action ----


def test_act_reparam_example():
    spec = JetSpec(1, 2)
    jet = JetPoint(spec, [[1], [0]])
    moved = act_reparam(jet, reparam(1, 1))
    assert moved == JetPoint(spec, [[1], [2]])


def test_act_reparam_identity_and_scaling():
    rng = random.Random(83)
    spec = JetSpec(2, 3)
    jet = random_jet(rng, spec)
    assert act_reparam(jet, ReparamJet.identity(3)) == jet
    c = Fraction(3, 2)
    scaled = act_reparam(jet, ReparamJet(3, [c, 0, 0]))
    for i in range(1, 4):
        for j in range(1, 3):
            assert scaled.entry(i, j) == c ** i * jet.entry(i, j)


def test_act_reparam_faa_di_bruno_table():
    # Independent oracle: raw derivatives of f(phi(t)) at 0 for order 4,
    # with phi = a1 t + a2 t^2 + a3 t^3 + a4 t^4, worked out by hand from
    # the chain rule (phi'(0) = a1, phi''(0) = 2 a2, and so on).  The
    # second jet's entries are polynomials in z1, z2 and a1..a3, which the
    # series variable of the composition must not collide with.
    spec = JetSpec(1, 4)
    a1, a2, a3, a4 = (var(param_var(i)) for i in range(1, 5))
    z1, z2 = var(base_var(1)), var(base_var(2))
    mixed = JetPoint(spec, [[z1 + a2], [z1 * z2 - 3 * a1], [a3 ** 2 + z2], [z1 * a1 * Fraction(1, 2)]])
    for jet in (JetPoint.formal(spec), mixed):
        moved = act_reparam(jet, ReparamJet.formal(4))
        f1, f2, f3, f4 = (jet.entry(i, 1) for i in range(1, 5))
        assert moved.entry(1, 1) == a1 * f1
        assert moved.entry(2, 1) == a1 ** 2 * f2 + 2 * a2 * f1
        assert moved.entry(3, 1) == a1 ** 3 * f3 + 6 * a1 * a2 * f2 + 6 * a3 * f1
        assert moved.entry(4, 1) == (
            a1 ** 4 * f4
            + 12 * a1 ** 2 * a2 * f3
            + (24 * a1 * a3 + 12 * a2 ** 2) * f2
            + 24 * a4 * f1
        )


def test_act_reparam_unipotent_second_order():
    spec = JetSpec(2, 2)
    moved = act_reparam(JetPoint.formal(spec), ReparamJet.formal(2, unipotent=True))
    a2 = var(param_var(2))
    for j in (1, 2):
        fp, fpp = var(jet_var(j, 1)), var(jet_var(j, 2))
        assert moved.entry(1, j) == fp
        assert moved.entry(2, j) == fpp + 2 * a2 * fp


def test_act_reparam_is_right_action():
    rng = random.Random(89)
    for _ in range(15):
        order = rng.randint(1, 4)
        rank = rng.randint(1, 2)
        spec = JetSpec(rank, order)
        jet = JetPoint.formal(spec)
        phi = random_reparam(rng, order)
        psi = random_reparam(rng, order)
        twice = act_reparam(act_reparam(jet, phi), psi)
        once = act_reparam(jet, compose_reparam(phi, psi))
        assert twice == once


def test_act_reparam_order_mismatch():
    jet = JetPoint(JetSpec(1, 2), [[1], [0]])
    with pytest.raises(ValueError):
        act_reparam(jet, reparam(1, 0, 0))


# ---- target maps ----


def test_target_map_validation():
    z1 = var(base_var(1))
    with pytest.raises(ValueError):
        TargetMap(2, 2, [z1])
    with pytest.raises(ValueError):
        TargetMap(1, 2, [var(jet_var(1, 1))])
    with pytest.raises(ValueError):
        TargetMap(1, 2, [var(base_var(2))])


def test_target_map_evaluate_jacobian_hessian():
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi = TargetMap(2, 2, [z1, z2 + z1 ** 2])
    assert psi.evaluate([3, 5]) == (3, 14)
    assert psi.jacobian([3, 5]) == [[1, 0], [6, 1]]
    hess = psi.second_derivatives([3, 5])
    assert hess[1][0][0] == 2
    assert hess[0] == [[0, 0], [0, 0]]


def test_target_map_compose_matches_pointwise():
    rng = random.Random(97)
    for _ in range(5):
        psi1 = random_target_map(rng, 2, 2)
        psi2 = random_target_map(rng, 2, 2)
        comp = psi2.compose(psi1)
        for _ in range(3):
            pt = [rational(rng), rational(rng)]
            assert comp.evaluate(pt) == psi2.evaluate(psi1.evaluate(pt))


# ---- the target-coordinate action ----


def test_act_target_shear_at_origin():
    spec = JetSpec(2, 2)
    z1, z2 = var(base_var(1)), var(base_var(2))
    shear = TargetMap(2, 2, [z1, z2 + z1 ** 2])
    moved = act_target(JetPoint.formal(spec), shear, [0, 0])
    f1p, f2p = var(jet_var(1, 1)), var(jet_var(2, 1))
    f1pp, f2pp = var(jet_var(1, 2)), var(jet_var(2, 2))
    assert moved.entry(1, 1) == f1p
    assert moved.entry(1, 2) == f2p
    assert moved.entry(2, 1) == f1pp
    assert moved.entry(2, 2) == f2pp + 2 * f1p ** 2


def test_act_target_shear_off_origin():
    # At basepoint (1, 0) the affine part of the Jacobian kicks in.
    spec = JetSpec(2, 2)
    z1, z2 = var(base_var(1)), var(base_var(2))
    shear = TargetMap(2, 2, [z1, z2 + z1 ** 2])
    moved = act_target(JetPoint.formal(spec), shear, [1, 0])
    f1p, f2p = var(jet_var(1, 1)), var(jet_var(2, 1))
    f1pp, f2pp = var(jet_var(1, 2)), var(jet_var(2, 2))
    assert moved.entry(1, 2) == f2p + 2 * f1p
    assert moved.entry(2, 2) == f2pp + 2 * f1pp + 2 * f1p ** 2
    # a numeric jet at the numeric basepoint stays polynomial-valued
    numeric = act_target(JetPoint(spec, [[1, 0], [0, 0]]), shear, [1, 0])
    assert isinstance(numeric.entry(1, 2), SparsePolynomial)
    assert numeric.entry(1, 2) == 2


def test_act_target_identity():
    rng = random.Random(101)
    spec = JetSpec(2, 3)
    jet = random_jet(rng, spec)
    assert act_target(jet, TargetMap.identity(2, 3), [0, 0]) == jet


def test_act_target_linear_is_matrix_action():
    rng = random.Random(103)
    spec = JetSpec(2, 3)
    for _ in range(5):
        g = random_invertible(rng, 2)
        psi = TargetMap.linear(g, 3)
        jet = random_jet(rng, spec)
        pt = [rational(rng), rational(rng)]
        moved = act_target(jet, psi, pt)
        for i in range(1, 4):
            for j in range(1, 3):
                expect = sum(
                    (g[j - 1][l - 1] * jet.entry(i, l) for l in range(1, 3)),
                    Fraction(0),
                )
                assert moved.entry(i, j) == expect


def _third_derivatives(psi, point):
    values = {base_var(l): Fraction(v) for l, v in enumerate(point, start=1)}
    out = []
    for c in psi.components:
        cube = []
        for l in range(1, psi.rank + 1):
            plane = []
            for m in range(1, psi.rank + 1):
                row = []
                for n in range(1, psi.rank + 1):
                    d = c.derivative(base_var(l)).derivative(base_var(m)).derivative(base_var(n))
                    row.append(d.substitute(values).constant_value())
                plane.append(row)
            cube.append(plane)
        out.append(cube)
    return out


def test_act_target_chain_rule_oracle():
    # Independent route: write the raw derivatives of psi o f with the
    # multivariate chain rule (Jacobian, Hessian, third-derivative tensor)
    # and compare with the series substitution entry by entry.  Each map
    # also moves a jet whose entries are polynomials in z1, z2 and a1..a3:
    # neither the basepoint substitution nor the series variable may touch
    # them.
    # The last map has degree 9, far above the jet order.
    rng = random.Random(107)
    entries_rng = random.Random(108)
    letters = [base_var(1), base_var(2)] + [param_var(i) for i in range(1, 4)]
    spec = JetSpec(2, 3)
    z1, z2 = var(base_var(1)), var(base_var(2))
    for case in range(7):
        if case < 6:
            psi = random_target_map(rng, 2, 3, degree=3)
        else:
            psi = TargetMap(2, 3, [z1 + z1 ** 5 * z2 ** 4, z2 - 2 * z1 ** 9])
        jet = random_jet(rng, spec)
        pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
        mixed = JetPoint(
            spec,
            [[random_poly(entries_rng, letters, terms=2, max_exp=2) for _ in range(2)] for _ in range(3)],
        )
        jac = psi.jacobian(pt)
        hess = psi.second_derivatives(pt)
        third = _third_derivatives(psi, pt)
        r = spec.rank
        for jet in (jet, mixed):
            moved = act_target(jet, psi, pt)
            for j in range(r):
                d1 = sum((jac[j][l] * jet.entry(1, l + 1) for l in range(r)), Fraction(0))
                assert moved.entry(1, j + 1) == d1
                d2 = sum((jac[j][l] * jet.entry(2, l + 1) for l in range(r)), Fraction(0))
                d2 += sum(
                    (
                        hess[j][l][m] * jet.entry(1, l + 1) * jet.entry(1, m + 1)
                        for l in range(r)
                        for m in range(r)
                    ),
                    Fraction(0),
                )
                assert moved.entry(2, j + 1) == d2
                d3 = sum((jac[j][l] * jet.entry(3, l + 1) for l in range(r)), Fraction(0))
                d3 += 3 * sum(
                    (
                        hess[j][l][m] * jet.entry(2, l + 1) * jet.entry(1, m + 1)
                        for l in range(r)
                        for m in range(r)
                    ),
                    Fraction(0),
                )
                d3 += sum(
                    (
                        third[j][l][m][n]
                        * jet.entry(1, l + 1)
                        * jet.entry(1, m + 1)
                        * jet.entry(1, n + 1)
                        for l in range(r)
                        for m in range(r)
                        for n in range(r)
                    ),
                    Fraction(0),
                )
                assert moved.entry(3, j + 1) == d3


def test_jet_compositions_truncate_at_the_order(monkeypatch):
    # Each composition truncates after t^order inside the substitution, so
    # its cost follows the jet order, not the degree of the map or the
    # number of formal coefficients (untruncated, z1 + z1^12*z2^12 on a
    # formal order-4 jet multiplies two 1820-term powers).  The spy fails
    # before an untruncated call runs.
    calls = []
    substitute_all = jets.substitute_all

    def spy(polys, bindings, truncate=None):
        assert truncate == (jets._T, 4)
        calls.append(truncate)
        return substitute_all(polys, bindings, truncate)

    monkeypatch.setattr(jets, "substitute_all", spy)
    spec = JetSpec(2, 4)
    z1, z2 = var(base_var(1)), var(base_var(2))
    act_target(JetPoint.formal(spec), TargetMap(2, 4, [z1 + z1 ** 5 * z2 ** 4, z2]), [1, 1])
    act_reparam(JetPoint.formal(spec), ReparamJet.formal(4))
    compose_reparam(ReparamJet.formal(4), ReparamJet.formal(4))
    assert len(calls) == 3


def test_act_target_functoriality_exact():
    # Acting by psi1 then psi2 (based at the moved point) equals acting by
    # the exact composition; no truncation is involved anywhere.
    rng = random.Random(109)
    spec = JetSpec(2, 2)
    for _ in range(8):
        pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
        psi1 = random_target_map(rng, 2, 2, points=(pt,))
        mid = psi1.evaluate(pt)
        psi2 = random_target_map(rng, 2, 2, points=(mid,))
        jet = random_jet(rng, spec)
        step = act_target(act_target(jet, psi1, pt), psi2, mid)
        direct = act_target(jet, psi2.compose(psi1), pt)
        assert step == direct


def test_act_target_functoriality_truncated_at_origin():
    # Maps fixing the origin compose correctly for jets based there.
    rng = random.Random(113)
    spec = JetSpec(2, 2)
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi1 = TargetMap(2, 2, [z1 + z1 ** 2, z2 - z1 * z2])
    psi2 = TargetMap(2, 2, [z1 - z2 ** 2, z2 + 2 * z1 ** 2])
    jet = random_jet(rng, spec)
    step = act_target(act_target(jet, psi1, [0, 0]), psi2, [0, 0])
    direct = act_target(jet, psi2.compose(psi1), [0, 0])
    assert step == direct


def test_actions_commute():
    # Source reparametrization and target coordinate change act on
    # different slots of psi o f o phi, so the order cannot matter.
    rng = random.Random(127)
    for _ in range(8):
        order = rng.randint(1, 3)
        spec = JetSpec(2, order)
        jet = JetPoint.formal(spec)
        phi = random_reparam(rng, order)
        pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
        psi = random_target_map(rng, 2, order, points=(pt,))
        one = act_target(act_reparam(jet, phi), psi, pt)
        two = act_reparam(act_target(jet, psi, pt), phi)
        assert one == two


def test_act_target_errors():
    jet = JetPoint(JetSpec(2, 2), [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        act_target(jet, TargetMap.identity(1, 2), [0, 0])
    with pytest.raises(ValueError):
        act_target(jet, TargetMap.identity(2, 1), [0, 0])
    with pytest.raises(ValueError):
        act_target(jet, TargetMap.identity(2, 2), [0])


def test_act_target_singular_jacobian_is_a_plain_jet():
    # a singular map still moves jets; only the transitions need an isomorphism
    spec = JetSpec(2, 2)
    z1 = var(base_var(1))
    squash = TargetMap(2, 2, [z1, z1])
    jet = JetPoint(spec, [[1, 2], [3, 4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = act_target(jet, squash, [0, 0])
    assert moved.entry(1, 1) == moved.entry(1, 2) == 1
