"""End-to-end acceptance suite.

Each test drives one core capability, prints one PASS/FAIL line (visible
under pytest -s; the per-test verdict of pytest -v carries the same
information), and enforces an explicit runtime budget.  Everything here
is exact rational arithmetic; there are no tolerances to tune, only
equalities to hold.
"""

import random
import time
from fractions import Fraction
from math import comb

from jetdiff.invariants import (
    IrrepLabel,
    decompose,
    enumerate_monomials,
    invariance_system,
    invariant_basis,
    irrep_partition,
    verify_invariance,
)
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
from jetdiff.linalg import rank, rank_modular_check
from jetdiff.poly import SparsePolynomial, base_var, jet_var, param_var
from jetdiff.transitions import (
    Witness,
    associated_action,
    contradiction_audit,
    differential_transition,
    splitting_check,
    v1_frame_transition,
)

from helpers import (
    as_matrix,
    matmul,
    random_invertible,
    random_reparam,
    random_target_map,
    rational,
)


def var(v):
    return SparsePolynomial.variable(v)


def shear_map():
    z1, z2 = var(base_var(1)), var(base_var(2))
    return TargetMap([z1, z2 + z1 ** 2])


def _run(number, description, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, over the {budget}s budget"
    )


def test_criterion_1_dimension_and_decomposition():
    def check():
        space = invariant_basis(JetSpec(2, 2), 3)
        assert len(space.basis) == 5
        labels = decompose(space)
        assert labels == [IrrepLabel((3, 0), 1), IrrepLabel((1, 1), 1)]
        # dims 4 + 1: the symmetric cubic part and the determinant line
        assert labels[0].dimension() == 4
        assert labels[1].dimension() == 1

    _run(1, "weight-3 fiber has dimension 5 = 4 + 1", 1.0, check)


def test_criterion_2_non_splitting_witness():
    def check():
        space = invariant_basis(JetSpec(2, 2), 3)
        tm = differential_transition(space, shear_map(), [0, 0])
        # Dual route 1: the matrix column of the Wronskian.
        assert [row[4] for row in tm.entries] == [2, 0, 0, 0, 1]
        # Dual route 2: the direct polynomial identity w(moved) = w + 2 f1'^3.
        moved = act_target(JetPoint.formal(JetSpec(2, 2)), shear_map(), [0, 0])
        w_moved = moved.entry(1, 1) * moved.entry(2, 2) - moved.entry(1, 2) * moved.entry(2, 1)
        f1p = var(jet_var(1, 1))
        assert w_moved == space.basis[4] + 2 * f1p ** 3
        verdict = splitting_check(tm, irrep_partition(space))
        assert not verdict.splits
        assert verdict.witnesses == (Witness(0, 4, Fraction(2)),)

    _run(2, "order-2 coordinate shear mixes the determinant line into the cubics with witness entry 2", 1.0, check)


def test_criterion_3_associated_versus_actual():
    def check():
        rng = random.Random(311)
        space = invariant_basis(JetSpec(2, 2), 3)
        psi = shear_map()
        fiberwise = associated_action(psi.jacobian([0, 0]), space)
        genuine = differential_transition(space, psi, [0, 0])
        assert fiberwise.entries != genuine.entries
        for _ in range(25):
            g = random_invertible(rng, 2)
            linear = TargetMap.linear(g)
            assert associated_action(g, space).entries == differential_transition(
                space, linear, [0, 0]
            ).entries

    _run(3, "fiberwise linear action differs from the true transition exactly when the map is nonlinear", 5.0, check)


def test_criterion_4_second_derivative_flag():
    def check():
        rng = random.Random(313)
        entries, flag = v1_frame_transition(shear_map(), [0, 0], Fraction(0))
        assert entries == ((1, 2), (0, 1))
        assert flag
        count = 0
        while count < 25:
            g = random_invertible(rng, 2)
            slope = rational(rng, -2, 2, 1)
            if g[0][0] + slope * g[0][1] == 0:
                continue  # outside the chart; not a flag question
            _, linear_flag = v1_frame_transition(TargetMap.linear(g), [0, 0], slope)
            assert not linear_flag
            count += 1

    _run(4, "order-1 frame transitions involve second derivatives exactly for nonlinear maps", 1.0, check)


def test_criterion_5_threshold_audit():
    def check():
        rows = contradiction_audit(range(6, 101))
        assert len(rows) == 95
        assert rows[0].lower_bound == Fraction(1, 4)
        for row in rows:
            assert row.lower_bound > Fraction(-1, 3)
            assert row.contradiction

    _run(5, "exact lower bound beats -1/3 for every degree 6..100 at weight 3", 1.0, check)


def test_criterion_6_dimension_table_two_paths():
    def check():
        expected = {3: 5, 4: 7, 5: 9, 6: 12}
        for weight, dim in expected.items():
            system = invariance_system(JetSpec(2, 2), weight)
            exact = rank(system)
            assert rank_modular_check(system, stop_at=exact) == exact
            assert system.ncols - exact == dim

    _run(6, "weight 3..6 dimensions 5, 7, 9, 12 with exact and modular ranks agreeing", 30.0, check)


def test_criterion_7_closed_form_families():
    def check():
        for r in (1, 2, 3):
            for m in range(0, 7):
                assert len(invariant_basis(JetSpec(r, 1), m).basis) == comb(m + r - 1, r - 1)
        for k in (1, 2, 3, 4):
            for m in range(0, 7):
                assert len(invariant_basis(JetSpec(1, k), m).basis) == 1

    _run(7, "order-1 dimensions are binomial coefficients; single-component spaces are lines", 30.0, check)


def _check_group_and_action_identities():
    rng = random.Random(317)
    instances = 0
    for _ in range(40):
        order = rng.randint(1, 4)
        rank_ = rng.randint(1, 2)
        spec = JetSpec(rank_, order)
        jet = JetPoint.formal(spec)
        a, b, c = (random_reparam(rng, order) for _ in range(3))
        # group law
        assert compose_reparam(compose_reparam(a, b), c) == compose_reparam(a, compose_reparam(b, c))
        instances += 1
        # two-sided inverse
        inv = invert_reparam(a)
        e = ReparamJet.identity(order)
        assert compose_reparam(a, inv) == e
        assert compose_reparam(inv, a) == e
        instances += 1
        # right action on jets
        assert act_reparam(act_reparam(jet, a), b) == act_reparam(jet, compose_reparam(a, b))
        instances += 1
        # commutation with target coordinate changes
        if rank_ == 2 and order <= 3:
            pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
            psi = random_target_map(rng, 2, points=(pt,))
            one = act_target(act_reparam(jet, a), psi, pt)
            two = act_reparam(act_target(jet, psi, pt), a)
            assert one == two
            instances += 1
    assert instances >= 100


def _check_emitted_bases_are_invariant():
    for rank_, order in ((2, 2), (2, 3)):
        spec = JetSpec(rank_, order)
        moved = act_reparam(JetPoint.formal(spec), ReparamJet.formal(order, unipotent=True))
        unipotent_move = {
            jet_var(j, i): moved.entry(i, j)
            for i in range(1, order + 1)
            for j in range(1, rank_ + 1)
        }
        for weight in range(3, 7):
            for q in invariant_basis(spec, weight).basis:
                # identity in the formal unipotent parameters a2..ak
                assert q.substitute(unipotent_move) == q
                # and under the full formal group, picking up a1^m
                assert verify_invariance(q, spec).invariant


def _check_cocycle_identity():
    rng = random.Random(331)
    space = invariant_basis(JetSpec(2, 2), 3)
    for _ in range(25):
        pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
        psi1 = random_target_map(rng, 2, points=(pt,))
        mid = psi1.evaluate(pt)
        psi2 = random_target_map(rng, 2, points=(mid,))
        lhs = differential_transition(space, psi2.compose(psi1), pt)
        rhs = matmul(
            as_matrix(differential_transition(space, psi1, pt)),
            as_matrix(differential_transition(space, psi2, mid)),
        )
        assert as_matrix(lhs) == rhs


def _check_weighted_homogeneity():
    a1 = var(param_var(1))
    for rank_ in (1, 2):
        for order in (1, 2, 3):
            spec = JetSpec(rank_, order)
            scaling = {
                jet_var(j, i): a1 ** i * var(jet_var(j, i))
                for j in range(1, rank_ + 1)
                for i in range(1, order + 1)
            }
            for weight in range(0, 7):
                for mono in enumerate_monomials(spec, weight):
                    p = SparsePolynomial.monomial(mono)
                    assert p.substitute(scaling) == a1 ** weight * p


def test_criterion_8_property_suites():
    def check():
        _check_group_and_action_identities()
        _check_emitted_bases_are_invariant()
        _check_cocycle_identity()
        _check_weighted_homogeneity()

    _run(8, "group laws, action laws, invariance, cocycle, and weighted homogeneity hold exactly", 60.0, check)
