"""Tests for transition matrices, the splitting question, and the threshold audit."""

import random
from fractions import Fraction

import pytest

from jetdiff import invariants, jets, poly, transitions
from jetdiff.invariants import IrrepLabel, invariant_basis, irrep_partition
from jetdiff.jets import JetPoint, JetSpec, TargetMap, act_target
from jetdiff.poly import PackedSubstitution, SparsePolynomial, base_var, jet_var, substitute_all
from jetdiff.transitions import (
    Witness,
    associated_action,
    contradiction_audit,
    differential_transition,
    s_block_closure,
    splitting_check,
    theta_lower_bound,
    v1_frame_transition,
)

from jetdiff.linalg import RationalMatrix

from helpers import as_matrix, matmul, random_invertible, random_target_map, rational


def var(v):
    return SparsePolynomial.variable(v)


def shear_map():
    z1, z2 = var(base_var(1)), var(base_var(2))
    return TargetMap([z1, z2 + z1 ** 2])


def weight3_space():
    return invariant_basis(JetSpec(2, 2), 3)


# ---- the non-splitting witness ----


def test_shear_transition_matrix():
    space = weight3_space()
    tm = differential_transition(space, shear_map(), [0, 0])
    expected = [
        [1, 0, 0, 0, 2],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    assert [list(row) for row in tm.entries] == expected
    # Column 4 is the image of the Wronskian: itself plus twice the first
    # pure cubic.
    assert [row[4] for row in tm.entries] == [2, 0, 0, 0, 1]


def test_shear_does_not_split():
    space = weight3_space()
    tm = differential_transition(space, shear_map(), [0, 0])
    verdict = splitting_check(tm, irrep_partition(space))
    assert not verdict.splits
    assert verdict.witnesses == (Witness(0, 4, Fraction(2)),)
    # The one witness takes the Wronskian, column block (1,1), into row
    # block (3,0); nothing crosses the other way.
    block = {i: label for label, idxs in verdict.partition for i in idxs}
    assert block[0] == IrrepLabel((3, 0), 1)
    assert block[4] == IrrepLabel((1, 1), 1)


def test_witnesses_match_a_scan_of_every_block_pair():
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi = TargetMap([z1 + 2 * z2 ** 2, z2 - z1 ** 2])
    for m in (6, 8, 10, 12):
        space = invariant_basis(JetSpec(2, 2), m)
        tm = differential_transition(space, psi, [1, -1])
        partition = irrep_partition(space)
        expected = sorted(
            Witness(i, j, tm.entry(i, j))
            for row_label, rows in partition
            for col_label, cols in partition
            if row_label != col_label
            for i in rows
            for j in cols
            if tm.entry(i, j)
        )
        witnesses = splitting_check(tm, partition).witnesses
        assert witnesses and list(witnesses) == expected, m


def test_identity_transition_splits():
    space = weight3_space()
    tm = differential_transition(space, TargetMap.identity(2), [0, 0])
    assert as_matrix(tm) == RationalMatrix.identity(5)
    verdict = splitting_check(tm, irrep_partition(space))
    assert verdict.splits
    assert verdict.witnesses == ()


def test_diagonal_transition_scales_basis():
    space = weight3_space()
    tm = differential_transition(space, TargetMap.linear([[2, 0], [0, 3]]), [0, 0])
    diag = [tm.entry(i, i) for i in range(5)]
    assert diag == [8, 12, 18, 27, 6]
    for i in range(5):
        for j in range(5):
            if i != j:
                assert tm.entry(i, j) == 0
    assert splitting_check(tm, irrep_partition(space)).splits


def test_transition_independent_of_basepoint_for_linear():
    rng = random.Random(211)
    space = weight3_space()
    g = random_invertible(rng, 2)
    psi = TargetMap.linear(g)
    at_zero = differential_transition(space, psi, [0, 0])
    at_pt = differential_transition(space, psi, [rational(rng), rational(rng)])
    assert at_zero.entries == at_pt.entries


# ---- the packed transition tail against the unpacked one ----


def unpacked_transition(space, bindings):
    """The transition tail with every image unpacked: `substitute_all`,
    then `expand_many`; a dense matrix, or the ValueError's message."""
    try:
        columns = space.expand_many(substitute_all(space.basis, bindings))
    except ValueError as exc:
        return str(exc)
    n = space.dimension
    return tuple(tuple(col.get(i, Fraction(0)) for col in columns) for i in range(n))


def test_packed_transition_matches_unpacked_reference(monkeypatch):
    # Every matrix `_transition_matrix` builds, for seeded nonlinear maps
    # at orders 2 to 4 and for the fiberwise action, equals the unpacked
    # reference Fraction for Fraction.
    built = []
    original = transitions._transition_matrix

    def compare(space, bindings, failure):
        tm = original(space, bindings, failure)
        assert tm.entries == unpacked_transition(space, bindings)
        assert all(type(v) is Fraction for row in tm.entries for v in row)
        built.append((space.spec, space.weight))
        return tm

    monkeypatch.setattr(transitions, "_transition_matrix", compare)
    rng = random.Random(2024)
    for rank, order, weight in [(2, 2, 3), (2, 2, 7), (2, 3, 6), (2, 4, 6), (3, 2, 4)]:
        space = invariant_basis(JetSpec(rank, order), weight)
        for degree in (2, 3):
            point = [rational(rng, -2, 2, 2) for _ in range(rank)]
            psi = random_target_map(rng, rank, degree=degree, points=(point,))
            differential_transition(space, psi, point)
        associated_action(random_invertible(rng, rank), space)
    assert len(built) == 15


def test_transition_leaving_the_span_names_the_failure():
    # Bindings that do not keep the space raise RuntimeError with the
    # `failure: ...` prefix and the reference's reason.
    space = weight3_space()
    f1, f1_2 = var(jet_var(1, 1)), var(jet_var(1, 2))
    for bindings in (
        {jet_var(1, 2): f1_2 + f1 ** 3},  # the Wronskian gains f2'*f1'^3
        {jet_var(1, 1): f1 + 1},  # images of lower weight
    ):
        reason = unpacked_transition(space, bindings)
        assert reason.endswith("is outside the span")
        with pytest.raises(RuntimeError) as info:
            transitions._transition_matrix(space, bindings, "failure")
        assert str(info.value) == f"failure: {reason}"


def test_transition_never_trusts_an_aliased_key():
    # With f2' -> 0 and f1'' -> f2' + f1'', f2' only reaches degree 1 in
    # the images, so its field is one bit wide and an unchecked key of
    # the basis monomial f2'^3 (3 in that field) would carry onto the key
    # of f2'*f1''.  Keyed that way, the Wronskian's image f1'*f2'' would
    # solve; it is outside the span.
    space = weight3_space()
    f2, f1_2 = jet_var(2, 1), jet_var(1, 2)
    bindings = {f2: 0, f1_2: var(f2) + var(f1_2)}
    packing = PackedSubstitution(bindings, (m for q in space.basis for m in q.terms))
    assert 3 * packing.key(((f2, 1),)) == packing.key(((f2, 1), (f1_2, 1)))
    assert packing.key(((f2, 3),)) is None
    assert unpacked_transition(space, bindings) == "target 4 is outside the span"
    with pytest.raises(RuntimeError, match="^failure: target 4 is outside the span$"):
        transitions._transition_matrix(space, bindings, "failure")


def test_packed_routes_never_unpack(monkeypatch):
    # The invariance check and the transition solve read the images as the
    # kernel packs them: an all-invariant `invariant_basis`,
    # `differential_transition` and `associated_action` unpack no image and
    # call no `substitute_all`.  Moving a jet does substitute polynomials,
    # so the formal action (cached per shape) and the moved jet are
    # computed before the spies go in.
    spec, point = JetSpec(2, 2), [1, -1]
    psi = TargetMap([var(base_var(1)) + var(base_var(2)) ** 2, var(base_var(2))])
    invariants._formal_action(spec, False)
    moved = act_target(JetPoint.formal(spec), psi, point)
    monkeypatch.setattr(transitions, "act_target", lambda *args: moved)
    calls = {"unpack": 0, "substitute_all": 0}

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(PackedSubstitution, "unpack", spy("unpack", PackedSubstitution.unpack))
    for module in (poly, jets):
        monkeypatch.setattr(module, "substitute_all", spy("substitute_all", module.substitute_all))
    space = invariant_basis(spec, 8)
    differential_transition(space, psi, point)
    associated_action([[1, 2], [0, 1]], space)
    assert calls == {"unpack": 0, "substitute_all": 0}
    poly.substitute_all(space.basis[:1], {jet_var(1, 1): 1})  # the spies are live
    assert calls == {"unpack": 1, "substitute_all": 1}


def test_singular_jacobian_rejected():
    space = weight3_space()
    z1, z2 = var(base_var(1)), var(base_var(2))
    with pytest.raises(ValueError):
        differential_transition(space, TargetMap([z1, z1]), [0, 0])
    # the basepoint must have one coordinate per component
    psi = TargetMap([z1 + z2 ** 2, z2])
    with pytest.raises(ValueError, match="basepoint needs 2 coordinates"):
        differential_transition(space, psi, [0])


def test_splitting_check_validates_partition():
    space = weight3_space()
    tm = differential_transition(space, TargetMap.identity(2), [0, 0])
    with pytest.raises(ValueError):
        splitting_check(tm, [(IrrepLabel((3, 0), 1), (0, 1, 2, 3))])
    with pytest.raises(ValueError):
        splitting_check(
            tm,
            [
                (IrrepLabel((3, 0), 1), (0, 1, 2, 3)),
                (IrrepLabel((1, 1), 1), (3, 4)),
            ],
        )


# ---- associated (fiberwise linear) action ----


def test_associated_action_diagonal():
    space = weight3_space()
    tm = associated_action([[2, 0], [0, 3]], space)
    assert [tm.entry(i, i) for i in range(5)] == [8, 12, 18, 27, 6]


def test_associated_action_requires_invertible():
    space = weight3_space()
    with pytest.raises(ValueError):
        associated_action([[1, 1], [1, 1]], space)


def test_associated_matches_differential_for_linear_maps():
    rng = random.Random(223)
    space = weight3_space()
    for _ in range(25):
        g = random_invertible(rng, 2)
        fiberwise = associated_action(g, space)
        genuine = differential_transition(space, TargetMap.linear(g), [0, 0])
        assert fiberwise.entries == genuine.entries
        assert splitting_check(fiberwise, irrep_partition(space)).splits


def test_associated_differs_from_differential_at_witness():
    # The fiberwise action of the Jacobian at the basepoint is the
    # identity, but the honest transition is not: the bundle built from
    # the linear data is a different object.
    space = weight3_space()
    psi = shear_map()
    jac = psi.jacobian([0, 0])
    assert jac == [[1, 0], [0, 1]]
    fiberwise = associated_action(jac, space)
    genuine = differential_transition(space, psi, [0, 0])
    assert as_matrix(fiberwise) == RationalMatrix.identity(5)
    assert fiberwise.entries != genuine.entries


def test_both_producers_store_fraction_entries():
    # TransitionMatrix keeps entries as given, so each producer must hand
    # it Fractions, also from integer input and at a nonzero basepoint.
    space = invariant_basis(JetSpec(2, 2), 4)
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi = TargetMap([z1 + z2 ** 2, z2 + 3 * z1 * z2])
    for tm in (
        differential_transition(space, psi, [1, 2]),
        associated_action([[2, 1], [0, 3]], space),
    ):
        assert len(tm.entries) == space.dimension
        assert all(type(v) is Fraction for row in tm.entries for v in row)


# ---- the cocycle identity ----


def test_cocycle_identity_exact_maps():
    rng = random.Random(227)
    space = weight3_space()
    for _ in range(8):
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


def test_cocycle_identity_truncated_at_origin():
    space = weight3_space()
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi1 = TargetMap([z1 + z2 ** 2, z2 - z1 ** 2])
    psi2 = shear_map()
    lhs = differential_transition(space, psi2.compose(psi1), [0, 0])
    rhs = matmul(
        as_matrix(differential_transition(space, psi1, [0, 0])),
        as_matrix(differential_transition(space, psi2, [0, 0])),
    )
    assert as_matrix(lhs) == rhs


# ---- closure of the first-derivative block ----


def test_pure_first_order_block_is_closed():
    rng = random.Random(229)
    space = weight3_space()
    verdict = s_block_closure(differential_transition(space, shear_map(), [0, 0]))
    assert verdict.closed
    assert verdict.indices == (0, 1, 2, 3)
    assert verdict.violations == ()
    for _ in range(5):
        pt = [rational(rng, -2, 2, 1), rational(rng, -2, 2, 1)]
        psi = random_target_map(rng, 2, points=(pt,))
        assert s_block_closure(differential_transition(space, psi, pt)).closed


# ---- the order-one frame certificate ----


def test_v1_frame_shear_witness():
    entries, flag = v1_frame_transition(shear_map(), [0, 0], Fraction(0))
    assert entries == ((1, 2), (0, 1))
    assert flag


def test_v1_frame_identity():
    entries, flag = v1_frame_transition(TargetMap.identity(2), [0, 0], Fraction(0))
    assert entries == ((1, 0), (0, 1))
    assert not flag


def test_v1_frame_linear_never_flags():
    rng = random.Random(233)
    count = 0
    while count < 25:
        g = random_invertible(rng, 2)
        slope = rational(rng, -2, 2, 1)
        # The chart requires the transformed frame vector to keep a
        # nonzero leading coefficient.
        if g[0][0] + slope * g[0][1] == 0:
            continue
        entries, flag = v1_frame_transition(TargetMap.linear(g), [0, 0], slope)
        assert not flag
        assert entries[1][0] == 0
        assert entries[0][0] * entries[1][1] != 0
        count += 1


def test_v1_frame_chart_breakdown():
    swap = TargetMap.linear([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        v1_frame_transition(swap, [0, 0], Fraction(0))


def test_v1_frame_requires_rank_two():
    with pytest.raises(ValueError):
        v1_frame_transition(TargetMap.identity(1), [0], Fraction(0))
    # a short or long point is rejected, not misread or cut to two coordinates
    z1, z2 = var(base_var(1)), var(base_var(2))
    psi = TargetMap([z1 + z2 ** 2, z2])
    for point in ([1], [0, 0, 5]):
        with pytest.raises(ValueError, match="basepoint needs 2 coordinates"):
            v1_frame_transition(psi, point, Fraction(0))


def _frame_from_derivatives(psi, point, slope):
    """The v1 frame written from psi's derivative tensors: the image slope
    is N/D with (D, N) = J (1, slope); entry (1,1) is its derivative along
    the slope, entry (1,2) its derivative along the base flowed in the
    direction (1, slope), and the flag compares against the same frame
    with every second derivative set to zero."""
    jac = psi.jacobian(point)
    if jac[0][0] * jac[1][1] == jac[0][1] * jac[1][0]:
        return "singular Jacobian"

    def frame(hess):
        d = jac[0][0] + slope * jac[0][1]
        if d == 0:
            return "first-component chart"
        n = jac[1][0] + slope * jac[1][1]
        along_slope = (jac[1][1] * d - jac[0][1] * n) / (d * d)
        along_base = []
        for l in range(2):
            dn = hess[1][0][l] + slope * hess[1][1][l]
            dd = hess[0][0][l] + slope * hess[0][1][l]
            along_base.append((dn * d - n * dd) / (d * d))
        return ((along_slope, along_base[0] + slope * along_base[1]), (0, d))

    full = frame(psi.second_derivatives(point))
    if isinstance(full, str):
        return full
    return full, full != frame([[[0, 0], [0, 0]], [[0, 0], [0, 0]]])


def test_v1_frame_matches_derivative_tensors():
    rng = random.Random(307)
    outcomes = set()
    for case in range(120):
        psi = random_target_map(rng, 2, degree=1 + case % 3, points=())
        if case % 8 == 7:
            psi = TargetMap([psi.components[0], psi.components[0] * 2])
        point = [rational(rng, -2, 2, 2), rational(rng, -2, 2, 2)]
        slope = rational(rng, -3, 3, 2)
        jac = psi.jacobian(point)
        if case % 5 == 4 and jac[0][1]:
            slope = -jac[0][0] / jac[0][1]  # the image direction leaves the chart
        expected = _frame_from_derivatives(psi, point, slope)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                v1_frame_transition(psi, point, slope)
            outcomes.add(expected)
        else:
            assert v1_frame_transition(psi, point, slope) == expected
            outcomes.add(expected[1])
    assert outcomes == {True, False, "singular Jacobian", "first-component chart"}


# ---- the threshold audit ----


def test_theta_lower_bound_values():
    assert theta_lower_bound(6, 3) == Fraction(1, 4)
    assert theta_lower_bound(5, 3) == Fraction(2, 3)
    assert theta_lower_bound(6, 4) == Fraction(7, 16)
    assert theta_lower_bound(6, 5) == Fraction(11, 20)


def test_theta_lower_bound_errors():
    with pytest.raises(ValueError):
        theta_lower_bound(4, 3)
    with pytest.raises(ValueError):
        theta_lower_bound(3, 3)
    with pytest.raises(ValueError):
        theta_lower_bound(6, 2)
    with pytest.raises(ValueError):
        theta_lower_bound(6, 6)


def test_theta_lower_bound_decreases_toward_limit():
    values = [theta_lower_bound(d, 3) for d in range(6, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > Fraction(-1, 6) for v in values)


def test_contradiction_audit_rows():
    rows = contradiction_audit(range(6, 21))
    assert len(rows) == 15
    assert rows[0].degree == 6
    assert rows[0].lower_bound == Fraction(1, 4)
    assert all(r.upper_bound == Fraction(-1, 3) for r in rows)
    assert all(r.contradiction for r in rows)
    assert all(r.weight == 3 for r in rows)


def test_contradiction_audit_with_loose_upper_bound():
    rows = contradiction_audit(range(6, 21), upper_bound=Fraction(1, 3))
    assert not any(r.contradiction for r in rows)


def test_contradiction_audit_validates_degrees():
    with pytest.raises(ValueError):
        contradiction_audit([5])
    with pytest.raises(ValueError):
        contradiction_audit([])
