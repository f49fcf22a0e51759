"""Tests for invariant enumeration, the constraint system, and GL(2) structure."""

import itertools
import random
import re
import sys
from fractions import Fraction
from collections import Counter
from math import comb, factorial

import pytest

from jetdiff import invariants, linalg
from jetdiff.cli import main
from jetdiff.invariants import (
    IrrepLabel,
    _packed_derivations,
    _packed_moves,
    _reparam_rule,
    _root_move,
    decompose,
    enumerate_monomials,
    invariance_system,
    invariant_basis,
    invariant_dimension,
    irrep_partition,
    mono_weight,
    raising_action,
    verify_invariance,
)
from jetdiff.jets import JetPoint, JetSpec, ReparamJet, act_reparam
from jetdiff.linalg import RationalMatrix, nullspace, rank, rank_modular_check
from jetdiff.poly import (
    JET,
    PARAM,
    PackedSubstitution,
    SparsePolynomial,
    base_var,
    jet_var,
    mono_from_pairs,
    mono_sort_key,
    param_var,
    substitute_all,
)

from helpers import raising_kernel_labels, random_poly, reference_substitute


def var(v):
    return SparsePolynomial.variable(v)


def wronskian():
    return var(jet_var(1, 1)) * var(jet_var(2, 2)) - var(jet_var(2, 1)) * var(jet_var(1, 2))


# ---- monomial enumeration ----


def test_mono_weight():
    assert mono_weight(()) == 0
    assert mono_weight(mono_from_pairs([(jet_var(1, 1), 3)])) == 3
    assert mono_weight(mono_from_pairs([(jet_var(1, 1), 1), (jet_var(1, 2), 1)])) == 3
    assert mono_weight(mono_from_pairs([(jet_var(2, 3), 2)])) == 6


def test_enumerate_monomials_examples():
    assert enumerate_monomials(JetSpec(1, 1), 0) == [()]
    monos = enumerate_monomials(JetSpec(1, 2), 3)
    assert [str(SparsePolynomial.monomial(m)) for m in monos] == ["f1'^3", "f1'*f1''"]
    monos = enumerate_monomials(JetSpec(2, 2), 3)
    assert [str(SparsePolynomial.monomial(m)) for m in monos] == [
        "f1'^3",
        "f1'^2*f2'",
        "f1'*f2'^2",
        "f2'^3",
        "f1'*f1''",
        "f1'*f2''",
        "f2'*f1''",
        "f2'*f2''",
    ]


def brute_force_monomials(spec, weight):
    """Independent enumeration by exhausting exponent vectors directly."""
    vars_ = spec.jet_variables()
    weights = [v.order for v in vars_]
    ranges = [range(weight // w + 1) for w in weights]
    found = set()
    for exps in itertools.product(*ranges):
        if sum(e * w for e, w in zip(exps, weights)) == weight:
            found.add(mono_from_pairs([(v, e) for v, e in zip(vars_, exps) if e]))
    return found


def test_enumerate_monomials_against_brute_force():
    cases = [(rank_, order, weight) for rank_ in (1, 2) for order in (1, 2, 3) for weight in range(7)]
    cases += [(3, order, weight) for order in (1, 2, 3) for weight in range(5)]
    cases += [(4, order, weight) for order in (1, 2, 3) for weight in range(4)]
    for rank_, order, weight in cases:
        spec = JetSpec(rank_, order)
        monos = enumerate_monomials(spec, weight)
        assert len(set(monos)) == len(monos)
        assert set(monos) == brute_force_monomials(spec, weight)
        # the canonical column order, however the enumeration produces it
        assert monos == sorted(monos, key=mono_sort_key)
        for m in monos:
            assert mono_weight(m) == weight


def monomial_counts(rank_, order, top):
    """The coefficients of t^0..t^top in prod_{i <= order} (1 - t^i)^(-rank_),
    the Hilbert series of the jet monomials by weight."""
    counts = [1] + [0] * top
    for i in range(1, order + 1):
        for _ in range(rank_):
            for n in range(i, top + 1):
                counts[n] += counts[n - i]
    return counts


def test_enumerate_monomials_counts_match_generating_function():
    checked = 0
    for rank_ in range(1, 5):
        for order in range(1, 5):
            for weight, count in enumerate(monomial_counts(rank_, order, 15)):
                if count < 60_000:
                    assert len(enumerate_monomials(JetSpec(rank_, order), weight)) == count
                    checked += 1
    assert checked > 200


def test_enumerate_monomials_returns_a_fresh_list():
    # the suffix lists are shared while one call builds; no call may hand
    # out a list that a later call returns again
    for spec, weight in [(JetSpec(2, 3), 0), (JetSpec(2, 3), 1), (JetSpec(3, 2), 5)]:
        first = enumerate_monomials(spec, weight)
        expected = list(first)
        first.append(("not", "a monomial"))
        first[0] = ()
        second = enumerate_monomials(spec, weight)
        assert second == expected and second is not first


# ---- the constraint system and its nullspace ----


def test_invariance_system_rank_one():
    system = invariance_system(JetSpec(1, 2), 3)
    # Columns follow [f'^3, f'*f'']; only the second monomial moves, with
    # residual 2*a2*f'^2.
    assert (system.nrows, system.ncols) == (1, 2)
    assert system.to_rows() == [[0, 2]]


def test_invariance_system_first_order_is_empty():
    system = invariance_system(JetSpec(2, 1), 4)
    assert system.nrows == 0
    assert system.ncols == 5


def test_substitution_system_matches_reference_substitution():
    # The packed system against one built term by term in Fraction
    # arithmetic: per monomial, its image less the monomial itself.  Rows
    # are keyed differently (packed keys there, monomials here), so they
    # are compared as a multiset, with equal counts.
    for r, k in itertools.product(range(1, 5), range(2, 5)):
        top = {1: 8, 2: 7, 3: 5, 4: 4}[r]
        spec = JetSpec(r, k)
        bindings = invariants._formal_action(spec, True)
        for m in range(top + 1):
            system = invariance_system(spec, m)
            columns = []
            for mono in enumerate_monomials(spec, m):
                image = reference_substitute(SparsePolynomial.monomial(mono), bindings).terms
                del image[mono]
                columns.append(image)
            expected = RationalMatrix.from_columns(columns)
            assert system.nrows == expected.nrows, (r, k, m)
            assert sorted(map(sorted, (row.items() for row in system.rows))) == sorted(
                map(sorted, (row.items() for row in expected.rows))
            ), (r, k, m)


def a_linear(packing, columns):
    """The entries of each column whose key has total degree 1 in the
    parameters, read off the packed parameter fields."""
    params = packing.fields(PARAM)

    def degree(key):
        return sum((key >> off) & mask for off, mask in params)

    return [{key: n for key, n in col.items() if degree(key) == 1} for col in columns]


def test_shared_packing_matches_block_packing(monkeypatch):
    # dim sizes one packing from every dominant monomial and builds each
    # block on it.  A field too narrow for the shared widths would merge
    # rows, which the exact kernel check cannot see, so each block's
    # system, and the matrix of its a-linear rows, must equal the ones
    # built on a packing of that block alone.
    built = []
    original = invariants._substitution_columns

    def spy(packing, monomials):
        columns = original(packing, monomials)
        built.append((packing, list(monomials), columns))
        return columns

    monkeypatch.setattr(invariants, "_substitution_columns", spy)
    for spec, m in ((JetSpec(2, 4), 12), (JetSpec(3, 4), 9)):
        built.clear()
        invariant_dimension(spec, m)
        assert len({id(packing) for packing, _, _ in built}) == 1
        bindings = invariants._formal_action(spec, True)
        for packing, block, columns in built:
            own = PackedSubstitution(bindings, block)
            alone = original(own, block)
            assert RationalMatrix.from_columns(columns) == RationalMatrix.from_columns(alone)
            assert RationalMatrix.from_columns(
                a_linear(packing, columns)
            ) == RationalMatrix.from_columns(a_linear(own, alone)), (spec, m, block[0])
            assert all(type(v) is int for col in columns for v in col.values())


def test_substitution_system_refuses_fractional_images():
    # The unipotent action has integer coefficients; a system built from
    # images with a denominator is refused, not taken over Fractions.
    v = jet_var(1, 1)
    mono = ((v, 2),)
    packing = PackedSubstitution({v: SparsePolynomial.variable(v) * Fraction(1, 2)}, [mono])
    with pytest.raises(RuntimeError, match="f1'\\^2 has denominator 4"):
        invariants._substitution_columns(packing, [mono])


def test_basis_elements_are_stored_in_canonical_order():
    # The CLI prints basis elements in stored term order, without a sort.
    for spec, m in ((JetSpec(2, 4), 12), (JetSpec(3, 4), 9), (JetSpec(4, 3), 7)):
        for q in invariant_basis(spec, m).basis:
            assert list(q.terms.items()) == q.sorted_terms(), (spec, m, str(q))


def test_canonical_basis_is_held_as_ints():
    # The canonical basis is integral (content 1) and stays int-valued
    # from the nullspace through the stored space to the root moves.
    def all_ints(values):
        return all(type(v) is int for v in values)

    for spec, m in ((JetSpec(2, 4), 12), (JetSpec(4, 3), 7), (JetSpec(3, 4), 9)):
        space = invariant_basis(spec, m)
        assert all(all_ints(vec.values()) for vec in space.vectors), (spec, m)
        assert all(all_ints(q.terms.values()) for q in space.basis), (spec, m)
        assert all(all_ints(row) for row in space.coefficients), (spec, m)
        if spec.rank == 2:
            raised = _root_move(space, space.vectors, 2, 1)
            lowered = _root_move(space, raised, 1, 2)
            assert any(raised) and any(lowered)
            assert all(all_ints(vec.values()) for vec in raised + lowered)


def test_invariant_basis_rank_one():
    space = invariant_basis(JetSpec(1, 2), 3)
    assert [str(q) for q in space.basis] == ["f1'^3"]


def test_invariant_basis_r2_k2_m3():
    space = invariant_basis(JetSpec(2, 2), 3)
    assert len(space.basis) == 5
    system = invariance_system(JetSpec(2, 2), 3)
    assert (system.nrows, system.ncols) == (3, 8)
    assert [str(q) for q in space.basis] == [
        "f1'^3",
        "f1'^2*f2'",
        "f1'*f2'^2",
        "f2'^3",
        "f1'*f2'' - f2'*f1''",
    ]
    for q in space.basis:
        verdict = verify_invariance(q, space.spec)
        assert verdict.invariant
        assert verdict.weight == 3
        assert verdict.residual is None


def test_derivation_kernel_matches_substitution_nullspace():
    # Two constructions of one space: the torus-block kernel of D1, D2
    # and the nullspace of the series-substitution system must agree
    # vector for vector, in the same order.
    for r in (1, 2, 3, 4):
        for k in (1, 2, 3, 4):
            top = 7 if r <= 2 else 5 if r * k <= 9 else 4
            for m in range(0, top + 1):
                spec = JetSpec(r, k)
                derived = [
                    {col: v for col, v in enumerate(row) if v}
                    for row in invariant_basis(spec, m).coefficients
                ]
                assert derived == nullspace(invariance_system(spec, m)), (r, k, m)


def basis_and_labels(spec, m):
    space = invariant_basis(spec, m)
    try:
        labels = decompose(space)
    except ValueError as exc:  # decompose certifies rank 2 only
        labels = str(exc)
    return space.basis, space.torus_weights(), labels


def test_modular_kernels_match_fraction_kernels(monkeypatch):
    # The block kernels through GF(2**61 - 1) and through Fraction RREF
    # must give the same basis, weights and labels.
    shapes = [(2, 4, 10), (3, 3, 6), (4, 3, 5), (2, 2, 12)]
    modular = [basis_and_labels(JetSpec(r, k), m) for r, k, m in shapes]
    monkeypatch.setattr(invariants, "nullspace", linalg._nullspace_rational)
    assert modular == [basis_and_labels(JetSpec(r, k), m) for r, k, m in shapes]


def test_ladder_kernels_take_no_fallback(monkeypatch, caplog):
    # A fallback keeps the bytes but loses the speed, so only this spy
    # sees it: the benchmark's basis shapes, and the whole system and
    # the dominant blocks behind its dim shapes, must stay on the modular
    # route.
    def no_fallback(matrix):
        raise AssertionError("nullspace fell back to Fraction elimination")

    monkeypatch.setattr(linalg, "_nullspace_rational", no_fallback)
    with caplog.at_level("INFO", logger="jetdiff.linalg"):
        for r, k, m in [(2, 4, 10), (2, 4, 12), (4, 3, 7), (3, 4, 9)]:
            invariant_basis(JetSpec(r, k), m)
        for r, k, m in [(2, 4, 10), (2, 4, 12)]:
            nullspace(invariance_system(JetSpec(r, k), m))
            invariant_dimension(JetSpec(r, k), m)
    assert not [r for r in caplog.records if r.name == "jetdiff.linalg"]


def dim_block_systems(monkeypatch, spec, m):
    """(whole block system, matrix handed to `nullspace`, kernel returned)
    for each dominant block that `invariant_dimension` solves here."""
    columns, calls = [], []
    build, solve = invariants._substitution_columns, invariants.nullspace

    def build_spy(packing, monomials):
        columns.append(build(packing, monomials))
        return columns[-1]

    def solve_spy(matrix):
        calls.append((matrix, solve(matrix)))
        return calls[-1][1]

    monkeypatch.setattr(invariants, "_substitution_columns", build_spy)
    monkeypatch.setattr(invariants, "nullspace", solve_spy)
    invariant_dimension(spec, m)
    monkeypatch.setattr(invariants, "_substitution_columns", build)
    monkeypatch.setattr(invariants, "nullspace", solve)
    assert len(columns) == len(calls)
    return [(RationalMatrix.from_columns(cols), *call) for cols, call in zip(columns, calls)]


def test_a_linear_rows_span_each_dominant_block(monkeypatch, caplog):
    # `dim` hands `nullspace` only a block's rows of total a-degree 1, the
    # matrices of D_1, ..., D_(k-1); the count rests on their spanning the
    # block's row space.  Every dominant block at r, k <= 4, m <= 12
    # (shapes of at most 1,500 monomials) and at the tall order-3 shape
    # r2k3m16 (3,354 rows, 836 a-linear): the a-linear rows have the rank
    # of all the rows, and the kernel from them alone is the Fraction
    # kernel of the whole block, taken on the modular route.
    shapes = [
        (r, k, m)
        for r, k, m in itertools.product(range(1, 5), range(1, 5), range(13))
        if len(enumerate_monomials(JetSpec(r, k), m)) <= 1500
    ]
    assert len(shapes) == 189
    blocks = 0
    with caplog.at_level("INFO", logger="jetdiff.linalg"):
        for r, k, m in shapes + [(2, 3, 16)]:
            for system, linear, kernel in dim_block_systems(monkeypatch, JetSpec(r, k), m):
                blocks += 1
                assert rank(linear) == rank(system), (r, k, m)
                assert kernel == linalg._nullspace_rational(system), (r, k, m)
    assert blocks == 2206 + 69
    assert not [r for r in caplog.records if r.name == "jetdiff.linalg"]


def test_dim_exits_3_when_the_a_linear_rows_miss_the_row_space(capsys, monkeypatch):
    # `dim` checks the kernel of a block's a-linear rows against the
    # block's whole columns.  Dropping a row that the others do not span,
    # in the first block of rank 2 or more, grows that kernel by a vector
    # the check rejects: `dim` exits 3 with one line naming the block's
    # torus weight, and prints nothing on stdout.
    build, solve = invariants._substitution_columns, invariants.nullspace
    blocks, dropped = [], []

    def build_spy(packing, monomials):
        blocks.append(invariants._mono_torus_weight(monomials[0], 2))
        return build(packing, monomials)

    def solve_spy(matrix):
        full = rank(matrix)
        if not dropped and full >= 2:
            for i in range(matrix.nrows):
                rest = matrix.rows[:i] + matrix.rows[i + 1 :]
                smaller = RationalMatrix(len(rest), matrix.ncols, rest)
                if rank(smaller) < full:
                    dropped.append(blocks[-1])
                    return solve(smaller)
        return solve(matrix)

    monkeypatch.setattr(invariants, "_substitution_columns", build_spy)
    monkeypatch.setattr(invariants, "nullspace", solve_spy)
    code = main(["dim", "--rank", "2", "--order", "4", "--weight", "12"])
    captured = capsys.readouterr()
    assert code == 3 and len(dropped) == 1
    assert captured.out == ""
    assert captured.err.startswith("jetdiff: ") and captured.err.count("\n") == 1
    assert f"at torus weight {dropped[0]}" in captured.err


def test_only_dim_eliminates_a_row_subset(monkeypatch):
    # `basis` hands `nullspace` every row of its D1/D2 blocks, and
    # `decompose` nothing; `invariant_dimension` hands it only the a-linear
    # rows of its blocks: 562 of the 1,733 rows of r2k4m12's 45 dominant
    # blocks.
    calls = []
    original = invariants.nullspace

    def spy(matrix):
        calls.append((matrix.nrows, matrix.ncols))
        return original(matrix)

    monkeypatch.setattr(invariants, "nullspace", spy)
    decompose(invariant_basis(JetSpec(2, 4), 10))
    assert (len(calls), sum(n for n, _ in calls), sum(c for _, c in calls)) == (32, 207, 186)
    monkeypatch.setattr(invariants, "nullspace", original)
    systems = dim_block_systems(monkeypatch, JetSpec(2, 4), 12)
    assert len(systems) == 45
    assert sum(system.nrows for system, _, _ in systems) == 1733
    assert sum(given.nrows for _, given, _ in systems) == 562
    assert all(given.ncols == system.ncols for system, given, _ in systems)


def test_permuted_kernels_match_their_own_block_kernels(monkeypatch):
    # Each kernel carried onto a non-dominant block by permutation must be
    # the kernel solved on that block's own D1/D2 columns, vector for
    # vector once sorted by free column.
    permuted = []
    carry = invariants._permuted_kernel

    def spy(*args):
        permuted.append(carry(*args))
        return permuted[-1]

    monkeypatch.setattr(invariants, "_permuted_kernel", spy)
    for r, k, m in [(3, 3, 6), (3, 4, 7), (4, 3, 5), (4, 2, 8), (4, 4, 4)]:
        spec = JetSpec(r, k)
        permuted.clear()
        space = invariant_basis(spec, m)
        rules = [_reparam_rule(spec, s) for s in (1, 2) if s < spec.order]
        shift, moves = _packed_moves(spec, m, rules)
        blocks = invariants._torus_blocks(
            invariants._mono_torus_weight(mono, r) for mono in space.monomials
        )
        others = [cols for torus, cols in blocks.items() if not invariants._is_dominant(torus)]
        assert len(permuted) == len(others), (r, k, m)
        multi = 0
        for cols, kernel in zip(others, permuted):
            own = invariants._kernel(
                {col: _packed_derivations(space.monomials[col], shift, moves) for col in cols}
            )
            assert sorted(kernel, key=lambda vec: next(reversed(vec))) == own, (r, k, m, cols)
            multi += len(own) > 1
        assert multi, (r, k, m)


def test_every_basis_element_is_formally_invariant():
    # `invariant_basis` verifies only its dominant-block elements and
    # certifies the rest by symmetry; the full check on every element,
    # the permuted ones included, keeps that symmetry pinned.
    for r, k, m in [(2, 4, 12), (4, 3, 7), (3, 4, 9), (2, 4, 10), (4, 4, 4)]:
        spec = JetSpec(r, k)
        space = invariant_basis(spec, m)
        tori = space.torus_weights()
        assert not all(invariants._is_dominant(torus) for torus in tori), (r, k, m)
        verdicts = invariants._verify_all(space.basis, spec)
        assert all(verdict.invariant for verdict in verdicts), (r, k, m)


def test_basis_verifies_exactly_the_dominant_blocks(monkeypatch):
    # The formal re-check runs on the elements of the solved (dominant)
    # blocks and on no other.
    seen = []
    verify_all = invariants._verify_all

    def spy(polys, spec):
        seen.append(list(polys))
        return verify_all(polys, spec)

    monkeypatch.setattr(invariants, "_verify_all", spy)
    for r, k, m in [(2, 4, 12), (4, 3, 7), (3, 3, 6)]:
        seen.clear()
        space = invariant_basis(JetSpec(r, k), m)
        dominant = [
            q
            for q, torus in zip(space.basis, space.torus_weights())
            if invariants._is_dominant(torus)
        ]
        assert seen == [dominant], (r, k, m)
        assert 0 < len(dominant) < space.dimension, (r, k, m)


def perturbed(vec):
    """`vec` with its first entry, not its free column, moved off by one
    (by two where one would make it zero)."""
    first = next(iter(vec))
    out = dict(vec)
    out[first] += 1 if out[first] != -1 else 2
    return out


def test_basis_rejects_a_perturbed_dominant_kernel(monkeypatch):
    kernel = invariants._kernel
    done = []

    def spoiled(columns):
        vectors = kernel(columns)
        for i, vec in enumerate(vectors):
            if not done and len(vec) > 1:
                vectors[i] = perturbed(vec)
                done.append(i)
        return vectors

    monkeypatch.setattr(invariants, "_kernel", spoiled)
    with pytest.raises(RuntimeError, match="failed formal invariance"):
        invariant_basis(JetSpec(2, 4), 12)
    assert done


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda vectors: [perturbed(vectors[0]), *vectors[1:]], "not in the span"),
        (lambda vectors: vectors[:-1], "vectors, its dominant block"),
        (lambda vectors: [vectors[0], *vectors[:-1]], "share a free column"),
    ],
    ids=["perturbed", "dropped", "repeated"],
)
def test_basis_rejects_a_spoiled_permuted_kernel(monkeypatch, spoil, message):
    # Each permuted block is certified by count, free columns and an
    # exact span check against its verified dominant block.
    span = invariants._canonical_span
    done = []

    def spoiled(rows):
        vectors = span(rows)
        if not done and len(vectors) > 1 and len(vectors[0]) > 1:
            done.append(True)
            return spoil(vectors)
        return vectors

    monkeypatch.setattr(invariants, "_canonical_span", spoiled)
    with pytest.raises(RuntimeError, match=message):
        invariant_basis(JetSpec(3, 4), 9)
    assert done


def test_basis_rejects_a_repeated_dominant_vector(monkeypatch):
    # A dominant kernel holding one vector twice would pass the formal
    # re-check; its free columns, read once per orbit, give it away.
    kernel = invariants._kernel

    def repeated(columns):
        vectors = kernel(columns)
        return [*vectors[:-1], vectors[0]] if len(vectors) > 1 else vectors

    monkeypatch.setattr(invariants, "_kernel", repeated)
    with pytest.raises(RuntimeError, match="reduced basis vectors share a free column"):
        invariant_basis(JetSpec(3, 4), 9)


def test_basis_eliminates_only_modulo_a_prime(monkeypatch):
    # Fraction elimination must not creep back into `basis`: every
    # elimination behind these bases, the permuted blocks included, is
    # modular.  The spy replaces the pivot loop under every name a jetdiff
    # module holds it by.
    primes = []
    eliminate = linalg._eliminate

    def spy(rows, prime=0):
        primes.append(prime)
        return eliminate(rows, prime)

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "jetdiff"]
    for module in modules:
        for name in [name for name, value in vars(module).items() if value is eliminate]:
            monkeypatch.setattr(module, name, spy)
    for r, k, m in [(3, 4, 9), (4, 3, 7)]:
        invariant_basis(JetSpec(r, k), m)
    assert primes and 0 not in primes


def derivation(q, spec, s):
    """D_s as a derivative formula: the sum over f_j^(i) with i > s of
    i!/(i-s-1)! * f_j^(i-s) * dQ/df_j^(i)."""
    out = SparsePolynomial.zero()
    for v in spec.jet_variables():
        if v.order > s:
            factor = factorial(v.order) // factorial(v.order - s - 1)
            out = out + factor * var(jet_var(v.comp, v.order - s)) * q.derivative(v)
    return out


def test_derivation_is_first_order_term_of_reparametrization():
    # D_s must be the eps-linear part of the action of t + eps*t^(s+1),
    # read off act_reparam with eps a formal parameter.
    eps = param_var(9)
    for k in (1, 2, 3, 4):
        spec = JetSpec(2, k)
        for s in (1, 2):
            if s + 1 > k:
                continue
            coeffs = [1] + [0] * (k - 1)
            coeffs[s] = var(eps)
            moved = act_reparam(JetPoint.formal(spec), ReparamJet(coeffs))
            bindings = {}
            for i in range(1, k + 1):
                for j in (1, 2):
                    entry = moved.entry(i, j)
                    first = entry.collect([eps]).get(((eps, 1),), SparsePolynomial.zero())
                    assert derivation(var(jet_var(j, i)), spec, s) == first
                    bindings[jet_var(j, i)] = entry
            # ... and on products, by the Leibniz rule
            for mono in enumerate_monomials(spec, 4):
                q = SparsePolynomial.monomial(mono)
                image = q.substitute(bindings).collect([eps])
                first = image.get(((eps, 1),), SparsePolynomial.zero())
                assert derivation(q, spec, s) == first


def test_packed_derivations_match_derivative_formula():
    # The packed block columns of invariant_basis are D1 and D2 of one
    # monomial: unpacking each row, one field as wide as the weight per
    # variable, gives the images of the checked formula above.
    for r, k, m in [(1, 4, 7), (1, 3, 8), (2, 4, 8), (3, 3, 6), (4, 2, 5)]:
        spec = JetSpec(r, k)
        rules = [_reparam_rule(spec, s) for s in (1, 2) if s < k]
        shift, moves = _packed_moves(spec, m, rules)
        mask = (1 << m.bit_length()) - 1
        for mono in enumerate_monomials(spec, m):
            expected = {}
            for s in range(len(moves)):
                image = derivation(SparsePolynomial.monomial(mono), spec, s + 1)
                expected.update({(s, out): coeff for out, coeff in image.terms.items()})
            unpacked = {
                (s, tuple((v, key >> at & mask) for v, at in shift.items() if key >> at & mask)): c
                for (s, key), c in _packed_derivations(mono, shift, moves).items()
            }
            assert unpacked == expected


def test_dimension_table_with_modular_cross_check():
    spec = JetSpec(2, 2)
    expected = {3: 5, 4: 7, 5: 9, 6: 12}
    for weight, dim in expected.items():
        system = invariance_system(spec, weight)
        exact = rank(system)
        assert rank_modular_check(system, stop_at=exact) == exact
        assert system.ncols - exact == dim
        assert len(invariant_basis(spec, weight).basis) == dim


def test_modular_rank_matches_exact_on_substitution_systems():
    # The two rank routes share the pivot loop but not the field: Fraction
    # arithmetic against arithmetic modulo primes.  On the paper's own
    # systems they must agree.
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for m in range(0, 9):
                system = invariance_system(JetSpec(r, k), m)
                exact = rank(system)
                assert rank_modular_check(system, stop_at=exact) == exact, (r, k, m)


def test_weight_zero_and_k_larger_than_m():
    assert [str(q) for q in invariant_basis(JetSpec(2, 2), 0).basis] == ["1"]
    low = invariant_basis(JetSpec(2, 2), 2)
    high = invariant_basis(JetSpec(2, 3), 2)
    assert [str(q) for q in low.basis] == ["f1'^2", "f1'*f2'", "f2'^2"]
    # Raising the jet order past the weight adds no monomials and no
    # invariants.
    assert [str(q) for q in high.basis] == [str(q) for q in low.basis]


def test_closed_form_order_one():
    # With no second derivatives every degree-m monomial is invariant, so
    # the dimension is the number of monomials of degree m in r letters.
    for r in (1, 2, 3):
        for m in range(0, 7):
            space = invariant_basis(JetSpec(r, 1), m)
            assert len(space.basis) == comb(m + r - 1, r - 1)


def test_closed_form_rank_one():
    for k in (1, 2, 3, 4):
        for m in range(0, 7):
            space = invariant_basis(JetSpec(1, k), m)
            assert len(space.basis) == 1
            if m:
                expected = f"f1'^{m}" if m > 1 else "f1'"
                assert str(space.basis[0]) == expected


def hilbert_series(numerator, denominator_degrees, n):
    """Coefficients of t^0..t^n in numerator(t) / prod_d (1 - t^d), the
    numerator given as {power: coefficient}."""
    coeffs = [0] * (n + 1)
    for power, c in numerator.items():
        coeffs[power] += c
    for d in denominator_degrees:
        for i in range(d, n + 1):
            coeffs[i] += coeffs[i - d]
    return coeffs


def test_dimensions_match_hilbert_series_orders_two_and_three():
    # Second route for the dimensions: the invariant algebra is free on
    # f1', f2' and the Wronskian W at order 2; at order 3 it is generated
    # by f1', f2', W, W1, W2 with one relation in weight 6 (Demailly 1997).
    order2 = hilbert_series({0: 1}, (1, 1, 3), 20)
    assert [invariant_basis(JetSpec(2, 2), m).dimension for m in range(21)] == order2
    order3 = hilbert_series({0: 1, 6: -1}, (1, 1, 3, 5, 5), 16)
    assert [invariant_basis(JetSpec(2, 3), m).dimension for m in range(17)] == order3


# ---- invariance verification ----


def test_verify_wronskian():
    verdict = verify_invariance(wronskian(), JetSpec(2, 2))
    assert verdict.invariant
    assert verdict.weight == 3
    assert verdict.residual is None


def test_verify_non_invariant_residual():
    q = var(jet_var(1, 1)) * var(jet_var(1, 2))
    verdict = verify_invariance(q, JetSpec(1, 2))
    assert not verdict.invariant
    assert verdict.weight == 3
    assert str(verdict.residual) == "2*f1'^2*a1*a2"
    # Specializing a1 = 1 gives the unipotent residual.
    one = SparsePolynomial.constant(1)
    unipotent = verdict.residual.substitute({param_var(1): one})
    assert unipotent == 2 * var(param_var(2)) * var(jet_var(1, 1)) ** 2


def test_verify_constant_is_invariant():
    verdict = verify_invariance(SparsePolynomial.constant(5), JetSpec(2, 2))
    assert verdict.invariant
    assert verdict.weight == 0


def unpacked_verdicts(polys, spec):
    """`_verify_all` with every image unpacked: `substitute_all`, then a
    comparison of polynomials with q * a1^m."""
    a1 = var(param_var(1))
    images = substitute_all(polys, invariants._formal_action(spec, False))
    verdicts = []
    for q, image in zip(polys, images):
        weight = mono_weight(next(iter(q.terms))) if q.terms else 0
        residual = image - q * a1 ** weight
        verdicts.append((not residual, weight, residual or None))
    return verdicts


def test_packed_verify_matches_unpacked_reference():
    # Verdicts, weights and residuals of the packed comparison equal the
    # unpacked ones: basis elements, their combinations with Fraction
    # coefficients, those plus a monomial (mostly not invariant), and the
    # weight-0 constant and zero, all in one batch per shape.
    rng = random.Random(431)
    outcomes = set()
    for rank, order, weight in [(2, 2, 6), (1, 3, 7), (3, 2, 4), (2, 3, 5), (2, 4, 4)]:
        spec = JetSpec(rank, order)
        basis = list(invariant_basis(spec, weight).basis)
        monomials = enumerate_monomials(spec, weight)
        polys = [SparsePolynomial.constant(Fraction(5, 3)), SparsePolynomial.zero(), *basis]
        for _ in range(4):
            combo = SparsePolynomial.zero()
            for q in rng.sample(basis, min(3, len(basis))):
                combo = combo + q * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            noise = SparsePolynomial.monomial(rng.choice(monomials), Fraction(rng.randint(1, 9), 7))
            polys.extend([combo, combo + noise])
        got = [tuple(verdict) for verdict in invariants._verify_all(polys, spec)]
        assert got == unpacked_verdicts(polys, spec)
        outcomes.update(invariant for invariant, _, _ in got)
    assert outcomes == {True, False}


def test_verify_mixed_weights_rejected():
    q = var(jet_var(1, 1)) + var(jet_var(1, 2))
    with pytest.raises(ValueError):
        verify_invariance(q, JetSpec(1, 2))


def test_verify_foreign_variables_rejected():
    with pytest.raises(ValueError):
        verify_invariance(var(base_var(1)), JetSpec(1, 2))
    with pytest.raises(ValueError):
        verify_invariance(var(jet_var(1, 3)), JetSpec(1, 2))
    with pytest.raises(ValueError):
        verify_invariance(var(jet_var(2, 1)), JetSpec(1, 2))


def test_weighted_homogeneity_of_monomials():
    # Scaling reparametrizations act on a weight-m monomial by a1^m.
    a1 = var(param_var(1))
    spec = JetSpec(2, 3)
    for weight in range(0, 5):
        for mono in enumerate_monomials(spec, weight):
            scaling = {
                jet_var(j, i): a1 ** i * var(jet_var(j, i))
                for j in (1, 2)
                for i in (1, 2, 3)
            }
            p = SparsePolynomial.monomial(mono)
            assert p.substitute(scaling) == a1 ** weight * p


# ---- torus weights, raising, decomposition ----


def test_torus_weights_r2_k2_m3():
    space = invariant_basis(JetSpec(2, 2), 3)
    assert space.torus_weights() == [(3, 0), (2, 1), (1, 2), (0, 3), (1, 1)]


def test_stored_torus_weights_match_every_term():
    # The weights are recorded from the torus blocks during construction;
    # count the components of every term of every element instead.
    for spec, weight in ((JetSpec(2, 3), 8), (JetSpec(3, 3), 5), (JetSpec(1, 2), 4)):
        space = invariant_basis(spec, weight)
        assert len(space.torus_weights()) == space.dimension
        for q, wt in zip(space.basis, space.torus_weights()):
            for mono in q.terms:
                counts = [0] * spec.rank
                for v, e in mono:
                    counts[v.comp - 1] += e
                assert tuple(counts) == wt


def test_raising_action_examples():
    f1p, f2p = var(jet_var(1, 1)), var(jet_var(2, 1))
    assert raising_action(f2p ** 3, 2, 1) == 3 * f1p * f2p ** 2
    assert not raising_action(f1p ** 3, 2, 1)
    # The Wronskian is a highest-weight vector: raising kills it.
    assert not raising_action(wronskian(), 2, 1)
    # Lowering the pure first-component cubic walks down the string.
    assert raising_action(f1p ** 3, 1, 2) == 3 * f2p * f1p ** 2


def test_raising_action_sl2_commutator():
    # The sl2 relation E(F q) - F(E q) = (d1 - d2) q, with E raising
    # 2 -> 1, F lowering 1 -> 2 and d_j the f_j-degree of each term; base
    # coordinates, parameters and a third component are constants.
    rng = random.Random(43)
    for rank in (2, 3):
        spec = JetSpec(rank, 3)
        variables = [*spec.jet_variables(), base_var(1), param_var(2)]
        for _ in range(40):
            q = random_poly(rng, variables, terms=6)
            commutator = (
                raising_action(raising_action(q, 1, 2), 2, 1)
                - raising_action(raising_action(q, 2, 1), 1, 2)
            )
            expected = SparsePolynomial.zero()
            for mono, coeff in q.terms.items():
                d = [sum(e for v, e in mono if v.kind == JET and v.comp == j) for j in (1, 2)]
                expected = expected + SparsePolynomial.monomial(mono) * (coeff * (d[0] - d[1]))
            assert commutator == expected


def test_packed_root_moves_match_raising_action():
    # The packed E (2 -> 1) and F (1 -> 2) that decompose and
    # irrep_partition apply column by column, against raising_action on
    # every basis vector; then E(F b) - F(E b) = (d1 - d2) b column by
    # column, d_j the f_j-degree of the column's monomial.
    shapes = [(k, m) for k in (1, 2, 3) for m in range(10)] + [(4, m) for m in range(9)]
    for k, m in shapes:
        space = invariant_basis(JetSpec(2, k), m)
        for a, b in ((2, 1), (1, 2)):
            for q, moved in zip(space.basis, _root_move(space, space.vectors, a, b)):
                poly = SparsePolynomial({space.monomials[c]: v for c, v in moved.items()})
                assert poly == raising_action(q, a, b)
        efs = _root_move(space, _root_move(space, space.vectors, 1, 2), 2, 1)
        fes = _root_move(space, _root_move(space, space.vectors, 2, 1), 1, 2)
        for vec, ef, fe in zip(space.vectors, efs, fes):
            commutator = {c: ef.get(c, 0) - fe.get(c, 0) for c in ef.keys() | fe.keys()}
            d = {c: sum(e if v.comp == 1 else -e for v, e in space.monomials[c]) for c in vec}
            expected = {c: d[c] * value for c, value in vec.items() if d[c]}
            assert {c: x for c, x in commutator.items() if x} == expected


def test_raising_preserves_invariance():
    space = invariant_basis(JetSpec(2, 2), 4)
    for q in space.basis:
        moved = raising_action(q, 2, 1)
        if moved:
            assert verify_invariance(moved, space.spec).invariant


def test_decompose_r2_k2_m3():
    labels = decompose(invariant_basis(JetSpec(2, 2), 3))
    assert labels == [IrrepLabel((3, 0), 1), IrrepLabel((1, 1), 1)]
    assert labels[0].dimension() == 4
    assert labels[1].dimension() == 1


def test_decompose_r2_k2_m6():
    labels = decompose(invariant_basis(JetSpec(2, 2), 6))
    assert labels == [
        IrrepLabel((6, 0), 1),
        IrrepLabel((4, 1), 1),
        IrrepLabel((2, 2), 1),
    ]
    assert sum(l.dimension() * l.multiplicity for l in labels) == 12


def test_decompose_matches_closed_forms():
    # Rank-2 decompositions in closed form, sharing no code with the
    # raising route: at order 2 the sum over 0 <= j <= m/3 of
    # Gamma^(m-2j, j), at order 3 the sum over alpha + 3 beta + 5 gamma = m
    # of Gamma^(alpha+beta+2gamma, beta+gamma).
    def labels(weights):
        counts = Counter(weights)
        return [IrrepLabel(w, n) for w, n in sorted(counts.items(), reverse=True)]

    for m in range(13):
        expected = labels((m - 2 * j, j) for j in range(m // 3 + 1))
        assert decompose(invariant_basis(JetSpec(2, 2), m)) == expected
    for m in range(17):
        expected = labels(
            (alpha + beta + 2 * gamma, beta + gamma)
            for alpha, beta, gamma in itertools.product(range(m + 1), repeat=3)
            if alpha + 3 * beta + 5 * gamma == m
        )
        assert decompose(invariant_basis(JetSpec(2, 3), m)) == expected


def test_decompose_matches_raising_kernels():
    # `decompose` reads each multiplicity off two torus-block sizes; the
    # reference takes the kernel of raising on every block instead, one
    # `nullspace` each (tests/helpers.py).  Orders 1 to 4, and two larger
    # shapes; this is the only route pinned at order 4.
    shapes = [(k, m) for k in (1, 2, 3) for m in range(13)] + [(4, m) for m in range(15)]
    for order, weight in shapes + [(4, 22), (3, 20)]:
        space = invariant_basis(JetSpec(2, order), weight)
        assert decompose(space) == raising_kernel_labels(space), (order, weight)


def test_decompose_rejects_a_negative_multiplicity():
    # The span of f1'^2 alone is closed under raising but not under the
    # component swap, so it is no GL(2)-module: torus weight (1, 1) holds
    # no element against one at (2, 0).
    spec = JetSpec(2, 1)
    monomials = enumerate_monomials(spec, 2)
    col = monomials.index(mono_from_pairs([(jet_var(1, 1), 2)]))
    space = invariants.InvariantSpace(spec, 2, monomials, [{col: 1}], [(2, 0)])
    message = re.escape("torus weight (1, 1) holds 0 basis elements, fewer than the 1")
    with pytest.raises(RuntimeError, match=message):
        decompose(space)


def test_decompose_first_order_is_symmetric_power():
    for m in (1, 2, 3, 4):
        labels = decompose(invariant_basis(JetSpec(2, 1), m))
        assert labels == [IrrepLabel((m, 0), 1)]


def test_decompose_requires_rank_two():
    with pytest.raises(ValueError):
        decompose(invariant_basis(JetSpec(1, 2), 3))


def test_irrep_partition_r2_k2_m3():
    space = invariant_basis(JetSpec(2, 2), 3)
    partition = irrep_partition(space)
    assert partition == [
        (IrrepLabel((3, 0), 1), (0, 1, 2, 3)),
        (IrrepLabel((1, 1), 1), (4,)),
    ]


def test_irrep_partition_covers_basis():
    # every shape here has a basis adapted to the decomposition
    shapes = [(2, m) for m in (*range(3, 13), 16, 20)]
    shapes += [(k, m) for k in (1, 3, 4) for m in range(1, 6)]
    for order, weight in shapes:
        space = invariant_basis(JetSpec(2, order), weight)
        partition = irrep_partition(space)
        seen = []
        for label, indices in partition:
            assert len(indices) == label.dimension() * label.multiplicity
            seen.extend(indices)
            # each block is a subrepresentation: raising and lowering its
            # elements lands in its own span
            moved = [
                raising_action(space.basis[i], a, b)
                for i in indices
                for a, b in ((2, 1), (1, 2))
            ]
            outside = set(range(space.dimension)) - set(indices)
            for coords in space.expand_many([p for p in moved if p]):
                assert not outside & coords.keys()
        assert sorted(seen) == list(range(len(space.basis)))
        assert len(seen) == len(set(seen))


def test_irrep_partition_raises_on_non_adapted_basis():
    # Each list names the basis elements that mix two constituents sharing
    # a torus weight, so no isotypic span holds them.
    cases = {
        (3, 6): [12],
        (3, 7): [14, 15, 16, 17],
        (3, 8): [16, 17, 18, 20, 21],
        (4, 6): [12],
        (4, 8): [16, 17, 18, 20, 21, 24, 25, 26, 27],
    }
    for (order, weight), missing in cases.items():
        space = invariant_basis(JetSpec(2, order), weight)
        message = re.escape(f"basis elements {missing} lie in no single isotypic span")
        with pytest.raises(RuntimeError, match=message):
            irrep_partition(space)


# ---- coordinate bookkeeping ----


def test_expand_in_basis():
    space = invariant_basis(JetSpec(2, 2), 3)
    coords = space.expand_many([wronskian()])[0]
    assert coords == {4: 1}
    mixed = space.basis[0] * 2 - space.basis[4]
    assert space.expand_many([mixed])[0] == {0: 2, 4: -1}
    with pytest.raises(ValueError):
        space.expand_many([var(jet_var(1, 1)) * var(jet_var(1, 2))])
    # a monomial outside the weight-3 support is outside the span too
    with pytest.raises(ValueError, match="outside the span"):
        space.expand_many([var(jet_var(1, 1))])
