"""Exact computation of reparametrization-invariant jet differentials.

The package computes, over the rationals and with no floating point in
any result, the polynomials in curve-jet variables that transform by a
pure power of the leading reparametrization coefficient, decomposes them
under the componentwise linear action, and tracks how they move under
polynomial coordinate changes of the target, including the exact
witnesses showing where second derivatives of a coordinate change mix
the blocks of the decomposition.
"""

from .invariants import (
    InvarianceVerdict,
    InvariantSpace,
    IrrepLabel,
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
from .jets import (
    JetPoint,
    JetSpec,
    ReparamJet,
    TargetMap,
    act_reparam,
    act_target,
    compose_reparam,
    invert_reparam,
)
from .linalg import RationalMatrix, nullspace, rank, rank_modular_check, rref
from .parsing import ParseError, parse_map, parse_polynomial
from .poly import (
    Monomial,
    SparsePolynomial,
    Variable,
    base_var,
    jet_var,
    param_var,
)
from .transitions import (
    ClosureVerdict,
    SplittingVerdict,
    ThetaAuditRow,
    TransitionMatrix,
    Witness,
    associated_action,
    contradiction_audit,
    differential_transition,
    s_block_closure,
    splitting_check,
    theta_lower_bound,
    v1_frame_transition,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureVerdict",
    "InvarianceVerdict",
    "InvariantSpace",
    "IrrepLabel",
    "JetPoint",
    "JetSpec",
    "Monomial",
    "ParseError",
    "RationalMatrix",
    "ReparamJet",
    "SparsePolynomial",
    "SplittingVerdict",
    "TargetMap",
    "ThetaAuditRow",
    "TransitionMatrix",
    "Variable",
    "Witness",
    "act_reparam",
    "act_target",
    "associated_action",
    "base_var",
    "compose_reparam",
    "contradiction_audit",
    "decompose",
    "differential_transition",
    "enumerate_monomials",
    "invariance_system",
    "invariant_basis",
    "invariant_dimension",
    "invert_reparam",
    "irrep_partition",
    "jet_var",
    "mono_weight",
    "nullspace",
    "param_var",
    "parse_map",
    "parse_polynomial",
    "raising_action",
    "rank",
    "rank_modular_check",
    "rref",
    "s_block_closure",
    "splitting_check",
    "theta_lower_bound",
    "v1_frame_transition",
    "verify_invariance",
]
