"""Maximal families of pairwise quasi-orthogonal matrix subalgebras.

Constructs spreads of Weyl-monomial subalgebras of M_{p^{kn}} isomorphic to
M_{p^k} (p an odd prime), the companion masa spreads and the mutually
unbiased bases they induce, and verifies everything twice: exactly, through
finite-field combinatorics, and numerically, through literal trace checks.
"""

import types

from .constructions import (
    INFINITY,
    MASA,
    MATRIX_ALGEBRA,
    ConstructionParams,
    FamilyMember,
    SpreadFamily,
    build_C,
    build_D,
    build_masa_spread,
    build_recursive,
    build_spread_2,
    embed_hat,
    expected_count,
)
from .finite_field import (
    FieldSpec,
    GFElement,
    field_trace,
    find_irreducible,
    find_nonresidue,
    format_element,
    gf,
    gf_inv,
    gf_mul,
    trace_dual_basis,
)
from .phase_space import (
    GFPhasePoint,
    PhasePoint,
    Subspace,
    check_pairwise_trivial,
    check_partition,
    classify_subspace,
    gf_symplectic,
    pi1,
    span_enumerate,
    symplectic_basis,
    symplectic_product,
)
from .report import VerificationReport
from .verify import (
    check_mub_overlaps,
    counting_identity_holds,
    extract_and_check_mub,
    extract_mub_bases,
    verify_full_algebra,
    verify_qo_numeric,
    verify_qo_symbolic,
)
from .weyl import WeylMonomial, basis_matrices, commutation_phase, monomial_text, synthesize, weyl_mul

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
