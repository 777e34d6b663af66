"""Maximal families of pairwise quasi-orthogonal matrix subalgebras.

Constructs spreads of Weyl-monomial subalgebras of M_{p^{kn}} isomorphic to
M_{p^k} (p an odd prime), the companion masa spreads and the mutually
unbiased bases they induce, and verifies everything twice: exactly, through
finite-field combinatorics, and numerically, through literal trace checks.

The public names load on first use (PEP 562): ``import qospread`` imports
neither numpy nor any layer, so ``qospread.cli`` runs its first lines before
numpy starts its BLAS threads.
"""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in {
    "constructions": ("INFINITY", "MASA", "MATRIX_ALGEBRA", "ConstructionParams", "FamilyMember", "SpreadFamily",
                      "build_C", "build_D", "build_masa_spread", "build_recursive", "build_spread_2", "embed_hat",
                      "expected_count"),
    "finite_field": ("FieldSpec", "GFElement", "field_trace", "find_irreducible", "find_nonresidue",
                     "format_element", "gf", "trace_dual_basis"),
    "phase_space": ("GFPhasePoint", "PhasePoint", "Subspace", "check_pairwise_trivial", "check_partition",
                    "classify_subspace", "gf_symplectic", "pi1", "span_enumerate", "symplectic_basis",
                    "symplectic_product"),
    "report": ("VerificationReport",),
    "verify": ("check_mub_overlaps", "counting_identity_holds", "extract_and_check_mub", "extract_mub_bases",
               "verify_full_algebra", "verify_qo_numeric", "verify_qo_symbolic"),
    "weyl": ("WeylMonomial", "basis_matrices", "commutation_phase", "monomial_text", "synthesize", "weyl_mul"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
