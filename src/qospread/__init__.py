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
    "constructions": ("MASA", "MATRIX_ALGEBRA", "ConstructionParams", "FamilyMember", "SpreadFamily",
                      "build_masa_spread", "build_recursive", "build_spread_2", "expected_count"),
    "finite_field": ("FieldSpec", "GFElement", "field_trace", "find_irreducible", "find_nonresidue",
                     "format_element", "gf"),
    "phase_space": ("GFPhasePoint", "PhasePoint", "Subspace", "pi1", "span_enumerate"),
    "report": ("VerificationReport",),
    "verify": ("check_mub_overlaps", "extract_mub_bases", "verify_qo_numeric", "verify_symbolic"),
    "weyl": ("WeylMonomial", "monomial_text", "synthesize"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
