"""Independent verification oracles for constructed families.

Two routes certify quasi-orthogonality.  The symbolic route is exact
finite-field combinatorics: monomial spans of two subspaces satisfy the
trace condition Tr(A1 A2) = Tr(A1) Tr(A2) / Tr(I) exactly when the
subspaces meet only in zero, because distinct monomials are trace
orthogonal; a member is a full matrix algebra M_{p^k} exactly when its
subspace is symplectically nondegenerate of dimension 2k.  The numeric
route ignores all of that and evaluates the trace condition literally on
synthesized dense matrices, so the two routes check each other.

The masa bridge: each isotropic member spans a maximal abelian subalgebra;
simultaneous diagonalisation of its commuting basis yields an orthonormal
basis of C^d, and quasi-orthogonality of two masas is equivalent to the
two bases being mutually unbiased (all cross overlaps |<x, z>|^2 = 1/d).
"""

from __future__ import annotations

import numpy as np

from .constructions import MASA, MATRIX_ALGEBRA, SpreadFamily
from .finite_field import require_odd_prime
from .phase_space import (
    ISOTROPIC,
    NONDEGENERATE,
    Subspace,
    _classify,
    check_pairwise_trivial,
    classify_subspace,
)
from .report import VerificationReport
from .weyl import basis_matrices

DEFAULT_TOL = 1e-9
NUMERIC_MAX_DIM = 81
SAMPLE_THRESHOLD = 1000
SAMPLE_PAIRS = 200
EIGENVALUE_GAP = 1e-6
EIGH_TRIES = 32


def expected_count(p: int, k: int, n: int) -> int:
    """The dimension bound (p^{2kn} - 1) / (p^{2k} - 1), an exact integer."""
    require_odd_prime(p)
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be >= 1, got k={k}, n={n}")
    num = p ** (2 * k * n) - 1
    den = p ** (2 * k) - 1
    if num % den:
        raise AssertionError("count is not an integer")  # impossible
    return num // den


def counting_identity_holds(p: int, k: int, n: int) -> bool:
    """Self-check of the recursion arithmetic:
    N(n-2) + N(2) + (p^{2k} - 1) N(2) N(n-2) = N(n)."""
    if n < 3:
        raise ValueError("the identity relates n to n - 2, so n >= 3")
    n2 = expected_count(p, k, 2)
    nrec = expected_count(p, k, n - 2)
    return nrec + n2 + (p ** (2 * k) - 1) * n2 * nrec == expected_count(p, k, n)


def verify_qo_symbolic(family: SpreadFamily) -> VerificationReport:
    """Exact certification of a family.

    Passes iff all pairwise intersections are trivial, every matrix-algebra
    member is nondegenerate of dimension 2k (hence spans a copy of M_{p^k}),
    every masa member is isotropic of dimension 2k, and — for families that
    claim completeness — the member count meets the dimension bound.
    """
    pairs = check_pairwise_trivial(family.subspaces(), family.labels())
    failures = list(pairs.failures)
    checks = pairs.checks_run
    dim_want = 2 * family.params.k
    for mem, cls in zip(family.members, _classify(family.subspaces())):
        checks += 1
        want = NONDEGENERATE if mem.kind == MATRIX_ALGEBRA else ISOTROPIC
        if cls.kind != want or mem.subspace.dim != dim_want:
            failures.append(
                (mem.label,
                 f"{mem.kind} member classified {cls.kind} (gram rank {cls.gram_rank}, "
                 f"dim {mem.subspace.dim}, want {want} of dim {dim_want})")
            )
    if family.complete:
        checks += 1
        p, k, n = family.params.p, family.params.k, family.params.n
        want_count = expected_count(p, k, n)
        if len(family.members) != want_count:
            failures.append(("family", f"{len(family.members)} members, expected {want_count}"))
    return VerificationReport(passed=not failures, checks_run=checks, failures=failures)


def _member_stack(sub: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """Stack of non-identity basis matrices and their traces."""
    stack = basis_matrices(sub, NUMERIC_MAX_DIM)[1:]
    return stack, np.einsum("aii->a", stack)


def verify_qo_numeric(
    family: SpreadFamily, tol: float = DEFAULT_TOL, *, sample_pairs: int | None = None, seed: int = 0
) -> VerificationReport:
    """Evaluate the trace condition on dense matrices, pair by pair.

    For every examined pair of members and every pair (A1, A2) of their
    non-identity basis matrices, the residual is
    |Tr(A1 A2) - Tr(A1) Tr(A2) / Tr(I)|; the check passes iff the largest
    residual stays within ``tol``.  Above ``SAMPLE_THRESHOLD`` member pairs
    a random subset of ``SAMPLE_PAIRS`` pairs is used unless ``sample_pairs``
    says otherwise.  Both members' stacks are synthesized afresh for each
    pair; no member stacks are kept between pairs.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = family.params.p
    dim = p**family.params.ambient_factors
    if dim > NUMERIC_MAX_DIM:
        raise ValueError(f"ambient dimension {dim} exceeds the numeric guard {NUMERIC_MAX_DIM}")
    all_pairs = [
        (i, j) for i in range(len(family.members)) for j in range(i + 1, len(family.members))
    ]
    if sample_pairs is None and len(all_pairs) > SAMPLE_THRESHOLD:
        sample_pairs = SAMPLE_PAIRS
    if sample_pairs is not None and sample_pairs < len(all_pairs):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(all_pairs), size=sample_pairs, replace=False)
        pairs = [all_pairs[i] for i in sorted(idx)]
    else:
        pairs = all_pairs

    worst = 0.0
    failures = []
    for i, j in pairs:
        s1, tr1 = _member_stack(family.members[i].subspace)
        s2, tr2 = _member_stack(family.members[j].subspace)
        flat1 = s1.reshape(s1.shape[0], -1)
        flat2 = s2.transpose(0, 2, 1).reshape(s2.shape[0], -1)
        cross = flat1 @ flat2.T  # cross[a, b] = Tr(A_a B_b)
        resid = np.abs(cross - np.outer(tr1, tr2) / dim)
        top = float(resid.max())
        worst = max(worst, top)
        if top > tol:
            failures.append(
                (f"{family.members[i].label} & {family.members[j].label}",
                 f"trace-condition residual {top:.3e} exceeds tol {tol:.1e}")
            )
    return VerificationReport(
        passed=not failures, checks_run=len(pairs), max_residual=worst, failures=failures
    )


def verify_full_algebra(s: Subspace, numeric: bool = False, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Certify that the span of the monomials over ``s`` is a full matrix
    algebra of dimension p^dim(s).

    Symbolically this is nondegeneracy of the symplectic form on ``s``; the
    numeric route additionally checks the synthesized basis has full linear
    rank (its trace Gram matrix is p^m times the identity).
    """
    failures = []
    checks = 1
    cls = classify_subspace(s)
    if cls.kind != NONDEGENERATE:
        failures.append(
            ("subspace", f"classified {cls.kind} (gram rank {cls.gram_rank} of dim {s.dim})")
        )
    covered = expected = None
    worst = None
    if numeric and not failures:
        checks += 1
        dim = s.p**s.m
        if dim > NUMERIC_MAX_DIM:
            raise ValueError(f"ambient dimension {dim} exceeds the numeric guard {NUMERIC_MAX_DIM}")
        stack = basis_matrices(s, NUMERIC_MAX_DIM)
        flat = stack.reshape(stack.shape[0], -1)
        gram = flat.conj() @ flat.T  # gram[a, b] = Tr(A_a^* A_b)
        expected = s.p**s.dim
        covered = int(np.linalg.matrix_rank(gram, tol=1e-6))
        worst = float(np.abs(gram - dim * np.eye(len(stack))).max())
        if covered != expected:
            failures.append(("subspace", f"span dimension {covered}, expected {expected}"))
        if worst > max(tol, 1e-6):
            failures.append(("subspace", f"basis not trace-orthogonal: residual {worst:.3e}"))
    return VerificationReport(
        passed=not failures,
        checks_run=checks,
        max_residual=worst,
        failures=failures,
        covered=covered,
        expected=expected,
    )


def extract_mub_bases(masas: SpreadFamily, *, seed: int = 0) -> list[np.ndarray]:
    """Orthonormal eigenbases (one unitary column matrix per masa member).

    Each member's commuting monomials are simultaneously diagonalised via a
    random-coefficient Hermitian combination, retried if the spectrum has a
    near-degenerate gap; column phases are normalised so the run is
    reproducible for a fixed seed.
    """
    dim = masas.params.p**masas.params.ambient_factors
    if dim > NUMERIC_MAX_DIM:
        raise ValueError(f"ambient dimension {dim} exceeds the numeric guard {NUMERIC_MAX_DIM}")
    rng = np.random.default_rng(seed)
    bases = []
    for mem in masas.members:
        sub = mem.subspace
        if classify_subspace(sub).kind != ISOTROPIC or sub.dim != sub.m:
            raise ValueError(f"{mem.label}: subspace is not isotropic of dimension {sub.m}")
        mats = basis_matrices(sub, NUMERIC_MAX_DIM)
        vecs = None
        for _ in range(EIGH_TRIES):
            coeff = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
            combo = sum(c * m for c, m in zip(coeff, mats))
            herm = combo + combo.conj().T
            vals, cand = np.linalg.eigh(herm)
            if np.diff(vals).min() > EIGENVALUE_GAP:
                vecs = cand
                break
        if vecs is None:
            raise RuntimeError(f"{mem.label}: no non-degenerate combination in {EIGH_TRIES} tries")
        for col in range(vecs.shape[1]):
            anchor = vecs[np.argmax(np.abs(vecs[:, col])), col]
            vecs[:, col] *= anchor.conjugate() / abs(anchor)
        bases.append(vecs)
    return bases


def check_mub_overlaps(
    bases: list[np.ndarray], tol: float = DEFAULT_TOL, labels: list[str] | None = None
) -> VerificationReport:
    """Pass iff every basis is orthonormal and all cross overlaps satisfy
    | |<x, z>|^2 - 1/d | <= tol."""
    if not bases:
        raise ValueError("no bases to check")
    labels = labels if labels is not None else [f"basis {i}" for i in range(len(bases))]
    d = bases[0].shape[0]
    eye = np.eye(d)
    failures = []
    worst = 0.0
    checks = 0
    for i, u in enumerate(bases):
        checks += 1
        resid = float(np.abs(u.conj().T @ u - eye).max())
        worst = max(worst, resid)
        if resid > tol:
            failures.append((labels[i], f"not orthonormal: residual {resid:.3e}"))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            checks += 1
            overlap = np.abs(bases[i].conj().T @ bases[j]) ** 2
            resid = float(np.abs(overlap - 1.0 / d).max())
            worst = max(worst, resid)
            if resid > tol:
                failures.append(
                    (f"{labels[i]} & {labels[j]}", f"unbiasedness residual {resid:.3e}")
                )
    return VerificationReport(
        passed=not failures, checks_run=checks, max_residual=worst, failures=failures
    )


def extract_and_check_mub(
    masas: SpreadFamily, tol: float = DEFAULT_TOL, *, seed: int = 0
) -> VerificationReport:
    """Extract one orthonormal basis per masa member and check mutual
    unbiasedness of the whole collection."""
    if any(mem.kind != MASA for mem in masas.members):
        raise ValueError("all members must be masas")
    bases = extract_mub_bases(masas, seed=seed)
    return check_mub_overlaps(bases, tol, masas.labels())
