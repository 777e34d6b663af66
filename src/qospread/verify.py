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


def _worse(worst: float, resid: float) -> float:
    """The larger residual, NaN once either is NaN (``max`` would drop it)."""
    return float(np.maximum(worst, resid))


def verify_qo_numeric(
    family: SpreadFamily, tol: float = DEFAULT_TOL, *, sample_pairs: int | None = None, seed: int = 0
) -> VerificationReport:
    """Evaluate the trace condition on dense matrices, pair by pair.

    For every examined pair of members and every pair (A1, A2) of their
    non-identity basis matrices, the residual is
    |Tr(A1 A2) - Tr(A1) Tr(A2) / Tr(I)|; the check passes iff the largest
    residual is finite and within ``tol``.  Above ``SAMPLE_THRESHOLD`` member
    pairs a random subset of ``SAMPLE_PAIRS`` pairs is used unless
    ``sample_pairs`` says otherwise.  Pairs are examined in sorted order, so
    the first member's stack is synthesized once for the whole run of pairs
    that start with it; the second member's stack is synthesized afresh for
    each pair.  At most two member stacks are alive at a time.
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
    row = flat1 = None
    for i, j in pairs:
        if i != row:
            flat1 = None  # drop the previous row member before synthesizing the next
            s1, tr1 = _member_stack(family.members[i].subspace)
            flat1 = s1.transpose(0, 2, 1).reshape(len(s1), -1)  # a copy: flat1[a] = vec(A_a^T)
            row, s1 = i, None
        s2, tr2 = _member_stack(family.members[j].subspace)
        cross = flat1 @ s2.reshape(len(s2), -1).T  # cross[a, b] = Tr(A_a B_b)
        s2 = None
        resid = np.abs(cross - np.outer(tr1, tr2) / dim)
        top = float(resid.max())
        worst = _worse(worst, top)
        if not top <= tol:
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
        worst = float(np.abs(gram - dim * np.eye(len(stack))).max())
        # the SVD behind the rank does not converge on NaN or inf entries
        covered = int(np.linalg.matrix_rank(gram, tol=1e-6)) if np.isfinite(worst) else 0
        if covered != expected:
            failures.append(("subspace", f"span dimension {covered}, expected {expected}"))
        if not worst <= max(tol, 1e-6):
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
    | |<x, z>|^2 - 1/d | <= tol, every residual being finite.

    One check per basis (orthonormality) and one per pair of bases.  For each
    basis U_i a single product U_i^* [U_i U_{i+1} ... U_{N-1}] gives its Gram
    block and the overlaps with every later basis; orthonormality failures are
    listed first, then pair failures in (i, j) order.
    """
    if not bases:
        raise ValueError("no bases to check")
    labels = labels if labels is not None else [f"basis {i}" for i in range(len(bases))]
    d = bases[0].shape[0]
    eye = np.eye(d)
    columns = np.concatenate(bases, axis=1)  # basis j in columns j*d .. (j+1)*d - 1
    worst = 0.0
    own_failures, pair_failures = [], []
    for i, u in enumerate(bases):
        blocks = (u.conj().T @ columns[:, i * d:]).reshape(d, len(bases) - i, d)
        resid = float(np.abs(blocks[:, 0] - eye).max())
        worst = _worse(worst, resid)
        if not resid <= tol:
            own_failures.append((labels[i], f"not orthonormal: residual {resid:.3e}"))
        overlap = np.abs(blocks[:, 1:]) ** 2
        for j, resid in enumerate(np.abs(overlap - 1.0 / d).max(axis=(0, 2)).tolist(), i + 1):
            worst = _worse(worst, resid)
            if not resid <= tol:
                pair_failures.append(
                    (f"{labels[i]} & {labels[j]}", f"unbiasedness residual {resid:.3e}")
                )
    checks = len(bases) * (len(bases) + 1) // 2
    failures = own_failures + pair_failures
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
