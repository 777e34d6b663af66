"""Tests for the symbolic and numeric oracles and the masa/MUB bridge."""

import itertools
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest

import helpers
from helpers import (basis_matrices, c_members, counting_identity_holds, d_members, intersect_trivially,
                     verify_full_algebra)
from qospread import verify, weyl
from qospread.constructions import (
    MASA,
    MATRIX_ALGEBRA,
    ConstructionParams,
    SpreadFamily,
    build_masa_spread,
    build_recursive,
    build_spread_2,
)
from qospread.finite_field import is_prime
from qospread.phase_space import RowStacks, Subspace, _check_index_size, _nonzero_lines, span_enumerate
from qospread.report import _power
from qospread.verify import (
    check_mub_overlaps,
    expected_count,
    extract_mub_bases,
    verify_qo_numeric,
    verify_symbolic,
)
from qospread.weyl import _monomial_parts

P3 = ConstructionParams.create(3, 1, 2)
C10, C01 = c_members(P3, [(P3.field.one(), P3.field.zero()), (P3.field.zero(), P3.field.one())], False).subspaces()


def family(params, labels, kinds, subspaces):
    """The family of the given labels, kinds and subspaces, in order."""
    rows = RowStacks.lists(params.p, 2 * params.ambient_factors, [s.rows for s in subspaces])
    return SpreadFamily(params, labels=list(labels), kinds=list(kinds), rows=rows)


def span_parts(s):
    """The (target, values) parts of the monomials over every span point of ``s``."""
    return _monomial_parts(s.p, s.m, np.array([pt.coords for pt in span_enumerate(s)]))


# --- symbolic route -------------------------------------------------------------


def test_symbolic_passes_spread_2():
    rep = verify_symbolic(build_spread_2(P3))[0]
    assert rep.passed
    assert rep.checks_run >= 45


def test_symbolic_passes_recursive_n3():
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    assert len(fam.members) == 91
    assert verify_symbolic(fam)[0].passed


def test_symbolic_fails_on_duplicate():
    fam = family(P3, "ab", [MATRIX_ALGEBRA] * 2, [C10, C10])
    rep = verify_symbolic(fam)[0]
    assert not rep.passed
    assert rep.failures[0][0] == "a & b"
    assert rep.failures[-1] == ("family", "2 members, expected 10")  # the member count is always checked, last


def test_symbolic_fails_on_isotropic_matrix_member():
    fam = family(P3, ["bad"], [MATRIX_ALGEBRA], [C01])
    rep = verify_symbolic(fam)[0]
    assert not rep.passed
    assert "isotropic" in rep.failures[0][1]


def test_symbolic_fails_on_wrong_count():
    fam = build_spread_2(P3)
    short = family(fam.params, fam.labels()[:-1], fam.kinds()[:-1], fam.rows.subspaces()[:-1])
    rep = verify_symbolic(short)[0]
    assert not rep.passed
    assert any("expected 10" in detail for _, detail in rep.failures)


def test_symbolic_passes_masa_spread():
    assert verify_symbolic(build_masa_spread(P3))[0].passed


def test_oracles_canonicalise_the_rows_they_are_given():
    """B = span{e1, e3} stored as [2 e1, e3], not its canonical basis, beside
    A = span{e1, e2}: both oracles give the verdicts of the canonical rows, so
    the shared point e1 is found (read as stored, B's lines are not normalised
    and no point is shared)."""
    stored, canonical = (
        SpreadFamily(P3, labels=["A", "B"], kinds=[MATRIX_ALGEBRA] * 2,
                     rows=RowStacks.lists(3, 4, [[(1, 0, 0, 0), (0, 1, 0, 0)], [(scale, 0, 0, 0), (0, 0, 1, 0)]]))
        for scale in (2, 1))
    assert stored.rows.canonical.tolist() == [True, False]
    rep, partition = verify_symbolic(stored)
    assert rep.failures[0] == ("A & B", "shared nonzero point (1, 0, 0, 0)")
    assert partition.describe().startswith("FAIL (checks=2, covered=14/80)")
    assert [r.describe() for r in verify_symbolic(stored)] == [r.describe() for r in verify_symbolic(canonical)]
    numeric = verify_qo_numeric(stored)
    assert not numeric.passed
    assert numeric.describe() == verify_qo_numeric(canonical).describe()
    assert numeric.max_residual == verify_qo_numeric(canonical).max_residual


# --- numeric route ---------------------------------------------------------------


def test_numeric_passes_spread_2_p3():
    rep = verify_qo_numeric(build_spread_2(P3))
    assert rep.passed
    assert rep.checks_run == 45
    assert rep.max_residual < 1e-9


def test_numeric_duplicate_family_hits_orthogonality_bound():
    fam = family(P3, "ab", [MATRIX_ALGEBRA] * 2, [C10, C10])
    rep = verify_qo_numeric(fam)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(9.0, abs=1e-6)


def test_numeric_dimension_guard():
    fam = build_recursive(ConstructionParams.create(3, 1, 5))
    with pytest.raises(ValueError, match="guard"):
        verify_qo_numeric(fam)


def test_power_is_exact_below_the_print_bound_and_text_past_it():
    assert _power(3, 80) == 3**80 and _power(2**61 - 1, 2) == (2**61 - 1) ** 2
    assert _power(3, 81) == "3^81"  # 3^81 > 2^128
    assert _power(2**521 - 1, 1) == 2**521 - 1  # p itself is always a number
    assert _power(2**521 - 1, 2) == f"{2**521 - 1}^2"
    start = time.perf_counter()
    assert _power(3, 10**18) == f"3^{10**18}"
    with pytest.raises(ValueError, match=r"^dimension 3\^1000000000000 exceeds guard 81$"):
        verify._numeric_dim(3, 10**12)
    assert time.perf_counter() - start < 1.0


def test_symbolic_implies_numeric_n3_full_pairwise():
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    assert verify_symbolic(fam)[0].passed
    pair_count = 91 * 90 // 2
    rep = verify_qo_numeric(fam, 1e-9, sample_pairs=pair_count)
    assert rep.passed
    assert rep.checks_run == pair_count
    assert rep.max_residual < 1e-9


def test_numeric_sampling_is_deterministic():
    fam = build_recursive(ConstructionParams.create(3, 1, 4))
    r1 = verify_qo_numeric(fam, sample_pairs=50, seed=7)
    r2 = verify_qo_numeric(fam, sample_pairs=50, seed=7)
    assert r1.max_residual == r2.max_residual
    assert r1.checks_run == 50


def test_numeric_memory_stays_bounded(monkeypatch):
    """The default 200-pair run at d = 81 reads parts only: no dense member
    stack (8.4 MB each) is synthesized, and the peak stays under 4 MB."""
    def no_dense(*args):
        raise AssertionError("the numeric oracle synthesized a dense stack")

    fam = build_spread_2(ConstructionParams.create(3, 2, 2))
    monkeypatch.setattr(weyl, "_monomial_stack", no_dense)
    tracemalloc.start()
    try:
        rep = verify_qo_numeric(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checks_run == 200
    assert peak < 4 * 10**6


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sparse_cross_traces_equal_dense_products(p):
    """Random planes of Z_p^4, meeting or not: ``_cross_traces`` over both
    members' parts equals the dense cross[a, b] = flat(A_a) . flat(B_b^T),
    the traces Tr(A_a) = cross[a, 0] and Tr(B_b) = cross[0, b] included."""
    rng = random.Random(p)
    nonzero = 0
    for trial in range(20):
        a, b = random_plane(rng, p), random_plane(rng, p)
        if trial % 2:  # a plane through a's first row: the pair meets
            b = Subspace.from_generators(p, 2, [a.rows[0], b.rows[0]])
        sparse = verify._cross_traces(*span_parts(a))(*span_parts(b))  # identities included
        s1, s2 = basis_matrices(a), basis_matrices(b)
        dense = s1.reshape(len(s1), -1) @ s2.transpose(0, 2, 1).reshape(len(s2), -1).T
        assert np.abs(sparse - dense).max() <= 1e-12
        nonzero += int((np.abs(dense[1:, 1:]) > 0.5).sum())
    assert nonzero > 0  # where the planes meet, some non-identity traces are p^2 in size


def test_numeric_sampling_does_not_list_the_pairs():
    """2,000 random members of Z_3^6 (1,999,000 pairs): five sampled pairs must
    not cost a list of every pair, which alone takes over 100 MB."""
    rng = random.Random(2000)
    members = [Subspace.from_generators(3, 3, [[rng.randrange(3) for _ in range(6)] for _ in range(2)])
               for _ in range(2000)]
    fam = family(ConstructionParams.create(3, 1, 3), [f"M{i}" for i in range(2000)], [MATRIX_ALGEBRA] * 2000, members)
    tracemalloc.start()
    try:
        rep = verify_qo_numeric(fam, sample_pairs=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.checks_run == 5
    assert peak < 10 * 10**6


def test_numeric_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="positive"):
        verify_qo_numeric(build_spread_2(P3), tol=0.0)


def test_numeric_residual_matches_plain_loop_oracle():
    from qospread.weyl import WeylMonomial, synthesize

    fam = build_spread_2(P3)
    rep = verify_qo_numeric(fam)
    worst = 0.0
    for i in range(10):
        for j in range(i + 1, 10):
            m1 = [synthesize(WeylMonomial(pt))
                  for pt in span_enumerate(fam.members[i].subspace) if any(pt.coords)]
            m2 = [synthesize(WeylMonomial(pt))
                  for pt in span_enumerate(fam.members[j].subspace) if any(pt.coords)]
            for a in m1:
                for b in m2:
                    worst = max(worst, abs(np.trace(a @ b) - np.trace(a) * np.trace(b) / 9))
    assert worst == pytest.approx(rep.max_residual, abs=1e-12)


def _numeric_per_pair(family, tol, pairs):
    """The oracle as a plain per-pair loop: both stacks synthesized for every pair."""
    dim = family.params.p**family.params.ambient_factors
    worst, failures = 0.0, []
    for i, j in pairs:
        s1, s2 = (basis_matrices(family.members[x].subspace)[1:] for x in (i, j))
        tr1, tr2 = np.einsum("aii->a", s1), np.einsum("aii->a", s2)
        cross = s1.reshape(len(s1), -1) @ s2.transpose(0, 2, 1).reshape(len(s2), -1).T
        top = float(np.abs(cross - np.outer(tr1, tr2) / dim).max())
        worst = max(worst, top)
        if not top <= tol:
            failures.append(
                (f"{family.members[i].label} & {family.members[j].label}",
                 f"trace-condition residual {top:.3e} exceeds tol {tol:.1e}")
            )
    return worst, failures


@pytest.mark.parametrize("k,n,sample,seed,dup", [
    pytest.param(1, 3, 4095, 0, (5, 40), id="4095-0"),
    pytest.param(1, 3, 200, 3, (5, 40), id="200-3"),
    pytest.param(2, 2, 20, 0, (24, 45), id="k2-20-0"),  # d = 81; (24, 45) is a sampled pair
])
def test_numeric_row_reuse_matches_per_pair_loop(k, n, sample, seed, dup):
    """p=3, n=3 with member 40 given member 5's rows, and p=3, k=2, n=2 with
    member 45 given member 24's rows: the same pairs, failures and residual
    scale as synthesizing both dense stacks for every pair."""
    fam = build_recursive(ConstructionParams.create(3, k, n))
    members = list(fam.members)
    src, dst = dup
    subspaces = fam.rows.subspaces()
    subspaces[dst] = subspaces[src]
    fam = family(fam.params, fam.labels(), fam.kinds(), subspaces)
    rep = verify_qo_numeric(fam, 1e-9, sample_pairs=sample, seed=seed)
    all_pairs = list(itertools.combinations(range(len(members)), 2))
    if sample < len(all_pairs):
        idx = np.random.default_rng(seed).choice(len(all_pairs), size=sample, replace=False)
        all_pairs = [all_pairs[i] for i in sorted(idx)]
    worst, failures = _numeric_per_pair(fam, 1e-9, all_pairs)
    assert rep.checks_run == len(all_pairs) == sample
    assert rep.failures == failures
    assert rep.passed == (not failures)
    assert rep.max_residual == pytest.approx(worst, abs=1e-12)
    if sample == 4095:
        assert [who for who, _ in failures] == [f"{members[5].label} & {members[40].label}"]
    if k == 2:
        assert [who for who, _ in failures] == [f"{members[24].label} & {members[45].label}"]


def _sparse_per_pair(family, tol, pairs):
    """The sparse oracle one pair at a time: both members' parts synthesized and
    traced for every pair."""
    dim = family.params.p**family.params.ambient_factors
    worst, failures = 0.0, []
    for i, j in pairs:
        a, b = (span_parts(family.members[x].subspace) for x in (i, j))
        cross = verify._cross_traces(*a)(*b)
        top = float(np.abs(cross[1:, 1:] - np.outer(cross[1:, 0], cross[0, 1:]) / dim).max(initial=0.0))
        worst = float(np.maximum(worst, top))
        if not top <= tol:
            failures.append((f"{family.members[i].label} & {family.members[j].label}",
                             f"trace-condition residual {top:.3e} exceeds tol {tol:.1e}"))
    return worst, failures


@pytest.mark.parametrize("k,n,sample,tol", [(1, 3, 4095, 1e-14), (2, 2, 300, 4e-14)], ids=["d27-all", "d81-300"])
def test_batched_numeric_equals_pair_by_pair_bit_for_bit(k, n, sample, tol):
    """Partners synthesized and traced a batch at a time give every pair the
    residual of a pair-by-pair run: the same max_residual bits, and at a tol
    inside the spread of the residuals the same failures, in the same order
    and digits."""
    fam = build_recursive(ConstructionParams.create(3, k, n))
    pairs = list(itertools.combinations(range(len(fam.members)), 2))
    if sample < len(pairs):
        pairs = [pairs[i] for i in sorted(np.random.default_rng(5).choice(len(pairs), size=sample, replace=False))]
    rep = verify_qo_numeric(fam, tol, sample_pairs=sample, seed=5)
    worst, failures = _sparse_per_pair(fam, tol, pairs)
    assert rep.checks_run == len(pairs) == sample
    assert rep.failures == failures and 0 < len(failures) < len(pairs)
    assert np.float64(rep.max_residual).view(np.int64) == np.float64(worst).view(np.int64)


def test_numeric_nan_parts_fail(monkeypatch):
    """NaN residuals are failures and make max_residual NaN (nan > tol is False).

    A NaN value in a member's parts fails every pair it is part of, as
    0 * NaN does in a dense product, even where no entry of the other member
    meets it.  Ten planes of Z_3^6 spanned by (shift D, clock 0) and
    (shift 0, clock D), one direction D each: pairwise trivial, so they pass
    clean.  A NaN value goes at a shifted monomial; no monomial of another
    plane has the opposite shift, so no entry of the other member meets it."""
    directions = [v for v in itertools.product(range(3), repeat=3) if any(v) and v[np.flatnonzero(v)[0]] == 1]
    planes = [Subspace.from_generators(3, 3, [sum(([c, 0] for c in dirn), []), sum(([0, c] for c in dirn), [])])
              for dirn in directions[:10]]
    fam = family(ConstructionParams.create(3, 1, 3), [f"P{i}" for i in range(10)], [MATRIX_ALGEBRA] * 10, planes)
    assert verify_qo_numeric(fam).passed
    shifted = [int(np.flatnonzero(span_parts(sub)[0][:, 0])[0]) for sub in planes]  # target[a, 0] != 0
    for i, j in itertools.permutations(range(10), 2):
        t1, t2 = span_parts(planes[i])[0], span_parts(planes[j])[0]
        x = t1[shifted[i], 0]  # the NaN of plane i sits at (x, 0), off the diagonal
        assert x != 0 and not (t2[:, x] == 0).any()  # B_b[0, x] = 0 for every b: no hit reads it
    member_parts = verify._member_parts

    def nan_in(poisoned):
        def nan_parts_of(rows):
            parts = member_parts(rows)

            def nan_parts(positions):  # the parts of several members, nine matrices each
                target, values = parts(positions)
                values = values.copy()
                for at, i in enumerate(positions):
                    if i in poisoned:
                        values[9 * at + shifted[i], 0] = np.nan
                return target, values
            return nan_parts
        return nan_parts_of

    # every member but the last, so every pair has a NaN in its row member
    monkeypatch.setattr(verify, "_member_parts", nan_in(range(9)))
    rep = verify_qo_numeric(fam)
    assert not rep.passed
    assert rep.checks_run == len(rep.failures) == 45
    assert all("residual nan" in detail for _, detail in rep.failures)
    assert np.isnan(rep.max_residual)
    assert "max_residual=nan" in rep.describe()

    # the last member only, which is never a row member: the nine pairs with it
    # fail, and the partners synthesized and traced with it in one call pass
    monkeypatch.setattr(verify, "_member_parts", nan_in([9]))
    rep = verify_qo_numeric(fam)
    assert [who for who, _ in rep.failures] == [f"P{i} & P9" for i in range(9)]
    assert all("residual nan" in detail for _, detail in rep.failures)

    # one NaN value in every member, off the diagonal, fails every pair too
    def nan_last_of(rows):
        parts = member_parts(rows)

        def nan_last(positions):
            target, values = parts(positions)
            values = values.copy()
            last = values.reshape(len(positions), -1, values.shape[1])[:, -1]  # each member's last matrix
            last[:, -1] = np.nan
            assert (target.reshape(len(positions), -1, values.shape[1])[:, -1, -1] != values.shape[1] - 1).all()
            return target, values  # so only the cross trace can see it
        return nan_last

    monkeypatch.setattr(verify, "_member_parts", nan_last_of)
    rep = verify_qo_numeric(build_spread_2(P3))
    assert not rep.passed
    assert rep.checks_run == len(rep.failures) == 45
    assert np.isnan(rep.max_residual)


def random_plane(rng, p=3):
    while True:
        gens = [tuple(rng.randrange(p) for _ in range(4)) for _ in range(2)]
        sub = Subspace.from_generators(p, 2, gens)
        if sub.dim == 2:
            return sub


def test_numeric_agrees_with_symbolic_reduction():
    """Trace-condition residuals vanish iff the subspaces meet only in 0."""
    rng = random.Random(42)
    seen_trivial = seen_shared = 0
    while seen_trivial < 50 or seen_shared < 50:
        a, b = random_plane(rng), random_plane(rng)
        fam = family(P3, "ab", [MATRIX_ALGEBRA] * 2, [a, b])
        rep = verify_qo_numeric(fam)
        if intersect_trivially(a, b):
            seen_trivial += 1
            assert rep.passed
        else:
            seen_shared += 1
            assert not rep.passed


# --- full-algebra certification ----------------------------------------------------


def test_full_algebra_c10():
    assert verify_full_algebra(C10).passed
    rep = verify_full_algebra(C10, numeric=True)
    assert rep.passed
    assert rep.covered == rep.expected == 9


def test_full_algebra_rejects_commutative_span():
    rep = verify_full_algebra(C01)
    assert not rep.passed
    assert "isotropic" in rep.failures[0][1]


def test_full_algebra_gf9_d_member():
    params = ConstructionParams.create(3, 2, 2)
    [sub] = d_members(params, [params.field.element((0, 1))], infinity=False).subspaces()
    rep = verify_full_algebra(sub, numeric=True)
    assert rep.passed
    assert rep.covered == rep.expected == 81


def test_full_algebra_nan_stack_fails(monkeypatch):
    monkeypatch.setattr(helpers, "basis_matrices", lambda s: np.full_like(basis_matrices(s), np.nan))
    rep = verify_full_algebra(C10, numeric=True)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    assert any("not trace-orthogonal" in detail for _, detail in rep.failures)

# --- masa extraction and unbiasedness ------------------------------------------------


def test_mub_extraction_p3():
    masas = build_masa_spread(P3)
    bases = extract_mub_bases(masas)
    assert len(bases) == 10
    assert all(b.shape == (9, 9) for b in bases)
    rep = check_mub_overlaps(bases, 1e-9, masas.labels())
    assert rep.passed
    assert rep.max_residual < 1e-9


def test_mub_extraction_is_deterministic():
    masas = build_masa_spread(P3)
    b1 = extract_mub_bases(masas)
    b2 = extract_mub_bases(masas)
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)


EIGH_TRIES = 32
EIGENVALUE_GAP = 1e-6


def extract_mub_bases_reference(masas):
    """The extraction as it was first written: a dense stack per member, a
    random Hermitian combination of it diagonalised by ``eigh``, retried on a
    near-degenerate spectrum, and column phases fixed one at a time."""
    rng = np.random.default_rng(0)
    bases = []
    for mem in masas.members:
        mats = basis_matrices(mem.subspace)
        vecs = None
        for _ in range(EIGH_TRIES):
            coeff = rng.normal(size=len(mats)) + 1j * rng.normal(size=len(mats))
            combo = sum(c * m for c, m in zip(coeff, mats))
            vals, cand = np.linalg.eigh(combo + combo.conj().T)
            if np.diff(vals).min() > EIGENVALUE_GAP:
                vecs = cand
                break
        for col in range(vecs.shape[1]):
            anchor = vecs[np.argmax(np.abs(vecs[:, col])), col]
            vecs[:, col] *= anchor.conjugate() / abs(anchor)
        bases.append(vecs)
    return bases


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_mub_extraction_matches_dense_reference(p, k):
    """The same bases as the eigensolver's, up to column order and phase:
    |U^* U_ref| is a permutation matrix whose ones are 1 within 1e-12.

    The entries off the permutation are eigh's own error, eps |H| / gap, up
    to 4e-11 here with gaps near EIGENVALUE_GAP; the matched ones are
    |<x, y>| = sqrt(1 - that^2), so 1 - |<x, y>| measures the match.
    """
    masas = build_masa_spread(ConstructionParams.create(p, k, 2))
    bases = extract_mub_bases(masas)
    want = extract_mub_bases_reference(masas)
    assert len(bases) == len(want) == p ** (2 * k) + 1
    for u, ref in zip(bases, want):
        overlap = np.abs(u.conj().T @ ref)
        perm = np.round(overlap)
        assert np.array_equal(perm.sum(axis=0), np.ones(len(u)))
        assert np.array_equal(perm.sum(axis=1), np.ones(len(u)))
        assert np.abs(overlap[perm == 1] - 1).max() <= 1e-12
        assert overlap[perm == 0].max() <= 1e-9


def _eigen_residual(basis, sub):
    """max over the monomials M_u of the span and the columns v of the basis of
    |M_u v - (v^* M_u v) v|, with M_u applied entry by entry from its parts."""
    target, values = span_parts(sub)
    images = np.zeros((len(target),) + basis.shape, dtype=complex)
    images[np.arange(len(target))[:, None], target] = values[:, :, None] * basis
    eigenvalues = np.einsum("xc,axc->ac", basis.conj(), images)
    return float(np.abs(images - basis * eigenvalues[:, None]).max())


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_mub_basis_diagonalises_its_own_masa(p, k):
    """Each basis is an eigenbasis of every monomial of its member, and of no
    other member's: a basis paired with the wrong masa is caught."""
    masas = build_masa_spread(ConstructionParams.create(p, k, 2))
    bases = extract_mub_bases(masas)
    for basis, mem in zip(bases, masas.members):
        assert _eigen_residual(basis, mem.subspace) <= 1e-12
    assert _eigen_residual(bases[0], masas.members[1].subspace) >= 0.1


def test_mub_single_basis_trivially_unbiased():
    masas = build_masa_spread(P3)
    solo = family(P3, masas.labels()[:1], masas.kinds()[:1], masas.rows.subspaces()[:1])
    rep = check_mub_overlaps(extract_mub_bases(solo), labels=solo.labels())
    assert rep.passed
    assert rep.checks_run == 1  # orthonormality only, no cross pairs


def test_mub_rejects_non_isotropic_member():
    fam = family(P3, ["bad"], [MASA], [C10])
    with pytest.raises(ValueError, match="^bad: subspace is not isotropic"):
        extract_mub_bases(fam)


def test_mub_rejects_non_maximal_isotropic_member(monkeypatch):
    """A 1-dim member of Z_3^4 commutes but is no masa: refused before synthesis."""
    sub = Subspace.from_generators(3, 2, [(1, 0, 0, 0)])
    fam = family(P3, ["short"], [MASA], [sub])

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized a rejected member")

    monkeypatch.setattr(verify, "_monomial_parts", no_synthesis)
    monkeypatch.setattr(verify, "_spans", no_synthesis)
    with pytest.raises(ValueError, match="not isotropic of dimension 2"):
        extract_mub_bases(fam)


def test_mub_rejects_matrix_algebra_kind():
    # the matrix-algebra members are nondegenerate, so no masa: the first one is named
    with pytest.raises(ValueError, match=r"^C\[1,0\]: subspace is not isotropic of dimension 2$"):
        extract_mub_bases(build_spread_2(P3))


def _overlaps_per_pair(bases, tol, labels):
    """The overlap check as a plain per-basis, then per-pair, loop."""
    d = bases[0].shape[0]
    failures, worst, checks = [], 0.0, 0
    for i, u in enumerate(bases):
        checks += 1
        resid = float(np.abs(u.conj().T @ u - np.eye(d)).max())
        worst = max(worst, resid)
        if not resid <= tol:
            failures.append((labels[i], f"not orthonormal: residual {resid:.3e}"))
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            checks += 1
            resid = float(np.abs(np.abs(bases[i].conj().T @ bases[j]) ** 2 - 1.0 / d).max())
            worst = max(worst, resid)
            if not resid <= tol:
                failures.append((f"{labels[i]} & {labels[j]}", f"unbiasedness residual {resid:.3e}"))
    return checks, failures, worst


def _assert_overlaps_match_per_pair(bases, labels):
    rep = check_mub_overlaps(bases, 1e-9, labels)
    checks, failures, worst = _overlaps_per_pair(bases, 1e-9, labels)
    assert rep.checks_run == checks
    assert [who for who, _ in rep.failures] == [who for who, _ in failures]
    assert [float(what.split()[-1]) for _, what in rep.failures] == pytest.approx(
        [float(what.split()[-1]) for _, what in failures], abs=1e-12)
    assert rep.passed == (not failures)
    assert rep.max_residual == pytest.approx(worst, abs=1e-12)
    return rep


def test_mub_overlaps_match_per_pair_loop_with_repeated_basis():
    masas = build_masa_spread(ConstructionParams.create(3, 2, 2))
    bases = extract_mub_bases(masas)
    bases[57] = bases[12]
    rep = _assert_overlaps_match_per_pair(bases, masas.labels())
    assert rep.checks_run == 82 * 83 // 2
    assert [who for who, _ in rep.failures] == [f"{masas.labels()[12]} & {masas.labels()[57]}"]


def test_mub_overlaps_match_per_pair_loop_past_the_failure_cap():
    """Seven copies of one basis (21 failing pairs) and a scaled basis that is
    not orthonormal: the "... and N more failures" line is reached."""
    masas = build_masa_spread(P3)
    bases = extract_mub_bases(masas)
    bases[1:7] = [bases[0]] * 6
    bases[8] = 2 * bases[8]
    rep = _assert_overlaps_match_per_pair(bases, masas.labels())
    assert rep.failures[0][1].startswith("not orthonormal")
    assert len(rep.failures) > 20
    assert rep.describe().endswith(f"... and {len(rep.failures) - 20} more failures")


def _entrywise_unbiasedness(size, d):
    """max | s^2 - 1/d | entry by entry, then per slice size[:, j, :]."""
    return np.abs(size**2 - 1.0 / d).max(axis=(0, 2))


def _entrywise_overlap_check(bases, tol, labels):
    """``check_mub_overlaps`` with every pair residual read entry by entry:
    the same products, |z| of the later bases' blocks only."""
    d = bases[0].shape[0]
    columns = np.concatenate(bases, axis=1)
    worst, own_failures, pair_failures = 0.0, [], []
    for i, u in enumerate(bases):
        blocks = (u.conj().T @ columns[:, i * d:]).reshape(d, len(bases) - i, d)
        resid = float(np.abs(blocks[:, 0] - np.eye(d)).max())
        worst = float(np.maximum(worst, resid))
        if not resid <= tol:
            own_failures.append((labels[i], f"not orthonormal: residual {resid:.3e}"))
        resid = _entrywise_unbiasedness(np.abs(blocks[:, 1:]), d)
        worst = float(np.max(resid, initial=worst))
        pair_failures += [(f"{labels[i]} & {labels[i + 1 + j]}", f"unbiasedness residual {resid[j]:.3e}")
                          for j in np.flatnonzero(~(resid <= tol)).tolist()]
    return own_failures + pair_failures, worst


def _perturbed_bases(rng):
    """The d = 9 bases with zeros, NaN, +-inf, rescaled columns and noise put in."""
    bases = extract_mub_bases(build_masa_spread(P3))
    bases[1][:, 3] = 0
    bases[2][4, 4] = np.nan
    bases[3][0, 0] = np.inf
    bases[4][2, 7] = complex(-np.inf, 1.0)
    bases[5][:, 1] *= 1 + 1e-6
    bases[6] = bases[6] + 1e-9 * rng.standard_normal((9, 9))
    bases[7] = bases[0]
    bases[8][5, 5] = complex(0.0, np.nan)
    return bases


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unbiasedness_equals_the_entrywise_formula_bit_for_bit():
    """The residual from the extrema of |z| is the entry-wise maximum bit for bit
    (int64 view, NaN and inf included), on raw overlaps and through
    check_mub_overlaps, whose failure list and max_residual are unchanged."""
    rng = np.random.default_rng(16)
    for d in (3, 9, 81):
        z = (rng.standard_normal((d, 7, d)) + 1j * rng.standard_normal((d, 7, d))) / np.sqrt(2 * d)
        z[:, 1] = np.exp(2j * np.pi * rng.random((d, d))) / np.sqrt(d)  # unbiased up to rounding
        z[0, 2, 0], z[1, 3, 1], z[2, 4, 2], z[:, 5] = 0, np.nan, complex(np.inf, 0), 0
        z[d - 1, 6, d - 1] = complex(0, -np.inf)
        size = np.abs(z)
        assert np.array_equal(verify._unbiasedness(size, d).view(np.int64), _entrywise_unbiasedness(size, d).view(np.int64))
    d81 = extract_mub_bases(build_masa_spread(ConstructionParams.create(3, 2, 2)))
    for bases, failing in ((_perturbed_bases(rng), 50), (d81, 0)):  # 50 of the 55 checks fail
        labels = [f"B{i}" for i in range(len(bases))]
        rep = check_mub_overlaps(bases, 1e-9, labels)
        failures, worst = _entrywise_overlap_check(bases, 1e-9, labels)
        assert rep.failures == failures and len(failures) == failing
        assert np.float64(rep.max_residual).view(np.int64) == np.float64(worst).view(np.int64)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mub_overlaps_non_finite_basis_fails(bad):
    """nan > tol and max(0.0, nan) both hide a NaN; the check must not."""
    rep = check_mub_overlaps([np.eye(3), np.full((3, 3), bad)], 1e-9)
    assert not rep.passed
    assert rep.checks_run == 3
    assert [who for who, _ in rep.failures] == ["basis 1", "basis 0 & basis 1"]
    assert np.isnan(rep.max_residual)
    assert "max_residual=nan" in rep.describe()


def _pin_cpus(monkeypatch, workers):
    """Make check_mub_overlaps see ``workers`` CPUs, and list the threads it starts."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(verify.threading, "Thread", Thread)
    return started


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2, 5])
def test_mub_overlaps_do_not_depend_on_the_worker_count(monkeypatch, workers):
    """Rows dealt to 1, 2 or 5 threads merge into the per-pair loop's checks and
    failures, in its order, and into the serial loop's report bit for bit."""
    started = _pin_cpus(monkeypatch, workers)
    d81 = extract_mub_bases(build_masa_spread(ConstructionParams.create(3, 2, 2)))
    d81[81], d81[60], d81[45] = d81[2], d81[30], 2 * d81[45]  # failing pairs in rows 2, 30, 0 .. 45
    for bases, failing in ((d81, 84), (_perturbed_bases(np.random.default_rng(24)), 50)):
        labels = [f"B{i}" for i in range(len(bases))]
        rep = check_mub_overlaps(bases, 1e-9, labels)
        checks, failures, _ = _overlaps_per_pair(bases, 1e-9, labels)
        assert rep.checks_run == checks
        assert [who for who, _ in rep.failures] == [who for who, _ in failures] and len(failures) == failing
        failures, worst = _entrywise_overlap_check(bases, 1e-9, labels)
        assert rep.failures == failures
        assert np.float64(rep.max_residual).view(np.int64) == np.float64(worst).view(np.int64)
    assert len(started) == 2 * (workers - 1)


@pytest.mark.parametrize("workers", [2, 5])
def test_mub_overlaps_run_large_rows_beside_small_ones(monkeypatch, workers):
    """The calling thread takes rows 0, 1, ... and the other threads take rows
    from the back, so a large row runs beside smaller ones."""
    _pin_cpus(monkeypatch, workers)
    unbiasedness, taken = verify._unbiasedness, {}

    def record(size, d):  # row i of ten bases has 9 - i later ones
        taken[9 - size.shape[1]] = threading.current_thread() is threading.main_thread()
        time.sleep(0.01)
        return unbiasedness(size, d)

    monkeypatch.setattr(verify, "_unbiasedness", record)
    assert check_mub_overlaps(extract_mub_bases(build_masa_spread(P3))).passed
    front = sorted(i for i, by_caller in taken.items() if by_caller)
    assert sorted(taken) == list(range(10)) and front == list(range(len(front))) and 0 < len(front) < 10


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("row", [0, 1])
def test_mub_overlaps_raise_what_a_worker_raises(monkeypatch, workers, row):
    """An exception in any row, in the calling thread or another, reaches the
    caller only once every thread has ended, however long the other rows take."""
    _pin_cpus(monkeypatch, workers)
    unbiasedness = verify._unbiasedness

    def fail_on_one_row(size, d):  # row i of ten bases has 9 - i later ones
        if size.shape[1] == 9 - row:
            raise RuntimeError(f"row {row}")
        time.sleep(0.02)
        return unbiasedness(size, d)

    monkeypatch.setattr(verify, "_unbiasedness", fail_on_one_row)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"row {row}"):
        check_mub_overlaps(extract_mub_bases(build_masa_spread(P3)))
    assert threading.active_count() == before


def test_projector_trace_equals_overlap_squared():
    """The bridge identity: Tr(P Q) for rank-one projectors equals |<x,z>|^2,
    so quasi-orthogonality of the projector algebras is unbiasedness."""
    masas = build_masa_spread(P3)
    u, v = extract_mub_bases(masas)[:2]
    d = u.shape[0]
    for i, j in itertools.product(range(3), range(3)):
        proj_u = np.outer(u[:, i], u[:, i].conj())
        proj_v = np.outer(v[:, j], v[:, j].conj())
        tr = np.trace(proj_u @ proj_v).real
        overlap = abs(np.vdot(u[:, i], v[:, j])) ** 2
        assert tr == pytest.approx(overlap, abs=1e-12)
        assert tr == pytest.approx(1.0 / d, abs=1e-9)


# --- counting -------------------------------------------------------------------------


def test_expected_count_values():
    assert expected_count(3, 1, 2) == 10
    assert expected_count(5, 1, 2) == 26
    assert expected_count(3, 2, 2) == 82
    assert expected_count(3, 1, 3) == 91
    assert expected_count(3, 1, 4) == 820
    for p in (3, 5, 7, 11):
        assert expected_count(p, 1, 1) == 1
        assert expected_count(p, 2, 1) == 1


def test_expected_count_rejects_bad_input():
    with pytest.raises(ValueError):
        expected_count(4, 1, 2)
    with pytest.raises(ValueError):
        expected_count(3, 0, 2)
    with pytest.raises(ValueError):
        expected_count(3, 1, 0)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_counting_identity(p, k, n):
    assert counting_identity_holds(p, k, n)


def test_counting_identity_wherever_the_index_bound_admits():
    # pure arithmetic over every (p, k, n >= 3) that generate admits; p^(2kn) grows
    # with p, k and n, so each loop stops at its first refusal
    def admits(p, k, n):
        try:
            _check_index_size(_nonzero_lines(p, 2 * k * n))
        except ValueError:
            return False
        return True

    admitted = []
    for p in itertools.takewhile(lambda p: admits(p, 1, 3), filter(is_prime, itertools.count(3, 2))):
        for k in itertools.takewhile(lambda k: admits(p, k, 3), itertools.count(1)):
            admitted += [(p, k, n) for n in itertools.takewhile(lambda n: admits(p, k, n), itertools.count(3))]
    assert admitted == [(3, 1, 3), (3, 1, 4), (3, 1, 5), (3, 1, 6), (3, 1, 7), (3, 2, 3), (5, 1, 3), (5, 1, 4),
                        (5, 1, 5), (7, 1, 3), (7, 1, 4), (11, 1, 3), (13, 1, 3), (17, 1, 3), (19, 1, 3), (23, 1, 3)]
    for p, k, n in admitted:
        assert counting_identity_holds(p, k, n)


def test_counting_identity_needs_n3():
    with pytest.raises(ValueError):
        counting_identity_holds(3, 1, 2)
