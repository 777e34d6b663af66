"""Tests for the symbolic and numeric oracles and the masa/MUB bridge."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from qospread import verify
from qospread.constructions import (
    MASA,
    MATRIX_ALGEBRA,
    ConstructionParams,
    FamilyMember,
    SpreadFamily,
    build_C,
    build_masa_spread,
    build_recursive,
    build_spread_2,
)
from qospread.phase_space import Subspace, intersect_trivially
from qospread.verify import (
    check_mub_overlaps,
    counting_identity_holds,
    expected_count,
    extract_and_check_mub,
    extract_mub_bases,
    verify_full_algebra,
    verify_qo_numeric,
    verify_qo_symbolic,
)

P3 = ConstructionParams.create(3, 1, 2)


# --- symbolic route -------------------------------------------------------------


def test_symbolic_passes_spread_2():
    rep = verify_qo_symbolic(build_spread_2(P3))
    assert rep.passed
    assert rep.checks_run >= 45


def test_symbolic_passes_recursive_n3():
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    assert len(fam.members) == 91
    assert verify_qo_symbolic(fam).passed


def test_symbolic_fails_on_duplicate():
    sub = build_C(P3.field.one(), P3.field.zero(), P3)
    fam = SpreadFamily(
        P3,
        [FamilyMember("a", MATRIX_ALGEBRA, sub), FamilyMember("b", MATRIX_ALGEBRA, sub)],
        complete=False,
    )
    rep = verify_qo_symbolic(fam)
    assert not rep.passed
    assert rep.failures[0][0] == "a & b"


def test_symbolic_fails_on_isotropic_matrix_member():
    sub = build_C(P3.field.zero(), P3.field.one(), P3)
    fam = SpreadFamily(P3, [FamilyMember("bad", MATRIX_ALGEBRA, sub)], complete=False)
    rep = verify_qo_symbolic(fam)
    assert not rep.passed
    assert "isotropic" in rep.failures[0][1]


def test_symbolic_fails_on_wrong_count():
    fam = build_spread_2(P3)
    short = SpreadFamily(fam.params, fam.members[:-1], complete=True)
    rep = verify_qo_symbolic(short)
    assert not rep.passed
    assert any("expected 10" in detail for _, detail in rep.failures)


def test_symbolic_passes_masa_spread():
    assert verify_qo_symbolic(build_masa_spread(P3)).passed


# --- numeric route ---------------------------------------------------------------


def test_numeric_passes_spread_2_p3():
    rep = verify_qo_numeric(build_spread_2(P3))
    assert rep.passed
    assert rep.checks_run == 45
    assert rep.max_residual < 1e-9


def test_numeric_duplicate_family_hits_orthogonality_bound():
    sub = build_C(P3.field.one(), P3.field.zero(), P3)
    fam = SpreadFamily(
        P3,
        [FamilyMember("a", MATRIX_ALGEBRA, sub), FamilyMember("b", MATRIX_ALGEBRA, sub)],
        complete=False,
    )
    rep = verify_qo_numeric(fam)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(9.0, abs=1e-6)


def test_numeric_dimension_guard():
    fam = build_recursive(ConstructionParams.create(3, 1, 5))
    with pytest.raises(ValueError, match="guard"):
        verify_qo_numeric(fam)


def test_symbolic_implies_numeric_n3_full_pairwise():
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    assert verify_qo_symbolic(fam).passed
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


def test_numeric_memory_stays_bounded():
    """At most two member stacks are alive at once: one d=81 member stack is
    about 8.4 MB, so holding the stacks of 20 sampled pairs would need far
    more than the cap."""
    fam = build_spread_2(ConstructionParams.create(3, 2, 2))
    tracemalloc.start()
    try:
        rep = verify_qo_numeric(fam, sample_pairs=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checks_run == 20
    assert peak < 64 * 10**6


def test_numeric_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="positive"):
        verify_qo_numeric(build_spread_2(P3), tol=0.0)


def test_numeric_residual_matches_plain_loop_oracle():
    from qospread.phase_space import span_enumerate
    from qospread.weyl import WeylMonomial, synthesize

    fam = build_spread_2(P3)
    rep = verify_qo_numeric(fam)
    worst = 0.0
    for i in range(10):
        for j in range(i + 1, 10):
            m1 = [synthesize(WeylMonomial(pt))
                  for pt in span_enumerate(fam.members[i].subspace) if not pt.is_zero]
            m2 = [synthesize(WeylMonomial(pt))
                  for pt in span_enumerate(fam.members[j].subspace) if not pt.is_zero]
            for a in m1:
                for b in m2:
                    worst = max(worst, abs(np.trace(a @ b) - np.trace(a) * np.trace(b) / 9))
    assert worst == pytest.approx(rep.max_residual, abs=1e-12)


def _numeric_per_pair(family, tol, pairs):
    """The oracle as a plain per-pair loop: both stacks synthesized for every pair."""
    dim = family.params.p**family.params.ambient_factors
    worst, failures = 0.0, []
    for i, j in pairs:
        s1, tr1 = verify._member_stack(family.members[i].subspace)
        s2, tr2 = verify._member_stack(family.members[j].subspace)
        cross = s1.reshape(len(s1), -1) @ s2.transpose(0, 2, 1).reshape(len(s2), -1).T
        top = float(np.abs(cross - np.outer(tr1, tr2) / dim).max())
        worst = max(worst, top)
        if not top <= tol:
            failures.append(
                (f"{family.members[i].label} & {family.members[j].label}",
                 f"trace-condition residual {top:.3e} exceeds tol {tol:.1e}")
            )
    return worst, failures


@pytest.mark.parametrize("sample,seed", [(4095, 0), (200, 3)])
def test_numeric_row_reuse_matches_per_pair_loop(sample, seed):
    """p=3, n=3 with member 40 given member 5's rows: the same pairs, failures
    and residual scale as synthesizing both stacks for every pair."""
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    members = list(fam.members)
    members[40] = FamilyMember(members[40].label, members[40].kind, members[5].subspace)
    fam = SpreadFamily(fam.params, members, complete=False)
    rep = verify_qo_numeric(fam, 1e-9, sample_pairs=sample, seed=seed)
    all_pairs = list(itertools.combinations(range(91), 2))
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


def test_numeric_nan_stack_fails(monkeypatch):
    """NaN residuals are failures and make max_residual NaN (nan > tol is False)."""
    real = verify.basis_matrices
    monkeypatch.setattr(verify, "basis_matrices", lambda s, m: np.full_like(real(s, m), np.nan))
    rep = verify_qo_numeric(build_spread_2(P3))
    assert not rep.passed
    assert rep.checks_run == len(rep.failures) == 45
    assert np.isnan(rep.max_residual)
    assert "max_residual=nan" in rep.describe()


def random_plane(rng):
    while True:
        gens = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(2)]
        sub = Subspace.from_generators(3, 2, gens)
        if sub.dim == 2:
            return sub


def test_numeric_agrees_with_symbolic_reduction():
    """Trace-condition residuals vanish iff the subspaces meet only in 0."""
    rng = random.Random(42)
    seen_trivial = seen_shared = 0
    while seen_trivial < 50 or seen_shared < 50:
        a, b = random_plane(rng), random_plane(rng)
        fam = SpreadFamily(
            P3,
            [FamilyMember("a", MATRIX_ALGEBRA, a), FamilyMember("b", MATRIX_ALGEBRA, b)],
            complete=False,
        )
        rep = verify_qo_numeric(fam)
        if intersect_trivially(a, b):
            seen_trivial += 1
            assert rep.passed
        else:
            seen_shared += 1
            assert not rep.passed


# --- full-algebra certification ----------------------------------------------------


def test_full_algebra_c10():
    sub = build_C(P3.field.one(), P3.field.zero(), P3)
    assert verify_full_algebra(sub).passed
    rep = verify_full_algebra(sub, numeric=True)
    assert rep.passed
    assert rep.covered == rep.expected == 9


def test_full_algebra_rejects_commutative_span():
    sub = build_C(P3.field.zero(), P3.field.one(), P3)
    rep = verify_full_algebra(sub)
    assert not rep.passed
    assert "isotropic" in rep.failures[0][1]


def test_full_algebra_gf9_d_member():
    params = ConstructionParams.create(3, 2, 2)
    t = params.field.element((0, 1))
    from qospread.constructions import build_D

    sub = build_D(t, params)
    rep = verify_full_algebra(sub, numeric=True)
    assert rep.passed
    assert rep.covered == rep.expected == 81


def test_full_algebra_nan_stack_fails(monkeypatch):
    real = verify.basis_matrices
    monkeypatch.setattr(verify, "basis_matrices", lambda s, m: np.full_like(real(s, m), np.nan))
    rep = verify_full_algebra(build_C(P3.field.one(), P3.field.zero(), P3), numeric=True)
    assert not rep.passed
    assert np.isnan(rep.max_residual)
    assert any("not trace-orthogonal" in detail for _, detail in rep.failures)

# --- masa extraction and unbiasedness ------------------------------------------------


def test_mub_extraction_p3():
    masas = build_masa_spread(P3)
    bases = extract_mub_bases(masas, seed=0)
    assert len(bases) == 10
    assert all(b.shape == (9, 9) for b in bases)
    rep = check_mub_overlaps(bases, 1e-9, masas.labels())
    assert rep.passed
    assert rep.max_residual < 1e-9


def test_mub_extraction_is_deterministic():
    masas = build_masa_spread(P3)
    b1 = extract_mub_bases(masas, seed=0)
    b2 = extract_mub_bases(masas, seed=0)
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)


def test_mub_single_basis_trivially_unbiased():
    masas = build_masa_spread(P3)
    solo = SpreadFamily(P3, masas.members[:1])
    solo.complete = False
    rep = extract_and_check_mub(solo)
    assert rep.passed
    assert rep.checks_run == 1  # orthonormality only, no cross pairs


def test_mub_rejects_non_isotropic_member():
    sub = build_C(P3.field.one(), P3.field.zero(), P3)
    fam = SpreadFamily(P3, [FamilyMember("bad", MASA, sub)], complete=False)
    with pytest.raises(ValueError, match="not isotropic"):
        extract_and_check_mub(fam)


def test_mub_rejects_non_maximal_isotropic_member(monkeypatch):
    """A 1-dim member of Z_3^4 commutes but is no masa: refused before synthesis."""
    sub = Subspace.from_generators(3, 2, [(1, 0, 0, 0)])
    fam = SpreadFamily(P3, [FamilyMember("short", MASA, sub)], complete=False)

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesized a rejected member")

    monkeypatch.setattr(verify, "basis_matrices", no_synthesis)
    with pytest.raises(ValueError, match="not isotropic of dimension 2"):
        extract_mub_bases(fam)
    with pytest.raises(ValueError, match="not isotropic"):
        extract_and_check_mub(fam)


def test_mub_rejects_matrix_algebra_kind():
    fam = build_spread_2(P3)
    with pytest.raises(ValueError, match="masas"):
        extract_and_check_mub(fam)


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
    bases = extract_mub_bases(masas, seed=0)
    bases[57] = bases[12]
    rep = _assert_overlaps_match_per_pair(bases, masas.labels())
    assert rep.checks_run == 82 * 83 // 2
    assert [who for who, _ in rep.failures] == [f"{masas.labels()[12]} & {masas.labels()[57]}"]


def test_mub_overlaps_match_per_pair_loop_past_the_failure_cap():
    """Seven copies of one basis (21 failing pairs) and a scaled basis that is
    not orthonormal: the "... and N more failures" line is reached."""
    masas = build_masa_spread(P3)
    bases = extract_mub_bases(masas, seed=0)
    bases[1:7] = [bases[0]] * 6
    bases[8] = 2 * bases[8]
    rep = _assert_overlaps_match_per_pair(bases, masas.labels())
    assert rep.failures[0][1].startswith("not orthonormal")
    assert len(rep.failures) > 20
    assert rep.describe().endswith(f"... and {len(rep.failures) - 20} more failures")


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


def test_projector_trace_equals_overlap_squared():
    """The bridge identity: Tr(P Q) for rank-one projectors equals |<x,z>|^2,
    so quasi-orthogonality of the projector algebras is unbiasedness."""
    masas = build_masa_spread(P3)
    u, v = extract_mub_bases(masas, seed=0)[:2]
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


def test_counting_identity_needs_n3():
    with pytest.raises(ValueError):
        counting_identity_holds(3, 1, 2)
