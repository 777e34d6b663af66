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
    """No member stacks are kept between pairs: one d=81 member stack is
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
