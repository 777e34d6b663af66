"""Tests for the family builders: the two-block spreads, the masa spread,
the frame embedding and the recursion."""

import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from qospread.cli import EXIT_BAD_INPUT, main
from qospread.constructions import (
    INFINITY,
    MASA,
    MATRIX_ALGEBRA,
    ConstructionParams,
    _mixed_members,
    _generators,
    _pair_generators,
    build_C,
    build_D,
    build_masa_spread,
    build_recursive,
    build_spread_2,
    embed_hat,
)
from helpers import frobenius_trace, literal_gf_span
from qospread.finite_field import gf
from qospread.phase_space import (
    PhasePoint,
    Subspace,
    _check_index_size,
    _nonzero_lines,
    check_pairwise_trivial,
    check_partition,
    classify_subspace,
    span_enumerate,
    symplectic_basis,
)
from qospread.verify import expected_count

P3 = ConstructionParams.create(3, 1, 2)


def scal(params, x):
    return params.field.scalar(x)


# --- C and D subspaces --------------------------------------------------------


def test_build_c_frozen_generators():
    sub = build_C(scal(P3, 1), scal(P3, 0), P3)
    assert [pt.coords for pt in sub.basis] == [(1, 0, 0, 1), (0, 1, 2, 0)]


def test_build_c_zero_zero():
    sub = build_C(scal(P3, 0), scal(P3, 0), P3)
    assert sub == Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 0, 2, 0)])
    assert classify_subspace(sub).kind == "isotropic"


def test_build_c_gf9_nondegenerate():
    params = ConstructionParams.create(3, 2, 2)
    sub = build_C(params.field.one(), params.field.zero(), params)
    assert sub.dim == 4
    cls = classify_subspace(sub)
    assert cls == ("nondegenerate", 4)


def test_build_c_infinity_rejects_second_parameter():
    with pytest.raises(ValueError, match="no second parameter"):
        build_C(INFINITY, scal(P3, 1), P3)


def test_build_d_frozen_generators():
    d0 = build_D(scal(P3, 0), P3)
    assert d0 == Subspace.from_generators(3, 2, [(1, 1, 0, 0), (1, 2, 0, 0)])
    d1 = build_D(scal(P3, 1), P3)
    assert d1 == Subspace.from_generators(3, 2, [(1, 1, 2, 2), (1, 2, 2, 1)])
    dinf = build_D(INFINITY, P3)
    assert [pt.coords for pt in dinf.basis] == [(0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("params", [P3, ConstructionParams.create(5, 1, 2), ConstructionParams.create(3, 2, 2)],
                         ids=["p3", "p5", "p3k2"])
def test_build_d_always_nondegenerate(params):
    for a in params.field.elements():
        assert classify_subspace(build_D(a, params)).kind == "nondegenerate"
    assert classify_subspace(build_D(INFINITY, params)).kind == "nondegenerate"


# --- two-block spread ----------------------------------------------------------


@pytest.mark.parametrize("p,k,count", [(3, 1, 10), (5, 1, 26), (7, 1, 50), (3, 2, 82)])
def test_spread_2_counts(p, k, count):
    fam = build_spread_2(ConstructionParams.create(p, k, 2))
    assert len(fam.members) == count == expected_count(p, k, 2)
    assert all(m.kind == MATRIX_ALGEBRA for m in fam.members)
    assert len(set(fam.labels())) == count


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_spread_2_is_a_spread_of_full_algebras(p, k):
    fam = build_spread_2(ConstructionParams.create(p, k, 2))
    assert check_pairwise_trivial(fam.subspaces(), fam.labels()).passed
    rep = check_partition(fam.subspaces(), fam.labels())
    assert rep.passed
    assert rep.covered == p ** (4 * k) - 1
    for m in fam.members:
        assert classify_subspace(m.subspace) == ("nondegenerate", 2 * k)


def c_reference(a, b, params):
    fld = params.field
    one, zero = fld.one(), fld.zero()
    if a is INFINITY:
        return literal_gf_span([(zero, one, zero, zero), (zero, zero, zero, one)])
    return literal_gf_span([(one, b, zero, a), (zero, a, -one, b * params.nonresidue)])


def d_reference(a, params):
    fld = params.field
    one, zero = fld.one(), fld.zero()
    if a is INFINITY:
        return literal_gf_span([(zero, zero, one, zero), (zero, zero, zero, one)])
    ad = a * params.nonresidue
    return literal_gf_span([(one, one, -a, ad), (one, fld.scalar(2), -a, 2 * ad)])


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_batched_spread_matches_member_by_member_reference(p, k):
    params = ConstructionParams.create(p, k, 2)
    elements = list(params.field.elements())
    want = [c_reference(a, b, params) for a in elements[1:] for b in elements]
    want += [d_reference(a, params) for a in elements] + [d_reference(INFINITY, params)]
    assert [m.subspace for m in build_spread_2(params).members] == want


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2)])
def test_build_c_and_d_are_the_one_member_case(p, k):
    params = ConstructionParams.create(p, k, 2)
    for a in params.field.elements():
        assert build_D(a, params) == d_reference(a, params)
        for b in params.field.elements():
            assert build_C(a, b, params) == c_reference(a, b, params)
    assert build_C(INFINITY, None, params) == c_reference(INFINITY, None, params)
    assert build_D(INFINITY, params) == d_reference(INFINITY, params)


def test_build_c_is_exact_past_int64():
    # p = 2^61 - 1, k = 2: the images of t^j (0, a, -1, bD) sum products near 2^122
    params = ConstructionParams.create(2**61 - 1, 2, 2)
    fld = params.field
    for a, b in [(fld.element((2**61 - 5, 7)), fld.element((2**61 - 2, 2**61 - 3))), (fld.one(), fld.zero())]:
        assert build_C(a, b, params) == c_reference(a, b, params)
        assert build_D(b, params) == d_reference(b, params)


def test_spread_2_label_order():
    fam = build_spread_2(P3)
    assert fam.labels() == [
        "C[1,0]", "C[1,1]", "C[1,2]", "C[2,0]", "C[2,1]", "C[2,2]",
        "D[0]", "D[1]", "D[2]", "D[inf]",
    ]


def test_spread_2_requires_two_blocks():
    with pytest.raises(ValueError, match="n = 2"):
        build_spread_2(ConstructionParams.create(3, 1, 3))


# --- union identity -------------------------------------------------------------


def _union_identity_holds(params):
    # D covers exactly the points of C[0,*] and C[inf]: both complete the
    # C[a,*] with a != 0 to a partition of the nonzero ambient
    field = params.field
    rest = [build_C(a, b, params) for a in field.elements() if not a.is_zero for b in field.elements()]
    ds = [build_D(a, params) for a in field.elements()] + [build_D(INFINITY, params)]
    cs = [build_C(field.zero(), b, params) for b in field.elements()]
    cs.append(build_C(INFINITY, None, params))
    return check_partition(rest + ds).passed and check_partition(rest + cs).passed


@pytest.mark.parametrize("p", [3, 5, 7])
def test_union_identity_prime_fields(p):
    assert _union_identity_holds(ConstructionParams.create(p, 1, 2))


def test_union_identity_gf9():
    assert _union_identity_holds(ConstructionParams.create(3, 2, 2))


# --- masa spread ----------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_masa_spread_is_an_isotropic_spread(p, k):
    fam = build_masa_spread(ConstructionParams.create(p, k, 2))
    assert len(fam.members) == p ** (2 * k) + 1
    assert all(m.kind == MASA for m in fam.members)
    for m in fam.members:
        cls = classify_subspace(m.subspace)
        assert cls.kind == "isotropic"
        assert m.subspace.dim == 2 * k
    rep = check_partition(fam.subspaces(), fam.labels())
    assert rep.passed


def test_masa_spread_contains_pure_shift_and_pure_clock():
    fam = build_masa_spread(P3)
    pure_s = Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    pure_w = Subspace.from_generators(3, 2, [(0, 1, 0, 0), (0, 0, 0, 1)])
    assert fam.members[0].label == "M[0]"
    assert fam.members[0].subspace == pure_s
    assert fam.members[-1].label == "M[inf]"
    assert fam.members[-1].subspace == pure_w


# --- frame embedding --------------------------------------------------------------


def standard_block_frame():
    full = Subspace.from_generators(3, 1, [(1, 0), (0, 1)])
    return symplectic_basis(full)


def pure_clock_basis():
    masa = build_masa_spread(P3).members[-1].subspace
    return list(masa.basis)


def test_embed_hat_zero_pair_is_left_padded():
    frame = standard_block_frame()
    right = pure_clock_basis()
    sub = embed_hat(scal(P3, 0), scal(P3, 0), frame, right, P3)
    assert sub == Subspace.from_generators(3, 3, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])


def test_embed_hat_infinity_is_right_padded():
    frame = standard_block_frame()
    right = pure_clock_basis()
    sub = embed_hat(INFINITY, None, frame, right, P3)
    assert sub == Subspace.from_generators(3, 3, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)])


def test_embed_hat_frozen_mixed_member():
    # (a, b) = (1, 0) with the standard frame and the pure-clock masa:
    # generators thread to S⊗W⊗I and W⊗I⊗W
    sub = embed_hat(scal(P3, 1), scal(P3, 0), standard_block_frame(), pure_clock_basis(), P3)
    assert sub == Subspace.from_generators(3, 3, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1)])
    assert classify_subspace(sub) == ("nondegenerate", 2)
    # only the leading factor contributes to the pairing, which is 1
    from qospread.phase_space import symplectic_product

    g1, g2 = sub.basis
    assert symplectic_product(g1, g2) == symplectic_product(g1, g2, nfactors=1) == 1


def test_embed_hat_partitions_with_ends():
    # over all (a, b), plus the infinity member, the images partition the
    # 4k-dimensional pullback of frame + masa
    frame = standard_block_frame()
    right = pure_clock_basis()
    subs = [
        embed_hat(a, b, frame, right, P3)
        for a in P3.field.elements()
        for b in P3.field.elements()
    ]
    subs.append(embed_hat(INFINITY, None, frame, right, P3))
    assert check_pairwise_trivial(subs).passed
    covered = set()
    for s in subs:
        covered |= {pt.coords for pt in span_enumerate(s) if not pt.is_zero}
    assert len(covered) == 3**4 - 1


def test_embed_hat_validates_inputs():
    frame = standard_block_frame()
    right = pure_clock_basis()
    with pytest.raises(ValueError, match="2k"):
        embed_hat(scal(P3, 1), scal(P3, 0), frame[:1], right, P3)
    skewed = [frame[0], frame[1].__class__(3, 1, tuple(2 * c for c in frame[1].coords))]
    with pytest.raises(ValueError, match="symplectic frame"):
        embed_hat(scal(P3, 1), scal(P3, 0), skewed, right, P3)
    not_isotropic = standard_block_frame()
    not_isotropic = [
        pt.__class__(3, 2, pt.coords + (0, 0)) for pt in not_isotropic
    ]
    with pytest.raises(ValueError, match="isotropic"):
        embed_hat(scal(P3, 1), scal(P3, 0), frame, not_isotropic, P3)


# --- the batched recursion kernel ---------------------------------------------------


def embed_reference(a, b, frame, masa, params):
    """Generator rows of a mixed member by literal GF arithmetic and traces,
    before canonicalisation: t^j times each generator, coordinates 1 and 3
    over the power basis and 2 and 4 over its trace dual, threaded along
    the frame (left) and the masa basis (right)."""
    fld, p = params.field, params.p
    one, zero, basis = fld.one(), fld.zero(), fld.power_basis()
    if a is INFINITY:
        gens = [(zero, zero, one, zero), (zero, zero, zero, one)]
    else:
        gens = [(one, zero, a, b), (zero, one, b * params.nonresidue, a)]

    def thread(power, dual, vectors):
        coeffs = list(power.coords) + [frobenius_trace(dual * ti) for ti in basis]
        width = len(vectors[0].coords)
        return [sum(c * v.coords[col] for c, v in zip(coeffs, vectors)) % p for col in range(width)]

    rows = []
    for g in gens:
        for tj in basis:
            c1, c2, c3, c4 = (tj * c for c in g)
            rows.append(thread(c1, c2, frame) + thread(c3, c4, masa))
    return rows


def recursion_inputs(p, k, n):
    params = ConstructionParams.create(p, k, n)
    left = build_recursive(ConstructionParams.create(p, k, n - 2))
    frames = [symplectic_basis(m.subspace) for m in left.members]
    two_block = ConstructionParams.create(p, k, 2)
    masas = [list(m.subspace.basis) for m in build_masa_spread(two_block).members]
    elements = list(params.field.elements())
    pairs = [(a, b) for a in elements for b in elements] + [(INFINITY, None)]
    return params, frames, masas, pairs


def pair_generators(pairs, params):
    """The kernel's generator array of the pairs, one pair at a time."""
    infinity = _generators(params.field, 0, 0, 1, 0, 0, 0, 0, 1)
    return np.concatenate([infinity if a is INFINITY else _pair_generators(params, a.coords, b.coords)
                           for a, b in pairs])


@pytest.mark.parametrize("p,k,n,sample", [(3, 1, 3, None), (3, 1, 4, 150), (5, 1, 3, 150), (3, 2, 3, 150)])
def test_kernel_rows_match_literal_embedding_and_embed_hat(p, k, n, sample):
    """The kernel's rows are canonical and span what the literal embedding
    spans.  INFINITY's left block is zero, not the pairs' shared one, so it
    goes through embed_hat alone."""
    params, frames, masas, pairs = recursion_inputs(p, k, n)
    pairs, infinity = pairs[:-1], pairs[-1]
    batches = list(_mixed_members([[pt.coords for pt in f] for f in frames],
                                  [[pt.coords for pt in r] for r in masas], pair_generators(pairs, params), params))
    cases = list(itertools.product(range(len(frames)), range(len(masas)), range(len(pairs) + 1)))
    if sample is not None:
        rng = random.Random(p * 100 + k * 10 + n)
        cases = rng.sample(cases, sample)
    m = k * n
    for i, j, q in cases:
        a, b = pairs[q] if q < len(pairs) else infinity
        reference = Subspace.from_generators(p, m, embed_reference(a, b, frames[i], masas[j], params))
        assert embed_hat(a, b, frames[i], masas[j], params) == reference
        if q < len(pairs):
            rows = tuple(map(tuple, batches[i][j, q].tolist()))
            assert rows == reference.rows


def test_embed_hat_at_a_61_bit_prime():
    """The kernel's closed form on Python ints (the object dtype): random frames
    and the pure-clock masa, against the literal embedding."""
    p, rng = 2**61 - 1, random.Random(7)
    for k in (1, 2):
        params = ConstructionParams.create(p, k, 3)
        full = Subspace.from_generators(p, k, [[rng.randrange(p) for _ in range(2 * k)] for _ in range(2 * k)])
        frame = symplectic_basis(full)
        masa = [PhasePoint(p, 2 * k, tuple(int(j == 2 * i + 1) for j in range(4 * k))) for i in range(2 * k)]
        a, b = (params.field.element([rng.randrange(p) for _ in range(k)]) for _ in range(2))
        for x, y in [(a, b), (params.field.zero(), b), (INFINITY, None)]:
            reference = Subspace.from_generators(p, 3 * k, embed_reference(x, y, frame, masa, params))
            assert embed_hat(x, y, frame, masa, params) == reference


def test_kernel_rejects_skewed_frame_or_non_isotropic_masa():
    params, frames, masas, pairs = recursion_inputs(3, 1, 4)
    frame_rows = [[pt.coords for pt in f] for f in frames]
    masa_rows = [[pt.coords for pt in r] for r in masas]
    skewed = frame_rows[:3] + [[frame_rows[3][0], [2 * c for c in frame_rows[3][1]]]] + frame_rows[4:]
    with pytest.raises(ValueError, match="symplectic frame"):
        _mixed_members(skewed, masa_rows, pair_generators(pairs, params), params)
    nondegenerate = [pt.coords for pt in build_spread_2(P3).members[0].subspace.basis]
    with pytest.raises(ValueError, match="isotropic"):
        _mixed_members(frame_rows, masa_rows[:5] + [nondegenerate] + masa_rows[6:], pair_generators(pairs, params),
                       params)
    with pytest.raises(ValueError, match="one left block"):  # INFINITY's left block is zero
        _mixed_members(frame_rows, masa_rows, pair_generators(pairs, params), params)
    assert _mixed_members(frame_rows, masa_rows, pair_generators(pairs[:-1], params), params).shape[:3] == (
        len(frames), len(masas), len(pairs) - 1)


# --- recursion ---------------------------------------------------------------------


def test_recursive_n1_single_full_block():
    fam = build_recursive(ConstructionParams.create(3, 1, 1))
    assert len(fam.members) == 1
    assert fam.members[0].label == "full"
    sub = fam.members[0].subspace
    assert sub.dim == 2
    assert classify_subspace(sub) == ("nondegenerate", 2)


def test_recursive_n2_is_spread_2():
    fam = build_recursive(P3)
    assert fam.labels() == build_spread_2(P3).labels()


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (3, 1, 4), (5, 1, 3), (3, 2, 3)])
def test_recursive_counts(p, k, n):
    fam = build_recursive(ConstructionParams.create(p, k, n))
    assert len(fam.members) == expected_count(p, k, n)
    assert len(set(fam.labels())) == len(fam.members)
    assert all(m.kind == MATRIX_ALGEBRA for m in fam.members)


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (3, 1, 4), (3, 1, 5)])
def test_recursive_partitions_ambient(p, k, n):
    fam = build_recursive(ConstructionParams.create(p, k, n))
    rep = check_partition(fam.subspaces(), fam.labels())
    assert rep.passed
    assert rep.covered == p ** (2 * k * n) - 1


def test_recursive_members_all_full_algebras_n3():
    fam = build_recursive(ConstructionParams.create(3, 1, 3))
    for m in fam.members:
        assert classify_subspace(m.subspace) == ("nondegenerate", 2)


def test_recursive_index_guard():
    # verify indexes one point per line: (p^(2kn) - 1)/(p - 1) lines fit the limit for
    # p = 199 at n = 2, the largest such prime, and not for p = 211
    for p, k in [(53, 1), (7, 2)]:
        assert len(build_recursive(ConstructionParams.create(p, k, 2)).members) == expected_count(p, k, 2)
    for p, k, n in [(59, 1, 2), (199, 1, 2), (17, 1, 3), (23, 1, 3), (5, 1, 5)]:
        _check_index_size(_nonzero_lines(p, 2 * k * n))
    for p, k, n in [(211, 1, 2), (313, 1, 2), (11, 2, 2), (29, 1, 3), (3, 1, 8), (3, 2, 4)]:
        with pytest.raises(ValueError, match=f"^the ownership index would hold {(p ** (2 * k * n) - 1) // (p - 1)} lines, above"):
            build_recursive(ConstructionParams.create(p, k, n))


def test_recursive_member_budget_guard():
    # (11^20 - 1)/(11^4 - 1) members: the index bound is the one size check, and it refuses them
    with pytest.raises(ValueError, match=f"^the ownership index would hold {(11 ** 20 - 1) // 10} lines, above"):
        build_recursive(ConstructionParams.create(11, 2, 5))


def test_recursive_index_guard_decided_from_the_exponents():
    # (3^(2 * 10^9) - 1)/2 lines: no power is built, and the refusal names the formula
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^the ownership index would hold \(3\^2000000000 - 1\)/2 lines, above"):
        build_recursive(ConstructionParams.create(3, 1, 10**9))
    assert time.perf_counter() - start < 0.5


def test_recursive_gf9_members_have_dimension_2k():
    fam = build_recursive(ConstructionParams.create(3, 2, 3))
    assert len(fam.members) == expected_count(3, 2, 3) == 6643
    for m in fam.members[:50] + fam.members[-50:]:
        assert m.subspace.dim == 4


# --- parameter validation -----------------------------------------------------------


def test_params_reject_even_prime():
    with pytest.raises(ValueError, match="odd prime"):
        ConstructionParams.create(2, 1, 2)


def test_params_reject_square_nonresidue():
    with pytest.raises(ValueError, match="square"):
        ConstructionParams.create(3, 1, 2, nonresidue=(1,))


def test_params_large_prime_field_is_fast_and_checks_squares():
    p = 100003
    t0 = time.perf_counter()
    params = ConstructionParams.create(p, 1, 1)
    assert time.perf_counter() - t0 < 0.5
    # the first non-residue in enumeration order, by Euler's criterion on ints
    assert params.nonresidue.coords == (next(x for x in range(1, p) if pow(x, (p - 1) // 2, p) == p - 1),)
    with pytest.raises(ValueError, match="square"):
        ConstructionParams.create(p, 1, 1, nonresidue=(4,))


def test_params_refuse_a_square_however_made():
    """A square is refused whether it comes through create, the constructor or
    dataclasses.replace."""
    params = ConstructionParams.create(3, 2, 3)
    assert ConstructionParams.create(3, 2, 3, nonresidue=params.nonresidue.coords) == params
    square = params.field.element((1, 0))
    for make in (lambda: ConstructionParams.create(3, 2, 3, nonresidue=square.coords),
                 lambda: ConstructionParams(params.field, 3, square),
                 lambda: dataclasses.replace(params, nonresidue=square)):
        with pytest.raises(ValueError, match="square"):
            make()


def test_generate_refuses_a_square_d_override(tmp_path, capsys):
    code = main(["generate", "--p", "7", "--d-override", "2", "--out", str(tmp_path / "x.yaml")])
    assert code == EXIT_BAD_INPUT
    assert "2 is a square, not a non-residue" in capsys.readouterr().err
    assert not (tmp_path / "x.yaml").exists()


def test_params_reject_zero_nonresidue():
    with pytest.raises(ValueError, match="nonzero"):
        ConstructionParams.create(3, 1, 2, nonresidue=(0,))


def test_params_accept_override():
    # 1+2t is the other non-residue class representative pattern in GF(9):
    # anything non-square should be accepted
    f9 = gf(3, 2)
    squares = {x * x for x in f9.elements()}
    alt = next(x for x in f9.elements() if not x.is_zero and x not in squares and x.coords != (1, 1))
    params = ConstructionParams.create(3, 2, 2, nonresidue=alt.coords)
    fam = build_spread_2(params)
    assert check_partition(fam.subspaces()).passed
