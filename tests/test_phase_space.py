"""Tests for the symplectic forms, the coordinate map and the set checks."""

import functools
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qospread import _modlin, phase_space
from qospread.constructions import INFINITY, ConstructionParams, build_C, build_D, build_recursive
from qospread.finite_field import gf
from helpers import frobenius_trace, intersect_trivially, literal_pi1
from qospread.phase_space import (
    MAX_LISTED_PAIRS,
    SPAN_LIMIT,
    GFPhasePoint,
    PhasePoint,
    RowStacks,
    Subspace,
    _canonical,
    check_pairwise_trivial,
    check_partition,
    classify_subspace,
    gf_symplectic,
    pi1,
    span_enumerate,
    symplectic_basis,
    symplectic_product,
)

F9 = gf(3, 2)


def pt3(*coords):
    return PhasePoint(3, len(coords) // 2, coords)


def all_points(p, m):
    return [PhasePoint(p, m, c) for c in itertools.product(range(p), repeat=2 * m)]


def gf_point(field, *indices):
    return GFPhasePoint(tuple(field.from_index(i) for i in indices))


def random_gf_point(field, rng):
    return gf_point(field, *(rng.randrange(field.size) for _ in range(4)))


# --- symplectic product -----------------------------------------------------


def test_symplectic_examples():
    assert symplectic_product(pt3(1, 0, 0, 1), pt3(0, 1, 2, 0)) == 2
    assert symplectic_product(pt3(0, 0, 1, 0), pt3(0, 0, 0, 1)) == 1


def test_symplectic_self_vanishes_exhaustive():
    for u in all_points(3, 2):
        assert symplectic_product(u, u) == 0


def test_symplectic_antisymmetry_exhaustive_z3():
    pts = all_points(3, 2)
    for u in pts:
        for v in pts:
            assert symplectic_product(u, v) == (-symplectic_product(v, u)) % 3


@pytest.mark.parametrize("p,m", [(5, 2), (7, 3)])
def test_symplectic_bilinear_random(p, m):
    rng = random.Random(5)

    def rand():
        return PhasePoint(p, m, tuple(rng.randrange(p) for _ in range(2 * m)))

    for _ in range(100):
        u, w, v = rand(), rand(), rand()
        al, be = rng.randrange(p), rng.randrange(p)
        combination = PhasePoint(p, m, tuple(al * x + be * y for x, y in zip(u.coords, w.coords)))
        lhs = symplectic_product(combination, v)
        rhs = (al * symplectic_product(u, v) + be * symplectic_product(w, v)) % p
        assert lhs == rhs


def test_symplectic_ambient_mismatch():
    with pytest.raises(ValueError, match="ambient mismatch"):
        symplectic_product(pt3(1, 0), PhasePoint(3, 2, (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="ambient mismatch"):
        symplectic_product(pt3(1, 0), PhasePoint(5, 1, (1, 0)))


def test_partial_form_ignores_trailing_factors():
    rng = random.Random(1)
    for _ in range(50):
        x, y, z, w = (rng.randrange(3) for _ in range(4))
        u = pt3(1, 0, x, y)
        v = pt3(0, 1, z, w)
        assert symplectic_product(u, v, nfactors=1) == 1


# --- GF symplectic form ------------------------------------------------------


def test_gf_symplectic_generator_pairing_is_2a():
    d = ConstructionParams.create(3, 2).nonresidue
    one, zero = F9.one(), F9.zero()
    for a in F9.elements():
        for b in F9.elements():
            g1 = GFPhasePoint((one, b, zero, a))
            g2 = GFPhasePoint((zero, a, -one, b * d))
            assert gf_symplectic(g1, g2) == 2 * a


def test_gf_symplectic_self_vanishes():
    rng = random.Random(3)
    for _ in range(50):
        a = random_gf_point(F9, rng)
        assert gf_symplectic(a, a).is_zero
        assert gf_symplectic(a, a, partial=True).is_zero


def test_gf_symplectic_partial_first_pair_only():
    rng = random.Random(4)
    one, zero = F9.one(), F9.zero()
    for _ in range(50):
        tail = [F9.from_index(rng.randrange(9)) for _ in range(4)]
        u = GFPhasePoint((one, zero, tail[0], tail[1]))
        v = GFPhasePoint((zero, one, tail[2], tail[3]))
        assert gf_symplectic(u, v, partial=True) == one


def test_gf_symplectic_mixed_fields_rejected():
    with pytest.raises(ValueError, match="mixed fields"):
        gf_symplectic(GFPhasePoint.zero(F9), GFPhasePoint.zero(gf(3)))


# --- the coordinate map pi1 --------------------------------------------------


def test_pi1_is_identity_for_k1():
    f3 = gf(3)
    for idx in itertools.product(range(3), repeat=4):
        a = gf_point(f3, *idx)
        assert pi1(a).coords == idx


def test_pi1_frozen_example():
    a = GFPhasePoint((F9.element((0, 1)), F9.zero(), F9.zero(), F9.zero()))
    assert pi1(a).coords == (0, 0, 1, 0, 0, 0, 0, 0)


def test_pi1_trace_identity_random():
    rng = random.Random(9)
    for _ in range(2000):
        a = random_gf_point(F9, rng)
        b = random_gf_point(F9, rng)
        assert frobenius_trace(gf_symplectic(a, b)) == symplectic_product(pi1(a), pi1(b))
        assert frobenius_trace(gf_symplectic(a, b, partial=True)) == symplectic_product(
            pi1(a), pi1(b), nfactors=F9.k
        )


def test_pi1_matches_literal_traces_on_gf9():
    for tup in itertools.product(list(F9.elements()), repeat=2):
        a = GFPhasePoint(tup + tup[::-1])
        assert pi1(a).coords == literal_pi1(a.coords)


def test_pi1_is_exact_past_int64():
    # p = 2^61 - 1, k = 2: each clock coordinate Tr(c t^i) sums products near 2^122
    field = gf(2**61 - 1, 2)
    one, zero = field.one(), field.zero()
    a, b = field.element((2**61 - 5, 7)), field.element((2**61 - 2, 2**61 - 3))
    for pt in [(one, b, zero, a), (zero, a, -one, b * a)]:
        assert pi1(GFPhasePoint(pt)).coords == literal_pi1(pt)


def test_pi1_is_bijective_on_gf9():
    images = {
        pi1(GFPhasePoint(tup)).coords
        for tup in itertools.product(list(F9.elements()), repeat=4)
    }
    assert len(images) == 9**4


def test_pi1_preserves_block_support():
    rng = random.Random(13)
    zero = F9.zero()
    for _ in range(50):
        x, y = F9.from_index(rng.randrange(9)), F9.from_index(rng.randrange(9))
        left = pi1(GFPhasePoint((x, y, zero, zero)))
        assert not any(left.coords[2 * F9.k:])
        right = pi1(GFPhasePoint((zero, zero, x, y)))
        assert not any(right.coords[: 2 * F9.k])


def test_dual_coords_match_trace_dual_basis():
    # dual-route check: the trace matrix pi1 uses for the even coordinates must
    # give the expansion over the explicitly solved trace-dual basis
    from qospread.finite_field import trace_dual_basis

    for field in (F9, gf(3, 3), gf(5, 2)):
        dual = trace_dual_basis(field.power_basis())
        for z in field.elements():
            coords = (field.trace_matrix @ np.array(z.coords) % field.p).tolist()
            recombined = field.zero()
            for c, f in zip(coords, dual):
                recombined = recombined + c * f
            assert recombined == z


# --- subspaces ---------------------------------------------------------------


def test_subspace_canonical_equality():
    a = Subspace.from_generators(3, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    b = Subspace.from_generators(3, 2, [(0, 0, 1, 1), (0, 0, 0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    c = Subspace.from_generators(3, 2, [(0, 1, 0, 1), (0, 0, 1, 0)])
    assert a != c


def test_subspace_scaled_generator_same_span():
    a = Subspace.from_generators(3, 2, [(0, 0, 2, 0)])
    b = Subspace.from_generators(3, 2, [(0, 0, 1, 0)])
    assert a == b


def test_span_enumerate_c_infinity():
    params = ConstructionParams.create(3, 1, 2)
    cinf = build_C(INFINITY, None, params)
    pts = span_enumerate(cinf)
    assert len(pts) == 9
    assert {p.coords for p in pts} == {(0, b0, 0, b1) for b0 in range(3) for b1 in range(3)}


def test_span_enumerate_zero_subspace():
    z = Subspace.from_generators(3, 2, [])
    assert [p.coords for p in span_enumerate(z)] == [(0, 0, 0, 0)]


def test_span_enumerate_c10_members():
    params = ConstructionParams.create(3, 1, 2)
    c10 = build_C(params.field.one(), params.field.zero(), params)
    coords = {p.coords for p in span_enumerate(c10)}
    for want in [(1, 0, 0, 1), (0, 1, 2, 0), (1, 1, 2, 1)]:
        assert want in coords


def test_span_enumerate_guard():
    big = Subspace.from_generators(3, 7, [tuple(1 if j == i else 0 for j in range(14)) for i in range(14)])
    with pytest.raises(ValueError, match="limit"):
        span_enumerate(big)


def test_subspace_contains():
    s = Subspace.from_generators(3, 2, [(1, 0, 0, 1), (0, 1, 2, 0)])
    assert s.contains(pt3(1, 1, 2, 1))
    assert not s.contains(pt3(1, 0, 0, 0))


# --- family-level checks -----------------------------------------------------


def c_family(params):
    field = params.field
    subs = [
        build_C(a, b, params)
        for a in field.elements()
        for b in field.elements()
    ]
    subs.append(build_C(INFINITY, None, params))
    return subs


def d_family(params):
    field = params.field
    subs = [build_D(a, params) for a in field.elements()]
    subs.append(build_D(INFINITY, params))
    return subs


def test_c_family_pairwise_trivial():
    params = ConstructionParams.create(3, 1, 2)
    rep = check_pairwise_trivial(c_family(params))
    assert rep.passed
    assert rep.checks_run == 45


def test_d_family_pairwise_trivial():
    params = ConstructionParams.create(3, 1, 2)
    assert check_pairwise_trivial(d_family(params)).passed


def test_duplicate_member_fails_with_offending_pair():
    params = ConstructionParams.create(3, 1, 2)
    one, zero = params.field.one(), params.field.zero()
    sub = build_C(one, zero, params)
    rep = check_pairwise_trivial([sub, sub], labels=["first", "second"])
    assert not rep.passed
    assert rep.failures[0][0] == "first & second"
    assert "shared nonzero point" in rep.failures[0][1]


def _brute_nonzero_points(s):
    # the span from its basis by plain integer loops, independent of span_enumerate
    rows = [b.coords for b in s.basis]
    pts = {
        tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % s.p for k in range(2 * s.m))
        for coeffs in itertools.product(range(s.p), repeat=s.dim)
    }
    pts.discard((0,) * (2 * s.m))
    return pts


def test_set_check_agrees_with_rank_oracle():
    # random 3-6 member families, so some points have three or more owners
    rng = random.Random(31)
    agree_trivial = agree_shared = multi_owner = 0
    for m in (2, 3):
        for _ in range(100):
            subs = [
                Subspace.from_generators(
                    3, m, [tuple(rng.randrange(3) for _ in range(2 * m)) for _ in range(rng.randrange(1, m + 1))]
                )
                for _ in range(rng.randrange(3, 7))
            ]
            spans = [_brute_nonzero_points(s) for s in subs]
            want = []
            for i, j in itertools.combinations(range(len(subs)), 2):
                shared = spans[i] & spans[j]
                assert intersect_trivially(subs[i], subs[j]) == (not shared)
                if shared:
                    want.append((f"member {i} & member {j}", f"shared nonzero point {min(shared)}"))
            rep = check_pairwise_trivial(subs)
            assert rep.failures == want
            assert rep.passed == (not want)
            assert check_partition(subs).covered == len(set().union(*spans))
            owners = Counter(pt for span in spans for pt in span)
            multi_owner += max(owners.values(), default=0) >= 3
            agree_trivial += not want
            agree_shared += bool(want)
    assert agree_trivial and agree_shared and multi_owner  # every branch exercised


def test_oversize_members_fall_back_to_rank_test():
    # p=1009, dim 2: 1,018,081 points, above SPAN_LIMIT
    p = 1009
    small = Subspace.from_generators(p, 2, [(1, 5, 0, 0)])
    meets = Subspace.from_generators(p, 2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    misses = Subspace.from_generators(p, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    straddles = Subspace.from_generators(p, 2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    subs = [small, meets, misses, small, straddles]
    assert meets.p**meets.dim > SPAN_LIMIT
    rep = check_pairwise_trivial(subs)
    assert not rep.passed
    assert rep.checks_run == 10
    pairs = [(0, 1), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert [who for who, _ in rep.failures] == [f"member {i} & member {j}" for i, j in pairs]
    for (_, what), (i, j) in zip(rep.failures, pairs):
        witness = PhasePoint(p, 2, tuple(int(c) for c in re.findall(r"\d+", what)))
        assert not witness.is_zero
        assert subs[i].contains(witness) and subs[j].contains(witness)
    assert rep.failures[1][1] == "shared nonzero point (1, 5, 0, 0)"
    with pytest.raises(ValueError, match="limit"):
        check_partition([small, meets])
    with pytest.raises(ValueError, match="empty family"):
        check_partition([])


def _no_work(*args, **kwargs):
    raise AssertionError("work past a refusal")


def test_rank_tests_past_the_limit_are_refused_before_any_elimination(monkeypatch):
    """p=1009: 3,000 copies of one plane of 1,018,081 points, a table as cheap to
    build as its 4,498,500 pairs are costly to rank-test ((2*2 + 4)^2 * 4 = 256
    steps each, past ``RANK_LIMIT``): refused with no index and no elimination."""
    table = RowStacks.of(1009, 4, np.full(3000, 2), np.tile([[1, 0, 0, 0], [0, 1, 0, 0]], (3000, 1)))
    monkeypatch.setattr(_modlin, "rref_stack", _no_work)
    monkeypatch.setattr(phase_space, "_owners", _no_work)
    with pytest.raises(ValueError, match="^the rank tests of 4498500 member pairs would take 1151616000 steps, "
                                         "above the limit 1073741824$"):
        phase_space._disjointness(table)


@pytest.mark.parametrize("p,pairs,weight", [(1009, 9, 1), (2**63 + 29, 10, 16)], ids=["int32", "object"])
def test_rank_limit_counts_pairs_rows_and_width(monkeypatch, p, pairs, weight):
    """Three planes and two lines of Z_p^4, all pairwise disjoint.  At p = 1009
    the planes are above ``SPAN_LIMIT`` and the lines not, so 9 pairs have a
    big member; past int64 products all 10 do, and each costs 16 times as
    much.  A pair costs (2r + 4)^2 w for the most rows r = 2 and width w = 4:
    the work at the limit is admitted, and one step less of limit refuses it."""
    members = [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)], [(1, 0, 1, 0), (0, 1, 0, 1)],
               [(1, 0, 2, 0)], [(1, 1, 2, 3)]]
    table = RowStacks.lists(p, 4, members)
    work = pairs * 8**2 * 4 * weight
    monkeypatch.setattr(phase_space, "RANK_LIMIT", work)
    assert phase_space._disjointness(table)[0].passed
    monkeypatch.setattr(phase_space, "RANK_LIMIT", work - 1)
    with pytest.raises(ValueError, match=f"^the rank tests of {pairs} member pairs would take {work} steps, "
                                         f"above the limit {work - 1}$"):
        phase_space._disjointness(table)


def _rank_fallback_reference(subs):
    """The pairwise failures as the rank fallback listed them, one rank test and
    one witness per pair, for a family in which every pair has a member above
    ``SPAN_LIMIT``."""
    witnesses = {}
    for i, j in itertools.combinations(range(len(subs)), 2):
        if not intersect_trivially(subs[i], subs[j]):
            witnesses[i, j] = phase_space._shared_point(subs[i], subs[j])
    listed = sorted(witnesses.items())
    failures = [(f"member {i} & member {j}", f"shared nonzero point {w}") for (i, j), w in listed[:MAX_LISTED_PAIRS]]
    if len(listed) > MAX_LISTED_PAIRS:
        failures.append(
            ("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs")
        )
    return failures, len(listed)


def _oversize_family(copies):
    """p=1009: 20 random planes (1,018,081 points each), ``copies`` copies of one
    more plane, a line inside it and a 3-dimensional member that meets every
    plane, so the pairs stack 3, 4 and 5 rows; 46 copies make 1,035 failing
    pairs, past the listing cap."""
    p, rng = 1009, random.Random(copies)

    def member(dim):
        while True:
            sub = Subspace.from_generators(p, 2, [[rng.randrange(p) for _ in range(4)] for _ in range(dim)])
            if sub.dim == dim:
                return sub

    plane = member(2)
    line = Subspace.from_generators(p, 2, [tuple(a + 2 * b for a, b in zip(*plane.rows))])
    return [member(2) for _ in range(20)] + [plane] * copies + [line, member(3)]


@pytest.mark.parametrize("copies", [3, 46])
def test_oversize_pairs_are_ranked_in_one_batch(monkeypatch, copies):
    """The report on ``_oversize_family`` is the per-pair rank test's, with no
    per-pair rank call and witnesses only for listable pairs."""
    subs = _oversize_family(copies)
    want, failing = _rank_fallback_reference(subs)
    ranks, witnesses = [], []
    monkeypatch.setattr(_modlin, "rank", lambda rows, p: ranks.append(1) or len(_modlin.rref(rows, p)[0]))
    shared_point = phase_space._shared_point
    monkeypatch.setattr(phase_space, "_shared_point", lambda a, b: witnesses.append(1) or shared_point(a, b))
    rep = check_pairwise_trivial(subs)
    assert rep.failures == want
    assert rep.checks_run == len(subs) * (len(subs) - 1) // 2
    assert failing >= copies * (copies - 1) // 2 + copies + (20 + copies)  # copies, line, 3-dim member
    assert not ranks
    assert len(witnesses) == min(failing, MAX_LISTED_PAIRS + 1)


@pytest.mark.parametrize("copies", [3, 46])
def test_oversize_rank_stacks_hold_one_first_member(monkeypatch, copies):
    """Each elimination stacks the pairs of one first member, so it holds fewer
    pairs than there are members; one stack of every pair with the same row
    count would grow with the square of the member count."""
    subs = _oversize_family(copies)
    want, _ = _rank_fallback_reference(subs)
    sizes = []
    rref_stack = _modlin.rref_stack
    monkeypatch.setattr(_modlin, "rref_stack", lambda stack, p: sizes.append(len(stack)) or rref_stack(stack, p))
    assert check_pairwise_trivial(subs).failures == want
    assert 1 < max(sizes) < len(subs)


def test_index_above_int64_codes_agrees_with_rank_oracle():
    # Z_3^42 has 3^42 > 2^63 points, so base-p point codes would overflow int64
    p, m = 3, 21
    assert p ** (2 * m) > 2**63
    rng = random.Random(7)

    def vec():
        return tuple(rng.randrange(p) for _ in range(2 * m))

    shared = [vec() for _ in range(3)]
    subs = []
    for _ in range(12):
        gens = [vec() for _ in range(rng.randrange(1, 3))]
        if rng.random() < 0.5:  # meet another member in a chosen line
            gens.append(rng.choice(shared))
        subs.append(Subspace.from_generators(p, m, gens))
    rep = check_pairwise_trivial(subs)
    want = [(i, j) for i, j in itertools.combinations(range(len(subs)), 2)
            if not intersect_trivially(subs[i], subs[j])]
    assert want and len(want) < len(subs) * (len(subs) - 1) // 2
    assert [who for who, _ in rep.failures] == [f"member {i} & member {j}" for i, j in want]
    for (_, what), (i, j) in zip(rep.failures, want):
        witness = PhasePoint(p, m, tuple(int(c) for c in re.findall(r"\d+", what)))
        assert not witness.is_zero
        assert subs[i].contains(witness) and subs[j].contains(witness)
        assert what == f"shared nonzero point {min(_brute_nonzero_points(subs[i]) & _brute_nonzero_points(subs[j]))}"
    covered = len(set().union(*map(_brute_nonzero_points, subs)))
    rep = check_partition(subs)
    assert (rep.covered, rep.expected) == (covered, p ** (2 * m) - 1)


def _full_index(rows):
    """Every nonzero point of the enumerable spans with its owner, sorted: the
    index as it was before it held one point per line, the reference for it."""
    p, points, owners = rows.p, [np.zeros((0, rows.width), dtype=np.int64)], [np.zeros(0, dtype=np.intp)]
    for at, stack in rows.groups:
        if phase_space._enumerable(p, stack.shape[1]):
            points.append(phase_space._spans(p, stack)[:, 1:].astype(np.int64).reshape(-1, rows.width))
            owners.append(np.repeat(at, p ** stack.shape[1] - 1))
    return phase_space._Index.sort(np.concatenate(points), np.concatenate(owners))


def _full_point_reports(rows):
    """The pairwise and partition failures and the covered count, from the full
    index and a rank test of every pair with a member above ``SPAN_LIMIT``."""
    p, subs = rows.p, rows.subspaces()
    full = _full_index(rows)
    conflicts = list(phase_space._conflicts(full))
    witnesses = {pair: point for pair, point, _ in conflicts}
    big = set(np.flatnonzero(~phase_space._enumerable(p, rows.counts)).tolist())
    for i, j in itertools.combinations(range(len(subs)), 2):
        if (i in big or j in big) and not intersect_trivially(subs[i], subs[j]):
            witnesses[i, j] = phase_space._shared_point(subs[i], subs[j])
    listed = sorted(witnesses.items())
    pairwise = [(f"member {i} & member {j}", f"shared nonzero point {w}") for (i, j), w in listed[:MAX_LISTED_PAIRS]]
    if len(listed) > MAX_LISTED_PAIRS:
        pairwise.append(("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs"))
    if big:
        return pairwise, None, None
    partition = [(f"member {i} & member {j}", f"{count} shared nonzero points") for (i, j), _, count in conflicts[:1]]
    covered, expected = int(full.first.sum()), p**rows.width - 1
    if covered != expected:
        partition.append(("family", f"covers {covered} of {expected} nonzero points"))
    return pairwise, partition, covered


@functools.cache
def _spread(p, n):
    return build_recursive(ConstructionParams.create(p, 1, n)).subspaces()


def _copies(subs, sources, targets):
    """The family with each target member replaced by a copy of its source."""
    subs = list(subs)
    for i, j in zip(sources, targets):
        subs[j] = subs[i]
    return subs


def _mixed(subs, at, oversize=False):
    """The family with members of row counts 0 to 4 inserted at ``at``, a line
    inside member 3 among them, and with ``oversize`` a member above
    ``SPAN_LIMIT`` appended."""
    rng = random.Random(22)
    p, m = subs[0].p, subs[0].m

    def member(dim):
        return Subspace.from_generators(p, m, [[rng.randrange(p) for _ in range(2 * m)] for _ in range(dim)])

    line = Subspace.from_generators(p, m, [tuple(sum(c) % p for c in zip(*subs[3].rows))])
    extra = [Subspace(p, m, ()), line] + [member(dim) for dim in (1, 2, 2, 3, 4) if phase_space._enumerable(p, dim)]
    return subs[:at] + extra + subs[at:] + [member(2 * m)] * oversize


_INDEX_CASES = {  # name: (the members, the number of conflicting pairs or None)
    "p3 spread": (lambda: _spread(3, 3), 0),
    "p5 spread": (lambda: _spread(5, 3), 0),
    "p7 spread": (lambda: _spread(7, 3), 0),
    "p53 planes": (lambda: _spread(53, 2)[::10], 0),  # 281 of 2,810
    "p3 one copy": (lambda: _copies(_spread(3, 3), [2], [5]), 1),
    "p5 three copies": (lambda: _copies(_spread(5, 3), [0, 7, 300], [1, 8, 600]), 3),
    "p7 27 copies": (lambda: _copies(_spread(7, 3), range(27), range(1000, 1027)), 27),
    "p7 1,100 copies": (lambda: _copies(_spread(7, 3), range(1100), range(1200, 2300)), 1100),
    "p53 copies": (lambda: _copies(_spread(53, 2)[::10], [4, 5, 6], [200, 201, 202]), 3),
    "p3 mixed row counts": (lambda: _mixed(_spread(3, 3), 40), None),
    "p53 mixed row counts": (lambda: _mixed(_spread(53, 2)[::10], 100), None),
    "p53 mixed, oversize": (lambda: _mixed(_spread(53, 2)[::10], 100, oversize=True), None),
}


@pytest.mark.parametrize("case", _INDEX_CASES)
def test_line_index_agrees_with_the_full_point_index(case):
    """One point per line gives the full index's pairs, witness points, shared
    counts and covered count: every conflict, and every line of the reports."""
    members, failing = _INDEX_CASES[case]
    rows = phase_space._table(members())
    p = rows.p
    lines, full = phase_space._owners(rows), _full_index(rows)
    assert len(lines.owners) == phase_space._index_lines(rows) and len(full.owners) == len(lines.owners) * (p - 1)
    assert (np.take_along_axis(lines.points, (lines.points != 0).argmax(axis=1)[:, None], axis=1) == 1).all()
    got = [(pair, point, count * (p - 1)) for pair, point, count in phase_space._conflicts(lines)]
    want = list(phase_space._conflicts(full))
    assert got == want
    assert failing is None or len(want) == failing
    assert int(lines.first.sum()) * (p - 1) == int(full.first.sum())
    pairwise, partition = phase_space._disjointness(rows)
    want_pairwise, want_partition, covered = _full_point_reports(rows)
    assert pairwise.failures == want_pairwise
    if want_partition is None:
        assert partition is None
    else:
        assert (partition.failures, partition.covered) == (want_partition, covered)


def test_subspaces_given_non_canonical_rows_are_indexed_by_their_lines():
    # (2, 0) is not a canonical basis of its line; indexed as given, it would miss (1, 0)
    scaled, line = Subspace(3, 1, ((2, 0),)), Subspace.from_generators(3, 1, [(1, 0)])
    assert check_pairwise_trivial([scaled, line]).failures == [("member 0 & member 1", "shared nonzero point (1, 0)")]
    assert check_partition([scaled, line]).failures[0] == ("member 0 & member 1", "2 shared nonzero points")


def test_partition_of_non_complete_family_above_a_million_points():
    # Z_3^14 has 4,782,969 points; every member is small, so the index holds
    # them all and the partition report counts what they cover
    p, m = 3, 7
    rng = random.Random(14)
    subs = [
        Subspace.from_generators(p, m, [tuple(rng.randrange(p) for _ in range(2 * m)) for _ in range(3)])
        for _ in range(20)
    ]
    rep = check_partition(subs)
    covered = len(set().union(*map(_brute_nonzero_points, subs)))
    assert (rep.covered, rep.expected) == (covered, p ** (2 * m) - 1)
    assert not rep.passed
    assert rep.failures[-1] == ("family", f"covers {covered} of {p ** (2 * m) - 1} nonzero points")


def test_conflict_listing_stops_at_the_cap():
    params = ConstructionParams.create(3, 1, 2)
    sub = build_C(params.field.one(), params.field.zero(), params)
    n = 47  # 1,081 pairs, all sharing all eight nonzero points
    assert n * (n - 1) // 2 > MAX_LISTED_PAIRS
    rep = check_pairwise_trivial([sub] * n)
    pairs = list(itertools.combinations(range(n), 2))[:MAX_LISTED_PAIRS]
    assert [who for who, _ in rep.failures[:-1]] == [f"member {i} & member {j}" for i, j in pairs]
    assert rep.failures[-1] == ("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs")
    # the largest family below the cap (45 members, 990 pairs) is listed in full
    n_below = next(n for n in range(n, 0, -1) if n * (n - 1) // 2 <= MAX_LISTED_PAIRS)
    rep = check_pairwise_trivial([sub] * n_below)
    assert len(rep.failures) == n_below * (n_below - 1) // 2
    assert all(who != "family" for who, _ in rep.failures)
    rep = check_partition([sub] * n)
    assert rep.failures == [("member 0 & member 1", "8 shared nonzero points"), ("family", "covers 8 of 80 nonzero points")]


def test_partition_of_full_spread():
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    spread = [
        build_C(a, b, params)
        for a in field.elements()
        if not a.is_zero
        for b in field.elements()
    ]
    spread += d_family(params)
    rep = check_partition(spread)
    assert rep.passed
    assert rep.covered == 80 and rep.expected == 80


def test_partition_fails_when_member_dropped():
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    spread = [
        build_C(a, b, params)
        for a in field.elements()
        if not a.is_zero
        for b in field.elements()
    ]
    spread += d_family(params)
    rep = check_partition(spread[1:])
    assert not rep.passed
    assert rep.covered == 72


# --- classification and symplectic frames ------------------------------------


def test_classify_examples():
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    c10 = build_C(field.one(), field.zero(), params)
    assert classify_subspace(c10) == ("nondegenerate", 2)
    c01 = build_C(field.zero(), field.one(), params)
    assert classify_subspace(c01).kind == "isotropic"
    cinf = build_C(INFINITY, None, params)
    assert classify_subspace(cinf).kind == "isotropic"


def test_classify_mixed():
    s = Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    cls = classify_subspace(s)
    assert cls.kind == "mixed"
    assert cls.gram_rank == 2


def test_symplectic_basis_pairs_to_standard_form():
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    for a, b in [(1, 0), (1, 1), (2, 2)]:
        sub = build_C(field.scalar(a), field.scalar(b), params)
        e, f = symplectic_basis(sub)
        assert symplectic_product(e, f) == 1
        assert Subspace.from_generators(3, 2, [e, f]) == sub


def test_symplectic_basis_full_block():
    s = Subspace.from_generators(3, 2, [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)])
    basis = symplectic_basis(s)
    k = 2
    for i in range(2 * k):
        for j in range(2 * k):
            want = 1 if j == i + k else (2 if i == j + k else 0)
            assert symplectic_product(basis[i], basis[j]) == want


def test_symplectic_basis_rejects_isotropic():
    params = ConstructionParams.create(3, 1, 2)
    with pytest.raises(ValueError, match="degenerate"):
        symplectic_basis(build_C(INFINITY, None, params))


def symplectic_basis_reference(s):
    """The frame one vector at a time, as symplectic_basis built it before the
    batched ``_frames``: e is the first vector left, f the first later one with
    e o f != 0, scaled to e o f = 1, and every other vector v becomes
    v - (v o f) e + (v o e) f."""
    if s.dim % 2:
        raise ValueError("a symplectically nondegenerate subspace has even dimension")

    def form(u, v):
        return symplectic_product(PhasePoint(s.p, s.m, u), PhasePoint(s.p, s.m, v))

    def combine(v, c, e, d, f):
        return tuple((x + c * y + d * z) % s.p for x, y, z in zip(v, e, f))

    vecs, first, second = list(s.rows), [], []
    while vecs:
        e = vecs.pop(0)
        idx = next((i for i, v in enumerate(vecs) if form(e, v)), None)
        if idx is None:
            raise ValueError("symplectic form is degenerate on this subspace")
        f = vecs.pop(idx)
        f = tuple(pow(form(e, f), -1, s.p) * x % s.p for x in f)
        vecs = [combine(v, -form(v, f), e, form(v, e), f) for v in vecs]
        first.append(e)
        second.append(f)
    return first + second


def random_nondegenerate(p, m, dims, count, seed):
    """``count`` canonical subspaces of Z_p^{2m} of the given even dimensions
    whose form is nondegenerate, from random generators."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        d = rng.choice(dims)
        s = Subspace.from_generators(p, m, [[rng.randrange(p) for _ in range(2 * m)] for _ in range(d)])
        if s.dim == d and classify_subspace(s).gram_rank == d:
            out.append(s)
    return out


@functools.cache
def frame_cases():
    cases = {f"left{p}{k}{n + 2}": build_recursive(ConstructionParams.create(p, k, n)).subspaces()
             for p, k, n in [(3, 1, 3), (5, 1, 1), (7, 1, 1), (3, 2, 1)]}
    cases["members332"] = build_recursive(ConstructionParams.create(3, 3, 2)).subspaces()  # dimension 6
    cases["random3"] = random_nondegenerate(3, 4, [2, 4, 6, 8], 300, 1)
    cases["random2^61-1"] = random_nondegenerate(2**61 - 1, 4, [2, 4, 6, 8], 60, 2)  # the object dtype
    return cases


@pytest.mark.parametrize("name", ["left315", "left513", "left713", "left323", "members332", "random3", "random2^61-1"])
def test_batched_frames_match_the_one_vector_reference(name):
    """Per row count, one ``_frames`` call over every subspace gives each one's
    reference frame, and ``symplectic_basis`` is its one-member view."""
    subspaces = frame_cases()[name]
    p, m = subspaces[0].p, subspaces[0].m
    table = RowStacks.lists(p, 2 * m, [s.rows for s in subspaces])
    for at, stack in table.groups:
        frames = (phase_space._frames(stack, p) @ stack % p).tolist()
        for i, frame in zip(at.tolist(), frames):
            want = symplectic_basis_reference(subspaces[i])
            assert list(map(tuple, frame)) == want
            assert [pt.coords for pt in symplectic_basis(subspaces[i])] == want


def test_batched_frames_refuse_odd_and_degenerate_stacks():
    odd = Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    isotropic = build_C(INFINITY, None, ConstructionParams.create(3, 1, 2))
    for s, match in [(odd, "even dimension"), (isotropic, "degenerate")]:
        stack = np.array(s.rows, dtype=np.int64)[None]
        for frame in (symplectic_basis_reference, symplectic_basis, lambda s: phase_space._frames(stack, 3)):
            with pytest.raises(ValueError, match=match):
                frame(s)
    # the second member's first pair is standard and its second, two shifts, pairs to 0
    unit = np.eye(6, dtype=np.int64)
    batch = np.stack([unit[:4], unit[[0, 1, 2, 4]]])
    assert (phase_space._frames(batch[:1], 3) @ batch[0] % 3 == unit[[0, 2, 1, 3]]).all()
    with pytest.raises(ValueError, match="degenerate"):
        phase_space._frames(batch, 3)


@st.composite
def row_lists(draw):
    """(p, width, matrices, positions): integer row lists of mixed row counts, 0 included, and positions into them."""
    p = draw(st.sampled_from([3, 5, 7, 2**61 - 1]))
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-2 * p, 2 * p), min_size=width, max_size=width)
    matrices = draw(st.lists(st.lists(row, max_size=4), max_size=6))
    positions = draw(st.lists(st.integers(0, len(matrices) - 1), max_size=8)) if matrices else []
    return p, width, matrices, positions


@settings(max_examples=300, deadline=None)
@given(row_lists())
def test_row_table_round_trips_and_canonicalises(case):
    p, width, matrices, positions = case
    want = [[[x % p for x in row] for row in matrix] for matrix in matrices]
    table = RowStacks.lists(p, width, matrices)
    assert table.rows.dtype == _modlin._dtype(p, width) and table.counts.tolist() == list(map(len, want))
    assert [rows.tolist() for rows in table.split()] == want
    assert [table.matrix(i).tolist() for i in range(len(want))] == want
    assert all(rows.shape == (len(matrix), width) for rows, matrix in zip(table.split(), want))
    assert [rows.tolist() for rows in table.take(positions).split()] == [want[i] for i in positions]
    # the groups partition the positions by row count, ascending, each stack holding its matrices
    assert sorted(i for at, _ in table.groups for i in at.tolist()) == list(range(len(want)))
    assert [stack.shape[1] for _, stack in table.groups] == sorted(set(map(len, want)))
    for at, stack in table.groups:
        assert stack.shape == (len(at), stack.shape[1], width)
        assert [want[i] for i in at.tolist()] == stack.tolist()
    canonical = _canonical(table)
    echelon = [[list(row) for row in _modlin.rref(matrix, p)[0]] for matrix in want]
    assert [rows.tolist() for rows in canonical.split()] == echelon
    assert canonical.counts.tolist() == [len(rows) for rows in echelon]
    assert canonical == RowStacks.lists(p, width, echelon)
    # the echelon-form check marks exactly the matrices elimination leaves as they are
    assert table.canonical.tolist() == [rows.tolist() == ech for rows, ech in zip(table.split(), echelon)]
    assert canonical.canonical.all()
