"""Tests for the symplectic forms, the coordinate map and the set checks."""

import functools
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qospread import _modlin, phase_space
from qospread.constructions import ConstructionParams, build_recursive, expected_count
from qospread.finite_field import gf
from qospread.report import _power
from helpers import (ReferenceIndex, c_members, contains, d_members, frobenius_trace, gf_symplectic, intersect_trivially,
                     literal_pi1, reference_conflicts, reference_lines, symplectic_product, table, trace_dual_basis)
from qospread.phase_space import (
    MAX_LISTED_PAIRS,
    SPAN_LIMIT,
    GFPhasePoint,
    PhasePoint,
    RowStacks,
    Subspace,
    _canonical,
    _disjointness,
    _frames,
    _gram_ranks,
    _kind,
    pi1,
    span_enumerate,
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
        gf_symplectic(GFPhasePoint((F9.zero(),) * 4), GFPhasePoint((gf(3).zero(),) * 4))


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
    cinf = c_members(ConstructionParams.create(3, 1, 2), []).subspaces()[0]
    pts = span_enumerate(cinf)
    assert len(pts) == 9
    assert {p.coords for p in pts} == {(0, b0, 0, b1) for b0 in range(3) for b1 in range(3)}


def test_span_enumerate_zero_subspace():
    z = Subspace.from_generators(3, 2, [])
    assert [p.coords for p in span_enumerate(z)] == [(0, 0, 0, 0)]


def test_span_enumerate_c10_members():
    params = ConstructionParams.create(3, 1, 2)
    c10 = c_members(params, [(params.field.one(), params.field.zero())], infinity=False).subspaces()[0]
    coords = {p.coords for p in span_enumerate(c10)}
    for want in [(1, 0, 0, 1), (0, 1, 2, 0), (1, 1, 2, 1)]:
        assert want in coords


def test_span_enumerate_guard():
    big = Subspace.from_generators(3, 7, [tuple(1 if j == i else 0 for j in range(14)) for i in range(14)])
    with pytest.raises(ValueError, match="limit"):
        span_enumerate(big)


def test_subspace_contains():
    s = Subspace.from_generators(3, 2, [(1, 0, 0, 1), (0, 1, 2, 0)])
    assert contains(s, pt3(1, 1, 2, 1))
    assert not contains(s, pt3(1, 0, 0, 0))


# --- family-level checks -----------------------------------------------------


C10 = Subspace.from_generators(3, 2, [(1, 0, 0, 1), (0, 1, 2, 0)])  # C[1,0] at p = 3


def test_c_family_pairwise_trivial():
    rep = _disjointness(c_members(ConstructionParams.create(3, 1, 2)))[0]
    assert rep.passed
    assert rep.checks_run == 45


def test_d_family_pairwise_trivial():
    assert _disjointness(d_members(ConstructionParams.create(3, 1, 2)))[0].passed


def test_duplicate_member_fails_with_offending_pair():
    rep = _disjointness(table([C10, C10]), labels=["first", "second"])[0]
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
            rep, partition = _disjointness(table(subs))
            assert rep.failures == want
            assert rep.passed == (not want)
            assert partition.covered == len(set().union(*spans))
            owners = Counter(pt for span in spans for pt in span)
            multi_owner += max(owners.values(), default=0) >= 3
            agree_trivial += not want
            agree_shared += bool(want)
    assert agree_trivial and agree_shared and multi_owner  # every branch exercised


def _no_work(*args, **kwargs):
    raise AssertionError("work past a refusal")


def test_oversize_members_are_refused_beside_another(monkeypatch):
    """p=1009, dim 2: 1,018,081 points, above SPAN_LIMIT.  No index holds such a
    member, so beside another it is refused, named, before any span or
    elimination; alone it has no pair, and the partition goes unchecked."""
    p = 1009
    small = Subspace.from_generators(p, 2, [(1, 5, 0, 0)])
    meets = Subspace.from_generators(p, 2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert meets.p**meets.dim > SPAN_LIMIT
    monkeypatch.setattr(_modlin, "rref_stack", _no_work)
    monkeypatch.setattr(phase_space, "_owners", _no_work)
    refused = f" spans 1018081 points, above the limit {SPAN_LIMIT} for a member beside another$"
    with pytest.raises(ValueError, match="^member 1" + refused):
        _disjointness(table([small, meets, small, meets]))
    with pytest.raises(ValueError, match="^B" + refused):
        _disjointness(table([meets, small]), ["B", "A"])
    rep, partition = _disjointness(table([meets]))
    assert (rep.passed, rep.checks_run, partition) == (True, 0, None)
    rep, partition = _disjointness(RowStacks.lists(p, 4, []))  # no member: no pair, and no partition
    assert (rep.passed, rep.checks_run, partition) == (True, 0, None)


def test_rank_tests_past_the_limit_are_refused_before_any_elimination(monkeypatch):
    """p=1009: 3,000 copies of one plane of 1,018,081 points, a table as cheap to
    build as its 4,498,500 pairs would be costly to compare without an index:
    refused, naming the first plane, with no index and no elimination."""
    table = RowStacks.of(1009, 4, np.full(3000, 2), np.tile([[1, 0, 0, 0], [0, 1, 0, 0]], (3000, 1)))
    monkeypatch.setattr(_modlin, "rref_stack", _no_work)
    monkeypatch.setattr(phase_space, "_owners", _no_work)
    with pytest.raises(ValueError, match=f"^member 0 spans 1018081 points, above the limit {SPAN_LIMIT} "
                                         "for a member beside another$"):
        phase_space._disjointness(table)


def test_every_family_the_index_admits_has_members_it_can_index():
    """For n >= 2 a generated family's (p^{2kn} - 1)/(p - 1) lines pass
    ``INDEX_LIMIT`` only where its members' p^{2k} points are at or below
    ``SPAN_LIMIT``, and its keys code·N + owner, below p^{2kn}·N, fit int64,
    so ``_check_index`` refuses no generated family.  The lines grow with p,
    k and n, so each scan stops at its first refusal."""

    def admits(p, k, n):
        try:
            phase_space._check_index_size(phase_space._nonzero_lines(p, 2 * k * n))
        except ValueError:
            return False
        return True

    admitted = []
    for p in (q for q in itertools.count(3, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))):
        if not admits(p, 1, 2):
            break
        for k in itertools.takewhile(lambda k: admits(p, k, 2), itertools.count(1)):
            admitted += itertools.takewhile(lambda key: admits(*key), ((p, k, n) for n in itertools.count(2)))
    assert len(admitted) == 65 and admitted[-1] == (199, 1, 2)
    assert max(p ** (2 * k) for p, k, _ in admitted) == 199**2 <= SPAN_LIMIT
    assert all(p ** (2 * k * n) * expected_count(p, k, n) < 2**63 for p, k, n in admitted)


def test_index_above_int64_codes_agrees_with_rank_oracle(monkeypatch):
    """12 random members of Z_3^36 (3^36·12 < 2^63) are indexed as the rank oracle
    says; the same draw in Z_3^42 (3^42 > 2^63) needs keys past int64 and is refused."""
    p = 3

    def members(m):
        rng = random.Random(7)

        def vec():
            return tuple(rng.randrange(p) for _ in range(2 * m))

        shared, subs = [vec() for _ in range(3)], []
        for _ in range(12):
            gens = [vec() for _ in range(rng.randrange(1, 3))]
            if rng.random() < 0.5:  # meet another member in a chosen line
                gens.append(rng.choice(shared))
            subs.append(Subspace.from_generators(p, m, gens))
        return subs

    _refused_past_int64(table(members(21)), monkeypatch)
    monkeypatch.undo()
    m, subs = 18, members(18)
    assert p ** (2 * m) * len(subs) < 2**63
    rep, partition = _disjointness(table(subs))
    want = [(i, j) for i, j in itertools.combinations(range(len(subs)), 2)
            if not intersect_trivially(subs[i], subs[j])]
    assert want and len(want) < len(subs) * (len(subs) - 1) // 2
    assert [who for who, _ in rep.failures] == [f"member {i} & member {j}" for i, j in want]
    for (_, what), (i, j) in zip(rep.failures, want):
        witness = PhasePoint(p, m, tuple(int(c) for c in re.findall(r"\d+", what)))
        assert any(witness.coords)
        assert contains(subs[i], witness) and contains(subs[j], witness)
        assert what == f"shared nonzero point {min(_brute_nonzero_points(subs[i]) & _brute_nonzero_points(subs[j]))}"
    covered = len(set().union(*map(_brute_nonzero_points, subs)))
    assert (partition.covered, partition.expected) == (covered, p ** (2 * m) - 1)


def _full_index(rows):
    """Every nonzero point of the enumerable spans with its owner, sorted: the
    index as it was before it held one point per line, the reference for it."""
    p, points, owners = rows.p, [np.zeros((0, rows.width), dtype=np.int64)], [np.zeros(0, dtype=np.intp)]
    for at, stack in rows.groups:
        points.append(phase_space._spans(p, stack)[:, 1:].astype(np.int64).reshape(-1, rows.width))
        owners.append(np.repeat(at, p ** stack.shape[1] - 1))
    return ReferenceIndex.sort(np.concatenate(points), np.concatenate(owners))


def _full_point_reports(rows):
    """The pairwise and partition failures and the covered count, from the full index."""
    p, full = rows.p, _full_index(rows)
    conflicts = list(reference_conflicts(full))
    pairwise = [(f"member {i} & member {j}", f"shared nonzero point {point}")
                for (i, j), point, _ in conflicts[:MAX_LISTED_PAIRS]]
    if len(conflicts) > MAX_LISTED_PAIRS:
        pairwise.append(("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs"))
    partition = [(f"member {i} & member {j}", f"{count} shared nonzero points") for (i, j), _, count in conflicts[:1]]
    covered, expected = int(full.first.sum()), p**rows.width - 1
    if covered != expected:
        partition.append(("family", f"covers {covered} of {expected} nonzero points"))
    return pairwise, partition, covered


@functools.cache
def _spread(p, n):
    return build_recursive(ConstructionParams.create(p, 1, n)).rows.subspaces()


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


_INDEX_CASES = {  # name: (the members, the number of conflicting pairs, None, or "refused")
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
    "p53 mixed, oversize": (lambda: _mixed(_spread(53, 2)[::10], 100, oversize=True), "refused"),
}


@pytest.mark.parametrize("case", _INDEX_CASES)
def test_line_index_agrees_with_the_full_point_index(case, monkeypatch):
    """One point per line gives the full index's pairs, witness points, shared
    counts and covered count: every conflict, and every line of the reports.
    A member above ``SPAN_LIMIT`` beside the others is refused before either."""
    members, failing = _INDEX_CASES[case]
    rows = table(members())
    p = rows.p
    if failing == "refused":
        monkeypatch.setattr(_modlin, "rref_stack", _no_work)
        monkeypatch.setattr(phase_space, "_owners", _no_work)
        with pytest.raises(ValueError, match=f"^member {len(rows) - 1} spans {p**rows.width} points, above the limit"):
            phase_space._disjointness(rows)
        return
    keys, full, reference = phase_space._owners(rows), _full_index(rows), reference_lines(rows)
    assert len(keys) == phase_space._index_lines(rows) and len(full.owners) == len(keys) * (p - 1)
    assert (np.take_along_axis(reference.points, (reference.points != 0).argmax(axis=1)[:, None], axis=1) == 1).all()
    assert keys.tolist() == _reference_keys(rows, reference)
    conflicts, lines = _index_outcome(rows)
    got = [(pair, point, count * (p - 1)) for pair, point, count in conflicts]
    want = list(reference_conflicts(full))
    assert got == want
    assert failing is None or len(want) == failing
    assert lines * (p - 1) == int(full.first.sum())
    pairwise, partition = phase_space._disjointness(rows)
    want_pairwise, want_partition, covered = _full_point_reports(rows)
    assert pairwise.failures == want_pairwise
    assert (partition.failures, partition.covered) == (want_partition, covered)


def _index_outcome(rows):
    """Every conflict of the ownership index of a table, in order, and the number of distinct lines it holds."""
    keys = phase_space._owners(rows)
    repeats = keys[1:] // len(rows) == keys[:-1] // len(rows)
    return list(phase_space._conflicts(rows, keys, repeats)), len(keys) - int(repeats.sum())


def _reference_keys(rows, reference):
    """The keys code·N + owner of the reference line index, in its order, as Python ints."""
    codes = functools.reduce(lambda code, column: code * rows.p + column, reference.points.T.astype(object), 0)
    return (np.asarray(codes) * len(rows) + reference.owners.astype(object)).tolist()


@functools.cache
def _family_rows(p, k, n):
    return build_recursive(ConstructionParams.create(p, k, n)).rows


def _repeated(p, k, n, copies):
    """The family's table with ``copies`` members, chosen at random, each replaced by a copy of another."""
    rows, rng = _family_rows(p, k, n), random.Random(p + n)
    positions = list(range(len(rows)))
    for target in rng.sample(positions, copies):
        positions[target] = rng.randrange(len(rows))
    return rows.take(positions)


def _wide(p, width, seed, count=24):
    """``count`` random members of dimension 1 to 3 of Z_p^width, about half of
    them through one of three shared lines, canonicalised."""
    rng = np.random.default_rng(seed)
    shared, matrices = rng.integers(p, size=(3, width)), []
    for _ in range(count):
        generators = rng.integers(p, size=(rng.integers(1, 3), width))
        matrices.append(np.vstack([generators, shared[rng.integers(3)]]) if rng.random() < 0.5 else generators)
    return _canonical(RowStacks.lists(p, width, matrices))


_AGREEMENT_CASES = {  # name: (the table, whether any pair conflicts, whether the keys pass int64)
    **{f"p{p}k{k}n{n}{name}": (functools.partial(_repeated, p, k, n, copies), copies > 0, False)
       for p, k, n in ((3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 3), (7, 1, 3), (3, 1, 4), (53, 1, 2), (11, 1, 3))
       for copies, name in ((0, ""), (1, " one repeat"), (7, " seven repeats"))},
    # 24 members: int64 keys up to Z_3^36, Z_5^25 and Z_7^20; one coordinate more passes int64, refused
    **{f"wide p{p} w{width}": (functools.partial(_wide, p, width, width), True, p**width * 24 >= 2**63)
       for p, width in ((3, 36), (5, 25), (7, 20), (3, 42), (5, 30), (3, 64), (7, 24))},
}


def _refused_past_int64(rows, monkeypatch):
    """``_disjointness`` refuses the table from its row counts, naming its key bound, with no index and no elimination."""
    monkeypatch.setattr(_modlin, "rref_stack", _no_work)
    monkeypatch.setattr(phase_space, "_owners", _no_work)
    bound = re.escape(f"{_power(rows.p, rows.width)} * {len(rows)}")
    with pytest.raises(ValueError, match=rf"^the ownership index of {len(rows)} members of Z_{rows.p}\^{rows.width} "
                                         rf"needs keys up to {bound}, past int64's 2\^63$"):
        _disjointness(rows)


def _agrees_with_the_reference(rows):
    """The index's keys, conflicts and covered lines are the reference's; returns the conflicts."""
    reference = reference_lines(rows)
    keys = phase_space._owners(rows)
    assert keys.dtype == np.int64 and keys.tolist() == _reference_keys(rows, reference)
    conflicts, lines = _index_outcome(rows)
    assert conflicts == list(reference_conflicts(reference))
    assert lines == int(reference.first.sum())
    return conflicts


@pytest.mark.parametrize("case", _AGREEMENT_CASES)
def test_index_agrees_with_the_reference_index(case, monkeypatch):
    """The ownership index gives the point-matrix reference's keys, its conflicts
    (every pair, in order, with its witness and shared count) and its covered
    lines; a table whose keys would pass int64 is refused instead."""
    table_of, conflicting, past_int64 = _AGREEMENT_CASES[case]
    rows = table_of()
    if past_int64:
        _refused_past_int64(rows, monkeypatch)
        return
    assert bool(_agrees_with_the_reference(rows)) == conflicting


@pytest.mark.parametrize("p,width,n", [(3, 38, 6), (7, 22, 2), (3, 38, 7), (7, 22, 3)])
def test_keys_past_int64_are_refused_from_the_row_counts(p, width, n, monkeypatch):
    """p^width·N < 2^63 is indexed and agrees with the reference; one member more is refused."""
    rows = _wide(p, width, width, count=n)
    if p**width * n >= 2**63:
        _refused_past_int64(rows, monkeypatch)
    else:
        _disjointness(rows)
        _agrees_with_the_reference(rows)


def test_a_lone_member_of_any_width_needs_no_keys(monkeypatch):
    """A lone member has no pair and distinct lines: it is not refused, and covers its points with no index."""
    monkeypatch.setattr(_modlin, "rref_stack", _no_work)
    monkeypatch.setattr(phase_space, "_owners", _no_work)
    lone = RowStacks.of(3, 9200, [2], np.eye(2, 9200, dtype=np.int8))
    pairwise, partition = _disjointness(lone, ["U"])
    assert (pairwise.passed, pairwise.checks_run) == (True, 0)
    assert (partition.covered, partition.expected) == (8, "(3^9200 - 1)")
    assert partition.failures == [("family", "covers 8 of (3^9200 - 1) nonzero points")]


def test_subspaces_given_non_canonical_rows_are_indexed_by_their_lines():
    # (2, 0) is not a canonical basis of its line; indexed as given, it would miss (1, 0)
    scaled, line = Subspace(3, 1, ((2, 0),)), Subspace.from_generators(3, 1, [(1, 0)])
    pairwise, partition = _disjointness(_canonical(table([scaled, line])))
    assert pairwise.failures == [("member 0 & member 1", "shared nonzero point (1, 0)")]
    assert partition.failures[0] == ("member 0 & member 1", "2 shared nonzero points")


def test_partition_of_non_complete_family_above_a_million_points():
    # Z_3^14 has 4,782,969 points; every member is small, so the index holds
    # them all and the partition report counts what they cover
    p, m = 3, 7
    rng = random.Random(14)
    subs = [
        Subspace.from_generators(p, m, [tuple(rng.randrange(p) for _ in range(2 * m)) for _ in range(3)])
        for _ in range(20)
    ]
    rep = _disjointness(table(subs))[1]
    covered = len(set().union(*map(_brute_nonzero_points, subs)))
    assert (rep.covered, rep.expected) == (covered, p ** (2 * m) - 1)
    assert not rep.passed
    assert rep.failures[-1] == ("family", f"covers {covered} of {p ** (2 * m) - 1} nonzero points")


def test_conflict_listing_stops_at_the_cap():
    n = 47  # 1,081 pairs, all sharing all eight nonzero points
    assert n * (n - 1) // 2 > MAX_LISTED_PAIRS
    rep, partition = _disjointness(table([C10] * n))
    pairs = list(itertools.combinations(range(n), 2))[:MAX_LISTED_PAIRS]
    assert [who for who, _ in rep.failures[:-1]] == [f"member {i} & member {j}" for i, j in pairs]
    assert rep.failures[-1] == ("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs")
    # the largest family below the cap (45 members, 990 pairs) is listed in full
    n_below = next(n for n in range(n, 0, -1) if n * (n - 1) // 2 <= MAX_LISTED_PAIRS)
    rep = _disjointness(table([C10] * n_below))[0]
    assert len(rep.failures) == n_below * (n_below - 1) // 2
    assert all(who != "family" for who, _ in rep.failures)
    assert partition.failures == [("member 0 & member 1", "8 shared nonzero points"), ("family", "covers 8 of 80 nonzero points")]


def full_spread(params):
    """C[a,b] for a != 0, then the D family: the two-block spread, built apart from ``build_spread_2``."""
    elements = list(params.field.elements())
    pairs = [(a, b) for a in elements[1:] for b in elements]
    return c_members(params, pairs, infinity=False).subspaces() + d_members(params).subspaces()


def test_partition_of_full_spread():
    rep = _disjointness(table(full_spread(ConstructionParams.create(3, 1, 2))))[1]
    assert rep.passed
    assert rep.covered == 80 and rep.expected == 80


def test_partition_fails_when_member_dropped():
    rep = _disjointness(table(full_spread(ConstructionParams.create(3, 1, 2))[1:]))[1]
    assert not rep.passed
    assert rep.covered == 72


# --- classification and symplectic frames ------------------------------------


def test_classify_examples():
    # C[1,0] spans a full algebra, C[0,1] and C[inf] commutative ones
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    members = c_members(params, [(field.one(), field.zero()), (field.zero(), field.one())])
    ranks = _gram_ranks(members).tolist()
    assert ranks == [2, 0, 0]
    assert [_kind(rank, 2) for rank in ranks] == ["nondegenerate", "isotropic", "isotropic"]


def test_classify_mixed():
    s = Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert _gram_ranks(table([s])).tolist() == [2]
    assert _kind(2, s.dim) == "mixed"


def frame_points(stack, p):
    """The symplectic frames of an (N, d, w) stack from ``_frames``, as lists of phase points."""
    frames = (_frames(stack, p) @ stack % p).tolist()
    return [[PhasePoint(p, stack.shape[2] // 2, row) for row in frame] for frame in frames]


def test_symplectic_basis_pairs_to_standard_form():
    params = ConstructionParams.create(3, 1, 2)
    field = params.field
    members = c_members(params, [(field.scalar(a), field.scalar(b)) for a, b in [(1, 0), (1, 1), (2, 2)]], False)
    for (e, f), sub in zip(frame_points(members.rows.reshape(3, 2, 4), 3), members.subspaces()):
        assert symplectic_product(e, f) == 1
        assert Subspace.from_generators(3, 2, [e, f]) == sub


def test_symplectic_basis_full_block():
    [basis] = frame_points(np.eye(4, dtype=np.int64)[None], 3)
    k = 2
    for i in range(2 * k):
        for j in range(2 * k):
            want = 1 if j == i + k else (2 if i == j + k else 0)
            assert symplectic_product(basis[i], basis[j]) == want


def test_symplectic_basis_rejects_isotropic():
    cinf = c_members(ConstructionParams.create(3, 1, 2), [])
    with pytest.raises(ValueError, match="degenerate"):
        _frames(cinf.rows[None], 3)


def symplectic_basis_reference(s):
    """The frame one vector at a time, as it was built before the batched
    ``_frames``: e is the first vector left, f the first later one with
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
        if s.dim == d and _gram_ranks(table([s]))[0] == d:
            out.append(s)
    return out


@functools.cache
def frame_cases():
    cases = {f"left{p}{k}{n + 2}": build_recursive(ConstructionParams.create(p, k, n)).rows.subspaces()
             for p, k, n in [(3, 1, 3), (5, 1, 1), (7, 1, 1), (3, 2, 1)]}
    cases["members332"] = build_recursive(ConstructionParams.create(3, 3, 2)).rows.subspaces()  # dimension 6
    cases["random3"] = random_nondegenerate(3, 4, [2, 4, 6, 8], 300, 1)
    cases["random2^61-1"] = random_nondegenerate(2**61 - 1, 4, [2, 4, 6, 8], 60, 2)  # the object dtype
    return cases


@pytest.mark.parametrize("name", ["left315", "left513", "left713", "left323", "members332", "random3", "random2^61-1"])
def test_batched_frames_match_the_one_vector_reference(name):
    """Per row count, one ``_frames`` call over every subspace gives each one's
    reference frame."""
    subspaces = frame_cases()[name]
    p, m = subspaces[0].p, subspaces[0].m
    table = RowStacks.lists(p, 2 * m, [s.rows for s in subspaces])
    for at, stack in table.groups:
        frames = (phase_space._frames(stack, p) @ stack % p).tolist()
        for i, frame in zip(at.tolist(), frames):
            assert list(map(tuple, frame)) == symplectic_basis_reference(subspaces[i])


def test_batched_frames_refuse_odd_and_degenerate_stacks():
    odd = Subspace.from_generators(3, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    isotropic = c_members(ConstructionParams.create(3, 1, 2), []).subspaces()[0]  # C[inf]
    for s, match in [(odd, "even dimension"), (isotropic, "degenerate")]:
        stack = np.array(s.rows, dtype=np.int64)[None]
        for frame in (symplectic_basis_reference, lambda s: phase_space._frames(stack, 3)):
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


def test_canonical_marks_more_rows_than_columns_without_an_r_by_r_array():
    """A matrix of more rows than columns is no echelon basis; marking one of
    5,000 rows of Z_3^2 takes no array of 5,000^2 entries."""
    table = RowStacks.of(3, 2, [5000], np.tile([1, 0], (5000, 1)))
    tracemalloc.start()
    try:
        canonical = table.canonical
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert canonical.tolist() == [False]
    assert peak < 1_000_000, peak
