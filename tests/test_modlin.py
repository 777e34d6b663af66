"""The batched mod-p elimination against a plain row loop, over small and huge primes.

``rref_reference`` is the one-matrix Python row loop the package reduced
with before its elimination was batched; it stays here as the reference.
The primes straddle the dtype switch: 3, 5, 7 and 1009 reduce in small
fixed-width integers, 2^31 - 1 and 2^31 + 11 in int64 for short rows and in
Python-int objects for longer ones, and 4294967311 in objects always.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qospread import _modlin
from qospread.phase_space import (
    ISOTROPIC,
    MIXED,
    NONDEGENERATE,
    RowStacks,
    Subspace,
    _gram_ranks,
    classify_subspace,
    symplectic_product,
)

PRIMES = [3, 5, 7, 1009, 2**31 - 1, 2**31 + 11, 4294967311]


def rref_reference(rows, p):
    """Reduced row echelon form mod p, one row operation at a time."""
    mat = [[x % p for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


@st.composite
def matrices(draw, p, r, c):
    """An r x c matrix mod p: zero, of a drawn rank below r, or drawn entry by entry."""
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["zero", "deficient", "full"]))
    if kind == "zero" or r == 0:
        return [[0] * c for _ in range(r)]
    if kind == "full":
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    basis = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=max(r - 1, 1)))
    coeffs = draw(st.lists(st.lists(entry, min_size=len(basis), max_size=len(basis)), min_size=r, max_size=r))
    return [[sum(a * b[j] for a, b in zip(row, basis)) % p for j in range(c)] for row in coeffs]


@st.composite
def stacks(draw):
    p = draw(st.sampled_from(PRIMES))
    r, c = draw(st.integers(0, 5)), draw(st.integers(1, 8))
    return p, r, c, draw(st.lists(matrices(p, r, c), min_size=0, max_size=6))


def assert_matches_reference(p, r, c, mats):
    stack = np.array(mats, dtype=object).reshape(len(mats), r, c)
    ech, ranks = _modlin.rref_stack(stack, p)
    assert ech.shape == (len(mats), r, c)
    for mat, rows, rank in zip(mats, ech.tolist(), ranks.tolist()):
        want, pivots = rref_reference(mat, p)
        assert [tuple(row) for row in rows[:rank]] == want
        assert [next(i for i, x in enumerate(row) if x) for row in rows[:rank]] == pivots
        assert not any(any(row) for row in rows[rank:])
        assert _modlin.rref(mat, p) == (want, pivots)


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_rref_stack_matches_reference(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize(
    "p,c,dtype",
    [(3, 12, np.int8), (1009, 4, np.int32), (2**31 - 1, 2, np.int64), (2**31 - 1, 3, object),
     (2**31 + 11, 1, np.int64), (2**31 + 11, 2, object), (4294967311, 1, object)],
)
def test_dtype_switch(p, c, dtype):
    # the largest intermediate is c * (p - 1)^2 of either sign; both sides of int64 reduce exactly
    assert _modlin._dtype(p, c) == np.dtype(dtype)
    rng = np.random.default_rng(c)
    mats = [[[int(x) for x in rng.integers(0, min(p, 2**62), c)] for _ in range(3)] for _ in range(4)]
    mats.append([mats[0][0], mats[0][0], [0] * c])
    assert_matches_reference(p, 3, c, mats)


def literal_classification(s):
    gram = [[symplectic_product(u, v) for v in s.basis] for u in s.basis]
    if not any(any(row) for row in gram):
        return ISOTROPIC, 0
    rank = len(rref_reference(gram, s.p)[0])
    return (NONDEGENERATE if rank == s.dim else MIXED), rank


@st.composite
def families(draw):
    """Subspaces of one ambient, of mixed dimensions; rows flagged shift-only
    have zero clock coordinates, so isotropic and mixed spans are common."""
    p, m = draw(st.sampled_from(PRIMES)), draw(st.integers(1, 3))
    subs = []
    for _ in range(draw(st.integers(1, 6))):
        rows = []
        for _ in range(draw(st.integers(0, 2 * m))):
            row = draw(st.lists(st.integers(0, p - 1), min_size=2 * m, max_size=2 * m))
            if draw(st.booleans()):
                row[1::2] = [0] * m
            rows.append(row)
        subs.append(Subspace.from_generators(p, m, rows))
    return subs


@settings(max_examples=200, deadline=None)
@given(families())
def test_batched_classification_matches_literal_gram(subs):
    want = [literal_classification(s) for s in subs]
    table = RowStacks.lists(subs[0].p, 2 * subs[0].m, [s.rows for s in subs])  # one elimination per row count
    assert _gram_ranks(table).tolist() == [rank for _, rank in want]
    assert [tuple(classify_subspace(s)) for s in subs] == want


@pytest.mark.parametrize("p,m", [(3, 2), (2**31 - 1, 1), (2**31 - 1, 2), (4294967311, 2)])
def test_classification_on_both_dtypes(p, m):
    # 2^31 - 1 at m = 1 forms its Gram matrices in int64, at m = 2 in objects
    unit = [[int(i == j) for j in range(2 * m)] for i in range(2 * m)]
    subs = [Subspace.from_generators(p, m, unit[:d]) for d in range(2 * m + 1)]
    want = [literal_classification(s) for s in subs]
    assert [tuple(classify_subspace(s)) for s in subs] == want
    assert {kind for kind, _ in want} == ({ISOTROPIC, NONDEGENERATE, MIXED} if m > 1 else {ISOTROPIC, NONDEGENERATE})


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_the_permutation_expansion(p):
    # the Leibniz sum over permutations, each signed by its inversions; rows with
    # zero leading entries force swaps, and a repeated row makes a singular matrix
    rng = np.random.default_rng(p % 1000)
    for size in range(5):
        for _ in range(6):
            rows = [[int(x) for x in row] for row in rng.integers(0, min(p, 4), (size, size))]
            if size > 1 and rng.random() < 0.3:
                rows[-1] = list(rows[0])
            want = sum(math.prod(rows[i][j] for i, j in enumerate(perm))
                       * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                       for perm in itertools.permutations(range(size))) % p
            assert _modlin.det(rows, p) == want, rows
