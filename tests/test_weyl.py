"""Tests for monomial products, commutation phases and dense synthesis."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from helpers import basis_matrices, c_members, commutation_phase, weyl_identity, weyl_mul
from qospread.constructions import ConstructionParams, build_recursive
from qospread.phase_space import PhasePoint, Subspace, span_enumerate
from qospread.weyl import MAX_DIM, WeylMonomial, _monomial_parts, monomial_text, synthesize


def mono3(*coords):
    return WeylMonomial(PhasePoint(3, len(coords) // 2, coords))


def points(p, m):
    return [PhasePoint(p, m, c) for c in itertools.product(range(p), repeat=2 * m)]


def span_rows(s):
    return np.array([pt.coords for pt in span_enumerate(s)])


# --- symbolic products --------------------------------------------------------


def test_weyl_mul_s_times_w():
    out = weyl_mul(mono3(1, 0), mono3(0, 1))
    assert out.point.coords == (1, 1)
    assert out.phase_exp == 0


def test_weyl_mul_w_times_s():
    out = weyl_mul(mono3(0, 1), mono3(1, 0))
    assert out.point.coords == (1, 1)
    assert out.phase_exp == 1


def test_weyl_mul_identity_neutral():
    ident = weyl_identity(3, 2)
    x = mono3(1, 2, 0, 1)
    assert weyl_mul(x, ident) == x
    assert weyl_mul(ident, x) == x


@pytest.mark.parametrize("p", [3, 5])
def test_pth_power_is_identity(p):
    for u in points(p, 1):
        acc = weyl_identity(p, 1)
        for _ in range(p):
            acc = weyl_mul(acc, WeylMonomial(u))
        assert acc == weyl_identity(p, 1)


def test_commutation_phase_examples():
    assert commutation_phase(PhasePoint(3, 1, (1, 0)), PhasePoint(3, 1, (0, 1))) == 2
    assert commutation_phase(PhasePoint(3, 2, (1, 0, 0, 0)), PhasePoint(3, 2, (2, 0, 0, 0))) == 0
    # generators of C[1,1] pair to 2a = 2, so the phase is -2 = 1
    params = ConstructionParams.create(3, 1, 2)
    one = params.field.one()
    g1, g2 = c_members(params, [(one, one)], infinity=False).subspaces()[0].basis
    assert commutation_phase(g1, g2) == 1


# --- synthesis ----------------------------------------------------------------


def test_synthesize_clock_matrix():
    lam = np.exp(2j * np.pi / 3)
    w = synthesize(mono3(0, 1))
    assert np.allclose(w, np.diag([1, lam, lam**2]), atol=1e-12)


def test_synthesize_shift_matrix():
    s = synthesize(mono3(1, 0))
    want = np.zeros((3, 3))
    want[0, 2] = want[1, 0] = want[2, 1] = 1  # first row (0, 0, 1)
    assert np.allclose(s, want, atol=1e-12)


def test_synthesize_identity():
    assert np.allclose(synthesize(weyl_identity(3, 2)), np.eye(9), atol=1e-12)


def test_synthesize_dimension_guard():
    with pytest.raises(ValueError, match="limit"):
        synthesize(weyl_identity(3, 7))
    with pytest.raises(ValueError, match="^dimension 81 exceeds the synthesis limit 27$"):
        synthesize(weyl_identity(3, 4), 27)
    with pytest.raises(ValueError, match=f"^dimension 2187 exceeds the synthesis limit {MAX_DIM}$"):
        _monomial_parts(3, 7, np.zeros((1, 14), dtype=int))  # the bound of the ``_tables`` cache


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_unitarity(p, m):
    assert p**m <= 125
    eye = np.eye(p**m)
    for u in points(p, m):
        mat = synthesize(WeylMonomial(u))
        assert np.abs(mat @ mat.conj().T - eye).max() < 1e-12


def test_product_rule_matches_synthesis_exhaustive_p3_m1():
    pts = points(3, 1)
    mats = {u: synthesize(WeylMonomial(u)) for u in pts}
    for u in pts:
        for v in pts:
            sym = synthesize(weyl_mul(WeylMonomial(u), WeylMonomial(v)))
            assert np.abs(sym - mats[u] @ mats[v]).max() < 1e-9


def test_commutation_rule_matches_synthesis_sampled_m2():
    rng = np.random.default_rng(2)
    pts = points(3, 2)
    lam = np.exp(2j * np.pi / 3)
    for _ in range(300):
        u = pts[rng.integers(len(pts))]
        v = pts[rng.integers(len(pts))]
        mu, mv = synthesize(WeylMonomial(u)), synthesize(WeylMonomial(v))
        assert np.abs(mu @ mv - lam ** commutation_phase(u, v) * (mv @ mu)).max() < 1e-9


def test_trace_orthogonality_exhaustive_p3_m1():
    pts = points(3, 1)
    for u in pts:
        for v in pts:
            val = np.trace(synthesize(WeylMonomial(u)).conj().T @ synthesize(WeylMonomial(v)))
            want = 3.0 if u == v else 0.0
            assert abs(val - want) < 1e-9


# --- span bases ---------------------------------------------------------------


def test_basis_matrices_c10():
    params = ConstructionParams.create(3, 1, 2)
    [sub] = c_members(params, [(params.field.one(), params.field.zero())], infinity=False).subspaces()
    mats = basis_matrices(sub)
    assert len(mats) == 9
    span_pts = {pt.coords for pt in span_enumerate(sub)}
    assert (1, 0, 0, 1) in span_pts  # S (x) W
    assert (2, 0, 0, 2) in span_pts  # S^2 (x) W^2
    stack = np.stack(mats)
    flat = stack.reshape(9, -1)
    gram = flat.conj() @ flat.T
    assert np.abs(gram - 9 * np.eye(9)).max() < 1e-9


def test_basis_matrices_zero_subspace():
    z = Subspace.from_generators(3, 2, [])
    mats = basis_matrices(z)
    assert len(mats) == 1
    assert np.allclose(mats[0], np.eye(9), atol=1e-12)


# --- the dense builder against literal Kronecker products ------------------------

KRON_CASES = [(3, 1), (3, 2), (3, 4), (5, 2), (7, 2)]


def kron_reference(p, coords, phase_exp=0):
    """The monomial as a literal Kronecker product of per-factor S^k W^l."""
    lam = np.exp(2j * np.pi / p)
    factors = []
    for k, l in zip(coords[0::2], coords[1::2]):
        mat = np.zeros((p, p), dtype=complex)
        for j in range(p):
            mat[(j + k) % p, j] = lam ** (l * j)
        factors.append(mat)
    mat = reduce(np.kron, factors)
    return np.exp(2j * np.pi * phase_exp / p) * mat if phase_exp else mat


def sampled_points(p, m, rng, limit=500):
    pts = points(p, m)
    if len(pts) > limit:
        pts = [pts[i] for i in sorted(rng.choice(len(pts), size=limit, replace=False))]
    return pts


@pytest.mark.parametrize("p,m", KRON_CASES)
def test_synthesize_equals_kron_reference(p, m):
    rng = np.random.default_rng(p * 10 + m)
    for u in sampled_points(p, m, rng):
        e = int(rng.integers(p))
        assert np.array_equal(synthesize(WeylMonomial(u, e)), kron_reference(p, u.coords, e))


@pytest.mark.parametrize("p,m", KRON_CASES)
def test_basis_matrices_equal_kron_reference(p, m):
    rng = np.random.default_rng(p * 10 + m)
    max_span_dim = max(d for d in range(2 * m + 1) if p**d <= 500)
    subspaces = [Subspace.from_generators(p, m, [])]
    for _ in range(3):
        gens = rng.integers(p, size=(int(rng.integers(1, max_span_dim + 1)), 2 * m))
        subspaces.append(Subspace.from_generators(p, m, gens.tolist()))
    for sub in subspaces:
        stack = basis_matrices(sub)
        span = span_enumerate(sub)
        assert isinstance(stack, np.ndarray)
        assert stack.shape == (len(span), p**m, p**m)
        for mat, pt in zip(stack, span):
            assert np.array_equal(mat, kron_reference(p, pt.coords))


@pytest.mark.parametrize("p,m", [(p, m) for p in (3, 5) for m in (1, 2, 3, 4)])
def test_monomial_parts_scatter_to_basis_matrices(p, m):
    """The (target, values) form, scattered into zeros, is the dense stack bit for bit."""
    rng = np.random.default_rng(p * 10 + m)
    d = p**m
    max_span_dim = max(k for k in range(2 * m + 1) if p**k * d * d <= 2**21)  # stacks of at most 32 MB
    subspaces = [Subspace.from_generators(p, m, [])]
    for _ in range(3):
        gens = rng.integers(p, size=(int(rng.integers(1, max_span_dim + 1)), 2 * m))
        subspaces.append(Subspace.from_generators(p, m, gens.tolist()))
    for sub in subspaces:
        target, values = _monomial_parts(p, m, span_rows(sub))
        assert target.shape == values.shape == (p**sub.dim, d)
        dense = np.zeros((len(values), d, d), dtype=complex)
        dense[np.arange(len(values))[:, None], target, np.arange(d)] = values
        assert np.array_equal(dense, basis_matrices(sub))


def _factor_by_factor_parts(p, m, rows):
    """The parts computed factor by factor for each row, the values multiplied
    left to right, factor 1 first."""
    d = p**m
    lam = np.exp(2j * np.pi / p)
    table = np.array([[lam ** (l * j) for j in range(p)] for l in range(p)])
    digits = np.indices((p,) * m).reshape(m, d)
    target, values = 0, None
    for i in range(m):
        target = target * p + (digits[i] + rows[:, 2 * i, None]) % p
        factor = table[rows[:, 2 * i + 1, None], digits[i]]
        values = factor if values is None else np.multiply(values, factor)
    return target, values


@pytest.mark.parametrize("k,n", [(1, 3), (1, 4), (2, 2)], ids=["d27", "d81-k1", "d81-k2"])
def test_batched_monomial_parts_equal_per_member_calls_bit_for_bit(k, n):
    """Several members' stacked span rows in one call give each member's own
    parts, and those of the factor-by-factor product, bit for bit (int64 view):
    SIMD complex products are not bitwise commutative, so the order matters."""
    params = ConstructionParams.create(3, k, n)
    m = k * n
    spans = [span_rows(s) for s in build_recursive(params).rows.subspaces()[::7][:12]]
    target, values = _monomial_parts(3, m, np.concatenate(spans))
    start = 0
    for span in spans:
        block = slice(start, start + len(span))
        for t, v in (_monomial_parts(3, m, span), _factor_by_factor_parts(3, m, span)):
            assert t.dtype == target.dtype and np.array_equal(t, target[block])
            assert np.array_equal(v.view(np.int64), values[block].view(np.int64))
        start += len(span)
    assert start == len(values)


def test_basis_matrices_dimension_guard():
    with pytest.raises(ValueError, match="limit"):
        basis_matrices(Subspace.from_generators(3, 7, []))


def test_oversized_stack_is_refused_before_allocation():
    # 729 matrices of 729 x 729 complex entries would take 6.2 GB
    span = Subspace.from_generators(3, 6, [[int(j == 2 * i) for j in range(12)] for i in range(6)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="stack limit"):
            basis_matrices(span)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_monomial_text():
    assert monomial_text(PhasePoint(3, 2, (0, 0, 0, 0))) == "I⊗I"
    assert monomial_text(PhasePoint(3, 2, (1, 2, 1, 0))) == "SW^2⊗S"
    assert monomial_text(PhasePoint(3, 1, (0, 1))) == "W"
    assert monomial_text(PhasePoint(5, 2, (2, 0, 0, 4))) == "S^2⊗W^4"
