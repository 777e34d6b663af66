"""Tests for Z_p / GF(p^k) arithmetic against brute-force oracles."""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from helpers import frobenius_trace, trace_dual_basis
from qospread import _modlin
from qospread.finite_field import (
    COUNTED,
    FieldSpec,
    _is_irreducible,
    _mul_coords,
    _pow_coords,
    field_trace,
    find_irreducible,
    find_nonresidue,
    format_element,
    gf,
    is_nonresidue,
    is_prime,
)

SMALL_FIELDS = [gf(3), gf(5), gf(7), gf(3, 2), gf(5, 2), gf(3, 3), gf(7, 3)]


def poly_has_root(low_coeffs, p):
    """Oracle: substitute every x in Z_p into c_0 + ... + c_{k-1}x^{k-1} + x^k."""
    k = len(low_coeffs)
    for x in range(p):
        val = pow(x, k, p)
        for i, c in enumerate(low_coeffs):
            val += c * pow(x, i, p)
        if val % p == 0:
            return True
    return False


def poly_divides(divisor, f, p):
    """Oracle: long division remainder, coefficients low-to-high, both monic."""
    r = [x % p for x in f]
    while len(r) >= len(divisor):
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1]
        shift = len(r) - len(divisor)
        for i, gi in enumerate(divisor):
            r[shift + i] = (r[shift + i] - c * gi) % p
        r.pop()
    return not any(r)


def brute_force_irreducible(low_coeffs, p):
    """Oracle: trial division by every monic polynomial of degree 1..k-1."""
    k = len(low_coeffs)
    f = list(low_coeffs) + [1]
    for d in range(1, k):
        for idx in range(p**d):
            g = []
            rem = idx
            for _ in range(d):
                rem, digit = divmod(rem, p)
                g.append(digit)
            g.append(1)
            if poly_divides(g, f, p):
                return False
    return True


# --- is_prime ----------------------------------------------------------------


def test_is_prime_matches_trial_division_below_1e5():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n) != trial_division(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # ... to every prime base up to 31
    318665857834031151167461,  # ... to every prime base up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_large_primes_at_once():
    assert is_prime(2**61 - 1) and is_prime(1000000000000000003) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) ** 2) and not is_prime(1000003 * 1000000000000000003)


def test_is_prime_refuses_above_the_exact_bound():
    with pytest.raises(ValueError, match="primality"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="primality"):
        gf(2**127 - 1)


# --- find_irreducible ------------------------------------------------------


def test_find_irreducible_k1_is_x():
    assert find_irreducible(3, 1) == (0,)
    assert find_irreducible(7, 1) == (0,)


def test_find_irreducible_gf9():
    # oracle: x^2 + 1 has no root mod 3
    assert not poly_has_root((1, 0), 3)
    assert find_irreducible(3, 2) == (1, 0)


def test_find_irreducible_gf25():
    # oracle: x^2 + 1 has root 2 mod 5, x^2 + 2 has none
    assert poly_has_root((1, 0), 5)
    assert not poly_has_root((2, 0), 5)
    assert find_irreducible(5, 2) == (2, 0)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_find_irreducible_has_no_small_factor(p, k):
    low = find_irreducible(p, k)
    assert len(low) == k
    assert not poly_has_root(low, p)
    assert brute_force_irreducible(low, p)


def test_find_irreducible_is_first_in_scan_order():
    # every earlier candidate in base-p counting order must be reducible
    p, k = 5, 2
    low = find_irreducible(p, k)
    idx = low[0] + p * low[1]
    for i in range(idx):
        cand = (i % p, (i // p) % p)
        assert not brute_force_irreducible(cand, p)


def _hashed_candidate(p, k, j):
    """Candidate j past the counted ones: shake_256 of "p,k,j" as an integer mod p^k, in base p."""
    size = (p**k).bit_length() // 8 + 8
    idx = int.from_bytes(hashlib.shake_256(f"{p},{k},{j}".encode()).digest(size), "big") % p**k
    return tuple(idx // p**i % p for i in range(k))


def test_find_irreducible_past_the_counted_candidates():
    # p = 10,007 = 2 mod 3, so every x^3 + c is reducible (cubing permutes Z_p)
    # and the first COUNTED candidates, x^3 + j, all have a root
    p, k = 10_007, 3
    for j in range(COUNTED):
        assert pow(-j % p, (2 * p - 1) // 3, p) ** 3 % p == -j % p
    low = find_irreducible(p, k)
    first = next(j for j in itertools.count(COUNTED) if not poly_has_root(_hashed_candidate(p, k, j), p))
    assert low == _hashed_candidate(p, k, first)


def find_irreducible_unskipped(p, k):
    """The search from candidate 0 whatever p and k are: the counted candidates
    j in base p, then the hashed ones."""
    for j in itertools.count():
        low = tuple(j // p**i % p for i in range(k)) if j < COUNTED else _hashed_candidate(p, k, j)
        if _is_irreducible(low, p):
            return low


def binomials_reducible(p, k):
    """Lidl & Niederreiter, Theorem 3.75: no x^k + c over Z_p is irreducible when
    a prime factor of k does not divide p - 1, or when 4 | k and p = 3 mod 4."""
    primes = [r for r in range(2, k + 1) if k % r == 0 and all(r % q for q in range(2, r))]
    return any((p - 1) % r for r in primes) or (k % 4 == 0 and p % 4 == 3)


SKIPPED = [(p, k) for p in (257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353)
           for k in range(2, 10) if binomials_reducible(p, k)]


def test_skipping_the_counted_binomials_keeps_every_polynomial():
    """Where the theorem rules out every counted binomial, the search that skips
    them returns what the search from candidate 0 returns; k = 2 never skips."""
    assert len(SKIPPED) == 69
    for p, k in SKIPPED:
        assert find_irreducible(p, k) == find_irreducible_unskipped(p, k), (p, k)
    for p, k in [(257, 4), (313, 4), (337, 2)]:  # the theorem allows a binomial, and each finds one
        assert not binomials_reducible(p, k) and find_irreducible(p, k) == find_irreducible_unskipped(p, k)
    assert not binomials_reducible(2**61 - 1, 2) and find_irreducible(2**61 - 1, 2) == (1, 0)


def test_find_irreducible_needs_few_candidates_whatever_p_is():
    # a scan with c_0 fastest would test about p candidates at each of these
    start = time.perf_counter()
    for p, k in [(1_000_000_007, 3), (2**61 - 1, 4)]:
        assert _is_irreducible(find_irreducible(p, k), p)
    assert time.perf_counter() - start < 5.0


def test_every_pinned_field_is_found_among_the_counted_candidates():
    # the latest first hit of the fields the tests and CI use is candidate 172, at (11, 31)
    low = find_irreducible(11, 31)
    assert sum(c * 11**i for i, c in enumerate(low)) == 172


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3),
                                 (11, 2), (11, 3), (13, 2)])
def test_berlekamp_criterion_matches_trial_division(p, k):
    """Every monic polynomial of degree k, powers of irreducibles such as
    (x^2 + 1)^2 over Z_3 included; find_irreducible returns the first
    irreducible one in scan order."""
    verdicts = []
    for idx in range(p**k):
        low = tuple(idx // p**i % p for i in range(k))
        verdicts.append(brute_force_irreducible(low, p))
        assert _is_irreducible(low, p) == verdicts[-1], low
    first = verdicts.index(True)
    assert find_irreducible(p, k) == tuple(first // p**i % p for i in range(k))


def _is_irreducible_reference(poly, p):
    """Berlekamp's criterion with two separate exponentiations: x^{p^k} = x mod f,
    and rank k - 1 of Q - I with each row x^{jp} of Q raised on its own."""
    k = len(poly)
    if k == 1:
        return True
    x = (0, 1) + (0,) * (k - 2)
    if _pow_coords(p, poly, x, p**k) != x:
        return False
    q = [_pow_coords(p, poly, x, j * p) for j in range(k)]
    return _modlin.rank([[c - (i == j) for j, c in enumerate(row)] for i, row in enumerate(q)], p) == k - 1


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_frobenius_matrix_criterion_matches_two_exponentiations(p, k):
    for idx in range(p**k):
        low = tuple(idx // p**i % p for i in range(k))
        assert _is_irreducible(low, p) == _is_irreducible_reference(low, p), low


def test_big_fields_are_set_up_at_once():
    # trial division would try up to p linear factors, and the non-residue
    # scan p squares of Z_p, before reaching an answer
    start = time.perf_counter()
    for p, k in [(2**61 - 1, 2), (1_000_003, 2), (3, 26)]:
        field = gf(p, k)
        assert is_nonresidue(find_nonresidue(field))
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(1_000_003, 2, (1_000_002, 0))  # x^2 - 1 = (x - 1)(x + 1)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("field", [gf(3, 2), gf(5, 2), gf(7, 2), gf(3, 4)], ids=str)
def test_find_nonresidue_skip_of_z_p_keeps_the_result(field):
    # every element of Z_p is a square in GF(p^2), so the first non-residue lies past Z_p
    assert not any(is_nonresidue(field.from_index(i)) for i in range(field.p))
    assert find_nonresidue(field) == next(x for x in field.elements() if is_nonresidue(x))


@pytest.mark.parametrize("p", [1, 2, 4, 9, -3])
def test_find_irreducible_rejects_bad_p(p):
    with pytest.raises(ValueError, match="odd prime"):
        find_irreducible(p, 2)


def test_fieldspec_rejects_reducible_poly():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(3, 2, (0, 0))  # x^2


def test_fieldspec_k1_empty_poly_normalises():
    assert FieldSpec(3).poly == (0,)


# --- non-residue search ----------------------------------------------------


def brute_force_squares(field):
    return {(x * x) for x in field.elements()}


def test_find_nonresidue_z3():
    assert find_nonresidue(gf(3)).coords == (2,)


def test_find_nonresidue_z7():
    # oracle: squares mod 7 are {0, 1, 2, 4}
    assert {(x * x) % 7 for x in range(7)} == {0, 1, 2, 4}
    assert find_nonresidue(gf(7)).coords == (3,)


def test_find_nonresidue_gf9():
    f9 = gf(3, 2)
    d = find_nonresidue(f9)
    assert format_element(d) == "1+t"
    assert d not in brute_force_squares(f9)


@pytest.mark.parametrize("field", SMALL_FIELDS + [gf(3, 4), gf(11, 2), gf(5, 3)], ids=str)
def test_norm_test_agrees_with_euler_on_every_nonzero_element(field):
    # Euler's criterion: a is a non-square exactly when a^((q-1)/2) = -1
    minus_one = field.scalar(-1)
    for i in range(1, field.size):
        a = field.from_index(i)
        assert is_nonresidue(a) == (a ** ((field.size - 1) // 2) == minus_one), a


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_nonresidue_is_never_a_square(field):
    d = find_nonresidue(field)
    assert not d.is_zero
    for x in field.elements():
        assert x * x != d
    squares = brute_force_squares(field)
    assert d == next(x for x in field.elements() if not x.is_zero and x not in squares)


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_exactly_half_nonzero_elements_are_squares(field):
    squares = brute_force_squares(field)
    assert len(squares) - 1 == (field.size - 1) // 2


# --- multiplication and inversion ------------------------------------------


def test_gf_mul_examples_gf9():
    f9 = gf(3, 2)
    one_t = f9.element((1, 1))
    assert (one_t * one_t).coords == (0, 2)  # (1+t)^2 = 2t
    t = f9.element((0, 1))
    assert (t * t).coords == (2, 0)  # t^2 = 2


def test_gf_mul_identity():
    for field in SMALL_FIELDS:
        one = field.one()
        for a in field.elements():
            assert a * one == a


def test_gf_mul_matches_int_arithmetic_for_k1():
    f7 = gf(7)
    rng = random.Random(11)
    for _ in range(100):
        x, y = rng.randrange(7), rng.randrange(7)
        assert (f7.scalar(x) * f7.scalar(y)).coords == ((x * y) % 7,)


def test_gf_mul_rejects_mixed_fields():
    with pytest.raises(ValueError, match="mixed fields"):
        gf(3).one() * gf(3, 2).one()


def test_gf_inv_examples():
    assert gf(3).scalar(2).inverse().coords == (2,)  # 2*2 = 4 = 1 mod 3
    f9 = gf(3, 2)
    t = f9.element((0, 1))
    assert t.inverse().coords == (0, 2)  # t * 2t = 2t^2 = 4 = 1
    assert f9.one().inverse() == f9.one()


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=str)
def test_gf_inv_exhaustive(field):
    assert field.size <= 343
    for x in field.elements():
        if x.is_zero:
            continue
        assert x * x.inverse() == field.one()


def test_gf_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf(5).zero().inverse()


# --- trace and dual basis ---------------------------------------------------


def test_field_trace_examples():
    f9 = gf(3, 2)
    assert field_trace(f9.zero()) == 0
    assert field_trace(f9.one()) == 2  # 1 + 1^3
    assert field_trace(f9.element((0, 1))) == 0  # t + t^3 = 3t


def test_field_trace_is_identity_for_k1():
    f5 = gf(5)
    for x in f5.elements():
        assert field_trace(x) == x.coords[0]


@pytest.mark.parametrize("field", [gf(3, 2), gf(5, 2), gf(3, 3), gf(3, 4)], ids=str)
def test_field_trace_matches_the_frobenius_sum(field):
    # field_trace reads the trace matrix; the reference sums the conjugates a^{p^i}
    for a in field.elements():
        assert field_trace(a) == frobenius_trace(a)


def test_tables_are_exact_past_int64():
    # Tr(t^i t^j) sums k^2 products of residues near 2^61: int64 would wrap
    field = gf(2**61 - 1, 2)
    basis = field.power_basis()
    assert field.trace_matrix.tolist() == [[frobenius_trace(ti * tj) for tj in basis] for ti in basis]
    z = field.element((2**61 - 3, 2**60 + 7))
    assert field.mul_matrices(z.coords).tolist() == [list((z * tj).coords) for tj in basis]
    assert field_trace(z) == frobenius_trace(z)


@pytest.mark.parametrize("field", [gf(3, 2), gf(3, 3), gf(5, 2)], ids=str)
def test_field_trace_linear(field):
    rng = random.Random(23)
    p = field.p
    for _ in range(200):
        a = field.from_index(rng.randrange(field.size))
        b = field.from_index(rng.randrange(field.size))
        al, be = rng.randrange(p), rng.randrange(p)
        lhs = field_trace(al * a + be * b)
        assert lhs == (al * field_trace(a) + be * field_trace(b)) % p


@pytest.mark.parametrize("field", [gf(3, 2), gf(5, 2), gf(7)], ids=str)
def test_trace_form_nondegenerate(field):
    for a in field.elements():
        if a.is_zero:
            continue
        assert any(field_trace(a * b) for b in field.elements())


def test_trace_dual_basis_gf9():
    f9 = gf(3, 2)
    dual = trace_dual_basis(f9.power_basis())
    assert [e.coords for e in dual] == [(2, 0), (0, 1)]  # {2, t}


def test_trace_dual_basis_k1_is_inverse():
    f3 = gf(3)
    assert trace_dual_basis([f3.one()]) == [f3.one()]
    assert trace_dual_basis([f3.scalar(2)]) == [f3.scalar(2)]  # Tr(2*2) = 4 = 1


@pytest.mark.parametrize("field", [gf(3, 2), gf(3, 3), gf(5, 2)], ids=str)
def test_trace_dual_basis_defining_property(field):
    rng = random.Random(7)
    for _ in range(10):
        # random Z_p-basis: sample until the dual solve accepts it
        cand = [field.from_index(rng.randrange(field.size)) for _ in range(field.k)]
        try:
            dual = trace_dual_basis(cand)
        except ValueError:
            continue
        for i, e in enumerate(cand):
            for j, f in enumerate(dual):
                assert field_trace(e * f) == (1 if i == j else 0)


def test_trace_dual_basis_rejects_dependent_input():
    f9 = gf(3, 2)
    with pytest.raises(ValueError, match="dependent"):
        trace_dual_basis([f9.one(), f9.scalar(2)])


# --- enumeration and formatting ---------------------------------------------


def test_enumeration_order_gf9():
    f9 = gf(3, 2)
    first = [e.coords for e in list(f9.elements())[:5]]
    assert first == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    assert len(set(f9.elements())) == 9


def test_scalar_vs_index_decoding():
    f9 = gf(3, 2)
    assert f9.scalar(5).coords == (2, 0)  # 5 mod 3, embedded scalar
    assert f9.from_index(5).coords == (2, 1)  # base-3 digits of 5


def test_format_element():
    f27 = gf(3, 3)
    assert format_element(f27.zero()) == "0"
    assert format_element(f27.scalar(2)) == "2"
    assert format_element(f27.element((0, 1, 0))) == "t"
    assert format_element(f27.element((1, 2, 0))) == "1+2t"
    assert format_element(f27.element((0, 0, 2))) == "2t^2"


def test_mixed_field_addition_rejected():
    with pytest.raises(ValueError, match="mixed fields"):
        gf(3).one() + gf(5).one()


# --- multiplication and trace tables -----------------------------------------


@pytest.mark.parametrize("field", [gf(3, 2), gf(5, 2), gf(3, 3), gf(3, 4)], ids=str)
def test_field_tables_match_literal_definitions(field):
    p, basis = field.p, field.power_basis()
    trace, tables = field.trace_matrix, field.mul_tables
    assert trace.shape == (field.k, field.k) and tables.shape == (field.k,) * 3
    for z in field.elements():
        coords = np.array(z.coords)
        assert (trace @ coords % p).tolist() == [frobenius_trace(z * ti) for ti in basis]
        for j, tj in enumerate(basis):
            assert (coords @ tables[j] % p).tolist() == list(_mul_coords(p, field.poly, z.coords, tj.coords))
        assert field.mul_matrices(z.coords).tolist() == [list((z * tj).coords) for tj in basis]


def test_field_tables_are_cached_read_only_and_sized_by_k():
    field = gf(3, 2)
    assert field.trace_matrix is field.trace_matrix
    assert field.mul_tables is field.mul_tables
    assert not field.trace_matrix.flags.writeable and not field.mul_tables.flags.writeable
    big = gf(1000003)
    assert big.trace_matrix.tolist() == [[1]] and big.mul_tables.tolist() == [[[1]]]
