"""Exact arithmetic in Z_p and its extension fields GF(p^k), p an odd prime.

An element of GF(p^k) is stored as its coordinate vector (a_0, ..., a_{k-1})
over the power basis {1, t, ..., t^{k-1}}, where t is a root of a monic
irreducible polynomial

    f(x) = c_0 + c_1 x + ... + c_{k-1} x^{k-1} + x^k

over Z_p.  A ``FieldSpec`` pins down (p, k, f) and every ``GFElement``
carries its ``FieldSpec``, so cross-field arithmetic fails loudly instead
of being silently reduced.  k = 1 degenerates to Z_p itself (f(x) = x, trace =
identity), which lets prime-field and extension-field callers share one
code path.

Reproducibility conventions, relied on by the on-disk family format:

* ``FieldSpec.elements`` enumerates in base-p counting order with a_0 as the
  least significant digit: 0, 1, ..., p-1, t, 1+t, ...
* ``find_irreducible`` returns the first monic irreducible polynomial in
  that coefficient order (c_0 varies fastest) among the first ``COUNTED``
  candidates, else the first among candidates read from shake_256 digests.
* ``find_nonresidue`` returns the first non-square in enumeration order.

Each ``FieldSpec`` carries two exact Z_p tables of O(k^3) integers, in the
dtype ``_modlin._dtype`` picks (Python ints past int64): ``mul_tables``, the
matrices of multiplication by each t^j, and ``trace_matrix`` (T[i][j] =
Tr(t^i t^j), so T z lists z's trace-dual coordinates), read from them since
Tr(a) is the trace of "multiply by a" (Lidl & Niederreiter, Finite Fields, 2.3).

Characteristic 2 is rejected everywhere: the subspace constructions built on
top of this module need both 2^{-1} mod p and a quadratic non-residue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _modlin

COUNTED = 256  # find_irreducible's candidates in counting order, before the hashed ones

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to all of them


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41, exact below
    ``_PRIME_TEST_BOUND``; larger n are refused with ``ValueError``."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"{n} is at or above {_PRIME_TEST_BOUND}, the limit of the exact primality test")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _PRIME_BASES)


def require_odd_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p!r}")


def _digits(i: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        i, r = divmod(i, p)
        out.append(r)
    return out


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Berlekamp's criterion: f is irreducible iff x^{p^k} = x mod f, so f is
    square-free with factors of degrees dividing k, and Q - I has rank k - 1,
    k minus the number of factors, where row j of the Frobenius matrix Q is
    x^{jp} mod f; g -> g^p is linear with matrix Q, so x^{p^k} is x Q^k."""
    k = len(poly)
    if k == 1:
        return True
    x = (0, 1) + (0,) * (k - 2)
    xp = _pow_coords(p, poly, x, p)
    rows = [(1,) + (0,) * (k - 1)]
    for _ in range(k - 1):
        rows.append(_mul_coords(p, poly, rows[-1], xp))
    frobenius = np.array(rows, dtype=_modlin._dtype(p, k))
    v = frobenius[1]  # x^p = x Q
    for _ in range(k - 1):
        v = v @ frobenius % p
    return v.tolist() == list(x) and _modlin.rank(frobenius - np.eye(k, dtype=frobenius.dtype), p) == k - 1


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The first monic irreducible degree-k polynomial over Z_p among fixed candidates.

    Candidate j < ``COUNTED`` is j in base p (c_0 least significant); past
    them it is shake_256 of "p,k,j" as an integer mod p^k in base p, so about
    k candidates past ``COUNTED`` are tested whatever p is (about one monic
    polynomial in k is irreducible).  Returns (c_0, ..., c_{k-1}), the monic
    x^k term implicit; for k = 1 this is f(x) = x, i.e. (0,).

    For p >= ``COUNTED`` the counted candidates are the binomials x^k + j, and
    none is irreducible when a prime factor of k does not divide p - 1, or
    when 4 | k and p = 3 mod 4 (Lidl & Niederreiter, Theorem 3.75): the search
    then starts at the hashed candidates, with the same result.
    """
    require_odd_prime(p)
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    size = (p**k).bit_length() // 8 + 8  # digest bytes: the bias mod p^k stays below 2^-64
    primes = [r for r in range(2, k + 1) if k % r == 0 and all(r % q for q in range(2, r))]
    counted = p < COUNTED or all((p - 1) % r == 0 for r in primes) and not (k % 4 == 0 and p % 4 == 3)
    for j in itertools.count(0 if counted else COUNTED):
        if j == COUNTED:
            import hashlib  # only here: importing it maps OpenSSL, about 3.5 MB of resident memory
        idx = j if j < COUNTED else int.from_bytes(hashlib.shake_256(f"{p},{k},{j}".encode()).digest(size), "big")
        cand = tuple(_digits(idx % p**k, p, k))
        if _is_irreducible(cand, p):
            return cand


@dataclass(frozen=True)
class FieldSpec:
    """The field GF(p^k) presented as Z_p[x]/(f) with f monic irreducible.

    ``poly`` holds the k low coefficients (c_0, ..., c_{k-1}) of f; an empty
    tuple is accepted for k = 1 and normalised to (0,), meaning f(x) = x.
    """

    p: int
    k: int = 1
    poly: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        if self.k < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.k}")
        poly = tuple(int(c) % self.p for c in self.poly)
        if not poly and self.k == 1:
            poly = (0,)
        if len(poly) != self.k:
            raise ValueError(f"need {self.k} low coefficients, got {len(poly)}")
        if not _is_irreducible(poly, self.p):
            raise ValueError(f"x^{self.k} + {list(poly)} is reducible over Z_{self.p}")
        object.__setattr__(self, "poly", poly)

    @property
    def size(self) -> int:
        return self.p**self.k

    def element(self, coords) -> "GFElement":
        return GFElement(self, tuple(int(c) % self.p for c in coords))

    def zero(self) -> "GFElement":
        return GFElement(self, (0,) * self.k)

    def one(self) -> "GFElement":
        return self.scalar(1)

    def scalar(self, n: int) -> "GFElement":
        """The image of the integer n in the prime subfield."""
        return GFElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def from_index(self, i: int) -> "GFElement":
        """The i-th element in enumeration order (base-p digits of i)."""
        if not 0 <= i < self.size:
            raise ValueError(f"index {i} out of range for a field of size {self.size}")
        return GFElement(self, tuple(_digits(i, self.p, self.k)))

    def elements(self):
        for i in range(self.size):
            yield self.from_index(i)

    def power_basis(self) -> list["GFElement"]:
        """The basis {1, t, ..., t^{k-1}}; t^i has unit coordinate vector e_i."""
        return [self.element(tuple(1 if j == i else 0 for j in range(self.k))) for i in range(self.k)]

    @cached_property
    def mul_tables(self) -> np.ndarray:
        """(k, k, k) array: row i of ``mul_tables[j]`` holds the coordinates of
        t^i t^j = t^{i+j}, gathered from the powers t^0, ..., t^{2k-2}."""
        k = self.k
        powers = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        for _ in range(k - 1):
            powers.append(_mul_coords(self.p, self.poly, powers[-1], powers[1]))
        hankel = np.add.outer(np.arange(k), np.arange(k))
        return _frozen(np.array(powers, dtype=_modlin._dtype(self.p, k))[hankel])

    @cached_property
    def trace_matrix(self) -> np.ndarray:
        """The symmetric (k, k) array T[i][j] = Tr(t^i t^j) = trace(mul_tables[i] @ mul_tables[j])."""
        tables = self.mul_tables.astype(_modlin._dtype(self.p, self.k**2))
        return _frozen(np.einsum("iab,jba->ij", tables, tables) % self.p)

    def mul_matrices(self, coords) -> np.ndarray:
        """Multiplication matrices, row j = coordinates of z t^j, for an (..., k)
        array of coordinate vectors z: an (..., k, k) array mod p."""
        return np.tensordot(np.asarray(coords, dtype=self.mul_tables.dtype), self.mul_tables, axes=1) % self.p

    def __str__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}), f={list(self.poly)}+x^{self.k}"


def gf(p: int, k: int = 1, poly=None) -> FieldSpec:
    """GF(p^k) with the default (first-in-scan-order) irreducible polynomial."""
    return FieldSpec(p, k, tuple(poly) if poly is not None else find_irreducible(p, k))


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _mul_coords(p: int, poly: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of a and b in Z_p[x]/(f), f monic with low coefficients ``poly``."""
    k = len(poly)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce with x^k = -(c_0 + ... + c_{k-1} x^{k-1})
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j, fj in enumerate(poly):
                prod[d - k + j] = (prod[d - k + j] - c * fj) % p
    return tuple(prod[:k])


def _pow_coords(p: int, poly: tuple[int, ...], a: tuple[int, ...], e: int) -> tuple[int, ...]:
    """a^e in Z_p[x]/(f) for e >= 0, by square and multiply."""
    out = (1,) + (0,) * (len(poly) - 1)
    while e:
        if e & 1:
            out = _mul_coords(p, poly, out, a)
        a = _mul_coords(p, poly, a, a)
        e >>= 1
    return out


@dataclass(frozen=True)
class GFElement:
    """An element of GF(p^k) in power-basis coordinates."""

    field: FieldSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.field.k:
            raise ValueError(f"expected {self.field.k} coordinates, got {len(self.coords)}")

    def _coerce(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.field != self.field:
                raise ValueError(f"mixed fields: {self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.element(x + y for x, y in zip(self.coords, other.coords))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.element(x - y for x, y in zip(self.coords, other.coords))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self.field.element(-x for x in self.coords)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.field, _mul_coords(self.field.p, self.field.poly, self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "GFElement":
        if e < 0:
            return self.inverse() ** (-e)
        return GFElement(self.field, _pow_coords(self.field.p, self.field.poly, self.coords, e))

    def inverse(self) -> "GFElement":
        if self.is_zero:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self ** (self.field.size - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __str__(self) -> str:
        return format_element(self)


def field_trace(a: GFElement) -> int:
    """The trace Tr(a) = a + a^p + ... + a^{p^{k-1}} = sum_i a_i Tr(t^i), a value in Z_p.

    Tr is Z_p-linear and (x, y) -> Tr(xy) is a non-degenerate bilinear form;
    for k = 1 it is the identity on Z_p.
    """
    return sum(c * t for c, t in zip(a.coords, a.field.trace_matrix[0].tolist())) % a.field.p


def is_nonresidue(a: GFElement) -> bool:
    """a is a non-square exactly when its norm, the determinant of multiplication
    by a, is a non-square mod p: the norm maps the cyclic group GF(q)* onto Z_p*,
    a generator to a generator, so it keeps the parity of every exponent."""
    p = a.field.p
    return pow(_modlin.det(a.field.mul_matrices(a.coords).tolist(), p), (p - 1) // 2, p) == p - 1


def find_nonresidue(field: FieldSpec) -> GFElement:
    """First element D != 0 in enumeration order with D != x^2 for all x.

    Exactly half the nonzero elements are squares when p >= 3, so the scan
    always terminates; each candidate costs one k x k determinant mod p.  For even
    k the scan skips Z_p, whose elements are all squares in GF(p^2) <= GF(p^k).
    """
    for i in range(field.p if field.k % 2 == 0 else 0, field.size):
        x = field.from_index(i)
        if is_nonresidue(x):
            return x
    raise AssertionError("unreachable for p >= 3")


def format_element(a: GFElement) -> str:
    """Deterministic text form: a polynomial in t, e.g. '0', '2', '1+t', '2t^2'."""
    parts = []
    for i, c in enumerate(a.coords):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(parts) or "0"
