"""Clock-and-shift monomials: symbolic products and dense matrix synthesis.

For an odd prime p put lam = exp(2*pi*i/p) and define in M_p the clock
matrix W = diag(1, lam, ..., lam^{p-1}) and the cyclic shift S with
S e_j = e_{j+1 mod p}.  They satisfy S^p = W^p = I and SW = lam^{-1} WS,
and the p^2 products {S^i W^j} form a trace-orthogonal basis of M_p:
Tr((S^i W^j)^* S^k W^l) = p [i=k][j=l].

A monomial over m tensor factors is indexed by a phase point plus a global
scalar lam^e, tracked exactly as an exponent mod p.  Products follow, per
factor,

    (S^k W^l)(S^k' W^l') = lam^{k' l} S^{k+k'} W^{l+l'},

and two monomials commute up to lam^{-(u o v)} where o is the symplectic
product of their points.  Subalgebra spans are phase-independent, so span
synthesis fixes the representative with exponent 0 per point; phases only
matter through products.

Synthesis writes each monomial as a generalized permutation matrix: with
indices of C^{p^m} as m base-p digits, factor 1 the most significant, factor
i sends column digit j to row digit (j + k_i) mod p with value lam^{l_i j},
and the m values multiply factor 1 first, left to right.  ``_monomial_parts``
keeps that (target, values) form, p^m row indices and complex128 values per
matrix, which the numeric oracle reads; ``basis_matrices`` scatters the same
bits into dense (p^m, p^m) arrays.  Both refuse a dimension d above
``MAX_DIM`` (``synthesize`` also above a lower limit of its caller's),
because dense matrices grow as d^2 and ``_tables`` keeps four (p, m) entries
of 24 d^2 bytes each, and a span's dense stack is refused before anything is
allocated when it holds too many entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phase_space import PhasePoint, Subspace, _span_rows, symplectic_product

MAX_DIM = 3**6
MAX_STACK_ENTRIES = 2**24  # complex entries of one synthesized stack: 256 MiB


@dataclass(frozen=True)
class WeylMonomial:
    """A scalar multiple lam^phase_exp of the tensor monomial at ``point``."""

    point: PhasePoint
    phase_exp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_exp", self.phase_exp % self.point.p)

    @classmethod
    def identity(cls, p: int, m: int) -> "WeylMonomial":
        return cls(PhasePoint.zero(p, m))

    @property
    def is_identity(self) -> bool:
        return self.point.is_zero and self.phase_exp == 0


def weyl_mul(x: WeylMonomial, y: WeylMonomial) -> WeylMonomial:
    """Exact product: points add, phases pick up the per-factor cross terms."""
    u, v = x.point, y.point
    u._check(v)
    cross = sum(v.coords[2 * i] * u.coords[2 * i + 1] for i in range(u.m))
    return WeylMonomial(PhasePoint(u.p, u.m, tuple(map(sum, zip(u.coords, v.coords)))), x.phase_exp + y.phase_exp + cross)


def commutation_phase(u: PhasePoint, v: PhasePoint) -> int:
    """Exponent e with M_u M_v = lam^e M_v M_u; zero iff the monomials commute."""
    return (-symplectic_product(u, v)) % u.p


@lru_cache(maxsize=4)
def _tables(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(add, clock), both (p^m, p^m): the phase-0 monomial with shift digits s and
    clock digits c (each read as a base-p index, factor 1 most significant) holds
    clock[c, x] in row add[s, x] of column x.  add is digit-wise addition mod p;
    clock[c, x] multiplies the m factor values lam^{c_i x_i} factor 1 first, left
    to right, as in np.kron: SIMD complex * is not commutative.  Read-only, and
    kept per (p, m), so a synthesis is two row gathers."""
    d = p**m
    lam = np.exp(2j * np.pi / p)
    table = np.array([[lam ** (l * j) for j in range(p)] for l in range(p)])
    digits = np.indices((p,) * m).reshape(m, d)  # digits[:, t]: the m base-p digits of t, factor 1 first
    add, clock = 0, None
    for i in range(m):
        add = add * p + (digits[i, :, None] + digits[i]) % p
        factor = table[digits[i, :, None], digits[i]]
        clock = factor if clock is None else np.multiply(clock, factor)
    add.flags.writeable = clock.flags.writeable = False
    return add, clock


def _monomial_parts(p: int, m: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-0 monomials, one per integer point row, as (target, values): column x
    of matrix a holds values[a, x] in row target[a, x] and zeros elsewhere."""
    d = p**m
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the synthesis limit {MAX_DIM}")
    add, clock = _tables(p, m)
    rows, places = np.asarray(rows) % p, p ** np.arange(m - 1, -1, -1)
    return add[rows[:, 0::2] @ places], clock[rows[:, 1::2] @ places]


def _monomial_stack(p: int, m: int, rows: np.ndarray) -> np.ndarray:
    """Dense phase-0 monomials, one (p^m, p^m) matrix per integer point row."""
    target, values = _monomial_parts(p, m, rows)
    d = p**m
    stack = np.zeros((len(rows), d, d), dtype=complex)
    stack[np.arange(len(rows))[:, None], target, np.arange(d)] = values
    return stack


def synthesize(x: WeylMonomial, max_dim: int = MAX_DIM) -> np.ndarray:
    """Dense complex matrix of the monomial, factor 1 as the leftmost factor,
    refused above ``max_dim`` (and ``MAX_DIM``)."""
    p, d = x.point.p, x.point.p ** x.point.m
    if d > max_dim:
        raise ValueError(f"dimension {d} exceeds the synthesis limit {max_dim}")
    mat = _monomial_stack(p, x.point.m, np.array([x.point.coords]))[0]
    if x.phase_exp:
        mat = np.exp(2j * np.pi * x.phase_exp / p) * mat
    return mat


def basis_matrices(s: Subspace) -> np.ndarray:
    """One matrix per span point (phase 0 each): a trace-orthogonal family.

    Returns a (p^dim(s), p^m, p^m) complex ndarray stack with rows in
    ``span_enumerate`` order, so the zero point's identity comes first.
    A stack of more than ``MAX_STACK_ENTRIES`` entries is refused up front.
    """
    count, d = s.p**s.dim, s.p**s.m
    if count * d * d > MAX_STACK_ENTRIES:
        raise ValueError(f"{count} matrices of side {d} exceed the stack limit {MAX_STACK_ENTRIES}")
    return _monomial_stack(s.p, s.m, _span_rows(s))


def monomial_text(u: PhasePoint) -> str:
    """Human-readable monomial label, e.g. 'SW^2⊗I' or 'I⊗S^2W'."""

    def power(sym: str, e: int) -> str:
        if e == 0:
            return ""
        return sym if e == 1 else f"{sym}^{e}"

    parts = []
    for i in range(u.m):
        k, l = u.coords[2 * i], u.coords[2 * i + 1]
        txt = power("S", k) + power("W", l)
        parts.append(txt or "I")
    return "⊗".join(parts)
