"""Builders for the quasi-orthogonal subalgebra families.

Every family member is a subspace of phase space; the subalgebra it stands
for is the complex span of the Weyl monomials over that subspace.  Three
layers of construction live here:

* the two-block spread of p^{2k}+1 matrix-algebra members in M_{p^{2k}},
  assembled from the two-parameter C family (nonzero first parameter), the
  one-parameter D family and the D-infinity block;
* a Lagrangian (masa) spread of p^{2k}+1 isotropic members of the same
  ambient, built from the lines {(x, mx)} of GF(p^{2k})^2 pushed down to
  Z_p coordinates — each member spans a maximal abelian subalgebra;
* the recursive construction: given the maximal family on n-2 blocks and
  the masa spread on 2 blocks, it emits left members padded with identity,
  the two-block spread on the right padded with identity, and for every
  (left member, masa, (a, b) != (0, 0)) one mixed member threaded through a
  symplectic frame of the left member — reaching the dimension bound
  (p^{2kn}-1)/(p^{2k}-1) members in M_{p^{kn}}.

Every layer is batched integer linear algebra in ``_modlin._dtype`` (exact at
every p), the symplectic-tableau view of Aaronson & Gottesman (PRA 70,
052328, 2004): the GF coordinates of all generator pairs of the two-block
spread or of the mixed members go through one array-valued pi1, then one
elimination: of every member, or for the mixed members of every left frame,
whose rows then follow in closed form (``_mixed_members``); the frames come
from one batched ``_frames``.

All builders are deterministic: field elements enumerate in base-p counting
order, labels encode the construction path (and so are distinct, and keep
``family_io``'s label rule), and subspaces canonicalise, so identical
parameters reproduce identical families byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _modlin
from .finite_field import (FieldSpec, GFElement, find_nonresidue, format_element, gf, is_nonresidue,
                           require_odd_prime)
from .phase_space import RowStacks, Subspace, _canonical, _check_index_size, _frames, _gram, _nonzero_lines, _pi1_rows

MATRIX_ALGEBRA = "matrix_algebra"
MASA = "masa"

MAX_K = 32  # extension degree: each irreducibility candidate costs O(k^3) Python-int operations


@dataclass(frozen=True)
class ConstructionParams:
    """Shared construction inputs: the field GF(p^k), the block count n and
    a fixed quadratic non-residue, refused if ``is_nonresidue`` (one k x k
    determinant) finds it a square.
    """

    field: FieldSpec
    n: int
    nonresidue: GFElement

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.nonresidue.field != self.field:
            raise ValueError("non-residue comes from a different field")
        if self.nonresidue.is_zero:
            raise ValueError("non-residue must be nonzero")
        if not is_nonresidue(self.nonresidue):
            raise ValueError(f"{format_element(self.nonresidue)} is a square, not a non-residue")

    @classmethod
    def create(cls, p: int, k: int = 1, n: int = 2, poly=None, nonresidue=None) -> "ConstructionParams":
        if k > MAX_K:
            raise ValueError(f"extension degree {k} exceeds the limit {MAX_K}")
        fld = gf(p, k, poly)
        return cls(fld, n, find_nonresidue(fld) if nonresidue is None else fld.element(nonresidue))

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def k(self) -> int:
        return self.field.k

    @property
    def ambient_factors(self) -> int:
        return self.k * self.n


@dataclass(frozen=True)
class FamilyMember:
    label: str
    kind: str  # MATRIX_ALGEBRA or MASA
    subspace: Subspace


class SpreadFamily:
    """A labeled family of subspaces with its construction parameters.

    The members are held as arrays: a label list, a kind list and the table
    ``rows`` of their canonical echelon bases; ``members`` gives
    ``FamilyMember`` views, built on first access.  Labels are not checked
    here: the builders' are distinct by construction, and a file's have passed
    its reader (``family_io``).
    """

    def __init__(self, params: ConstructionParams, *, labels: list[str], kinds: list[str], rows: RowStacks):
        self.params, self._labels, self._kinds, self.rows = params, labels, kinds, rows

    @cached_property
    def members(self) -> list[FamilyMember]:
        return [FamilyMember(*member) for member in zip(self._labels, self._kinds, self.rows.subspaces())]

    def labels(self) -> list[str]:
        return list(self._labels)

    def kinds(self) -> list[str]:
        return list(self._kinds)


def expected_count(p: int, k: int, n: int) -> int:
    """The dimension bound (p^{2kn} - 1) / (p^{2k} - 1), an exact integer."""
    require_odd_prime(p)
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be >= 1, got k={k}, n={n}")
    num = p ** (2 * k * n) - 1
    den = p ** (2 * k) - 1
    if num % den:
        raise AssertionError("count is not an integer")  # impossible
    return num // den


def _echelon(p: int, stack: np.ndarray) -> RowStacks:
    """The table of the canonical echelon bases of the row spans of an (N, r, w) stack."""
    return _canonical(RowStacks.of(p, stack.shape[-1], np.full(len(stack), stack.shape[1]), stack))


def _gf_spans(params: ConstructionParams, generators) -> RowStacks:
    """Per member of an (N, 8, k) array of two GF(p^k)^4 generators, the Z_p span
    of all their field multiples: one ``_pi1_rows`` of every t^j g, one ``_canonical``."""
    k = params.k
    rows = _pi1_rows(params.field, np.reshape(generators, (-1, 2, 4, k)))
    return _echelon(params.p, rows.reshape(-1, 2 * k, 4 * k))


def _generators(field: FieldSpec, *coords) -> np.ndarray:
    """The (N, slots, k) GF coordinates of N points from their slots, broadcast:
    (N, k) or (k,) arrays, or ints for Z_p."""
    parts = [np.asarray(field.scalar(c).coords if isinstance(c, int) else c, dtype=field.mul_tables.dtype)
             for c in coords]
    return np.stack(np.broadcast_arrays(*parts), axis=-2).reshape(-1, len(coords), field.k)


def _times(params: ConstructionParams, x, z: GFElement) -> np.ndarray:
    """x z for an (N, k) or (k,) coordinate array x and a field element z."""
    return np.asarray(x, dtype=params.field.mul_tables.dtype) @ params.field.mul_matrices(z.coords) % params.p


def _c_generators(params: ConstructionParams, a, b) -> np.ndarray:
    """(1, b, 0, a) and (0, a, -1, bD) for coordinate arrays a, b: the member C[a,b],
    symplectically nondegenerate for a != 0 and isotropic for a = 0."""
    return _generators(params.field, 1, b, 0, a, 0, a, -1, _times(params, b, params.nonresidue))


def _d_generators(params: ConstructionParams, a) -> np.ndarray:
    """(1, 1, -a, aD) and (1, 2, -a, 2aD) for a coordinate array a: the member D[a],
    nondegenerate, as the pair pairs to 1 - a^2 D, nonzero because D is a non-residue."""
    minus_a, ad = _times(params, a, params.field.scalar(-1)), _times(params, a, params.nonresidue)
    return _generators(params.field, 1, 1, minus_a, ad, 1, 2, minus_a, 2 * ad % params.p)


def _pair_generators(params: ConstructionParams, a, b) -> np.ndarray:
    """(1, 0, a, b) and (0, 1, bD, a), the mixed member of (a, b), for coordinate arrays a, b."""
    return _generators(params.field, 1, 0, a, b, 0, 1, _times(params, b, params.nonresidue), a)


def build_spread_2(params: ConstructionParams) -> SpreadFamily:
    """The p^{2k}+1 pairwise quasi-orthogonal matrix-algebra members of two
    blocks: {C[a,b] : a != 0} + {D[a] : all a} + D[inf], in one batch."""
    if params.n != 2:
        raise ValueError(f"the two-block spread needs n = 2, got n = {params.n}")
    elements = list(params.field.elements())
    names = [format_element(a) for a in elements]
    coords = np.array([a.coords for a in elements], dtype=params.field.mul_tables.dtype)
    slow, fast = np.repeat(coords[1:], len(coords), axis=0), np.tile(coords, (len(coords) - 1, 1))
    generators = np.concatenate([_c_generators(params, slow, fast), _d_generators(params, coords),
                                 _generators(params.field, 0, 0, 1, 0, 0, 0, 0, 1)])
    labels = [f"C[{a},{b}]" for a in names[1:] for b in names] + [f"D[{a}]" for a in names] + ["D[inf]"]
    return SpreadFamily(params, labels=labels, kinds=[MATRIX_ALGEBRA] * len(labels), rows=_gf_spans(params, generators))


def build_masa_spread(params: ConstructionParams) -> SpreadFamily:
    """p^{2k}+1 isotropic members partitioning the two-block ambient.

    Realised as the lines {(x, mx)} of GF(p^{2k})^2 plus {(0, y)}: the first
    slot expands over the big field's power basis into shift exponents, the
    second over its trace-dual basis into clock exponents, so the symplectic
    product of two image points is Tr(x y') - Tr(x' y), which vanishes on
    every line.  The m = 0 line is the pure-shift member and the infinity
    line the pure-clock member (clock operators only, one per factor).
    """
    if params.n != 2:
        raise ValueError(f"the masa spread needs n = 2, got n = {params.n}")
    p, k = params.p, params.k
    big = gf(p, 2 * k)
    slopes = list(big.elements())
    lines = np.concatenate([_generators(big, 1, [m.coords for m in slopes], 0, 0), _generators(big, 0, 1, 0, 0)])
    rows = _pi1_rows(big, lines)[..., : 4 * k]  # the first block: t^j (x, mx) at x = 1, then t^j (0, 1)
    labels = [f"M[{format_element(m)}]" for m in slopes] + ["M[inf]"]
    return SpreadFamily(params, labels=labels, kinds=[MASA] * len(labels), rows=_echelon(p, rows))


def _mixed_members(frames, masas, generators, params: ConstructionParams) -> np.ndarray:
    """The (frame, masa, pair, 2k, columns) rows of the mixed members, after
    checking every left frame F_i's Gram matrix and every masa basis R_j's
    isotropy up front.  The pi1 rows of each pair's generators
    (``_pair_generators``, a (P, 8, k) array) are [L | X_q], with one left
    block L for every pair.  One elimination of [L F_i | I] per frame gives
    [S_i | W_i], S_i the canonical rows of F_i's span and W_i L F_i = S_i, so
    member (i, j, q) has the rows [S_i | W_i X_q R_j], canonical wherever L is
    invertible."""
    p, k = params.p, params.k
    dtype = _modlin._dtype(p, len(frames[0][0]) + len(masas[0][0]))  # every sum here has fewer terms
    frames, masas = np.asarray(frames, dtype=dtype), np.asarray(masas, dtype=dtype)
    if (_gram(frames, p) != (np.eye(2 * k, k=k, dtype=dtype) - np.eye(2 * k, k=-k, dtype=dtype)) % p).any():
        raise ValueError("left basis is not a normalised symplectic frame")
    if _gram(masas, p).any():
        raise ValueError("right basis does not span an isotropic subspace")
    rows = _pi1_rows(params.field, np.reshape(generators, (-1, 2, 4, k))).reshape(-1, 2 * k, 4 * k)
    if (rows[:, :, : 2 * k] != rows[0, :, : 2 * k]).any():
        raise ValueError("the pairs do not share one left block")
    order = np.arange(2 * k).reshape(2, k).T.ravel()  # the basis vectors in pi1's interleaved order
    left = rows[0, :, : 2 * k] @ frames[:, order] % p  # L F_i: (frame, 2k, left columns)
    unit = np.broadcast_to(np.eye(2 * k, dtype=dtype), left.shape[:-1] + (2 * k,))
    ech = _modlin.rref_stack(np.concatenate([left, unit], axis=-1), p)[0][:, None, None]  # [S_i | W_i]
    right = ech[..., -2 * k :] @ (rows[:, :, 2 * k :] @ masas[:, None, order] % p) % p  # (frame, masa, pair, 2k, right)
    return np.concatenate([np.broadcast_to(ech[..., : -2 * k], right.shape[:-1] + left.shape[-1:]), right], axis=-1)


def build_recursive(params: ConstructionParams) -> SpreadFamily:
    """The maximal family of (p^{2kn}-1)/(p^{2k}-1) members in M_{p^{kn}}.

    n = 1 is the single full block and n = 2 the two-block spread; larger n
    recurses on the leading n-2 blocks and splices the trailing two blocks in
    through the masa spread.  Left members pad with zero columns on the right,
    right members on the left, and the mixed members of all left frames come
    from one ``_mixed_members``, already canonical.
    """
    p, k, n = params.p, params.k, params.n
    if n == 1:  # the one member is small or not indexed
        full = _echelon(p, np.eye(2 * k, dtype=np.int64)[None])
        return SpreadFamily(params, labels=["full"], kinds=[MATRIX_ALGEBRA], rows=full)
    _check_index_size(_nonzero_lines(p, 2 * k * n))  # verify's index, decided from 2kn: no huge power is built
    if n == 2:
        return build_spread_2(params)

    two_block = replace(params, n=2)
    left = build_recursive(replace(params, n=n - 2))
    masas = build_masa_spread(two_block)
    right = build_spread_2(two_block)

    stack = left.rows.rows.reshape(len(left.rows), 2 * k, -1)  # every left member has 2k rows
    frames = _frames(stack, p) @ stack % p
    elements = list(params.field.elements())
    coords = np.array([a.coords for a in elements], dtype=params.field.mul_tables.dtype)
    a, b = np.repeat(coords, len(coords), axis=0)[1:], np.tile(coords, (len(coords), 1))[1:]  # (a, b) != (0, 0)
    masa_rows = masas.rows.rows.reshape(-1, 2 * k, 4 * k)
    mixed = _mixed_members(frames, masa_rows, _pair_generators(params, a, b), params)
    mixed = RowStacks.of(p, 2 * k * n, np.full(np.prod(mixed.shape[:3]), 2 * k), mixed)
    names = [format_element(x) for x in elements]  # each element once
    pairs = [f"a={x},b={y}]" for x in names for y in names][1:]  # (a, b) != (0, 0)
    tails = [f"C={j}|{pair}" for j in range(len(masas.rows)) for pair in pairs]
    labels = ([f"{label}⊗I" for label in left.labels()] + [f"I⊗{label}" for label in right.labels()]
              + [head + tail for head in map("B[A={}|".format, range(len(frames))) for tail in tails])
    rows = [np.pad(left.rows.rows, ((0, 0), (0, 4 * k))), np.pad(right.rows.rows, ((0, 0), (2 * k * (n - 2), 0))),
            mixed.rows]  # zero columns keep the left and right rows canonical
    counts = np.concatenate([left.rows.counts, right.rows.counts, mixed.counts])
    return SpreadFamily(params, labels=labels, kinds=[MATRIX_ALGEBRA] * len(labels),
                        rows=RowStacks.of(p, 2 * k * n, counts, np.concatenate(rows)))
