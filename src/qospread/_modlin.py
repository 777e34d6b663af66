"""Exact Gaussian elimination over the prime field Z_p.

``rref_stack`` is the batched elimination: it reduces an ``(N, r, c)`` stack of
matrices one column at a time, each step (pivot search, swap, scaling to a
unit leading entry, clearing the column) one numpy operation over all N
matrices, as in the dense mod-p elimination of FFLAS-FFPACK (Dumas, Giorgi &
Pernet, ACM TOMS 35(3), 2008).  ``rref`` and ``rank`` are its one-matrix
case.  It is exact for every prime: ``_dtype`` picks the smallest
signed integer dtype that holds every intermediate, or Python-int objects
past int64, and the same code runs on both; no floating point is involved.
Pivots are the first nonzero columns with unit leading entries, so the
reduced form, and with it the canonical basis of a row span, is unique.
``det``, for the norm of a field element, eliminates one matrix of Python
ints and keeps its pivots.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _dtype(p: int, terms: int) -> np.dtype:
    """The smallest signed dtype holding any sum of ``terms`` products of residues, of either sign."""
    return np.min_scalar_type(-max(terms, 1) * (p - 1) ** 2 - 1)


def _residues(values, p: int, terms: int) -> np.ndarray:
    """Integers of any size or sign mod p, in ``_dtype(p, terms)``."""
    dtype = _dtype(p, terms)
    return (np.asarray(values, dtype=object if dtype == object else None) % p).astype(dtype)


def _inv(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of every nonzero residue."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def rref_stack(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms mod p of an (N, r, c) stack and their ranks:
    matrix i keeps its canonical span basis in its first ranks[i] rows, zeros after."""
    n, r, c = np.shape(stack)
    a = _residues(stack, p, c)
    rank = np.zeros(n, dtype=np.intp)
    rows, every = np.arange(r), np.arange(n)
    for col in range(c):
        if (rank == r).all():
            break
        found = (a[:, :, col] != 0) & (rows >= rank[:, None])
        has = found.any(axis=1)
        if not has.any():
            continue
        # matrices without a pivot in this column swap a row with itself, scale by 1, clear nothing
        top = np.minimum(rank, r - 1)
        hit = np.where(has, found.argmax(axis=1), top)
        pivot = a[every, hit]
        a[every, hit] = a[every, top]
        pivot = pivot * np.where(has, _inv(pivot[:, col], p), 1)[:, None] % p
        a[every, top] = pivot
        factor = a[:, :, col] * has[:, None]
        factor[every, top] = 0
        a = (a - factor[:, :, None] * pivot[:, None, :]) % p
        rank += has
    return a, rank


def rref(rows: Sequence[Sequence[int]], p: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form mod p.

    Returns (echelon_rows, pivot_columns); zero rows are dropped, so the
    rows form the canonical basis of the input's row span.
    """
    if not len(rows):
        return [], []
    ech, rank = rref_stack([rows], p)
    ech = [tuple(row) for row in ech[0, : rank[0]].tolist()]
    return ech, [next(i for i, x in enumerate(row) if x) for row in ech]


def rank(rows: Sequence[Sequence[int]], p: int) -> int:
    return len(rref(rows, p)[0])


def det(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant of a square matrix mod p, in [0, p): the product of the pivots,
    its sign flipped by each row swap."""
    a, out = [[x % p for x in row] for row in rows], 1
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot], out = a[pivot], a[col], -out
        out = out * a[col][col] % p
        inv = pow(a[col][col], -1, p)
        for r in range(col + 1, len(a)):
            if a[r][col]:
                factor = a[r][col] * inv % p
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
    return out
