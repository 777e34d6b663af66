"""Symplectic phase space over Z_p: points, subspaces and exact set checks.

A phase point for m tensor factors stores 2m coordinates in the interleaved
layout (k_1, l_1, k_2, l_2, ..., k_m, l_m): per factor the shift exponent
k_i, then the clock exponent l_i.  The alternating form is

    u o v = sum_i  k_i l'_i - k'_i l_i     (mod p),

whose vanishing characterises commuting Weyl monomials.  ``nfactors``
restricts the sum to the leading factors; the first-block-only form is what
governs commutation when the trailing factors carry only clock operators.

Points with four GF(p^k) coordinates (``GFPhasePoint``) convert to Z_p
points through ``pi1``: odd GF coordinates expand over the power basis
{1, t, ..., t^{k-1}}, even ones over its trace-dual basis, and the blocks
are interleaved factor by factor; both expansions are integer matrix
products with the field's tables, over whole arrays of points.  By
construction the field trace carries the GF form to the Z_p form,

    Tr(a o b) = pi1(a) o pi1(b),

exactly, for the full form and for the first-block form alike; the property
suite re-verifies this rather than trusting the construction.

``Subspace`` holds the reduced row echelon basis of its span over Z_p as
rows of Python ints, so equal spans compare equal and serialise
identically; ``basis`` is a ``PhasePoint`` view built on access.  A family's
members are one ``RowStacks`` table in file order, row counts plus one row
array, with ``Subspace`` views built on access.  Its stack per row count,
derived on first use, is canonicalised or classified by one elimination and
enumerated by one matrix product: the coefficient vectors, in
``itertools.product`` order (zero first), times every echelon basis, mod p.
Both set checks, trivial pairwise intersection and the partition of the
nonzero ambient, are one scan of one point-ownership index.  Members are
subspaces, so two share a nonzero point exactly when they share its line,
and the index holds one sorted key code·N + owner per line for N members:
the code is the line's normalised point (first nonzero coordinate 1, its
smallest point) read in base p, first coordinate most significant, in int64.
A line's owners sit next to each other, the distinct codes count the covered
lines, p - 1 nonzero points each, and each witness, the smallest shared
point, is decoded from its code.  A lone member needs no index: it covers its
p^r - 1 points, or, too large to enumerate, leaves the partition unchecked.
Beside another, such a member is refused from the row counts before any span
is built, as is an index above ``INDEX_LIMIT`` lines or with keys, below
p^width·N, past int64.  All of it is exact integer combinatorics, with no
floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _modlin
from .finite_field import FieldSpec, GFElement, _digits
from .report import VerificationReport, _power

SPAN_LIMIT = 10**6
INDEX_LIMIT = 2**23  # lines in one ownership index, one int64 key each: 18-20 bytes a line to build, sort and scan
MAX_LISTED_PAIRS = 1000

NONDEGENERATE = "nondegenerate"
ISOTROPIC = "isotropic"
MIXED = "mixed"


@dataclass(frozen=True)
class PhasePoint:
    """A vector in Z_p^{2m}, indexing one Weyl monomial over m factors."""

    p: int
    m: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != 2 * self.m:
            raise ValueError(f"expected {2 * self.m} coordinates, got {len(self.coords)}")
        object.__setattr__(self, "coords", tuple(int(c) % self.p for c in self.coords))


@dataclass(frozen=True)
class GFPhasePoint:
    """A vector in GF(p^k)^4: two (shift, clock) coordinate pairs over the field."""

    coords: tuple[GFElement, GFElement, GFElement, GFElement]

    def __post_init__(self) -> None:
        if len(self.coords) != 4:
            raise ValueError("a GF phase point has exactly four coordinates")
        f = self.coords[0].field
        if any(c.field != f for c in self.coords):
            raise ValueError("all four coordinates must come from one field")

    @property
    def field(self) -> FieldSpec:
        return self.coords[0].field

    def scale(self, s: GFElement) -> "GFPhasePoint":
        return GFPhasePoint(tuple(s * c for c in self.coords))


def _pi1_rows(field: FieldSpec, coords) -> np.ndarray:
    """The (..., k, 4k) integer rows pi1(t^j a), j = 0..k-1, of an (..., 4, k)
    array of GF coordinates a: multiplication matrices of the four slots, the
    even ones times the trace matrix, interleaved (shift, clock) per factor."""
    k, mul = field.k, field.mul_matrices(coords)
    mul[..., 1::2, :, :] = mul[..., 1::2, :, :] @ field.trace_matrix % field.p
    slots = mul.reshape(mul.shape[:-3] + (2, 2, k, k))  # block, shift or clock, j, factor
    return np.einsum("...bsji->...jbis", slots).reshape(mul.shape[:-3] + (k, 4 * k))


def pi1(a: GFPhasePoint) -> PhasePoint:
    """Z_p-linear bijection GF(p^k)^4 -> Z_p^{4k} compatible with the forms.

    Coordinates 1 and 3 expand over the power basis, 2 and 4 over its
    trace-dual basis, interleaved (shift, clock) per factor.  The map sends
    (*,*,0,0) to (*,*,0,0) and (0,0,*,*) to (0,0,*,*) blockwise, and one and
    the same map satisfies both the full and the first-block trace
    identities.
    """
    rows = _pi1_rows(a.field, [c.coords for c in a.coords])
    return PhasePoint(a.field.p, 2 * a.field.k, tuple(rows[0].tolist()))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Z_p^{2m}, held as its canonical echelon rows.

    Two subspaces are equal (and hash equal) exactly when their spans are
    equal; the canonical rows also fix the serialisation and the span
    enumeration order.
    """

    p: int
    m: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, p: int, m: int, generators: Iterable) -> "Subspace":
        points = [g if isinstance(g, PhasePoint) else PhasePoint(p, m, tuple(g)) for g in generators]
        if any((g.p, g.m) != (p, m) for g in points):
            raise ValueError("generator ambient mismatch")
        return cls(p, m, tuple(_modlin.rref([g.coords for g in points], p)[0]))

    @property
    def basis(self) -> tuple[PhasePoint, ...]:
        return tuple(PhasePoint(self.p, self.m, row) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index ranges starts[i] .. starts[i] + sizes[i] - 1, one after another."""
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


@dataclass(frozen=True, eq=False)
class RowStacks:
    """N integer matrices over Z_p of one width, as a family file lists them:
    every matrix's row count, by position, and all rows, matrix by matrix, as
    one (total, width) array in ``_modlin._dtype(p, width)``."""

    p: int
    width: int
    counts: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, p: int, width: int, counts, rows) -> "RowStacks":
        """The table of matrices of the given row counts, from their rows in any shape holding (total, width)."""
        counts = np.asarray(counts, dtype=np.intp)  # rows reshape to counts.sum(), not -1: the empty table has width 0
        return cls(p, width, counts, np.asarray(rows, dtype=_modlin._dtype(p, width)).reshape(counts.sum(), width))

    @classmethod
    def lists(cls, p: int, width: int, row_lists: Sequence) -> "RowStacks":
        """The table of row lists (sequences of integer rows), reduced mod p."""
        flat = [row for matrix in row_lists for row in matrix]  # rows of another width fail the reshape in ``of``
        return cls.of(p, width, [len(matrix) for matrix in row_lists], _modlin._residues(flat, p, width))

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RowStacks) and (self.p, self.width) == (other.p, other.width)
                and np.array_equal(self.counts, other.counts) and np.array_equal(self.rows, other.rows))

    @cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per distinct row count r, ascending: the positions of the matrices
        with r rows and their (len, r, width) stack (for one row count, a view)."""
        distinct = np.flatnonzero(np.bincount(self.counts)).tolist()  # ascending; np.unique imports numpy.ma
        if len(distinct) == 1:
            return ((np.arange(len(self)), self.rows.reshape(len(self), distinct[0], self.width)),)
        starts = np.cumsum(self.counts) - self.counts
        ats = [np.flatnonzero(self.counts == r) for r in distinct]
        return tuple((at, self.rows[starts[at, None] + np.arange(r)]) for at, r in zip(ats, distinct))

    @cached_property
    def canonical(self) -> np.ndarray:
        """Which matrices already are the canonical echelon basis of their row
        span, by position: the leading columns strictly increase and each one
        is a unit vector, so every row is nonzero and leads with a 1."""
        ok = np.zeros(len(self), dtype=bool)
        for at, stack in self.groups:
            if stack.shape[1] > self.width:  # no echelon basis has more rows than columns; the test below is (r, r)
                continue
            lead = (stack != 0).argmax(axis=2)  # a zero row leads at column 0 with a 0, which fails the unit test
            pivots = np.take_along_axis(stack, lead[:, None, :], axis=2)  # [i, j, l]: matrix i, row j, column lead[i, l]
            ok[at] = (np.diff(lead, axis=1) > 0).all(axis=1) & (pivots == np.eye(stack.shape[1], dtype=int)).all(axis=(1, 2))
        return ok

    def take(self, positions) -> "RowStacks":
        """The table of the matrices at ``positions``, in that order."""
        counts = self.counts[positions]
        gather = _ranges((np.cumsum(self.counts) - self.counts)[positions], counts)
        return RowStacks(self.p, self.width, counts, self.rows[gather])

    def split(self) -> list[np.ndarray]:
        """Every matrix's (r, width) rows, by position: views into ``rows``."""
        return [self.rows[end - r : end] for r, end in zip(self.counts.tolist(), np.cumsum(self.counts).tolist())]

    def subspaces(self) -> list[Subspace]:
        return [Subspace(self.p, self.width // 2, tuple(map(tuple, rows.tolist()))) for rows in self.split()]


def _canonical(rows: RowStacks) -> RowStacks:
    """The canonical echelon basis of every matrix's row span, by position: the table itself when every
    matrix already is one, else one elimination per row count."""
    if rows.canonical.all():
        return rows
    counts, parts = np.zeros(len(rows), dtype=np.intp), [rows.rows[:0]]
    for at, stack in rows.groups:
        ech, counts[at] = _modlin.rref_stack(stack, rows.p)
        parts.append(ech[np.arange(stack.shape[1]) < counts[at, None]])  # each matrix's first rank rows
    at = np.concatenate([np.zeros(0, dtype=np.intp)] + [at for at, _ in rows.groups])  # the order of ``parts``
    return RowStacks.of(rows.p, rows.width, counts[at], np.concatenate(parts)).take(np.argsort(at))


def _coefficients(p: int, d: int) -> np.ndarray:
    """All p^d coefficient vectors of length d, in ``itertools.product`` order (zero first)."""
    if not _enumerable(p, d):
        raise ValueError(f"span has {_power(p, d)} points, above the limit {SPAN_LIMIT}")
    return np.indices((p,) * d).reshape(d, p**d).T


def _line_coefficients(p: int, d: int) -> np.ndarray:
    """The (p^d - 1)/(p - 1) coefficient vectors of length d whose first nonzero
    entry is 1, in coefficient order: one per line through 0 (none for d = 0)."""
    c = _coefficients(p, d)
    return c[((c == 1) & (np.cumsum(c != 0, axis=1) == 1)).any(axis=1)]


def _spans(p: int, stack: np.ndarray) -> np.ndarray:
    """All p^d points of the span of every matrix of an (N, d, w) stack of
    echelon rows, zero first, in coefficient order."""
    span = _coefficients(p, stack.shape[1]).astype(stack.dtype) @ stack
    span %= p
    return span


def span_enumerate(s: Subspace) -> list[PhasePoint]:
    """All p^dim points of the span (zero first), in coefficient order."""
    rows = _modlin._residues(s.rows, s.p, 2 * s.m).reshape(1, s.dim, 2 * s.m)
    return [PhasePoint(s.p, s.m, row) for row in _spans(s.p, rows)[0].tolist()]


def _enumerable(p: int, dims):  # dims: an int or an array; 2^21 > SPAN_LIMIT
    return np.asarray(dims) <= max(r for r in range(21) if p**r <= SPAN_LIMIT)


def _nonzero_points(p: int, width: int) -> int | str:
    """p^width - 1, or its text "(p^width - 1)" when ``_power`` holds p^width as text."""
    points = _power(p, width)
    return points - 1 if isinstance(points, int) else f"({points} - 1)"


def _nonzero_lines(p: int, width: int) -> int | str:
    """(p^width - 1)/(p - 1), the lines through 0 of Z_p^width, or its text when ``_power`` holds p^width as text."""
    points = _nonzero_points(p, width)
    return points // (p - 1) if isinstance(points, int) else f"{points}/{p - 1}"


def _index_lines(rows: RowStacks) -> int:
    """The lines through 0 of a table's enumerable spans, counted from its row counts alone."""
    p, sizes = rows.p, np.bincount(rows.counts).tolist()
    return sum(n * ((p**r - 1) // (p - 1)) for r, n in enumerate(sizes) if n and _enumerable(p, r))


def _check_index_size(lines: int | str) -> None:
    """Refuse an ownership index past ``INDEX_LIMIT`` lines (a count as text is past it)."""
    if isinstance(lines, str) or lines > INDEX_LIMIT:
        raise ValueError(f"the ownership index would hold {lines} lines, above the limit {INDEX_LIMIT}")


def _check_index(rows: RowStacks, labels: Sequence[str]) -> None:
    """Refuse, from the row counts alone, a member above ``SPAN_LIMIT`` beside another (no index
    holds it, so its pairs go unchecked), an ownership index past ``INDEX_LIMIT`` lines, and one
    whose keys code·N + owner, below p^width·N for N members, would not fit int64."""
    big = np.flatnonzero(~_enumerable(rows.p, rows.counts))
    if len(big) and len(rows) > 1:
        i = int(big[0])
        raise ValueError(f"{labels[i]} spans {_power(rows.p, int(rows.counts[i]))} points, "
                         f"above the limit {SPAN_LIMIT} for a member beside another")
    _check_index_size(_index_lines(rows))
    points, n = _power(rows.p, rows.width), len(rows)
    if n > 1 and (isinstance(points, str) or points * n >= 2**63):
        raise ValueError(f"the ownership index of {n} members of Z_{rows.p}^{rows.width} "
                         f"needs keys up to {points} * {n}, past int64's 2^63")


def _owners(rows: RowStacks) -> np.ndarray:
    """The sorted int64 keys code·N + owner of a table of canonical echelon bases, positions as owners: per
    row count r, Horner's rule over the stack times the (p^r - 1)/(p - 1) line coefficients (unit pivots
    in increasing columns make each product a normalised point), straight into the key array."""
    p, n = rows.p, len(rows)
    keys, end = np.empty(_index_lines(rows), dtype=np.int64), 0
    for at, stack in rows.groups:
        lines = _line_coefficients(p, stack.shape[1]).astype(stack.dtype)
        codes = keys[end : end + len(at) * len(lines)].reshape(len(at), len(lines))
        end, codes[...] = end + codes.size, 0
        for column in stack.transpose(2, 0, 1):
            codes *= p
            codes += column @ lines.T % p
        codes *= n
        codes += at[:, None]
    keys.sort()
    return keys


def _conflicts(rows: RowStacks, keys: np.ndarray,
               repeats: np.ndarray) -> Iterator[tuple[tuple[int, int], tuple[int, ...], int]]:
    """The pairs sharing a line of the keys ``_owners(rows)``, ``repeats`` marking each key whose
    code is its predecessor's: lazily in pair order, each with its smallest shared point and the
    number of lines it shares.  Only shared lines are read, one owner at a time, so a caller that
    stops early pays only for the owners it reached."""
    n = len(rows)
    edge = np.concatenate(([False], repeats, [False]))  # edge[i]: key i holds the line of key i - 1
    shared = np.flatnonzero(edge[:-1] | edge[1:])
    if not len(shared):
        return
    first = ~edge[shared]  # the first owner of each shared line
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(shared)))
    line, owners = np.cumsum(first) - 1, (keys[shared] % n).astype(np.intp)
    by_owner = np.argsort(owners, kind="stable")  # by owner, then line
    for mine in np.split(by_owner, np.flatnonzero(np.diff(owners[by_owner])) + 1):
        i = int(owners[mine[0]])
        lines = line[mine]
        # every owner of the lines of owner i, line by line (lines ascend)
        lengths = sizes[lines]
        owner = owners[_ranges(starts[lines], lengths)]
        others, at = owner[owner > i], np.repeat(lines, lengths)[owner > i]
        order = np.argsort(others, kind="stable")  # by partner, then line
        others, at = others[order], at[order]
        heads = np.flatnonzero(np.diff(others, prepend=-1))
        counts = np.diff(np.append(heads, len(others)))
        for j, g, count in zip(others[heads].tolist(), at[heads].tolist(), counts.tolist()):
            yield (i, j), tuple(_digits(int(keys[shared[starts[g]]]) // n, rows.p, rows.width)[::-1]), count


def _disjointness(
    rows: RowStacks, labels: Sequence[str] | None = None
) -> tuple[VerificationReport, VerificationReport | None]:
    """The pairwise and partition reports from one ownership index of the members (a table of
    canonical echelon bases), after ``_check_index``; with no member, or one alone above
    ``SPAN_LIMIT``, there is no pair and no partition report, and one alone needs no index.  Each
    pair of owners of a line fails with its smallest shared point, in pair order, up to
    ``MAX_LISTED_PAIRS`` pairs and then a "family" entry.  The partition names the first pair with
    its number of shared points and counts the covered points against the ambient, p - 1 per line."""
    n, p = len(rows), rows.p
    labels = list(labels) if labels is not None else [f"member {i}" for i in range(n)]
    _check_index(rows, labels)
    if not n or not _enumerable(p, rows.counts).all():  # no member, or one alone above SPAN_LIMIT
        return VerificationReport(checks_run=0), None
    conflicts, covered = [], p ** int(rows.counts[0]) - 1  # a lone member's canonical lines are distinct
    if n > 1:
        keys = _owners(rows)
        codes = keys // n
        repeats = codes[1:] == codes[:-1]
        conflicts = list(itertools.islice(_conflicts(rows, keys, repeats), MAX_LISTED_PAIRS + 1))
        covered = (len(keys) - int(repeats.sum())) * (p - 1)  # p - 1 nonzero points per distinct code
    failures = [
        (f"{labels[i]} & {labels[j]}", f"shared nonzero point {witness}")
        for (i, j), witness, _ in conflicts[:MAX_LISTED_PAIRS]
    ]
    if len(conflicts) > MAX_LISTED_PAIRS:
        failures.append(
            ("family", f"more pairs share nonzero points; listing stopped after {MAX_LISTED_PAIRS} pairs")
        )
    pairwise = VerificationReport(checks_run=n * (n - 1) // 2, failures=failures)
    failures = [
        (f"{labels[i]} & {labels[j]}", f"{count * (p - 1)} shared nonzero points") for (i, j), _, count in conflicts[:1]
    ]
    expected = _nonzero_points(p, rows.width)  # text: no index covers it
    if covered != expected:
        failures.append(("family", f"covers {covered} of {expected} nonzero points"))
    return pairwise, VerificationReport(checks_run=n, failures=failures, covered=covered, expected=expected)


def _gram(rows: np.ndarray, p: int) -> np.ndarray:
    """Symplectic Gram matrices of a stack of row bases, mod p."""
    shift, clock = rows[..., 0::2], rows[..., 1::2]
    return (shift @ clock.swapaxes(-1, -2) - clock @ shift.swapaxes(-1, -2)) % p


def _gram_ranks(rows: RowStacks) -> np.ndarray:
    """The rank of every member's symplectic Gram matrix, by position: per row
    count one Gram stack, ranked by one batched elimination."""
    out = np.zeros(len(rows), dtype=np.intp)
    for at, stack in rows.groups:
        out[at] = _modlin.rref_stack(_gram(stack, rows.p), rows.p)[1]
    return out


def _kind(gram_rank: int, dim: int) -> str:
    return ISOTROPIC if gram_rank == 0 else NONDEGENERATE if gram_rank == dim else MIXED


def _frames(stack: np.ndarray, p: int) -> np.ndarray:
    """The (N, d, d) coefficients C of the symplectic frames of an (N, d, w)
    stack of bases S: C·S is a basis (s_1..s_k, w_1..w_k) of S's span with
    s_i o w_j = delta_ij and both halves isotropic, and ``_frames`` raises if the
    form is degenerate on a span.  One step per
    pair, each over all N Gram matrices of the current vectors: e is the first
    vector left, f the first later one with e o f != 0, scaled to e o f = 1,
    and every other vector v left becomes v - (v o f) e + (v o e) f."""
    n, d = stack.shape[:2]
    if d % 2:
        raise ValueError("a symplectically nondegenerate subspace has even dimension")
    gram = _gram(stack, p)  # in the stack's dtype, which holds these sums of d <= w products
    coef, out = np.broadcast_to(np.eye(d, dtype=gram.dtype), gram.shape).copy(), np.zeros_like(gram)
    every = np.arange(n)
    for step in range(d // 2):
        products = coef @ gram % p @ coef.swapaxes(1, 2) % p
        e = coef.any(axis=2).argmax(axis=1)  # the update below zeroes every vector it has taken
        with_e = products[every, e]  # e o v, nonzero only for vectors left after e
        if not with_e.any(axis=1).all():
            raise ValueError("symplectic form is degenerate on this subspace")
        f = (with_e != 0).argmax(axis=1)
        scale = _modlin._inv(with_e[every, f], p)
        out[:, step], out[:, d // 2 + step] = coef[every, e], coef[every, f] * scale[:, None] % p
        with_f = products[every, f] * scale[:, None] % p  # f o v for f scaled: v + (f o v) e - (e o v) f below
        coef = (coef + with_f[:, :, None] * out[:, step, None] - with_e[:, :, None] * out[:, d // 2 + step, None]) % p
    return out
