"""Reference implementations shared by the test modules: one object at a
time, by literal arithmetic, for the batched kernels of the package to be
compared against."""

import itertools
from typing import NamedTuple

import numpy as np
import yaml

from qospread import _modlin, family_io, weyl
from qospread.constructions import _c_generators, _d_generators, _generators, _gf_spans
from qospread.finite_field import GFElement
from qospread.phase_space import (NONDEGENERATE, PhasePoint, RowStacks, Subspace, _gram_ranks, _kind, _line_coefficients,
                                  _ranges, span_enumerate)
from qospread.report import DEFAULT_TOL, VerificationReport
from qospread.verify import _numeric_dim, expected_count

MAX_STACK_ENTRIES = 2**24  # complex entries of one synthesized stack: 256 MiB


def table(subspaces) -> RowStacks:
    """The row table of one ambient's subspaces, in order."""
    return RowStacks.lists(subspaces[0].p, 2 * subspaces[0].m, [s.rows for s in subspaces])


def _coords(params, elements) -> np.ndarray:
    return np.array([x.coords for x in elements], dtype=params.field.mul_tables.dtype).reshape(-1, params.k)


def c_members(params, pairs=None, infinity=True) -> RowStacks:
    """C[a,b] for the element pairs (a, b), by default every pair with a slowest,
    then C[inf] = span{(0,1,0,0), (0,0,0,1)} unless ``infinity`` is false: one ``_gf_spans``."""
    pairs = list(itertools.product(params.field.elements(), repeat=2) if pairs is None else pairs)
    a, b = _coords(params, [x for x, _ in pairs]), _coords(params, [y for _, y in pairs])
    generators = [_c_generators(params, a, b)] + [_generators(params.field, 0, 1, 0, 0, 0, 0, 0, 1)] * infinity
    return _gf_spans(params, np.concatenate(generators))


def d_members(params, elements=None, infinity=True) -> RowStacks:
    """D[a] for the elements a, by default every element, then D[inf] = span{(0,0,1,0), (0,0,0,1)}
    unless ``infinity`` is false: one ``_gf_spans``."""
    a = _coords(params, params.field.elements() if elements is None else elements)
    generators = [_d_generators(params, a)] + [_generators(params.field, 0, 0, 1, 0, 0, 0, 0, 1)] * infinity
    return _gf_spans(params, np.concatenate(generators))


def _check_ambient(u: PhasePoint, v: PhasePoint) -> None:
    if (u.p, u.m) != (v.p, v.m):
        raise ValueError(f"ambient mismatch: Z_{u.p}^{2*u.m} vs Z_{v.p}^{2*v.m}")


def symplectic_product(u: PhasePoint, v: PhasePoint, nfactors: int | None = None) -> int:
    """The alternating form sum_i k_i l'_i - k'_i l_i mod p, over the leading
    ``nfactors`` factors (the first-block form) or all of them."""
    _check_ambient(u, v)
    n = u.m if nfactors is None else nfactors
    return sum(u.coords[2 * i] * v.coords[2 * i + 1] - v.coords[2 * i] * u.coords[2 * i + 1] for i in range(n)) % u.p


def gf_symplectic(a, b, partial: bool = False) -> GFElement:
    """The GF(p^k)-valued form a1 b2 - a2 b1 (+ a3 b4 - a4 b3 unless partial) of two GFPhasePoints."""
    if a.field != b.field:
        raise ValueError(f"mixed fields: {a.field} vs {b.field}")
    a1, a2, a3, a4 = a.coords
    b1, b2, b3, b4 = b.coords
    out = a1 * b2 - a2 * b1
    if not partial:
        out = out + a3 * b4 - a4 * b3
    return out


def contains(s: Subspace, pt: PhasePoint) -> bool:
    """Rank test: the point adds nothing to the span."""
    return (pt.p, pt.m) == (s.p, s.m) and _modlin.rank(s.rows + (pt.coords,), s.p) == s.dim


def weyl_identity(p: int, m: int) -> weyl.WeylMonomial:
    return weyl.WeylMonomial(PhasePoint(p, m, (0,) * (2 * m)))


def weyl_mul(x: weyl.WeylMonomial, y: weyl.WeylMonomial) -> weyl.WeylMonomial:
    """Exact product: points add, phases pick up the per-factor cross terms lam^{k' l}."""
    u, v = x.point, y.point
    _check_ambient(u, v)
    cross = sum(v.coords[2 * i] * u.coords[2 * i + 1] for i in range(u.m))
    return weyl.WeylMonomial(PhasePoint(u.p, u.m, tuple(map(sum, zip(u.coords, v.coords)))),
                             x.phase_exp + y.phase_exp + cross)


def commutation_phase(u: PhasePoint, v: PhasePoint) -> int:
    """Exponent e with M_u M_v = lam^e M_v M_u; zero iff the monomials commute."""
    return (-symplectic_product(u, v)) % u.p


def basis_matrices(s: Subspace) -> np.ndarray:
    """One dense phase-0 matrix per span point, in ``span_enumerate`` order (the
    identity first): a (p^dim, p^m, p^m) stack, refused up front past
    ``MAX_STACK_ENTRIES`` entries."""
    count, d = s.p**s.dim, s.p**s.m
    if count * d * d > MAX_STACK_ENTRIES:
        raise ValueError(f"{count} matrices of side {d} exceed the stack limit {MAX_STACK_ENTRIES}")
    return weyl._monomial_stack(s.p, s.m, np.array([pt.coords for pt in span_enumerate(s)]))


def verify_full_algebra(s: Subspace, numeric: bool = False, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Certify that the monomials over ``s`` span a full matrix algebra of
    dimension p^dim: symbolically, the form is nondegenerate on ``s``; the
    numeric route also checks that the synthesized basis has full linear rank
    (its trace Gram matrix is p^m times the identity)."""
    failures, checks = [], 1
    rank = int(_gram_ranks(table([s]))[0])
    kind = _kind(rank, s.dim)
    if kind != NONDEGENERATE:
        failures.append(("subspace", f"classified {kind} (gram rank {rank} of dim {s.dim})"))
    covered = expected = worst = None
    if numeric and not failures:
        checks += 1
        dim = _numeric_dim(s.p, s.m)
        stack = basis_matrices(s)
        flat = stack.reshape(stack.shape[0], -1)
        gram = flat.conj() @ flat.T  # gram[a, b] = Tr(A_a^* A_b)
        expected = s.p**s.dim
        worst = float(np.abs(gram - dim * np.eye(len(stack))).max())
        # the SVD behind the rank does not converge on NaN or inf entries
        covered = int(np.linalg.matrix_rank(gram, tol=1e-6)) if np.isfinite(worst) else 0
        if covered != expected:
            failures.append(("subspace", f"span dimension {covered}, expected {expected}"))
        if not worst <= max(tol, 1e-6):
            failures.append(("subspace", f"basis not trace-orthogonal: residual {worst:.3e}"))
    return VerificationReport(checks_run=checks, max_residual=worst, failures=failures, covered=covered,
                              expected=expected)


def counting_identity_holds(p: int, k: int, n: int) -> bool:
    """The recursion's arithmetic: N(n-2) + N(2) + (p^{2k} - 1) N(2) N(n-2) = N(n)."""
    if n < 3:
        raise ValueError("the identity relates n to n - 2, so n >= 3")
    n2, nrec = expected_count(p, k, 2), expected_count(p, k, n - 2)
    return nrec + n2 + (p ** (2 * k) - 1) * n2 * nrec == expected_count(p, k, n)


def inverse(rows, p: int):
    """Inverse of a square matrix mod p, or None if singular: [A | I] reduced to [I | A^-1]."""
    n = len(rows)
    if n == 0:
        return []
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    ech, pivots = _modlin.rref(aug, p)
    if len(ech) < n or pivots[:n] != list(range(n)):
        return None
    return [tuple(row[n:]) for row in ech]


def trace_dual_basis(basis: list[GFElement]) -> list[GFElement]:
    """The basis {f_j} with Tr(e_i f_j) = delta_ij for the given {e_i}, from one
    k x k solve over Z_p; linearly dependent input is refused."""
    if not basis:
        raise ValueError("empty basis")
    field = basis[0].field
    if len(basis) != field.k or any(e.field != field for e in basis):
        raise ValueError(f"need {field.k} elements of {field}")
    inv = inverse((np.array([e.coords for e in basis], dtype=object) @ field.trace_matrix % field.p).tolist(), field.p)
    if inv is None:
        raise ValueError("input elements are linearly dependent over Z_p")
    return [field.element(tuple(inv[c][j] for c in range(field.k))) for j in range(field.k)]


def intersect_trivially(a: Subspace, b: Subspace) -> bool:
    """Exact rank test: dim(a + b) = dim a + dim b iff the intersection is 0."""
    if (a.p, a.m) != (b.p, b.m):
        raise ValueError("ambient mismatch")
    return _modlin.rank(a.rows + b.rows, a.p) == a.dim + b.dim


def frobenius_trace(a: GFElement) -> int:
    """The field trace by its definition a + a^p + ... + a^{p^{k-1}}, which must land in Z_p."""
    acc = frob = a
    for _ in range(a.field.k - 1):
        frob = frob**a.field.p
        acc = acc + frob
    assert not any(acc.coords[1:]), f"trace landed outside the prime subfield: {acc.coords}"
    return acc.coords[0]


def literal_pi1(coords) -> tuple[int, ...]:
    """pi1 of a point of GF(p^k)^4 by literal traces: coordinates 1 and 3 over the
    power basis, 2 and 4 over its trace dual (Tr(c t^i)), interleaved per factor."""
    basis = coords[0].field.power_basis()
    out = []
    for shift, clock in (coords[:2], coords[2:]):
        for i, ti in enumerate(basis):
            out += [shift.coords[i], frobenius_trace(clock * ti)]
    return tuple(out)


def literal_gf_span(generators) -> Subspace:
    """The Z_p span of all field multiples of GF(p^k)^4 generators, one member at a
    time: pi1(t^j g) by literal traces for every generator g and power t^j."""
    field = generators[0][0].field
    rows = [literal_pi1([tj * c for c in g]) for g in generators for tj in field.power_basis()]
    return Subspace.from_generators(field.p, 2 * field.k, rows)


def file_of(p, k, n, poly, nonresidue, members) -> family_io.FamilyFile:
    """The family file of (label, kind, rows) members, whose rows may be any integer sequences."""
    labels, kinds, rows = zip(*members)
    return family_io.FamilyFile(p, k, n, tuple(poly), tuple(nonresidue), list(labels), list(kinds),
                                RowStacks.lists(p, 2 * k * n, rows))


def with_rows(ff: family_io.FamilyFile, edits: dict) -> family_io.FamilyFile:
    """A copy of a family file whose members at the keys of ``edits`` store the given rows."""
    rows = [edits.get(i, matrix) for i, matrix in enumerate(ff.rows.split())]
    return file_of(ff.p, ff.k, ff.n, ff.poly, ff.nonresidue, zip(ff.labels, ff.kinds, rows))


def reference_members(text):
    """The YAML oracle: the members of the text's YAML document as the
    per-member, per-row checks of earlier versions read them, (label, kind,
    rows) triples, or the message of the first fault in file order.  Only
    members are checked; the header is ``family_io._header``'s."""
    doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    p, k, n, _, _ = family_io._header(*(doc[key] for key in ("format_version", "p", "k", "n", "poly", "nonresidue")))
    if not isinstance(doc.get("members"), list) or not doc["members"]:
        return "FamilyFormatError: members must be a non-empty list"
    out, labels = [], set()
    for idx, entry in enumerate(doc["members"]):
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            return f"FamilyFormatError: member {idx} needs a non-empty string label"
        if label in labels:
            return f"FamilyFormatError: duplicate label {label!r}"
        labels.add(label)
        if not isinstance(entry.get("generators"), list) or not entry["generators"]:
            return f"FamilyFormatError: member {label!r} needs generator rows"
        for row in entry["generators"]:
            if not all(isinstance(v, int) for v in row):
                return f"FamilyFormatError: generator row of {label!r} must be a list of integers"
            if any(not 0 <= v < p for v in row):
                return f"FamilyFormatError: generator row of {label!r} entries must lie in [0, {p - 1}]"
            if len(row) != 2 * k * n:
                return f"FamilyFormatError: generator row of {label!r} must have {2 * k * n} entries, got {len(row)}"
        out.append((label, entry["kind"], [list(row) for row in entry["generators"]]))
    return out


def members_of(outcome):
    """A parse outcome as ``reference_members`` gives it: (label, kind, rows) triples, or the error text."""
    if isinstance(outcome, str):
        return outcome
    return list(zip(outcome.labels, outcome.kinds, (rows.tolist() for rows in outcome.rows.split())))


class ReferenceIndex(NamedTuple):
    """The point-ownership index as a point matrix: each indexed point with its
    owner, sorted lexicographically by point and, for equal points, by owner;
    ``first`` marks the first row of each distinct point."""

    points: np.ndarray
    owners: np.ndarray
    first: np.ndarray

    @classmethod
    def sort(cls, points: np.ndarray, owners: np.ndarray) -> "ReferenceIndex":
        # lexsort on the coordinate columns, then the owner (the last key is
        # primary), cannot overflow for any ambient, unlike base-p codes
        order = np.lexsort((owners, *points.T[::-1]))
        points, owners = points[order], owners[order]
        first = np.ones(len(points), dtype=bool)
        first[1:] = (points[1:] != points[:-1]).any(axis=1)
        return cls(points, owners, first)


def reference_lines(rows: RowStacks) -> ReferenceIndex:
    """The normalised point (first nonzero coordinate 1) of every line through 0
    of every member of a table of canonical echelon bases, positions as owners."""
    p, small = rows.p, np.min_scalar_type(rows.p - 1)
    points, owners = [np.zeros((0, rows.width), dtype=small)], [np.zeros(0, dtype=np.intp)]
    for at, stack in rows.groups:
        lines = _line_coefficients(p, stack.shape[1]).astype(stack.dtype)
        points.append((lines @ stack % p).astype(small).reshape(-1, rows.width))
        owners.append(np.repeat(at, len(lines)))
    return ReferenceIndex.sort(np.concatenate(points), np.concatenate(owners))


def reference_conflicts(index: ReferenceIndex):
    """The pairs sharing an indexed point, in pair order, each with its smallest
    shared point and the number of indexed points it shares."""
    starts = np.flatnonzero(index.first)
    sizes = np.diff(np.append(starts, len(index.first)))
    group = np.cumsum(index.first) - 1
    shared = np.flatnonzero(sizes[group] > 1)
    if not len(shared):
        return
    shared = shared[np.argsort(index.owners[shared], kind="stable")]  # by owner, then point
    for rows in np.split(shared, np.flatnonzero(np.diff(index.owners[shared])) + 1):
        i = int(index.owners[rows[0]])
        groups = group[rows]
        # every row of the groups of owner i, group by group (groups ascend)
        lengths = sizes[groups]
        owner = index.owners[_ranges(starts[groups], lengths)]
        others, at = owner[owner > i], np.repeat(groups, lengths)[owner > i]
        order = np.argsort(others, kind="stable")  # by partner, then point
        others, at = others[order], at[order]
        heads = np.flatnonzero(np.diff(others, prepend=-1))
        counts = np.diff(np.append(heads, len(others)))
        for j, g, count in zip(others[heads].tolist(), at[heads].tolist(), counts.tolist()):
            yield (i, j), tuple(index.points[starts[g]].tolist()), count
