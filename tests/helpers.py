"""Reference implementations shared by the test modules."""

from qospread import _modlin, family_io
from qospread.finite_field import GFElement
from qospread.phase_space import RowStacks, Subspace


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
