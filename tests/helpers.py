"""Reference implementations shared by the test modules."""

import yaml

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
