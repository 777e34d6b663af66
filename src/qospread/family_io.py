"""On-disk family format: a YAML tree with integer-only algebraic payload.

Example file::

    format_version: 1
    p: 3
    k: 1
    n: 2
    poly: [0]
    nonresidue: [2]
    members:
    - label: "C[1,0]"
      kind: matrix_algebra
      generators:
      - [1, 0, 0, 1]
      - [0, 1, 2, 0]
    ...

``poly`` holds the k low coefficients of the field polynomial and
``nonresidue`` the coordinates of the chosen non-residue, so verification
is independent of how those were picked.  Generator rows are the canonical
echelon basis of each member (2kn integers per row, all in [0, p-1]).

The files are plain YAML, so any YAML tool can read them; writing is
manual so identical families produce identical bytes.  Reading takes two
routes to the same document: text in exactly the writer's line format (what
``serialize`` writes for a family without a verification block) goes
through a strict line reader, and any other YAML, restyled or hand-edited,
through ``yaml.safe_load``.  Both feed one validation.  An optional
``verification`` mapping carries a machine-readable check summary and
round-trips untouched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

import yaml

from .constructions import (
    MASA,
    MATRIX_ALGEBRA,
    ConstructionParams,
    FamilyMember,
    SpreadFamily,
)
from .phase_space import _canonical

FORMAT_VERSION = 1

_KINDS = (MATRIX_ALGEBRA, MASA)


class FamilyFormatError(ValueError):
    """The file is not a well-formed, internally consistent family file."""


@dataclass
class FileMember:
    label: str
    kind: str
    rows: list[tuple[int, ...]]


@dataclass
class FamilyFile:
    p: int
    k: int
    n: int
    poly: tuple[int, ...]
    nonresidue: tuple[int, ...]
    members: list[FileMember] = dc_field(default_factory=list)
    verification: dict | None = None
    format_version: int = FORMAT_VERSION


def from_family(family: SpreadFamily, verification: dict | None = None) -> FamilyFile:
    params = family.params
    return FamilyFile(
        p=params.p,
        k=params.k,
        n=params.n,
        poly=params.field.poly,
        nonresidue=params.nonresidue.coords,
        members=[
            FileMember(m.label, m.kind, list(m.subspace.rows))
            for m in family.members
        ],
        verification=verification,
    )


def to_family(ff: FamilyFile) -> SpreadFamily:
    """Rebuild the in-memory family (one batched elimination per distinct row
    count); invalid field/non-residue data is a format error."""
    try:
        params = ConstructionParams.create(ff.p, ff.k, ff.n, poly=ff.poly, nonresidue=ff.nonresidue)
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyFormatError(f"invalid construction parameters: {exc}") from exc
    m = ff.k * ff.n
    subs = _canonical(ff.p, m, [fm.rows for fm in ff.members])
    members = [FamilyMember(fm.label, fm.kind, sub) for fm, sub in zip(ff.members, subs)]
    try:
        return SpreadFamily(params, members)
    except ValueError as exc:
        raise FamilyFormatError(str(exc)) from exc


def noncanonical_members(ff: FamilyFile, family: SpreadFamily) -> list[tuple[str, str]]:
    """Members whose stored rows are not the canonical basis of their span,
    read against ``family = to_family(ff)``.

    Generated files always store canonical rows, so any hit here means the
    file was edited or corrupted — including edits that happen to preserve
    the span and would be invisible to the set-theoretic checks.
    """
    return [(fm.label, "rows are not the canonical basis of their span")
            for fm, mem in zip(ff.members, family.members)
            if tuple(map(tuple, fm.rows)) != mem.subspace.rows]


def _int_list(values, what: str, p: int, length: int | None = None) -> tuple[int, ...]:
    if not isinstance(values, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise FamilyFormatError(f"{what} must be a list of integers")
    if any(not 0 <= v < p for v in values):
        raise FamilyFormatError(f"{what} entries must lie in [0, {p - 1}]")
    if length is not None and len(values) != length:
        raise FamilyFormatError(f"{what} must have {length} entries, got {len(values)}")
    return tuple(values)


_INT = r"(?:0|[1-9][0-9]*)"
_ROW = rf"\[{_INT}(?:, {_INT})*\]"
_HEADER = re.compile(
    rf"format_version: ({_INT})\np: ({_INT})\nk: ({_INT})\nn: ({_INT})\n"
    rf"poly: ({_ROW})\nnonresidue: ({_ROW})\nmembers:\n"
)
_MEMBER = re.compile(
    rf'- label: "([^"\\\n]*)"\n  kind: ({"|".join(_KINDS)})\n  generators:\n((?:  - {_ROW}\n)+)'
)


def _ints(row: str) -> list[int]:
    return [int(v) for v in row[1:-1].split(", ")]


def _own_format(text: str) -> dict | None:
    """The document ``yaml.safe_load`` gives for text in exactly the line
    format ``serialize`` writes (no verification block, printable labels
    without quotes or backslashes, plain decimal integers); None for any
    other text."""
    head = _HEADER.match(text)
    if head is None:
        return None
    version, p, k, n, poly, nonresidue = head.groups()
    members, pos = [], head.end()
    while pos < len(text):
        block = _MEMBER.match(text, pos)
        if block is None or not block[1].isprintable():
            return None
        rows = block[3].split("\n")[:-1]
        members.append({"label": block[1], "kind": block[2], "generators": [_ints(r[4:]) for r in rows]})
        pos = block.end()
    return {
        "format_version": int(version), "p": int(p), "k": int(k), "n": int(n),
        "poly": _ints(poly), "nonresidue": _ints(nonresidue), "members": members or None,
    }


def parse(text: str) -> FamilyFile:
    try:
        doc = _own_format(text)
        if doc is None:
            doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FamilyFormatError(f"not valid YAML: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a YAML timestamp that is no date, an integer past Python's digit
        # limit, or nesting past the recursion limit
        raise FamilyFormatError(f"unreadable value: {exc}") from exc
    if not isinstance(doc, dict):
        raise FamilyFormatError("top level must be a mapping")
    if doc.get("format_version") != FORMAT_VERSION:
        raise FamilyFormatError(f"unsupported format_version {doc.get('format_version')!r}")
    for key in ("p", "k", "n"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            raise FamilyFormatError(f"{key} must be an integer")
    p, k, n = doc["p"], doc["k"], doc["n"]
    if p < 3 or k < 1 or n < 1:
        raise FamilyFormatError(f"out-of-range parameters p={p}, k={k}, n={n}")
    poly = _int_list(doc.get("poly"), "poly", p, k)
    nonresidue = _int_list(doc.get("nonresidue"), "nonresidue", p, k)
    raw_members = doc.get("members")
    if not isinstance(raw_members, list) or not raw_members:
        raise FamilyFormatError("members must be a non-empty list")
    members = []
    labels = set()
    for idx, entry in enumerate(raw_members):
        if not isinstance(entry, dict):
            raise FamilyFormatError(f"member {idx} must be a mapping")
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise FamilyFormatError(f"member {idx} needs a non-empty string label")
        if label in labels:
            raise FamilyFormatError(f"duplicate label {label!r}")
        labels.add(label)
        kind = entry.get("kind")
        if kind not in _KINDS:
            raise FamilyFormatError(f"member {label!r} has unknown kind {kind!r}")
        raw_rows = entry.get("generators")
        if not isinstance(raw_rows, list) or not raw_rows:
            raise FamilyFormatError(f"member {label!r} needs generator rows")
        rows = [_int_list(row, f"generator row of {label!r}", p, 2 * k * n) for row in raw_rows]
        members.append(FileMember(label, kind, rows))
    verification = doc.get("verification")
    if verification is not None and not isinstance(verification, dict):
        raise FamilyFormatError("verification must be a mapping")
    return FamilyFile(p, k, n, poly, nonresidue, members, verification)


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    if '"' in text:
        raise ValueError(f"cannot serialise {text!r}")
    return f'"{text}"'


def serialize(ff: FamilyFile) -> str:
    lines = [
        f"format_version: {ff.format_version}",
        f"p: {ff.p}",
        f"k: {ff.k}",
        f"n: {ff.n}",
        f"poly: [{', '.join(map(str, ff.poly))}]",
        f"nonresidue: [{', '.join(map(str, ff.nonresidue))}]",
        "members:",
    ]
    for m in ff.members:
        lines.append(f"- label: {_scalar(m.label)}")
        lines.append(f"  kind: {m.kind}")
        lines.append("  generators:")
        for row in m.rows:
            lines.append(f"  - [{', '.join(map(str, row))}]")
    if ff.verification is not None:
        lines.append("verification:")
        for key, value in ff.verification.items():
            lines.append(f"  {key}: {_scalar(value)}")
    return "\n".join(lines) + "\n"


def save(ff: FamilyFile, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(ff))


def load(path) -> FamilyFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())
