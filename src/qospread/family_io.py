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

In memory a ``FamilyFile`` holds its members as a ``SpreadFamily`` does: a
label list, a kind list and a ``RowStacks`` table of the stored rows in file
order, which the reader fills and the writer reads as is.

The files are plain YAML, so any YAML tool can read them; writing is
manual so identical families produce identical bytes.  The writer formats
``CHUNK_MEMBERS`` members at a time, one ``%`` format per chunk, and writes
chunk by chunk, so no whole-file string is built.  Reading takes two routes
to the same ``FamilyFile``: text in exactly the writer's line format (what
``serialize`` writes) goes through a line reader (one regex pass over the
member blocks, one integer parse of every row entry), and any other YAML,
restyled or hand-edited, through ``yaml.safe_load``, imported only then; it
reads past keys it does not know.  Both end in the same vectorised range and
length checks, which name the first offending row in file order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constructions import MASA, MATRIX_ALGEBRA, ConstructionParams, SpreadFamily
from .phase_space import RowStacks, _canonical

FORMAT_VERSION = 1
CHUNK_MEMBERS = 256  # members per write

_KINDS = (MATRIX_ALGEBRA, MASA)


class FamilyFormatError(ValueError):
    """The file is not a well-formed, internally consistent family file."""


@dataclass
class FamilyFile:
    """A family file: its header, and its members as a label list, a kind list
    and the table of their generator rows as stored."""

    p: int
    k: int
    n: int
    poly: tuple[int, ...]
    nonresidue: tuple[int, ...]
    labels: list[str]
    kinds: list[str]
    rows: RowStacks


def from_family(family: SpreadFamily) -> FamilyFile:
    params = family.params
    return FamilyFile(params.p, params.k, params.n, params.field.poly, params.nonresidue.coords,
                      family.labels(), family.kinds(), family.rows)


def to_family(ff: FamilyFile) -> SpreadFamily:
    """Rebuild the in-memory family; invalid field/non-residue data is a format
    error.  Stored rows that are all in canonical form (as in every generated
    file) are kept; otherwise every member is eliminated, one batch per row count."""
    try:
        params = ConstructionParams.create(ff.p, ff.k, ff.n, poly=ff.poly, nonresidue=ff.nonresidue)
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyFormatError(f"invalid construction parameters: {exc}") from exc
    try:
        rows = ff.rows if ff.rows.canonical.all() else _canonical(ff.rows)
        return SpreadFamily(params, labels=list(ff.labels), kinds=list(ff.kinds), rows=rows)
    except ValueError as exc:
        raise FamilyFormatError(str(exc)) from exc


def noncanonical_members(ff: FamilyFile) -> list[tuple[str, str]]:
    """Members whose stored rows are not the canonical basis of their span:
    the ones elimination would change (the reduced form is unique).  Generated
    files always store canonical rows, so any hit here means the file was
    edited or corrupted — including edits that happen to preserve the span
    and would be invisible to the set-theoretic checks."""
    return [(ff.labels[i], "rows are not the canonical basis of their span")
            for i in np.flatnonzero(~ff.rows.canonical).tolist()]


def _is_ints(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _int_list(values, what: str, p: int, length: int) -> tuple[int, ...]:
    if not _is_ints(values):
        raise FamilyFormatError(f"{what} must be a list of integers")
    if any(not 0 <= v < p for v in values):
        raise FamilyFormatError(f"{what} entries must lie in [0, {p - 1}]")
    if len(values) != length:
        raise FamilyFormatError(f"{what} must have {length} entries, got {len(values)}")
    return tuple(values)


def _header(doc: dict) -> tuple:
    """The checked (p, k, n, poly, nonresidue) of a document."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise FamilyFormatError(f"unsupported format_version {doc.get('format_version')!r}")
    for key in ("p", "k", "n"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            raise FamilyFormatError(f"{key} must be an integer")
    p, k, n = doc["p"], doc["k"], doc["n"]
    if p < 3 or k < 1 or n < 1:
        raise FamilyFormatError(f"out-of-range parameters p={p}, k={k}, n={n}")
    return p, k, n, _int_list(doc.get("poly"), "poly", p, k), _int_list(doc.get("nonresidue"), "nonresidue", p, k)


def _rows(p: int, width: int, labels, counts, lengths, values: np.ndarray, fault: str | None) -> RowStacks:
    """The table of member rows given as every member's row count, every row's
    entry count and all entries in file order.  Raises for the first row with
    an entry outside [0, p-1] or without ``width`` entries, naming its member;
    past the given rows, for ``fault``, the reader's first fault after them."""
    lengths = np.asarray(lengths, dtype=np.intp)
    outside = np.flatnonzero((values < 0) | (values >= p))
    outside = np.searchsorted(np.cumsum(lengths), outside[:1], side="right").tolist()
    row = min(outside + np.flatnonzero(lengths != width)[:1].tolist(), default=None)
    if row is not None:
        what = f"generator row of {labels[np.searchsorted(np.cumsum(counts), row, side='right')]!r}"
        if outside == [row]:
            raise FamilyFormatError(f"{what} entries must lie in [0, {p - 1}]")
        raise FamilyFormatError(f"{what} must have {width} entries, got {lengths[row]}")
    if fault is not None:
        raise FamilyFormatError(fault)
    return RowStacks.of(p, width, counts, values)


def _from_document(doc) -> FamilyFile:
    """The file of a YAML document: members checked one by one up to the first
    fault, then their rows as arrays."""
    if not isinstance(doc, dict):
        raise FamilyFormatError("top level must be a mapping")
    p, k, n, poly, nonresidue = _header(doc)
    raw_members = doc.get("members")
    if not isinstance(raw_members, list) or not raw_members:
        raise FamilyFormatError("members must be a non-empty list")
    labels, kinds, counts, lengths, values, fault, seen = [], [], [], [], [], None, set()
    for idx, entry in enumerate(raw_members):
        label = entry.get("label") if isinstance(entry, dict) else None
        if not isinstance(entry, dict):
            fault = f"member {idx} must be a mapping"
        elif not isinstance(label, str) or not label:
            fault = f"member {idx} needs a non-empty string label"
        elif label in seen:
            fault = f"duplicate label {label!r}"
        elif entry.get("kind") not in _KINDS:
            fault = f"member {label!r} has unknown kind {entry.get('kind')!r}"
        elif not isinstance(entry.get("generators"), list) or not entry["generators"]:
            fault = f"member {label!r} needs generator rows"
        else:
            rows = list(itertools.takewhile(_is_ints, entry["generators"]))
            seen.add(label)
            labels.append(label)
            kinds.append(entry["kind"])
            counts.append(len(rows))
            lengths += map(len, rows)
            values += itertools.chain.from_iterable(rows)
            if len(rows) < len(entry["generators"]):
                fault = f"generator row of {label!r} must be a list of integers"
        if fault is not None:
            break
    rows = _rows(p, 2 * k * n, labels, counts, lengths, np.array(values, dtype=object), fault)
    return FamilyFile(p, k, n, poly, nonresidue, labels, kinds, rows)


_INT = r"(?:0|[1-9][0-9]*)"
_ROW = rf"\[{_INT}(?:, {_INT})*\]"
_HEADER = re.compile(
    rf"format_version: ({_INT})\np: ({_INT})\nk: ({_INT})\nn: ({_INT})\n"
    rf"poly: ({_ROW})\nnonresidue: ({_ROW})\nmembers:\n"
)
_MEMBER = re.compile(
    rf'- label: "([^"\\\n]*)"\n  kind: ({"|".join(_KINDS)})\n  generators:\n((?:  - {_ROW}\n)+)'
)
_MEMBER_HEAD = '- label: "%s"\n  kind: %s\n  generators:\n'  # the text of _MEMBER before its rows
_SPACES = str.maketrans("[],-\n", "     ")


def _ints(row: str) -> list[int]:
    return [int(v) for v in row[1:-1].split(", ")]


def _own_format(text: str) -> FamilyFile | None:
    """The ``FamilyFile`` of text in exactly the writer's layout (no
    verification block, distinct printable labels without quotes or
    backslashes, plain decimal integers), checked as the YAML route checks it;
    None for any other text.  Every integer is converted before any check, as
    YAML constructs the whole document first.  ``strtoull`` saturates at
    2^64 - 1, so a saturated entry sends the rows to an exact Python-int
    parse, which also raises for digits past Python's limit."""
    head = _HEADER.match(text)
    blocks = _MEMBER.findall(text, head.end()) if head else []
    labels, kinds, texts = (list(column) for column in zip(*blocks)) if blocks else ([], [], [])
    tiled = len(_MEMBER_HEAD % ("", "")) * len(blocks) + sum(map(len, labels + kinds + texts))  # no gap between blocks
    if (head is None or tiled != len(text) - head.end() or not all(map(str.isprintable, labels))
            or not all(labels) or len(set(labels)) < len(labels)):
        return None
    version, p, k, n, poly, nonresidue = head.groups()
    doc = {"format_version": int(version), "p": int(p), "k": int(k), "n": int(n),
           "poly": _ints(poly), "nonresidue": _ints(nonresidue)}
    blob = "".join(texts)
    values = np.fromstring(blob.translate(_SPACES), dtype=np.uint64, sep=" ")
    if (values == np.iinfo(np.uint64).max).any():
        values = np.array([int(v) for v in re.findall("[0-9]+", blob)], dtype=object)
    p, k, n, poly, nonresidue = _header(doc)
    if not blocks:
        raise FamilyFormatError("members must be a non-empty list")
    chars = np.frombuffer(blob.encode("ascii"), dtype=np.uint8)
    starts = np.append(0, np.flatnonzero(chars == ord("\n"))[:-1] + 1)
    lengths = np.add.reduceat(chars == ord(","), starts, dtype=np.intp) + 1
    rows = _rows(p, 2 * k * n, labels, [t.count("\n") for t in texts], lengths, values, None)
    return FamilyFile(p, k, n, poly, nonresidue, labels, kinds, rows)


def _load_yaml(text: str):
    import yaml  # only files in another layout than the writer's need PyYAML

    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise FamilyFormatError(f"not valid YAML: {exc}") from exc


def parse(text: str) -> FamilyFile:
    try:
        ff = _own_format(text)
        doc = _load_yaml(text) if ff is None else None
    except FamilyFormatError:
        raise
    except (ValueError, RecursionError) as exc:
        # a YAML timestamp that is no date, an integer past Python's digit
        # limit, or nesting past the recursion limit
        raise FamilyFormatError(f"unreadable value: {exc}") from exc
    return ff if ff is not None else _from_document(doc)


def _text(ff: FamilyFile) -> Iterator[str]:
    """The file text in pieces: the header, then ``CHUNK_MEMBERS`` members at a
    time (one ``%`` format of their labels, kinds and rows)."""
    quoted = next((label for label in ff.labels if '"' in label), None)
    if quoted is not None:
        raise ValueError(f"cannot serialise {quoted!r}")
    yield (f"format_version: {FORMAT_VERSION}\np: {ff.p}\nk: {ff.k}\nn: {ff.n}\n"
           f"poly: [{', '.join(map(str, ff.poly))}]\nnonresidue: [{', '.join(map(str, ff.nonresidue))}]\nmembers:\n")
    width, counts, rows = ff.rows.width, ff.rows.counts, ff.rows.rows
    row = "  - [" + ", ".join(["%d"] * width) + "]\n"
    formats = {r: _MEMBER_HEAD + row * r for r in set(counts.tolist())}
    ends = np.cumsum(counts)
    for a in range(0, len(counts), CHUNK_MEMBERS):
        part = counts[a : a + CHUNK_MEMBERS]
        heads = 2 * np.arange(len(part)) + width * (np.cumsum(part) - part)  # where each member's arguments start
        args = np.empty(2 * len(part) + width * int(part.sum()), dtype=object)
        body = np.ones(len(args), dtype=bool)
        body[heads] = body[heads + 1] = False
        args[heads], args[heads + 1] = ff.labels[a : a + len(part)], ff.kinds[a : a + len(part)]
        args[body] = rows[ends[a] - part[0] : ends[a + len(part) - 1]].ravel()
        yield "".join(map(formats.__getitem__, part.tolist())) % tuple(args.tolist())


def serialize(ff: FamilyFile) -> str:
    return "".join(_text(ff))


def save(ff: FamilyFile, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_text(ff))


def load(path) -> FamilyFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())
