"""On-disk family format: one fixed YAML layout with integer-only algebraic payload.

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
manual so identical families produce identical bytes.  The writer formats
``CHUNK_MEMBERS`` members at a time, one ``%`` format per chunk, and writes
chunk by chunk, so no whole-file string is built.

One reader, ``_read``, accepts exactly the writer's layout and gives a
``SpreadFamily`` whose rows are as stored.  It takes a text in pieces, each
cut before a member, the header in the first: ``parse`` hands it the whole
text as one piece, and ``load`` the members that each read of ``PIECE_BYTES``
bytes completes, so its transient memory scales with a piece, or with the
largest member, not with the file.  Each piece is split at every member head
(``_HEAD``: the label, kind and ``generators:`` lines); what follows a head
must be one or more row lines (``_ROW_LINE``) and nothing else.  Neither
pattern repeats a group, so the regex engine holds no state per row.  The
header is checked at the first piece, and each piece's row entries get an
integer parse and vectorised range and length checks.  Any other text, a
restyled YAML file or one that ends in an old ``verification:`` block
included, is a ``FamilyFormatError``.  It is named from the pieces read, as
one read of the whole text names it: the first of a byte that is not UTF-8
(at its offset in the file), the first line out of layout or a label before
it that breaks ``_keeps_label_rule`` (by line number), a header value, the
first faulty row, no members, and the construction parameters.  The writer
refuses the labels that the reader refuses.
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Iterator

import numpy as np

from .constructions import MASA, MATRIX_ALGEBRA, ConstructionParams, SpreadFamily
from .phase_space import RowStacks

FORMAT_VERSION = 1
CHUNK_MEMBERS = 256  # members per write
PIECE_BYTES = 1 << 16  # bytes per read of ``load``, which parses the whole members read so far

_KINDS = {kind: kind for kind in (MATRIX_ALGEBRA, MASA)}  # a kind read back is its constant, not a new string


class FamilyFormatError(ValueError):
    """The file is not a well-formed, internally consistent family file."""


def noncanonical_members(family: SpreadFamily) -> list[tuple[str, str]]:
    """Members whose stored rows are not the canonical basis of their span:
    the ones elimination would change (the reduced form is unique).  Generated
    files always store canonical rows, so any hit here means the file was
    edited or corrupted — including edits that happen to preserve the span
    and would be invisible to the set-theoretic checks."""
    labels = family.labels()
    return [(labels[i], "rows are not the canonical basis of their span")
            for i in np.flatnonzero(~family.rows.canonical).tolist()]


def _keeps_label_rule(labels: list[str]) -> bool:
    """The one label rule: every label is non-empty and printable, holds no ``"`` and no ``\\``, and comes
    once.  Text is tested ``CHUNK_MEMBERS`` labels at a time, each followed by a ``"``; repeats by sorting."""
    for a in range(0, len(labels), CHUNK_MEMBERS):
        chunk = labels[a : a + CHUNK_MEMBERS]
        text = '"'.join([*chunk, ""])
        if not (all(chunk) and text.isprintable() and text.count('"') == len(chunk) and "\\" not in text):
            return False
    ordered = sorted(labels)
    return not any(map(operator.eq, ordered, itertools.islice(ordered, 1, None)))


def _broken_label(labels: list[str]) -> tuple[int, int] | None:
    """Where the labels first break the label rule, in order: (i, i) for a label
    that breaks it on its own, (i, j) for a repeat of label j; None if they keep it."""
    if _keeps_label_rule(labels):
        return None
    first: dict[str, int] = {}
    for i, label in enumerate(labels):
        if not _keeps_label_rule([label]):
            return i, i
        if first.setdefault(label, i) < i:
            return i, first[label]
    return None


def _int_list(values: list[int], what: str, p: int, length: int) -> tuple[int, ...]:
    if any(v >= p for v in values):
        raise FamilyFormatError(f"{what} entries must lie in [0, {p - 1}]")
    if len(values) != length:
        raise FamilyFormatError(f"{what} must have {length} entries, got {len(values)}")
    return tuple(values)


def _header(version: int, p: int, k: int, n: int, poly: list[int], nonresidue: list[int]) -> tuple:
    """The checked (p, k, n, poly, nonresidue) of a header's values."""
    if version != FORMAT_VERSION:
        raise FamilyFormatError(f"unsupported format_version {version!r}")
    if p < 3 or k < 1 or n < 1:
        raise FamilyFormatError(f"out-of-range parameters p={p}, k={k}, n={n}")
    return p, k, n, _int_list(poly, "poly", p, k), _int_list(nonresidue, "nonresidue", p, k)


_INT = r"(?:0|[1-9][0-9]*)"
_ROW = rf"\[{_INT}(?:, {_INT})*\]"
# the writer's layout line by line: the header, then per member a head of three lines and one or more rows
_HEADER_LINES = (rf"format_version: ({_INT})", rf"p: ({_INT})", rf"k: ({_INT})", rf"n: ({_INT})",
                 rf"poly: ({_ROW})", rf"nonresidue: ({_ROW})", "members:")
_MEMBER_LINES = (r'- label: "([^"\\\n]*)"', rf"  kind: ({'|'.join(_KINDS)})", "  generators:", rf"  - {_ROW}")
_HEADER = re.compile("".join(rf"{line}\n" for line in _HEADER_LINES))
_HEAD = re.compile("".join(rf"{line}\n" for line in _MEMBER_LINES[:3]))
_ROW_LINE = re.compile(rf"{_MEMBER_LINES[3]}\n")
_LABEL_LINE = re.compile(rf"{_MEMBER_LINES[0]}\n")
_MEMBER_HEAD = '- label: "%s"\n  kind: %s\n  generators:\n'  # the text of _HEAD
_SPACES = str.maketrans("[],-\n", "     ")
_SHOWN = 60  # characters of a line out of layout that its error shows


def _ints(row: str) -> list[int]:
    return [int(v) for v in row[1:-1].split(", ")]


def _blocks(text: str, at: int) -> tuple[list[str], list[str], list[str]] | None:
    """The labels, kinds and row texts of the member blocks of the text from
    offset ``at``, split at each head; None unless a head starts at ``at`` (or
    the text ends there) and each head is followed by row lines only, at least one."""
    lead, *parts = _HEAD.split(text)
    labels, kinds, texts = parts[0::3], parts[1::3], parts[2::3]
    # each text ends a line, so the row lines of the joined texts are those of each text
    if len(lead) != at or not all(t.endswith("\n") for t in texts) or _ROW_LINE.sub("", "".join(texts)):
        return None
    return labels, list(map(_KINDS.__getitem__, kinds)), texts


def _rows(p: int, width: int, labels: list[str], texts: list[str], counts: np.ndarray) -> RowStacks:
    """The table of the members' rows, from their row texts and row counts.
    Raises for the first row with an entry above p-1 or without ``width``
    entries, naming its member.  ``strtoull`` saturates at 2^64 - 1, so a
    saturated entry sends the rows to an exact Python-int parse, which also
    raises for digits past Python's limit."""
    blob = "".join(texts)
    values = np.fromstring(blob.translate(_SPACES), dtype=np.uint64, sep=" ")
    if (values == np.iinfo(np.uint64).max).any():
        values = np.array([int(v) for v in re.findall("[0-9]+", blob)], dtype=object)
    chars = np.frombuffer(blob.encode("ascii"), dtype=np.uint8)
    starts = np.append(0, np.flatnonzero(chars == ord("\n"))[:-1] + 1)
    lengths = np.add.reduceat(chars == ord(","), starts, dtype=np.intp) + 1
    outside = np.searchsorted(np.cumsum(lengths), np.flatnonzero(values >= p)[:1], side="right").tolist()
    row = min(outside + np.flatnonzero(lengths != width)[:1].tolist(), default=None)
    if row is not None:
        what = f"generator row of {labels[np.searchsorted(np.cumsum(counts), row, side='right')]!r}"
        if outside == [row]:
            raise FamilyFormatError(f"{what} entries must lie in [0, {p - 1}]")
        raise FamilyFormatError(f"{what} must have {width} entries, got {lengths[row]}")
    return RowStacks.of(p, width, counts, values)


def _pieces(handle, size: int) -> Iterator[bytes]:
    """The bytes of a binary file in pieces: reads of ``size`` bytes, each
    piece cut after the last line break before ``- label: `` read so far, so
    that every piece but the first starts a member; the rest is the last piece."""
    rest = bytearray()  # grown and cut in place, so a member of many reads costs time linear in its size
    while block := handle.read(size):
        rest += block
        cut = rest.rfind(b"\n- label: ", max(len(rest) - len(block) - 9, 0)) + 1  # a new cut ends in the block
        if cut:
            yield bytes(rest[:cut])
            del rest[:cut]
    if rest:
        yield bytes(rest)


def _read(pieces: Iterator[str]) -> SpreadFamily:
    """The checked family of a text in exactly the writer's layout (labels that
    keep the label rule, plain decimal integers), its rows as stored, from its
    pieces: the first holds the header, and each later one starts a member.
    Otherwise a ``FamilyFormatError`` for its first fault in the module's
    order; an entry past Python's digit limit precedes every other faulty row.
    Once a piece is refused, ``_fault`` names it and later pieces are only
    drawn; once a header fault or such an entry is held, later pieces are only
    split.  The label rule is tested once, over all labels, at the end."""
    labels, kinds, counts, tables = [], [], [], []
    named = fault = final = None  # the line named; the first header or row fault; a fault no later row precedes
    for i, (text, after) in enumerate(itertools.pairwise(itertools.chain([next(pieces, "")], pieces, [""]))):
        if named is not None:
            continue
        head = _HEADER.match(text) if i == 0 else None
        blocks = None if i == 0 and head is None else _blocks(text, head.end() if head else 0)
        if blocks is None:  # a line cut at the piece's end ends in the next piece's first line
            named = _fault(text + after[: after.find("\n") + 1 or None], i == 0, labels, counts)
            continue
        piece_counts = np.array([t.count("\n") for t in blocks[2]], dtype=np.intp)
        if head is not None:
            try:
                *values, poly, nonresidue = head.groups()  # format_version, p, k, n, then the two rows
                p, k, n, poly, nonresidue = _header(*map(int, values), _ints(poly), _ints(nonresidue))
            except FamilyFormatError as exc:
                fault = final = exc
            except ValueError as exc:  # an integer past Python's digit limit
                fault = final = FamilyFormatError(f"unreadable value: {exc}")
        if blocks[0] and final is None:
            try:
                table = _rows(p, 2 * k * n, blocks[0], blocks[2], piece_counts)
            except FamilyFormatError as exc:
                fault = fault or exc
            except ValueError as exc:  # as in one parse of all rows, it precedes every other row fault
                fault = final = FamilyFormatError(f"unreadable value: {exc}")
            else:
                if fault is None:
                    tables.append(table)
        labels += blocks[0]
        kinds += blocks[1]
        counts.append(piece_counts)
    if named is None and not _keeps_label_rule(labels):
        named = _fault("", False, labels, counts)
    if named is not None:
        raise FamilyFormatError(named)
    if fault is not None:
        raise fault
    if not labels:
        raise FamilyFormatError("members must be a non-empty list")
    try:
        params = ConstructionParams.create(p, k, n, poly=poly, nonresidue=nonresidue)
    except (ValueError, ZeroDivisionError) as exc:
        raise FamilyFormatError(f"invalid construction parameters: {exc}") from exc
    counts, rows = np.concatenate(counts), np.concatenate([t.rows for t in tables])
    return SpreadFamily(params, labels=labels, kinds=kinds, rows=RowStacks.of(p, 2 * k * n, counts, rows))


def _line_fault(text: str, at: int, patterns, number: int) -> str:
    """The first of the lines from offset ``at``, which is line ``number``,
    that does not match its pattern in turn, by number and text."""
    for pattern in patterns:
        end = text.find("\n", at)
        if end < 0 or re.fullmatch(pattern, text[at:end]) is None:
            break
        at, number = end + 1, number + 1
    line = text[at:] if end < 0 else text[at:end]
    shown = repr(line[:_SHOWN] + "…" * (len(line) > _SHOWN))
    if end < 0:
        shown = f"{shown} ends the file with no line break" if line else "the file ends"
    return f"line {number} is out of the writer's layout: {shown}"


def _fault(text: str, header: bool, labels: list[str], counts: list[np.ndarray]) -> str:
    """Why ``_read`` refused a piece, which holds the header if ``header``, given the labels
    and row counts of the pieces before it: the piece's first line out of the
    writer's layout, or the first label up to that line that breaks the label
    rule, by line number.  The text runs on into the next piece's first line.
    Member m's label is on line 8 + 3m plus the rows before it.  Only errors
    pay for it: one ``_HEAD`` match per member and one ``_ROW_LINE`` match per
    row of the piece up to the first member that fails, then the lines of that one."""
    head = _HEADER.match(text) if header else None
    if header and head is None:
        return _line_fault(text, 0, _HEADER_LINES, 1)
    at, more, rows = head.end() if header else 0, [], []
    while (block := _HEAD.match(text, at)) is not None:
        end = block.end()
        while (row := _ROW_LINE.match(text, end)) is not None:
            end = row.end()
        if end == block.end():  # a head without rows
            break
        more.append(block[1])
        rows.append(text.count("\n", block.end(), end))
        at = end
    if (block := _LABEL_LINE.match(text, at)) is not None:  # the failing member's label
        more.append(block[1])
    labels, counts = labels + more, np.concatenate([*counts, np.array(rows, dtype=np.intp)])
    broken = _broken_label(labels)
    line, first = (8 + 3 * m + int(counts[:m].sum()) for m in broken or (len(counts), 0))  # the members' label lines
    if broken is None:
        return _line_fault(text, at, _MEMBER_LINES, line)
    i, j = broken
    if i == j:
        return f"line {line}: the label {labels[i]!r} breaks the label rule"
    return f"line {line}: duplicate label {labels[i]!r}, first on line {first}"


def parse(text: str) -> SpreadFamily:
    return _read(iter([text]))


def _text(family: SpreadFamily) -> Iterator[str]:
    """The file text in pieces: the header, then ``CHUNK_MEMBERS`` members at a
    time (one ``%`` format of their labels, kinds and rows), once the labels keep the label rule."""
    labels, kinds, params = family.labels(), family.kinds(), family.params
    broken = _broken_label(labels)
    if broken is not None:
        i, j = broken
        raise ValueError(f"cannot serialise the label {labels[i]!r}" if i == j else "cannot serialise repeated labels")
    poly, nonresidue = (", ".join(map(str, coords)) for coords in (params.field.poly, params.nonresidue.coords))
    yield (f"format_version: {FORMAT_VERSION}\np: {params.p}\nk: {params.k}\nn: {params.n}\n"
           f"poly: [{poly}]\nnonresidue: [{nonresidue}]\nmembers:\n")
    width, counts, rows = family.rows.width, family.rows.counts, family.rows.rows
    row = "  - [" + ", ".join(["%d"] * width) + "]\n"
    formats = {r: _MEMBER_HEAD + row * r for r in set(counts.tolist())}
    ends = np.cumsum(counts)
    for a in range(0, len(counts), CHUNK_MEMBERS):
        part = counts[a : a + CHUNK_MEMBERS]
        heads = 2 * np.arange(len(part)) + width * (np.cumsum(part) - part)  # where each member's arguments start
        args = np.empty(2 * len(part) + width * int(part.sum()), dtype=object)
        body = np.ones(len(args), dtype=bool)
        body[heads] = body[heads + 1] = False
        args[heads], args[heads + 1] = labels[a : a + len(part)], kinds[a : a + len(part)]
        args[body] = rows[ends[a] - part[0] : ends[a + len(part) - 1]].ravel()
        yield "".join(map(formats.__getitem__, part.tolist())) % tuple(args.tolist())


def serialize(family: SpreadFamily) -> str:
    return "".join(_text(family))


def save(family: SpreadFamily, path) -> None:
    pieces = _text(family)
    header = next(pieces)  # the labels are checked before the path is opened
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.writelines(pieces)


def load(path) -> SpreadFamily:
    """The family in the file at the path, read a piece at a time, each piece
    decoded as UTF-8: a byte that is not is named at its offset in the file."""
    with open(path, "rb") as handle:  # no newline translation: the bytes as written
        return _read(_decoded(_pieces(handle, PIECE_BYTES)))


def _decoded(pieces: Iterator[bytes]) -> Iterator[str]:
    """The pieces as text; a fault is named as one decode of all their bytes names it."""
    at = 0
    for piece in pieces:
        try:
            yield piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            a, b = at + exc.start, at + exc.end - 1
            where = f"byte 0x{piece[exc.start]:02x} in position {a}" if a == b else f"bytes in position {a}-{b}"
            raise FamilyFormatError(f"not UTF-8 text: 'utf-8' codec can't decode {where}: {exc.reason}") from exc
        at += len(piece)
