"""Round-trip and validation tests for the on-disk family format."""

import difflib
import io
import re
import time
import tracemalloc
from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qospread import family_io
from qospread.constructions import (MATRIX_ALGEBRA, ConstructionParams, SpreadFamily, build_masa_spread,
                                    build_recursive, build_spread_2)
from qospread.family_io import FamilyFormatError
from qospread.phase_space import RowStacks
from helpers import broken_label, members_of, reference_members, same_family, with_rows
from test_family_goldens import GOLDENS, serialized
from test_family_goldens import _id as golden_id


@pytest.fixture(scope="module")
def spread3():
    return build_spread_2(ConstructionParams.create(3, 1, 2))


def _relabeled(family, edits: dict):
    """The family with the labels at the keys of ``edits`` replaced."""
    labels = family.labels()
    for i, label in edits.items():
        labels[i] = label
    return SpreadFamily(family.params, labels=labels, kinds=family.kinds(), rows=family.rows)


def test_round_trip_preserves_family(spread3):
    text = family_io.serialize(spread3)
    back = family_io.parse(text)
    assert back.params == spread3.params
    assert back.labels() == spread3.labels()
    assert [m.subspace for m in back.members] == [m.subspace for m in spread3.members]
    assert [m.kind for m in back.members] == [m.kind for m in spread3.members]


def test_serialize_parse_serialize_is_identity(spread3):
    text = family_io.serialize(spread3)
    again = family_io.serialize(family_io.parse(text))
    assert text == again


def test_verification_block_is_out_of_layout(spread3):
    """A file that still ends in the verification block earlier writers
    appended is refused at the block's first line."""
    text = family_io.serialize(spread3)
    block = "verification:\n  passed: true\n  checks: 45\n  max_residual: 0.0\n  failures: 0\n"
    with pytest.raises(FamilyFormatError, match=f"^line {text.count(chr(10)) + 1} is out of the writer's layout: "
                                                "'verification:'$"):
        family_io.parse(text + block)


def test_masa_family_round_trips():
    fam = build_masa_spread(ConstructionParams.create(3, 1, 2))
    text = family_io.serialize(fam)
    back = family_io.parse(text)
    assert [m.kind for m in back.members] == ["masa"] * 10


def test_file_is_plain_yaml(spread3):
    doc = yaml.safe_load(family_io.serialize(spread3))
    assert doc["p"] == 3
    assert doc["members"][0]["label"] == "C[1,0]"
    assert doc["members"][0]["generators"][0] == [1, 0, 0, 1]


def test_integer_payload_in_range(spread3):
    for matrix in spread3.rows.split():
        for row in matrix:
            assert len(row) == 4
            assert all(0 <= x <= 2 for x in row)


def test_noncanonical_members_detects_tampering(spread3):
    ff = spread3
    assert family_io.noncanonical_members(ff) == []
    # span-preserving edit: replace a D[0] row by a non-reduced combination
    target = ff.labels().index("D[0]")
    assert ff.rows.take([target]).rows.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    ff = with_rows(ff, {target: [(1, 2, 0, 0), (0, 1, 0, 0)]})
    bad = family_io.noncanonical_members(ff)
    assert [label for label, _ in bad] == ["D[0]"]


# edits that keep the writer's layout, each refused with its own message
MALFORMED = [
    (lambda t: t.replace("format_version: 1\n", "format_version: 2\n"), "format_version"),
    (lambda t: t.replace("p: 3\n", "p: 4\n"), "invalid construction parameters"),
    (lambda t: t.replace("nonresidue: [2]\n", "nonresidue: [1]\n"), "invalid construction parameters"),
    (lambda t: t.replace("  - [1, 0, 0, 1]\n", "  - [1, 0, 0]\n", 1), "4 entries"),
    (lambda t: t.replace("  - [1, 0, 0, 1]\n", "  - [7, 0, 0, 1]\n", 1), "lie in"),
    (lambda t: t.replace('"C[1,1]"', '"C[1,0]"'), "duplicate"),
    (lambda t: t[: t.index("- label")], "non-empty"),
]


@pytest.mark.parametrize("mutate,message", MALFORMED)
def test_parse_rejects_malformed_documents(spread3, mutate, message):
    """Faults that keep the writer's layout, each refused with its own message
    (an unknown kind or a value that is no integer is a line out of layout:
    ``test_line_reader_declines_other_text``)."""
    text = family_io.serialize(spread3)
    edited = mutate(text)
    assert edited != text
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(edited)


def test_parse_rejects_truncated_yaml(spread3):
    text = family_io.serialize(spread3)
    cut = text[: text.rindex("[") + 2]
    with pytest.raises(FamilyFormatError, match=f"^line {cut.count(chr(10)) + 1} is out of the writer's layout: "
                                                "'  - \\[0' ends the file with no line break$"):
        family_io.parse(cut)


def test_save_and_load(tmp_path, spread3):
    path = tmp_path / "family.yaml"
    family_io.save(spread3, path)
    assert same_family(family_io.load(path), spread3)


# --- the one reader: the writer's layout or a named line --------------------------


@pytest.fixture(scope="module")
def spread_text(spread3):
    return family_io.serialize(spread3)


def _edited_lines(old, new):
    """The numbers of the lines of ``new``, line breaks included, that an edit
    of ``old`` changed or inserted, or that follow lines it deleted."""
    a, b = (re.findall(r"[^\n]*\n|[^\n]+\Z", text) for text in (old, new))
    ops = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    return {j for tag, _, _, j1, j2 in ops if tag != "equal" for j in range(j1 + 1, max(j1 + 1, j2) + 1)}


def _outcome(parse, text):
    try:
        return parse(text)
    except FamilyFormatError as exc:
        return f"FamilyFormatError: {exc}"


def test_line_reader_gives_the_yaml_document(spread_text):
    ff = family_io._read(iter([spread_text]))
    assert ff is not None
    assert members_of(ff) == reference_members(spread_text)
    # an empty member list is written as a bare "members:", which YAML reads as null
    header = spread_text[: spread_text.index("- label")]
    assert yaml.safe_load(header)["members"] is None
    assert reference_members(header) == "FamilyFormatError: members must be a non-empty list"
    with pytest.raises(FamilyFormatError, match="^members must be a non-empty list$"):
        family_io.parse(header)


# edits out of the writer's layout
DECLINED = [
    pytest.param(lambda t: yaml.safe_dump(yaml.safe_load(t)), id="safe_dump"),
    pytest.param(lambda t: t + "verification:\n  passed: true\n", id="verification"),
    pytest.param(lambda t: t.replace("\n", "\r\n"), id="crlf"),
    pytest.param(lambda t: t[:-1], id="no-final-newline"),
    pytest.param(lambda t: t.replace("  - [1, 0, 0, 1]", "  - [01, 0, 0, 1]", 1), id="leading-zero"),
    pytest.param(lambda t: t.replace("p: 3\n", "p: 03\n", 1), id="leading-zero-header"),
    pytest.param(lambda t: t.replace('"C[1,0]"', '"C\\[1,0]"', 1), id="backslash"),
    pytest.param(lambda t: t.replace('"C[1,0]"', '"C\t[1,0]"', 1), id="tab"),
    pytest.param(lambda t: t.replace('"C[1,0]"', '"C\x07[1,0]"', 1), id="non-printable"),
    pytest.param(lambda t: t.replace('"C[1,0]"', '"C\u2028[1,0]"', 1), id="line-separator"),
    pytest.param(lambda t: t.replace("kind: matrix_algebra", "kind: banana", 1), id="unknown-kind"),
    pytest.param(lambda t: t.replace("  - [1, 0, 0, 1]", "  - [1, 0, 0, 1] ", 1), id="trailing-space"),
    pytest.param(lambda t: "# comment\n" + t, id="comment"),
]


@pytest.mark.parametrize("edit", DECLINED)
def test_line_reader_declines_other_text(spread_text, edit):
    """Any other text is refused, naming the first line that differs from the writer's."""
    text = edit(spread_text)
    assert text != spread_text
    with pytest.raises(FamilyFormatError, match=f"^line {min(_edited_lines(spread_text, text))}[ :]"):
        family_io.parse(text)


def _tab(t):
    return t.replace('"C[1,2]"', '"C\t[1,2]"')


def _repeat(t):
    return t.replace('"D[1]"', '"C[1,2]"')


_TAB = r"^line 18: the label 'C\\t\[1,2\]' breaks the label rule$"
_REPEAT = r"^line 43: duplicate label 'C\[1,2\]', first on line 18$"


def test_reader_names_labels_that_break_the_rule(spread_text):
    with pytest.raises(FamilyFormatError, match=_TAB):
        family_io.parse(_tab(spread_text))
    with pytest.raises(FamilyFormatError, match=_REPEAT):
        family_io.parse(_repeat(spread_text))


# more than one label fault: the first in file order is named
LABEL_FAULTS = [
    pytest.param(lambda t: t.replace('"C[2,1]"', '"C[1,0]"').replace('"D[1]"', '"C[1,0]"'),
                 r"^line 28: duplicate label 'C\[1,0\]', first on line 8$", id="label-three-times"),
    pytest.param(lambda t: _repeat(t).replace('"D[inf]"', '"D\t[inf]"'), _REPEAT, id="repeat-then-tab"),
]


@pytest.mark.parametrize("edit,message", LABEL_FAULTS)
def test_reader_names_the_first_label_fault_in_file_order(spread_text, edit, message):
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(edit(spread_text))


# a label fault beside a header or row fault: parse names the label fault, wherever the other lies
TWO_FAULTS = [
    pytest.param(lambda t: _tab(t).replace("  - [1, 0, 0, 1]\n", "  - [7, 0, 0, 1]\n", 1), _TAB, id="tab-and-entry"),
    pytest.param(lambda t: _repeat(t).replace("format_version: 1\n", "format_version: 2\n"), _REPEAT,
                 id="repeat-and-version"),
    pytest.param(lambda t: _repeat(t).replace("  - [1, 0, 0, 1]\n", "  - [1, 0, 0]\n", 1), _REPEAT,
                 id="repeat-and-short-row"),
    pytest.param(lambda t: _tab(t).replace("nonresidue: [2]\n", "nonresidue: [5]\n"), _TAB, id="tab-and-nonresidue"),
]


@pytest.mark.parametrize("edit,message", TWO_FAULTS)
def test_a_label_fault_is_named_before_a_header_or_row_fault(spread_text, edit, message):
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(edit(spread_text))


# the characters str.isprintable accepts: none of Unicode's "other" and separator categories but the space
NOT_PRINTABLE = ("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs")
PRINTABLE = st.characters(exclude_categories=NOT_PRINTABLE, include_characters=" ")
# mostly printable text, some of it any text at all
LABEL = st.one_of(st.text(PRINTABLE), st.text())
# the labels the label rule admits: non-empty printable text without a double quote or a backslash
RULED_LABEL = st.text(st.characters(exclude_categories=NOT_PRINTABLE, include_characters=" ", exclude_characters='"\\'),
                      min_size=1)


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(RULED_LABEL, min_size=2, max_size=2, unique=True))
def test_both_readers_agree_on_any_label(labels):
    """The reader and the YAML oracle read every text the writer writes to
    the same members, and the writer writes what the reader read back to the
    same text."""
    ff = _relabeled(build_spread_2(ConstructionParams.create(3, 1, 2)), dict(zip((0, 5), labels)))
    try:
        text = family_io.serialize(ff)
    except ValueError:
        assume(False)  # a drawn label repeats one of the others
    back = family_io.parse(text)
    assert members_of(back) == reference_members(text)
    assert family_io.serialize(back) == text


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.text(PRINTABLE, min_size=1), min_size=10, max_size=10, unique=True),
       other=st.none() | st.tuples(st.integers(0, 9), LABEL))
def test_every_label_list_the_writer_accepts_reads_back(labels, other):
    """``serialize`` refuses exactly the label lists that break the label rule,
    and the reader reads every text it writes back to the same file."""
    if other is not None:
        labels[other[0]] = other[1]
    ff = _relabeled(build_spread_2(ConstructionParams.create(3, 1, 2)), dict(enumerate(labels)))
    if broken_label(labels) is not None:
        with pytest.raises(ValueError, match="cannot serialise"):
            family_io.serialize(ff)
        return
    text = family_io.serialize(ff)
    assert same_family(family_io._read(iter([text])), ff) and same_family(family_io.parse(text), ff)


# up to about two chunks of distinct labels L0, L1, ..., up to six of them overwritten from a few good
# and bad labels (L0, L255 and L256 among them), so that a bad label or a label two to four times over
# falls anywhere, across the boundaries of the chunks
FEW_LABELS = st.sampled_from(["A", "B", "L0", "L255", "L256", "", "a\tb", 'a"b', "a\\b", "a b"])


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 2 * family_io.CHUNK_MEMBERS + 100),
       edits=st.lists(st.tuples(st.integers(0, 2 * family_io.CHUNK_MEMBERS + 99), FEW_LABELS), max_size=6))
def test_the_label_rule_names_what_the_label_by_label_rule_names(size, edits):
    """``_broken_label`` gives what the label-by-label rule gives, and
    ``serialize`` refuses exactly those labels, with the message for the fault."""
    labels = [f"L{i}" for i in range(size)]
    for i, label in edits:
        labels[i % size] = label
    want = broken_label(labels)
    assert family_io._broken_label(labels) == want
    rows = RowStacks.of(3, 2, [1] * size, [[1, 0]] * size)
    ff = SpreadFamily(ConstructionParams.create(3, 1, 1), labels=labels, kinds=[MATRIX_ALGEBRA] * size, rows=rows)
    if want is None:
        assert family_io.parse(family_io.serialize(ff)).labels() == labels
        return
    i, j = want
    message = f"cannot serialise the label {labels[i]!r}" if i == j else "cannot serialise repeated labels"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        family_io.serialize(ff)


@pytest.mark.parametrize("label", ["a\\nb", "a\nb", '"', 'a"b', "a\x00b", "a\u2028b", ""],
                         ids=["backslash-n", "newline", "quote", "inner-quote", "nul", "line-separator", "empty"])
def test_writer_refuses_labels_that_break_the_rule(spread3, label):
    """Each of these came back changed or not at all: a backslash and an n as a
    newline, a NUL or an empty label as a format error."""
    ff = _relabeled(spread3, {3: label})
    with pytest.raises(ValueError, match=f"^cannot serialise the label {re.escape(repr(label))}$"):
        family_io.serialize(ff)


def test_writer_refuses_repeated_labels(spread3, tmp_path):
    ff = _relabeled(spread3, {7: spread3.labels()[2]})
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.serialize(ff)
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.save(ff, tmp_path / "dup.yaml")


def test_save_refuses_labels_before_opening_the_path(spread3, tmp_path):
    """A refused label list leaves the file at the path as it was."""
    path = tmp_path / "fam.yaml"
    family_io.save(spread3, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.save(_relabeled(spread3, {7: spread3.labels()[2]}), path)
    with pytest.raises(ValueError, match="^cannot serialise the label 'a\\\\nb'$"):
        family_io.save(_relabeled(spread3, {7: "a\nb"}), path)
    assert path.read_bytes() == before


def test_load_reports_text_that_is_not_utf8(tmp_path, spread_text):
    path = tmp_path / "bad.yaml"
    path.write_bytes(spread_text.encode().replace(b"p: 3", b"p: \xff", 1))
    with pytest.raises(FamilyFormatError, match="^not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                                                "position 21: invalid start byte$"):
        family_io.load(path)


# values no integer parse of the writer's layout reads
CRAFTED = [
    pytest.param("p: 3\n", "p: 2001-02-30\n", "^line 2 is out of the writer's layout: 'p: 2001-02-30'$",
                 id="timestamp"),  # a YAML date
    pytest.param("p: 3\n", f"p: {'7' * 5000}\n", "digits", id="huge-int-header"),  # past Python's integer digit limit
    pytest.param("[1, 0, 0, 1]", f"[{'1' * 5000}, 0, 0, 1]", "digits", id="huge-int-row"),
    # a line is shown up to its first 60 characters
    pytest.param("p: 3\n", f"p: {'[' * 5000}{']' * 5000}\n",
                 rf"^line 2 is out of the writer's layout: 'p: {re.escape('[' * 57)}…'$", id="deep-nesting"),
]


@pytest.mark.parametrize("old,new,message", CRAFTED)
def test_crafted_values_are_format_errors(spread_text, old, new, message):
    text = spread_text.replace(old, new, 1)
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(text)


# --- the reader and the YAML oracle on mutated text ------------------------------

_BASE = family_io.serialize(build_spread_2(ConstructionParams.create(5, 1, 2)))
_LINES = _BASE.split("\n")
# edits that keep the writer's layout, and edits out of it
_CHECKED = ("in-range", "at-least-p", "25-digits", "short-row", "long-row")
_DECLINED = ("leading-zero", "sign", "empty-row", "empty-generators", "duplicate-label")
READ_BOUND_S = 2.0


@st.composite
def mutated_text(draw):
    """The p=5, n=2 file with one to four edits, all in the writer's layout or
    all out of it, in the rows of its first members, so that several faults
    often meet in one row or one member."""
    group, lines = draw(st.sampled_from([_CHECKED, _DECLINED])), list(_LINES)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(group))
        heads = [i for i, line in enumerate(lines) if line.startswith("- label: ")]
        if kind == "duplicate-label":
            src, dst = draw(st.lists(st.sampled_from(heads[:4]), min_size=2, max_size=2, unique=True))
            lines[dst] = lines[src]
            continue
        if kind == "empty-generators":
            at = draw(st.sampled_from(heads[:4]))
            end = at + 3
            while end < len(lines) and lines[end].startswith("  - ["):
                end += 1
            del lines[at + 3 : end]
            continue
        rows = [i for i, line in enumerate(lines[: heads[4]]) if line.startswith("  - [") and line != "  - []"]
        at = draw(st.sampled_from(rows))
        entries = lines[at][5:-1].split(", ")
        j = draw(st.integers(0, len(entries) - 1))
        if kind == "in-range":
            entries[j] = str(draw(st.integers(0, 4)))
        elif kind == "at-least-p":
            entries[j] = str(draw(st.integers(5, 10**19)))
        elif kind == "25-digits":
            entries[j] = str(draw(st.integers(10**24, 10**25 - 1)))
        elif kind == "short-row":
            # a row of no entries, "[]", is not the writer's layout: that is the edit "empty-row"
            del entries[j : j + (len(entries) > 1)]
        elif kind == "empty-row":
            entries = []
        elif kind == "long-row":
            entries.insert(j, str(draw(st.integers(0, 4))))
        elif kind == "leading-zero":
            entries[j] = "0" + entries[j]
        else:
            entries[j] = draw(st.sampled_from("+-")) + entries[j]
        lines[at] = "  - [" + ", ".join(entries) + "]"
    return group is _CHECKED, "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(mutated_text())
def test_both_readers_agree_on_mutated_rows(case):
    """Edits in the writer's layout: the reader gives the YAML oracle's
    members or its first fault, and whatever it reads the writer writes back
    to the same text.  Edits out of it: the error names an edited line (a
    repeated label names its first line too) and blames none before the first edit."""
    checked, text = case
    start = time.perf_counter()
    outcome = _outcome(family_io.parse, text)
    assert time.perf_counter() - start < READ_BOUND_S
    if checked:
        assert members_of(outcome) == reference_members(text)
        assert isinstance(outcome, str) or family_io.serialize(outcome) == text
    else:
        named, edited = [int(line) for line in re.findall(r"line ([0-9]+)", outcome)], _edited_lines(_BASE, text)
        assert edited.intersection(named) and named[0] >= min(edited), outcome


P_PAST_INT64 = 2**63 + 29


@pytest.mark.parametrize("entry,ok", [
    (P_PAST_INT64 - 1, True), (P_PAST_INT64, False), (2**64 - 1, False), (2**64, False), (10**30, False),
])
def test_line_reader_past_int64(entry, ok):
    ff = build_recursive(ConstructionParams.create(P_PAST_INT64, 1, 1))
    text = family_io.serialize(ff)
    assert same_family(family_io.parse(text), ff)
    assert members_of(ff) == reference_members(text)
    text = text.replace("  - [1, 0]\n", f"  - [{entry}, 0]\n")
    line = _outcome(family_io.parse, text)
    assert members_of(line) == reference_members(text)
    if ok:
        assert family_io.serialize(line) == text
        assert line.rows.take([0]).rows.tolist() == [[entry, 0], [0, 1]]
    else:
        assert line == f"FamilyFormatError: generator row of 'full' entries must lie in [0, {P_PAST_INT64 - 1}]"


def test_save_peaks_below_half_the_file(tmp_path):
    """The writer formats a chunk of members at a time, so its peak stays far
    below the 1.56 MB of the p=3, k=2, n=3 file."""
    ff = build_recursive(ConstructionParams.create(3, 2, 3))
    path = tmp_path / "k2n3.yaml"
    tracemalloc.start()
    try:
        family_io.save(ff, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_500_000
    assert peak < size / 2, (peak, size)


def test_load_peaks_below_three_times_the_file(tmp_path):
    """``load`` parses the file a piece at a time and keeps every kind as its
    constant, so its peak stays below three times the 1.56 MB of the p=3,
    k=2, n=3 file (a parse of the whole text peaks at 13 times it)."""
    path = tmp_path / "k2n3.yaml"
    path.write_bytes(serialized((3, 2, 3)).encode())
    tracemalloc.start()
    try:
        ff = family_io.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_500_000
    assert peak < 3 * size, (peak, size)
    assert all(kind is MATRIX_ALGEBRA for kind in ff.kinds())


def test_parse_of_a_member_of_many_rows_peaks_below_60_mib():
    """Member heads and row lines are matched one line pattern at a time, with
    no repeated group, so the parse of one member of 180,000 rows (a 1.98 MB
    text) peaks below 60 MiB; a member pattern with a repeated row group held
    about 700 bytes per row while it matched (124 MiB)."""
    header = family_io.serialize(build_recursive(ConstructionParams.create(3, 1, 1)))
    text = header[: header.index("- label")] + '- label: "A"\n  kind: masa\n  generators:\n' + "  - [1, 0]\n" * 180_000
    assert len(text) > 1_980_000
    tracemalloc.start()
    try:
        family = family_io.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.rows.counts.tolist() == [180_000]
    assert family_io.noncanonical_members(family) == [("A", "rows are not the canonical basis of their span")]
    assert peak < 60 * 2**20, peak


def test_pieces_of_a_large_member_take_linear_time():
    """A 2 MB member read 64 bytes at a time is one piece after the header's,
    split in well under a second (copying the buffer at each read took seconds)."""
    text = serialized((3, 1, 2))
    head = text[: text.index("- label")]
    member = '- label: "A"\n  kind: masa\n  generators:\n' + "  - [1, 0, 0, 0]\n" * 120_000
    data = (head + member).encode()
    assert len(data) > 2_000_000
    start = time.perf_counter()
    pieces = list(family_io._pieces(io.BytesIO(data), 64))
    assert time.perf_counter() - start < 1.0
    assert pieces == [head.encode(), member.encode()]


# --- load against parse: the file entry point reads what the text reader reads ---


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("load") / "family.yaml"


def _loads_as_parsed(path, text, piece):
    """``load`` of the text's UTF-8 bytes, read ``piece`` bytes at a time,
    gives what ``parse`` gives of the text: the same header, labels, kinds and
    rows, in the same dtype, or the same error.  It never hands the text to
    ``parse``, so a member dropped or repeated at a cut, or a line or offset
    miscounted across pieces, fails here rather than being mended by a second,
    whole read."""
    path.write_bytes(text.encode())
    want = _outcome(family_io.parse, text)
    with (mock.patch.object(family_io, "PIECE_BYTES", piece),
          mock.patch.object(family_io, "parse", wraps=family_io.parse) as whole):
        got = _outcome(family_io.load, path)
    assert got == want if isinstance(want, str) else same_family(got, want)
    assert not whole.called


# bytes per read of load: one member a piece, a few members, the default
PIECES = [pytest.param(1, id="piece1"), pytest.param(300, id="piece300"),
          pytest.param(family_io.PIECE_BYTES, id="default")]


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("pkn", sorted(GOLDENS), ids=golden_id)
def test_load_reads_the_goldens_as_parse_does(scratch, pkn, piece):
    _loads_as_parsed(scratch, serialized(pkn), piece)


# every edit of the p=3, n=2 file that the reader tests above make
EDITS = [
    *(pytest.param(mutate, id=f"malformed{i}") for i, (mutate, _) in enumerate(MALFORMED)),
    *DECLINED,
    *(pytest.param(lambda t, old=param.values[0], new=param.values[1]: t.replace(old, new, 1), id=param.id)
      for param in CRAFTED),
    pytest.param(lambda t: t[: t.rindex("[") + 2], id="truncated"),
    pytest.param(_tab, id="tab-label"),
    pytest.param(_repeat, id="repeated-label"),
    *(pytest.param(param.values[0], id=param.id) for param in TWO_FAULTS + LABEL_FAULTS),
    pytest.param(lambda t: t, id="unedited"),
    # texts at the edge of a cut (the header alone is malformed6)
    pytest.param(lambda t: "", id="empty"),
    pytest.param(lambda t: "\n", id="lone-newline"),
    pytest.param(lambda t: t[: t.index("poly:") + 3], id="header-cut-mid-line"),
    pytest.param(lambda t: t[: t.index("  kind")], id="label-line-alone"),
    pytest.param(lambda t: t.replace("- label", '- label: "Z"\n  kind: masa\n  generators:\n- label', 1),
                 id="head-without-rows-before-a-member"),
    pytest.param(lambda t: t[: t.rindex("generators:\n") + len("generators:\n")], id="cut-after-generators"),
    pytest.param(lambda t: t[: t.rindex("- label") + 12], id="cut-mid-label"),
    pytest.param(lambda t: t[: t.rindex("generators:\n") + len("generators:\n")] + '- label: "Z',
                 id="cut-after-a-head"),
    pytest.param(lambda t: t.replace("members:\n", ""), id="no-members-line"),
    # an entry past Python's digit limit is named before an earlier row fault, as by one parse of all rows
    pytest.param(lambda t: _last_row(t.replace("  - [1, 0, 0, 1]\n", "  - [7, 0, 0, 1]\n", 1), "1" * 5000),
                 id="row-fault-then-digits"),
]


def _last_row(text, entry):
    """The text with the first entry of its last row made ``entry``."""
    at = text.rindex("  - [") + len("  - [")
    return text[:at] + entry + text[text.index(",", at):]


def test_an_empty_text_ends_at_line_1():
    """``load`` of an empty file says the same (``EDITS``: empty)."""
    with pytest.raises(FamilyFormatError, match="^line 1 is out of the writer's layout: the file ends$"):
        family_io.parse("")


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("edit", EDITS)
def test_load_reads_edited_files_as_parse_does(scratch, spread_text, edit, piece):
    _loads_as_parsed(scratch, edit(spread_text), piece)


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("entry", [1, P_PAST_INT64 - 1, P_PAST_INT64, 2**64 - 1, 2**64, 10**30])
def test_load_reads_entries_past_int64_as_parse_does(scratch, entry, piece):
    text = family_io.serialize(build_recursive(ConstructionParams.create(P_PAST_INT64, 1, 1)))
    _loads_as_parsed(scratch, text.replace("  - [1, 0]\n", f"  - [{entry}, 0]\n"), piece)


@pytest.mark.parametrize("piece", PIECES)
@settings(max_examples=100, deadline=None)
@given(mutated_text())
def test_load_reads_mutated_rows_as_parse_does(scratch, piece, case):
    _loads_as_parsed(scratch, case[1], piece)


def test_load_counts_a_utf8_fault_from_the_start_of_the_file(tmp_path):
    """A byte that is not UTF-8 in the last member's label of the p=3, k=2,
    n=3 file is named at its offset in the whole file."""
    data = serialized((3, 2, 3)).encode()
    at = data.rindex(b'- label: "') + len(b'- label: "')
    path = tmp_path / "k2n3.yaml"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(FamilyFormatError, match=f"^not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                                                f"position {at}: invalid start byte$"):
        family_io.load(path)


# non-UTF-8 bytes in the p=3, n=2 file, mid-file in a label or at its end
UTF8_FAULTS = [
    pytest.param(lambda d: d.replace(b'"D[1]"', b'"D\xff[1]"'), id="invalid-start-byte"),
    pytest.param(lambda d: d.replace(b'"D[1]"', b'"D\xe2([1]"'), id="invalid-continuation-byte"),
    pytest.param(lambda d: d.replace(b'"D[1]"', b'"D\xf0\x9f([1]"'), id="invalid-continuation-of-two-bytes"),
    pytest.param(lambda d: d + b"\xe2\x82", id="cut-at-the-end"),
    pytest.param(lambda d: d.replace(b"kind: matrix_algebra", b"kind: banana", 1).replace(b'"D[1]"', b'"D\xff[1]"'),
                 id="after-a-line-out-of-layout"),
    pytest.param(lambda d: d.replace(b"  - [1, 0, 0, 1]\n", b"  - [7, 0, 0, 1]\n", 1).replace(b'"D[1]"', b'"D\xff[1]"'),
                 id="after-a-row-fault"),
]


@pytest.mark.parametrize("piece", PIECES)
@pytest.mark.parametrize("edit", UTF8_FAULTS)
def test_load_names_a_utf8_fault_as_one_decode_of_the_file(scratch, spread_text, edit, piece):
    """A byte that is not UTF-8 comes before any other fault, named in both of
    Python's forms at its offset in the whole file, however the file is cut."""
    data = edit(spread_text.encode())
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    scratch.write_bytes(data)
    with mock.patch.object(family_io, "PIECE_BYTES", piece), pytest.raises(FamilyFormatError) as got:
        family_io.load(scratch)
    assert str(got.value) == f"not UTF-8 text: {whole.value}"


# faults in the last member of the p=3, k=2, n=3 file
LATE_FAULTS = [
    pytest.param(lambda t: _last_row(t, "3"), id="last-entry-3"),
    pytest.param(lambda t: t[:-7], id="last-7-bytes-cut"),
    pytest.param(lambda t: t[: t.rindex("- label")] + t[t.index("- label") : t.index("\n  kind")]
                 + t[t.index("\n  kind", t.rindex("- label")) :], id="last-label-repeats-the-first"),
]


@pytest.mark.parametrize("edit", LATE_FAULTS)
def test_load_of_a_late_fault_peaks_below_three_times_the_file(tmp_path, edit):
    """``load`` names a fault in the last member from the pieces it read, as
    ``parse`` names it, within the bound of the intact file (a second, whole
    read peaked at 4 to 13 times the file)."""
    text = edit(serialized((3, 2, 3)))
    path = tmp_path / "k2n3.yaml"
    path.write_bytes(text.encode())
    want = _outcome(family_io.parse, text)
    assert want.startswith("FamilyFormatError: ")
    tracemalloc.start()
    try:
        got = _outcome(family_io.load, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 3 * len(text), (peak, len(text))
