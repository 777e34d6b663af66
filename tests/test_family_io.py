"""Round-trip and validation tests for the on-disk family format."""

import difflib
import re
import time
import tracemalloc

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qospread import family_io
from qospread.constructions import ConstructionParams, build_masa_spread, build_recursive, build_spread_2
from qospread.family_io import FamilyFormatError
from helpers import members_of, reference_members, with_rows


@pytest.fixture(scope="module")
def spread3():
    return build_spread_2(ConstructionParams.create(3, 1, 2))


def test_round_trip_preserves_family(spread3):
    ff = family_io.from_family(spread3)
    text = family_io.serialize(ff)
    back = family_io.to_family(family_io.parse(text))
    assert back.params == spread3.params
    assert back.labels() == spread3.labels()
    assert [m.subspace for m in back.members] == [m.subspace for m in spread3.members]
    assert [m.kind for m in back.members] == [m.kind for m in spread3.members]


def test_serialize_parse_serialize_is_identity(spread3):
    text = family_io.serialize(family_io.from_family(spread3))
    again = family_io.serialize(family_io.parse(text))
    assert text == again


def test_verification_block_is_out_of_layout(spread3):
    """A file that still ends in the verification block earlier writers
    appended is refused at the block's first line."""
    text = family_io.serialize(family_io.from_family(spread3))
    block = "verification:\n  passed: true\n  checks: 45\n  max_residual: 0.0\n  failures: 0\n"
    with pytest.raises(FamilyFormatError, match=f"^line {text.count(chr(10)) + 1} is out of the writer's layout: "
                                                "'verification:'$"):
        family_io.parse(text + block)


def test_masa_family_round_trips():
    fam = build_masa_spread(ConstructionParams.create(3, 1, 2))
    text = family_io.serialize(family_io.from_family(fam))
    back = family_io.to_family(family_io.parse(text))
    assert [m.kind for m in back.members] == ["masa"] * 10


def test_file_is_plain_yaml(spread3):
    doc = yaml.safe_load(family_io.serialize(family_io.from_family(spread3)))
    assert doc["p"] == 3
    assert doc["members"][0]["label"] == "C[1,0]"
    assert doc["members"][0]["generators"][0] == [1, 0, 0, 1]


def test_integer_payload_in_range(spread3):
    ff = family_io.from_family(spread3)
    for matrix in ff.rows.split():
        for row in matrix:
            assert len(row) == 4
            assert all(0 <= x <= 2 for x in row)


def test_noncanonical_members_detects_tampering(spread3):
    ff = family_io.from_family(spread3)
    assert family_io.noncanonical_members(ff) == []
    # span-preserving edit: replace a D[0] row by a non-reduced combination
    target = ff.labels.index("D[0]")
    assert ff.rows.take([target]).rows.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    ff = with_rows(ff, {target: [(1, 2, 0, 0), (0, 1, 0, 0)]})
    bad = family_io.noncanonical_members(ff)
    assert [label for label, _ in bad] == ["D[0]"]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda t: t.replace("format_version: 1\n", "format_version: 2\n"), "format_version"),
        (lambda t: t.replace("p: 3\n", "p: 4\n"), "invalid construction parameters"),
        (lambda t: t.replace("nonresidue: [2]\n", "nonresidue: [1]\n"), "invalid construction parameters"),
        (lambda t: t.replace("  - [1, 0, 0, 1]\n", "  - [1, 0, 0]\n", 1), "4 entries"),
        (lambda t: t.replace("  - [1, 0, 0, 1]\n", "  - [7, 0, 0, 1]\n", 1), "lie in"),
        (lambda t: t.replace('"C[1,1]"', '"C[1,0]"'), "duplicate"),
        (lambda t: t[: t.index("- label")], "non-empty"),
    ],
)
def test_parse_rejects_malformed_documents(spread3, mutate, message):
    """Faults that keep the writer's layout, each refused with its own message
    (an unknown kind or a value that is no integer is a line out of layout:
    ``test_line_reader_declines_other_text``)."""
    text = family_io.serialize(family_io.from_family(spread3))
    edited = mutate(text)
    assert edited != text
    with pytest.raises(FamilyFormatError, match=message):
        family_io.to_family(family_io.parse(edited))


def test_parse_rejects_truncated_yaml(spread3):
    text = family_io.serialize(family_io.from_family(spread3))
    cut = text[: text.rindex("[") + 2]
    with pytest.raises(FamilyFormatError, match=f"^line {cut.count(chr(10)) + 1} is out of the writer's layout: "
                                                "'  - \\[0' ends the file with no line break$"):
        family_io.parse(cut)


def test_save_and_load(tmp_path, spread3):
    path = tmp_path / "family.yaml"
    ff = family_io.from_family(spread3)
    family_io.save(ff, path)
    assert family_io.load(path) == ff


# --- the one reader: the writer's layout or a named line --------------------------


@pytest.fixture(scope="module")
def spread_text(spread3):
    return family_io.serialize(family_io.from_family(spread3))


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
    ff = family_io._own_format(spread_text)
    assert ff is not None
    assert members_of(ff) == reference_members(spread_text)
    # an empty member list is written as a bare "members:", which YAML reads as null
    header = spread_text[: spread_text.index("- label")]
    assert yaml.safe_load(header)["members"] is None
    assert reference_members(header) == "FamilyFormatError: members must be a non-empty list"
    with pytest.raises(FamilyFormatError, match="^members must be a non-empty list$"):
        family_io.parse(header)


@pytest.mark.parametrize(
    "edit",
    [
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
    ],
)
def test_line_reader_declines_other_text(spread_text, edit):
    """Any other text is refused, naming the first line that differs from the writer's."""
    text = edit(spread_text)
    assert text != spread_text
    assert family_io._own_format(text) is None
    with pytest.raises(FamilyFormatError, match=f"^line {min(_edited_lines(spread_text, text))}[ :]"):
        family_io.parse(text)


def test_reader_names_labels_that_break_the_rule(spread_text):
    tab = spread_text.replace('"C[1,2]"', '"C\t[1,2]"')
    with pytest.raises(FamilyFormatError, match=r"^line 18: the label 'C\\t\[1,2\]' breaks the label rule$"):
        family_io.parse(tab)
    repeat = spread_text.replace('"D[1]"', '"C[1,2]"')
    with pytest.raises(FamilyFormatError, match=r"^line 43: duplicate label 'C\[1,2\]', first on line 18$"):
        family_io.parse(repeat)


# the characters str.isprintable accepts: none of Unicode's "other" and separator categories but the space
NOT_PRINTABLE = ("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs")
PRINTABLE = st.characters(exclude_categories=NOT_PRINTABLE, include_characters=" ")
# mostly printable text, some of it any text at all
LABEL = st.one_of(st.text(PRINTABLE), st.text())
# the labels the label rule admits: non-empty printable text without a double quote or a backslash
RULED_LABEL = st.text(st.characters(exclude_categories=NOT_PRINTABLE, include_characters=" ", exclude_characters='"\\'),
                      min_size=1)


def _breaks_label_rule(labels):
    """The label rule spelled out label by label: each non-empty and printable,
    without a double quote or a backslash, and no label twice."""
    return len(set(labels)) < len(labels) or not all(
        label and label.isprintable() and '"' not in label and "\\" not in label for label in labels)


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(RULED_LABEL, min_size=2, max_size=2, unique=True))
def test_both_readers_agree_on_any_label(labels):
    """The reader and the YAML oracle read every text the writer writes to
    the same members, and the writer writes what the reader read back to the
    same text."""
    ff = family_io.from_family(build_spread_2(ConstructionParams.create(3, 1, 2)))
    ff.labels[0], ff.labels[5] = labels
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
    ff = family_io.from_family(build_spread_2(ConstructionParams.create(3, 1, 2)))
    ff.labels = labels
    if _breaks_label_rule(labels):
        with pytest.raises(ValueError, match="cannot serialise"):
            family_io.serialize(ff)
        return
    text = family_io.serialize(ff)
    assert family_io._own_format(text) == family_io.parse(text) == ff


@pytest.mark.parametrize("label", ["a\\nb", "a\nb", '"', 'a"b', "a\x00b", "a\u2028b", ""],
                         ids=["backslash-n", "newline", "quote", "inner-quote", "nul", "line-separator", "empty"])
def test_writer_refuses_labels_that_break_the_rule(spread3, label):
    """Each of these came back changed or not at all: a backslash and an n as a
    newline, a NUL or an empty label as a format error."""
    ff = family_io.from_family(spread3)
    ff.labels[3] = label
    with pytest.raises(ValueError, match=f"^cannot serialise the label {re.escape(repr(label))}$"):
        family_io.serialize(ff)


def test_writer_refuses_repeated_labels(spread3, tmp_path):
    ff = family_io.from_family(spread3)
    ff.labels[7] = ff.labels[2]
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.serialize(ff)
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.save(ff, tmp_path / "dup.yaml")


def test_save_refuses_labels_before_opening_the_path(spread3, tmp_path):
    """A refused label list leaves the file at the path as it was."""
    path = tmp_path / "fam.yaml"
    family_io.save(family_io.from_family(spread3), path)
    before = path.read_bytes()
    ff = family_io.from_family(spread3)
    ff.labels[7] = ff.labels[2]
    with pytest.raises(ValueError, match="^cannot serialise repeated labels$"):
        family_io.save(ff, path)
    ff.labels[7] = "a\nb"
    with pytest.raises(ValueError, match="^cannot serialise the label 'a\\\\nb'$"):
        family_io.save(ff, path)
    assert path.read_bytes() == before


def test_load_reports_text_that_is_not_utf8(tmp_path, spread_text):
    path = tmp_path / "bad.yaml"
    path.write_bytes(spread_text.encode().replace(b"p: 3", b"p: \xff", 1))
    with pytest.raises(FamilyFormatError, match="^not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                                                "position 21: invalid start byte$"):
        family_io.load(path)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("p: 3\n", "p: 2001-02-30\n", "^line 2 is out of the writer's layout: 'p: 2001-02-30'$"),  # a YAML date
        ("p: 3\n", f"p: {'7' * 5000}\n", "digits"),  # past Python's integer digit limit
        ("[1, 0, 0, 1]", f"[{'1' * 5000}, 0, 0, 1]", "digits"),
        # a line is shown up to its first 60 characters
        ("p: 3\n", f"p: {'[' * 5000}{']' * 5000}\n", rf"^line 2 is out of the writer's layout: 'p: {re.escape('[' * 57)}…'$"),
    ],
    ids=["timestamp", "huge-int-header", "huge-int-row", "deep-nesting"],
)
def test_crafted_values_are_format_errors(spread_text, old, new, message):
    text = spread_text.replace(old, new, 1)
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(text)


# --- the reader and the YAML oracle on mutated text ------------------------------

_BASE = family_io.serialize(family_io.from_family(build_spread_2(ConstructionParams.create(5, 1, 2))))
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
    ff = family_io.from_family(build_recursive(ConstructionParams.create(P_PAST_INT64, 1, 1)))
    text = family_io.serialize(ff)
    assert family_io.parse(text) == ff
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
    ff = family_io.from_family(build_recursive(ConstructionParams.create(3, 2, 3)))
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
