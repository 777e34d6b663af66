"""Round-trip and validation tests for the on-disk family format."""

import time
import tracemalloc
from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qospread import family_io
from qospread.constructions import ConstructionParams, build_masa_spread, build_recursive, build_spread_2
from qospread.family_io import FamilyFormatError
from helpers import with_rows


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


def test_round_trip_with_verification_block(spread3):
    """A file that still ends in the verification block earlier writers
    appended is read past it: the line reader declines the text, and the YAML
    route ignores keys it does not know."""
    text = family_io.serialize(family_io.from_family(spread3))
    block = "verification:\n  passed: true\n  checks: 45\n  max_residual: 0.0\n  failures: 0\n"
    back = family_io.parse(text + block)
    assert family_io.serialize(back) == text
    assert family_io.to_family(back).rows == spread3.rows


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
    assert ff.rows.matrix(target).tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
    ff = with_rows(ff, {target: [(1, 2, 0, 0), (0, 1, 0, 0)]})
    bad = family_io.noncanonical_members(ff)
    assert [label for label, _ in bad] == ["D[0]"]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.__setitem__("format_version", 2), "format_version"),
        (lambda d: d.__setitem__("p", 4), "invalid construction parameters"),
        (lambda d: d.__setitem__("p", "three"), "must be an integer"),
        (lambda d: d.__setitem__("nonresidue", [1]), "invalid construction parameters"),
        (lambda d: d["members"][0].__setitem__("kind", "banana"), "unknown kind"),
        (lambda d: d["members"][0]["generators"].__setitem__(0, [1, 0, 0]), "4 entries"),
        (lambda d: d["members"][0]["generators"][0].__setitem__(0, 7), "lie in"),
        (lambda d: d["members"][1].__setitem__("label", d["members"][0]["label"]), "duplicate"),
        (lambda d: d.__setitem__("members", []), "non-empty"),
    ],
)
def test_parse_rejects_malformed_documents(spread3, mutate, message):
    doc = yaml.safe_load(family_io.serialize(family_io.from_family(spread3)))
    mutate(doc)
    with pytest.raises(FamilyFormatError, match=message):
        parsed = family_io.parse(yaml.safe_dump(doc))
        family_io.to_family(parsed)


def test_parse_rejects_truncated_yaml(spread3):
    text = family_io.serialize(family_io.from_family(spread3))
    cut = text[: text.rindex("[") + 2]
    with pytest.raises(FamilyFormatError):
        family_io.parse(cut)


def test_save_and_load(tmp_path, spread3):
    path = tmp_path / "family.yaml"
    ff = family_io.from_family(spread3)
    family_io.save(ff, path)
    assert family_io.load(path) == ff


# --- the line reader for the writer's own format ------------------------------


@pytest.fixture(scope="module")
def spread_text(spread3):
    return family_io.serialize(family_io.from_family(spread3))


def test_line_reader_gives_the_yaml_document(spread_text):
    ff = family_io._own_format(spread_text)
    assert ff is not None
    assert ff == family_io._from_document(yaml.safe_load(spread_text))
    # an empty member list is written as a bare "members:", which YAML reads as null
    header = spread_text[: spread_text.index("- label")]
    assert yaml.safe_load(header)["members"] is None
    for read in (family_io._own_format, _parse_yaml_only):
        with pytest.raises(FamilyFormatError, match="^members must be a non-empty list$"):
            read(header)


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
    text = edit(spread_text)
    assert text != spread_text
    assert family_io._own_format(text) is None


def _parse_yaml_only(text):
    with mock.patch.object(family_io, "_own_format", return_value=None):
        return family_io.parse(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except FamilyFormatError as exc:
        return f"FamilyFormatError: {exc}"


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.text(), min_size=2, max_size=2, unique=True))
def test_both_readers_agree_on_any_label(labels):
    ff = family_io.from_family(build_spread_2(ConstructionParams.create(3, 1, 2)))
    ff.labels[0], ff.labels[5] = labels
    try:
        text = family_io.serialize(ff)
    except ValueError:
        assume(False)  # the writer refuses labels with a double quote
    assert _outcome(family_io.parse, text) == _outcome(_parse_yaml_only, text)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("p: 3\n", "p: 2001-02-30\n", "day is out of range"),  # the YAML timestamp constructor
        ("p: 3\n", f"p: {'7' * 5000}\n", "digits"),  # past Python's integer digit limit
        ("[1, 0, 0, 1]", f"[{'1' * 5000}, 0, 0, 1]", "digits"),
        ("p: 3\n", f"p: {'[' * 5000}{']' * 5000}\n", "recursion"),
    ],
    ids=["timestamp", "huge-int-header", "huge-int-row", "deep-nesting"],
)
def test_crafted_values_are_format_errors(spread_text, old, new, message):
    text = spread_text.replace(old, new, 1)
    with pytest.raises(FamilyFormatError, match=message):
        family_io.parse(text)
    with pytest.raises(FamilyFormatError, match=message):
        _parse_yaml_only(text)


# --- both readers on mutated own-format text ----------------------------------

_BASE = family_io.serialize(family_io.from_family(build_spread_2(ConstructionParams.create(5, 1, 2))))
_LINES = _BASE.split("\n")
# edits the line reader checks itself, and edits that send the text to the YAML route
_CHECKED = ("at-least-p", "25-digits", "short-row", "long-row")
_DECLINED = ("leading-zero", "sign", "empty-row", "empty-generators", "duplicate-label")
READ_BOUND_S = 2.0


@st.composite
def mutated_text(draw):
    """The p=5, n=2 file with one to four edits, all checked by the line reader
    or all declined by it, in the rows of its first members, so that several
    faults often meet in one row or one member."""
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
        if kind == "at-least-p":
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


def _reference_members(text):
    """The members of the YAML document as the per-member, per-row checks of
    earlier versions read them: (label, kind, rows) triples, or the message of
    the first fault in file order.  Only members are checked; the header is
    ``family_io._header``'s."""
    doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    p, k, n, _, _ = family_io._header(doc)
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


def _members(outcome):
    if isinstance(outcome, str):
        return outcome
    return list(zip(outcome.labels, outcome.kinds, (rows.tolist() for rows in outcome.rows.split())))


@settings(max_examples=200, deadline=None)
@given(mutated_text())
def test_both_readers_agree_on_mutated_rows(case):
    """The line reader and the YAML route give the same file or the same error,
    the one the per-row reference names; the checked edits never leave the
    line reader."""
    checked, text = case
    start = time.perf_counter()
    line, yaml_route = _outcome(family_io._own_format, text), _outcome(_parse_yaml_only, text)
    assert time.perf_counter() - start < READ_BOUND_S
    assert _members(yaml_route) == _reference_members(text)
    if checked:
        assert line == yaml_route
    else:
        assert line is None
        assert _outcome(family_io.parse, text) == yaml_route


P_PAST_INT64 = 2**63 + 29


@pytest.mark.parametrize("entry,ok", [
    (P_PAST_INT64 - 1, True), (P_PAST_INT64, False), (2**64 - 1, False), (2**64, False), (10**30, False),
])
def test_line_reader_past_int64(entry, ok):
    ff = family_io.from_family(build_recursive(ConstructionParams.create(P_PAST_INT64, 1, 1)))
    text = family_io.serialize(ff)
    assert family_io._own_format(text) == _parse_yaml_only(text) == ff
    text = text.replace("  - [1, 0]\n", f"  - [{entry}, 0]\n")
    line = _outcome(family_io._own_format, text)
    assert line == _outcome(_parse_yaml_only, text)
    if ok:
        assert family_io.serialize(line) == text
        assert line.rows.matrix(0).tolist() == [[entry, 0], [0, 1]]
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
