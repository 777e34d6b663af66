"""Round-trip and validation tests for the on-disk family format."""

from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qospread import family_io
from qospread.constructions import ConstructionParams, build_masa_spread, build_spread_2
from qospread.family_io import FamilyFormatError


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
    from qospread.verify import verify_qo_numeric

    summary = verify_qo_numeric(spread3).summary()
    assert summary["passed"] is True and summary["checks"] == 45
    ff = family_io.from_family(spread3, verification=summary)
    back = family_io.parse(family_io.serialize(ff))
    assert back.verification == summary
    assert family_io.serialize(back) == family_io.serialize(ff)


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
    for member in ff.members:
        for row in member.rows:
            assert len(row) == 4
            assert all(0 <= x <= 2 for x in row)


def test_noncanonical_members_detects_tampering(spread3):
    ff = family_io.from_family(spread3)
    assert family_io.noncanonical_members(ff, family_io.to_family(ff)) == []
    # span-preserving edit: replace a D[0] row by a non-reduced combination
    target = next(m for m in ff.members if m.label == "D[0]")
    assert target.rows == [(1, 0, 0, 0), (0, 1, 0, 0)]
    target.rows[0] = (1, 2, 0, 0)
    bad = family_io.noncanonical_members(ff, family_io.to_family(ff))
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
    doc = family_io._own_format(spread_text)
    assert doc is not None
    assert doc == yaml.safe_load(spread_text)
    # an empty member list is written as a bare "members:", which YAML reads as null
    header = spread_text[: spread_text.index("- label")]
    assert family_io._own_format(header) == yaml.safe_load(header) == {**doc, "members": None}


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
    ff.members[0].label, ff.members[5].label = labels
    try:
        text = family_io.serialize(ff)
    except ValueError:
        assume(False)  # the writer refuses labels with a double quote
    doc = family_io._own_format(text)
    if doc is not None:
        assert doc == yaml.safe_load(text)
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
