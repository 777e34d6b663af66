"""Byte goldens of generated family files.

Each digest is the sha256 of ``family_io.serialize`` applied to the
recursive family, recorded before the recursion step moved to integer
matrices; any change to a single byte of the output fails here.  The
(3,2,3) and (7,1,3) digests are the ones ``bench/run.py`` gates on.
"""

import functools
import hashlib

import pytest

from qospread import family_io
from qospread.constructions import ConstructionParams, build_recursive
from helpers import members_of, reference_members

GOLDENS = {
    (3, 1, 2): "7c3e4c1a102eb928edb280f9140c7d64da7489c32b27f68b202a90280c3f88b8",
    (3, 1, 3): "d72022e1b925e3f03998a783e6f18494156a23404c896fe3fda7c6d095c90ece",
    (3, 1, 4): "0b6f022431a5827b405bf475f703700d0e333f3378906cf4fca1252dd4f71ba7",
    (3, 1, 5): "6c05b05bde99cb358a1a7f97680629bb51b0b43edb532255bb6bfe119338f60a",
    (3, 2, 2): "75da2b8e7a47dc3434626e11d9f44aa4005a81822177b3265abe3db313390e2d",
    (3, 2, 3): "0a5e9571601af570788d2e81b7025f34929d989a296f4794c82ad07cb19b4fdd",
    (5, 1, 3): "5913081622e39dd489aa96742c9b69bef80bdbc83d0f3fb586d0e20189be477f",
    (7, 1, 3): "471c2b713a47cd01d738df0415ae805097bfaf4c48d10ec4719b518a1e34c59a",
}


def _id(pkn):
    return "p{}k{}n{}".format(*pkn)


@functools.lru_cache(maxsize=None)
def serialized(pkn):
    return family_io.serialize(family_io.from_family(build_recursive(ConstructionParams.create(*pkn))))


@pytest.mark.parametrize("pkn", sorted(GOLDENS), ids=_id)
def test_serialized_family_matches_golden(pkn):
    assert hashlib.sha256(serialized(pkn).encode("utf-8")).hexdigest() == GOLDENS[pkn]


def _reads_as_yaml(text):
    """The reader gives the YAML oracle's members (libyaml's loader where
    present), and the writer writes them back to the same text."""
    ff = family_io.parse(text)
    assert members_of(ff) == reference_members(text)
    assert family_io.serialize(ff) == text
    return ff


@pytest.mark.parametrize("pkn", sorted(GOLDENS), ids=_id)
def test_line_reader_matches_yaml(pkn):
    _reads_as_yaml(serialized(pkn))


def test_line_reader_matches_yaml_on_fault_copy():
    # member 1500 gets member 1200's rows, as the benchmark's fault injection does
    lines = serialized((7, 1, 3)).split("\n")
    starts = [i for i, line in enumerate(lines) if line.startswith("- label: ")]
    a, b = (range(starts[m] + 3, starts[m + 1]) for m in (1200, 1500))
    ff = _reads_as_yaml("\n".join(lines[: b.start] + lines[a.start : a.stop] + lines[b.stop :]))
    assert ff.rows.take([1500]).rows.tolist() == ff.rows.take([1200]).rows.tolist()
