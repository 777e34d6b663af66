"""Exit-code and determinism tests for the command-line surface."""

import hashlib
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qospread import constructions, family_io, phase_space, verify
from qospread.cli import EXIT_BAD_INPUT, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, _basis_bytes, main
from qospread.constructions import ConstructionParams, build_masa_spread
from helpers import file_of, with_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def family_path(tmp_path, capsys):
    path = tmp_path / "fam.yaml"
    code, _, _ = run(capsys, "generate", "--p", "3", "--k", "1", "--n", "2", "--out", str(path))
    assert code == EXIT_OK
    return path


# --- generate -------------------------------------------------------------------


def test_generate_writes_ten_members(family_path):
    ff = family_io.load(family_path)
    assert len(ff.rows) == 10
    assert ff.params.nonresidue.coords == (2,)


def test_commands_run_without_yaml(tmp_path):
    """With ``import yaml`` blocked, every subcommand runs, and a restyled file
    exits 2 naming its first line out of layout."""
    path, restyled = tmp_path / "fam.yaml", tmp_path / "restyled.yaml"
    script = f"""
import contextlib, io, sys
sys.modules["yaml"] = None  # any import of yaml raises ImportError
from qospread.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["generate", "--p", "3", "--n", "2", "--out", {str(path)!r}]), main(["example"]),
             main(["mub", "--p", "3", "--out", {str(tmp_path / "mub.txt")!r}]), main(["verify", {str(path)!r}]),
             main(["verify", {str(restyled)!r}])]
print(*codes)
"""
    restyled.write_text("# a comment\n" + family_io.serialize(
        constructions.build_spread_2(ConstructionParams.create(3, 1, 2))))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["0", "0", "0", "0", "2"]
    assert run.stderr == "error: malformed family file: line 1 is out of the writer's layout: '# a comment'\n"


def test_generate_n1(tmp_path, capsys):
    path = tmp_path / "one.yaml"
    code, out, _ = run(capsys, "generate", "--p", "3", "--n", "1", "--out", str(path))
    assert code == EXIT_OK
    assert len(family_io.load(path).rows) == 1


def test_generate_and_verify_at_a_61_bit_prime(tmp_path, capsys):
    p = str(2**61 - 1)
    path = tmp_path / "big.yaml"
    start = time.perf_counter()
    code, _, _ = run(capsys, "generate", "--p", p, "--n", "1", "--out", str(path))
    assert code == EXIT_OK
    assert family_io.load(path).params.p == 2**61 - 1
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert f"partition: skipped (ambient has {(2**61 - 1) ** 2} points)" in out
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("p,k", [("3", "26"), (str(2**61 - 1), "2")])
def test_generate_and_verify_big_fields_at_once(tmp_path, capsys, p, k):
    # the irreducibility test and the non-residue scan must not scale with p^k or p
    path = tmp_path / "big.yaml"
    start = time.perf_counter()
    code, _, _ = run(capsys, "generate", "--p", p, "--k", k, "--n", "1", "--out", str(path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert "symbolic: PASS (checks=2)" in out
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("k", ["1", "2"])
def test_generate_and_verify_past_int64(tmp_path, capsys, k):
    # p = 2^63 + 29 is prime and fits no fixed-width integer: eliminations reduce Python ints
    path = tmp_path / "big.yaml"
    code, _, _ = run(capsys, "generate", "--p", str(2**63 + 29), "--k", k, "--n", "1", "--out", str(path))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert "symbolic: PASS (checks=2)" in out


def test_generate_and_verify_refuse_k_above_the_limit_at_once(tmp_path, capsys):
    # k = 100 took 107 s of field arithmetic before any check; the header's k is bounded the same way
    k = constructions.MAX_K + 1
    path = tmp_path / "big_k.yaml"
    start = time.perf_counter()
    code, _, err = run(capsys, "generate", "--p", "3", "--k", str(k), "--n", "1", "--out", str(path))
    assert code == EXIT_BAD_INPUT
    assert f"extension degree {k} exceeds the limit {constructions.MAX_K}" in err
    assert not path.exists()
    unit = [1] + [0] * (2 * k - 1)
    path.write_text(
        f"format_version: 1\np: 3\nk: {k}\nn: 1\npoly: {[1] + [0] * (k - 1)}\nnonresidue: {[2] + [0] * (k - 1)}\n"
        f'members:\n- label: "full"\n  kind: matrix_algebra\n  generators:\n  - {unit}\n'
    )
    code, _, err = run(capsys, "verify", str(path))
    assert code == EXIT_BAD_INPUT
    assert f"extension degree {k} exceeds the limit {constructions.MAX_K}" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv,word", [
    (("generate", "--p", "3", "--n", "100000"), "index"),
    (("generate", "--p", "3", "--n", "10000000"), "index"),
    (("generate", "--p", "3", "--n", "100000000"), "index"),
    (("mub", "--p", "3", "--k", "10000000"), "guard"),
])
def test_huge_arguments_are_refused_from_the_exponents(tmp_path, capsys, argv, word):
    # p^(2kn) past Python's 4,300-digit limit failed to print, and at n = 10^8 took minutes to build
    path = tmp_path / "out"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT and out == ""
    assert word in err and len(err) < 120, err
    assert not path.exists()


def test_in_range_refusals_print_the_exact_count(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--p", "11", "--k", "2", "--n", "5", "--out", str(tmp_path / "x.yaml"))
    assert code == EXIT_BAD_INPUT
    assert err == f"error: the ownership index would hold {(11**20 - 1) // 10} lines, above the limit {phase_space.INDEX_LIMIT}\n"
    code, _, err = run(capsys, "mub", "--p", "11", "--out", str(tmp_path / "x.txt"))
    assert err == f"error: dimension 121 exceeds guard {verify.NUMERIC_MAX_DIM}\n"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([3, 7, 53, 59, 313, 2**61 - 1]), k=st.integers(1, 40),
       n=st.one_of(st.integers(1, 8), st.integers(1, 10**9)))
@example(p=2**61 - 1, k=32, n=2)  # its field alone takes seconds to build: refused before it
def test_generate_refuses_exactly_past_the_index_bound_or_max_k(tmp_path, capsys, p, k, n):
    # the exponent of the largest power of p that is at most INDEX_LIMIT * (p - 1) + 1
    largest = max(e for e in range(64) if p**e <= phase_space.INDEX_LIMIT * (p - 1) + 1)
    over_index = n > 1 and 2 * k * n > largest  # (p^(2kn) - 1)/(p - 1) > INDEX_LIMIT
    path = tmp_path / f"p{p}k{k}n{n}.yaml"
    if not (over_index or k > constructions.MAX_K):
        if n > 1:  # generate's up-front check admits it
            phase_space._check_index_size(phase_space._nonzero_lines(p, 2 * k * n))
        if p ** (2 * k * n) <= 10**4:  # small enough to build here
            assert run(capsys, "generate", "--p", str(p), "--k", str(k), "--n", str(n), "--out", str(path))[0] == EXIT_OK
            path.unlink()
        return
    start = time.perf_counter()
    code, out, err = run(capsys, "generate", "--p", str(p), "--k", str(k), "--n", str(n), "--out", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_INPUT and out == "" and not path.exists()
    index = re.fullmatch(rf"error: the ownership index would hold (\d+|\({p}\^{2 * k * n} - 1\)/{p - 1}) lines, "
                         rf"above the limit {phase_space.INDEX_LIMIT}\n", err)
    if index or k <= constructions.MAX_K:
        assert over_index and index, err
    else:
        assert err == f"error: extension degree {k} exceeds the limit {constructions.MAX_K}\n"
    if index and index[1].isdigit():
        assert int(index[1]) == (p ** (2 * k * n) - 1) // (p - 1)


def test_generate_poly_override(tmp_path, capsys):
    path = tmp_path / "poly.yaml"
    code, _, _ = run(capsys, "generate", "--p", "3", "--k", "2", "--n", "2", "--poly-override", "2,1",
                     "--out", str(path))
    assert code == EXIT_OK
    ff = family_io.load(path)
    assert (ff.params.field.poly, ff.params.nonresidue.coords) == ((2, 1), (0, 1))
    code, out, _ = run(capsys, "verify", str(path), "--mode", "symbolic")
    assert code == EXIT_OK and out.endswith("result: PASS\n")
    for poly, message in [("2,0", "x^2 + [2, 0] is reducible over Z_3"), ("1", "need 2 low coefficients, got 1")]:
        path = tmp_path / f"bad{poly}.yaml"
        code, _, err = run(capsys, "generate", "--p", "3", "--k", "2", "--n", "2", "--poly-override", poly,
                           "--out", str(path))
        assert (code, err) == (EXIT_BAD_INPUT, f"error: {message}\n")
        assert not path.exists()


def test_generate_rejects_p_above_the_primality_bound(tmp_path, capsys):
    out = tmp_path / "x.yaml"
    code, _, err = run(capsys, "generate", "--p", "3317044064679887385961981", "--n", "1", "--out", str(out))
    assert code == EXIT_BAD_INPUT
    assert "primality" in err
    assert not out.exists()


def test_generate_rejects_p4(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--p", "4", "--out", str(tmp_path / "x.yaml"))
    assert code == EXIT_BAD_INPUT
    assert "must be an odd prime" in err


@pytest.mark.parametrize("p,n", [("1000", "2"), ("9", "20")])
def test_generate_says_p_is_not_prime_before_counting_its_points(tmp_path, capsys, p, n):
    code, _, err = run(capsys, "generate", "--p", p, "--n", n, "--out", str(tmp_path / "x.yaml"))
    assert (code, err) == (EXIT_BAD_INPUT, f"error: p must be an odd prime >= 3, got {p}\n")


@pytest.mark.parametrize("k", ["0", "-1"])
def test_generate_says_k_is_below_one_before_counting_points(tmp_path, capsys, k):
    code, _, err = run(capsys, "generate", "--p", "3", "--k", k, "--n", "2", "--out", str(tmp_path / "x.yaml"))
    assert (code, err) == (EXIT_BAD_INPUT, f"error: extension degree must be >= 1, got {k}\n")


def test_generate_rejects_p2(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--p", "2", "--out", str(tmp_path / "x.yaml"))
    assert code == EXIT_BAD_INPUT
    assert "must be an odd prime" in err


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    run(capsys, "generate", "--p", "3", "--n", "2", "--out", str(a))
    run(capsys, "generate", "--p", "3", "--n", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--p", "3", "--out", str(tmp_path / "no" / "dir.yaml"))
    assert code == EXIT_IO


def _run_into_closed_stdout(argv, unbuffered):
    """``python -m qospread.cli`` with ``argv``, its stdout a pipe whose reader has gone."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update({"PYTHONPATH": os.pathsep.join(sys.path)}, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "qospread.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("command", ["example", "generate", "--help", "generate --help"])
def test_closed_stdout_is_an_io_failure(tmp_path, command, unbuffered):
    """stdout whose reader has gone: exit 3 with one error line and no traceback,
    whether print, the help text or the final flush meets the closed pipe;
    generate writes its file first."""
    out = tmp_path / "fam.yaml"
    argv = {"example": ["example"], "generate": ["generate", "--p", "3", "--out", str(out)],
            "--help": ["--help"], "generate --help": ["generate", "--help"]}[command]
    ran = _run_into_closed_stdout(argv, unbuffered)
    assert ran.returncode == EXIT_IO
    assert ran.stderr == "error: cannot write to stdout: broken pipe\n"
    family = constructions.build_recursive(ConstructionParams.create(3, 1, 2))
    assert command != "generate" or out.read_text() == family_io.serialize(family)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_usage_error_with_a_closed_stdout_still_exits_2(unbuffered):
    ran = _run_into_closed_stdout(["generate", "--p", "3"], unbuffered)
    assert ran.returncode == EXIT_BAD_INPUT
    assert ran.stderr.startswith("usage: qospread generate ")
    assert ran.stderr.endswith("error: the following arguments are required: --out\n")


def test_generate_with_overrides(tmp_path, capsys):
    path = tmp_path / "alt.yaml"
    code, _, _ = run(capsys, "generate", "--p", "7", "--out", str(path), "--d-override", "5")
    assert code == EXIT_OK
    ff = family_io.load(path)
    assert ff.params.nonresidue.coords == (5,)
    code, _, _ = run(capsys, "verify", str(path))
    assert code == EXIT_OK


# --- verify ---------------------------------------------------------------------


def test_verify_generated_family_passes(family_path, capsys):
    code, out, _ = run(capsys, "verify", str(family_path), "--mode", "both")
    assert code == EXIT_OK
    assert "result: PASS" in out
    assert "symbolic: PASS" in out
    assert "numeric: PASS" in out


def test_verify_symbolic_only(family_path, capsys):
    code, out, _ = run(capsys, "verify", str(family_path), "--mode", "symbolic")
    assert code == EXIT_OK
    assert "numeric" not in out


def test_verify_detects_cross_member_corruption(family_path, capsys):
    ff = family_io.load(family_path)
    rows = ff.rows.take([0]).rows.tolist()
    rows[0][3] = (rows[0][3] + 1) % 3
    family_io.save(with_rows(ff, {0: rows}), family_path)
    code, out, _ = run(capsys, "verify", str(family_path))
    assert code == EXIT_VERIFY_FAILED
    assert "result: FAIL" in out


def test_verify_detects_span_preserving_corruption(family_path, capsys):
    # D[0] stores rows (1,0,0,0) and (0,1,0,0); bumping one coordinate inside
    # the span leaves every set-theoretic check intact, so only the
    # canonical-row integrity check can see it
    ff = family_io.load(family_path)
    d0 = ff.labels().index("D[0]")
    rows = ff.rows.take([d0]).rows.tolist()
    rows[0][1] = 2
    family_io.save(with_rows(ff, {d0: rows}), family_path)
    code, out, _ = run(capsys, "verify", str(family_path))
    assert code == EXIT_VERIFY_FAILED
    assert "integrity: FAIL" in out


def test_verify_truncated_file(family_path, capsys):
    text = family_path.read_text()
    family_path.write_text(text[: text.rindex("[") + 2])
    code, _, err = run(capsys, "verify", str(family_path))
    assert code == EXIT_BAD_INPUT
    assert "malformed" in err


@pytest.mark.parametrize(
    "old,new",
    [
        ("p: 3\n", "p: 2001-02-30\n"),  # a YAML date, out of the writer's layout
        ("p: 3\n", f"p: {'7' * 5000}\n"),  # past Python's integer digit limit
        ("p: 3\n", f"p: {'[' * 5000}{']' * 5000}\n"),  # a line of 10,003 characters, out of layout
        ("\n", "\r\n"),  # line ends are read as written, with no translation
        ("\n", "\r"),
    ],
    ids=["timestamp", "huge-int", "deep-nesting", "crlf", "cr"],
)
def test_verify_crafted_file_is_malformed(family_path, capsys, old, new):
    family_path.write_text(family_path.read_text().replace(old, new, 1))
    code, out, err = run(capsys, "verify", str(family_path))
    assert code == EXIT_BAD_INPUT
    assert err.startswith("error: malformed family file: ")
    assert out == ""


def test_verify_non_utf8_file_is_malformed(family_path, capsys):
    family_path.write_bytes(family_path.read_bytes().replace(b"p: 3", b"p: \xff", 1))
    code, out, err = run(capsys, "verify", str(family_path))
    assert code == EXIT_BAD_INPUT
    assert err == ("error: malformed family file: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                   "position 21: invalid start byte\n")
    assert out == ""


def test_verify_refuses_a_large_file_out_of_layout_before_yaml(tmp_path, capsys, monkeypatch):
    """p=3, n=6 (a 10 MB file) with one row entry made -1: refused within 10 s,
    naming the line, with no YAML parser loaded."""
    path = tmp_path / "n6.yaml"
    assert run(capsys, "generate", "--p", "3", "--n", "6", "--out", str(path))[0] == EXIT_OK
    text = path.read_text()
    at = text.index("  - [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n")
    path.write_text(text[:at] + "  - [-" + text[at + 5 :])
    monkeypatch.setitem(sys.modules, "yaml", None)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path), "--mode", "symbolic")
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == (f"error: malformed family file: line {text.count(chr(10), 0, at) + 1} is out of the writer's "
                   "layout: '  - [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]'\n")


@pytest.mark.parametrize("mode", ["symbolic", "numeric"])
def test_verify_refuses_a_square_nonresidue_before_the_row_counts(tmp_path, capsys, mode):
    """Two planes of p = 1009, each above ``SPAN_LIMIT`` beside the other (and
    d = 1009^2 above the numeric guard), in a file whose non-residue is a
    square: the reader builds the construction parameters from the header, so
    the file is refused (exit 2) for its header before its row counts or its
    dimension are looked at, and before anything is printed."""
    params = ConstructionParams.create(1009, 1, 2)
    planes = [("A", "matrix_algebra", [(1, 0, 0, 0), (0, 1, 0, 0)]),
              ("B", "matrix_algebra", [(0, 0, 1, 0), (0, 0, 0, 1)])]
    path = tmp_path / "planes.yaml"
    text = family_io.serialize(file_of(params, planes))
    path.write_text(text.replace(f"nonresidue: [{params.nonresidue.coords[0]}]\n", "nonresidue: [4]\n"))
    code, out, err = run(capsys, "verify", str(path), "--mode", mode)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: malformed family file: invalid construction parameters: 4 is a square, not a non-residue\n"


def test_verify_refuses_rank_tests_past_the_limit(tmp_path, capsys, monkeypatch):
    """3,000 members at p = 1009, each the same plane of 1,018,081 points, above
    ``SPAN_LIMIT``: no index holds them, so the file is refused (exit 2),
    naming the first, before any index or elimination and before anything is printed."""
    params = ConstructionParams.create(1009, 1, 2)
    rows = [[(1, 0, 0, 0), (0, 1, 0, 0)]] * 3000
    ff = file_of(params, [(f"M{i}", "matrix_algebra", matrix) for i, matrix in enumerate(rows)])
    path = tmp_path / "same.yaml"
    family_io.save(ff, path)
    monkeypatch.setattr(phase_space._modlin, "rref_stack", mock.Mock(side_effect=AssertionError("eliminated")))
    monkeypatch.setattr(phase_space, "_owners", mock.Mock(side_effect=AssertionError("indexed")))
    for mode in ("symbolic", "both"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), "--mode", mode)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "error: M0 spans 1018081 points, above the limit 1000000 for a member beside another\n"


def test_verify_all_identical_members_fails_fast(tmp_path, capsys):
    # p=5, n=3: all 651 members carry the first member's rows, so every pair
    # of the 211,575 shares all 24 nonzero points; the listing stops at the cap
    path = tmp_path / "same.yaml"
    run(capsys, "generate", "--p", "5", "--n", "3", "--out", str(path))
    ff = family_io.load(path)
    family_io.save(with_rows(ff, dict.fromkeys(range(len(ff.rows)), ff.rows.take([0]).rows)), path)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    elapsed = time.perf_counter() - start
    assert code == EXIT_VERIFY_FAILED
    assert "integrity: ok (651 members, canonical rows)" in out
    assert "  ... and 981 more failures" in out  # 20 shown + 1,000 pairs + the stop entry
    assert "partition: FAIL (checks=651, covered=24/15624)" in out
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


def test_generate_refuses_a_family_its_verify_would_refuse(tmp_path, capsys):
    # p=313, n=2: 97,970 members, but (313^4 - 1)/312 lines to index, the message verify gives
    path = tmp_path / "big.yaml"
    start = time.perf_counter()
    code, _, err = run(capsys, "generate", "--p", "313", "--n", "2", "--out", str(path))
    assert code == EXIT_BAD_INPUT
    assert err == f"error: the ownership index would hold {(313**4 - 1) // 312} lines, above the limit {phase_space.INDEX_LIMIT}\n"
    assert not path.exists()
    assert time.perf_counter() - start < 1.0


def test_verify_refuses_an_index_over_the_limit_before_building_it(tmp_path, capsys, monkeypatch):
    # 8,500 planes of p=997, n=2 (the graphs of distinct 2x2 matrices): 998 lines each,
    # 994,008 nonzero points under SPAN_LIMIT, 8,483,000 lines together
    params = ConstructionParams.create(997, 1, 2)
    members = [(f"M{i}", "matrix_algebra", [(1, 0, i // 997, i % 997), (0, 1, 0, 1)]) for i in range(8500)]
    path = tmp_path / "wide.yaml"
    family_io.save(file_of(params, members), path)
    canonical = []
    monkeypatch.setattr(verify, "_canonical", lambda rows: canonical.append(1) or phase_space._canonical(rows))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "verify", str(path), "--mode", "symbolic")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_INPUT
    assert err == f"error: the ownership index would hold 8483000 lines, above the limit {2**23}\n"
    assert out == ""  # refused from the stored row counts: no integrity line, no elimination
    assert not canonical
    assert elapsed < 1.0 and peak < 10 * 2**20, (elapsed, peak)


def test_verify_refuses_an_index_that_elimination_brings_over_the_limit(tmp_path, capsys, monkeypatch):
    # p=3, n=7: 32 members stored with 13 rows of rank 12.  Eliminated, each would hold (3^12 - 1)/2
    # lines, 8,503,040 together, past INDEX_LIMIT; as stored, each spans 3^13 points, above
    # SPAN_LIMIT, so the file is refused from its row counts before anything is printed
    rows = [[int(i == j) for j in range(14)] for i in range(12)] + [[1, 1] + [0] * 12]
    path = tmp_path / "dependent.yaml"
    path.write_text("format_version: 1\np: 3\nk: 1\nn: 7\npoly: [0]\nnonresidue: [2]\nmembers:\n" + "".join(
        f'- label: "M{i}"\n  kind: matrix_algebra\n  generators:\n' + "".join(f"  - {row}\n" for row in rows)
        for i in range(32)))
    monkeypatch.setattr(phase_space._modlin, "rref_stack", mock.Mock(side_effect=AssertionError("eliminated")))
    monkeypatch.setattr(phase_space, "_owners", mock.Mock(side_effect=AssertionError("indexed")))
    for mode in ("symbolic", "both"):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), "--mode", mode)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == f"error: M0 spans {3**13} points, above the limit 1000000 for a member beside another\n"


def test_verify_member_of_dimension_zero(family_path, capsys):
    # zero rows span only the identity, which has no non-identity matrix to pair:
    # the numeric check must report, not fail on an empty residual array
    ff = family_io.load(family_path)
    family_io.save(with_rows(ff, {3: [(0, 0, 0, 0), (0, 0, 0, 0)]}), family_path)
    code, out, _ = run(capsys, "verify", str(family_path), "--mode", "both")
    assert code == EXIT_VERIFY_FAILED
    assert "integrity: FAIL (1 members with non-canonical rows)" in out
    assert "matrix_algebra member classified isotropic (gram rank 0, dim 0, want nondegenerate of dim 2)" in out
    assert "numeric: PASS (checks=45," in out


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.yaml"))
    assert code == EXIT_IO


def test_verify_numeric_guard_exceeded(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    run(capsys, "generate", "--p", "5", "--n", "3", "--out", str(path))
    code, out, err = run(capsys, "verify", str(path), "--mode", "numeric")
    assert code == EXIT_BAD_INPUT
    assert err == "error: dimension 125 exceeds guard 81\n"
    assert out == ""  # refused from the header, before the field and the integrity line
    # in 'both' mode the numeric stage is skipped, not fatal
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    assert code == EXIT_OK
    assert "numeric: skipped" in out


def test_verify_sampled_numeric(tmp_path, capsys):
    path = tmp_path / "n4.yaml"
    run(capsys, "generate", "--p", "3", "--n", "4", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--mode", "numeric", "--sample", "25")
    assert code == EXIT_OK
    assert "checks=25" in out


def test_tol_defaults_to_the_checkers_tolerance():
    from qospread import report
    from qospread.cli import build_parser

    assert verify.DEFAULT_TOL is report.DEFAULT_TOL == 1e-9
    for argv in (["verify", "fam.yaml"], ["mub", "--p", "3"]):
        assert build_parser().parse_args(argv).tol is verify.DEFAULT_TOL


@pytest.mark.parametrize("argv", [
    ["verify", "{path}", "--mode", "both", "--tol", "0"],
    ["verify", "{path}", "--mode", "numeric", "--tol", "nan"],
    ["verify", "{path}", "--mode", "numeric", "--sample", "0"],
    ["verify", "{path}", "--sample", "two"],
    ["mub", "--p", "3", "--out", "{out}", "--tol", "-1"],
], ids=["tol-0", "tol-nan", "sample-0", "sample-text", "mub-tol-negative"])
def test_bad_numeric_arguments_exit_2_before_any_io(tmp_path, capsys, argv):
    path, out = tmp_path / "missing.yaml", tmp_path / "mub.txt"  # reading the missing file would exit 3
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path, out=out) for arg in argv])
    assert exc.value.code == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive" in captured.err
    assert not out.exists()


def _mask_residual(text):
    # the dense residual depends on the BLAS build; every other byte is pinned
    return re.sub(r"max_residual=[0-9.e+-]+", "max_residual=<r>", text)


@pytest.mark.parametrize("name,duplicate", [("pass", None), ("dup", (5, 40))])
def test_verify_both_matches_golden(tmp_path, capsys, request, name, duplicate):
    # p=3, n=3 (91 members); "dup" gives member 40 the rows of member 5
    path = tmp_path / "fam.yaml"
    run(capsys, "generate", "--p", "3", "--n", "3", "--out", str(path))
    if duplicate:
        ff = family_io.load(path)
        src, dst = duplicate
        family_io.save(with_rows(ff, {dst: ff.rows.take([src]).rows}), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    golden = request.path.parent / "data" / f"verify_p3n3_{name}.txt"
    assert code == (EXIT_VERIFY_FAILED if duplicate else EXIT_OK)
    assert _mask_residual(out) == _mask_residual(golden.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,extra", [("dup20", ()), ("dup20_sample2000", ("--sample", "2000"))])
def test_verify_both_sampled_failures_match_golden(tmp_path, capsys, request, name, extra):
    # p=3, n=3 (4,095 pairs, so the numeric check samples); members 40-59 get
    # the rows of member 5, so the golden pins which failing pairs the sampler
    # draws and in what order
    path = tmp_path / "fam.yaml"
    run(capsys, "generate", "--p", "3", "--n", "3", "--out", str(path))
    ff = family_io.load(path)
    family_io.save(with_rows(ff, dict.fromkeys(range(40, 60), ff.rows.take([5]).rows)), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both", *extra)
    golden = request.path.parent / "data" / f"verify_p3n3_{name}.txt"
    assert code == EXIT_VERIFY_FAILED
    assert _mask_residual(out) == _mask_residual(golden.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,duplicate", [("pass", None), ("dup", (7, 1200))])
def test_verify_both_p7n3_matches_golden(tmp_path, capsys, request, name, duplicate):
    # p=7, n=3 (2,451 members, d = 343, so the numeric check is skipped and
    # every byte is pinned); "dup" gives member 1200 the rows of member 7
    path = tmp_path / "fam.yaml"
    run(capsys, "generate", "--p", "7", "--k", "1", "--n", "3", "--out", str(path))
    if duplicate:
        ff = family_io.load(path)
        src, dst = duplicate
        family_io.save(with_rows(ff, {dst: ff.rows.take([src]).rows}), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    golden = request.path.parent / "data" / f"verify_p7n3_{name}.txt"
    assert code == (EXIT_VERIFY_FAILED if duplicate else EXIT_OK)
    assert out == golden.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def k2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("k2") / "k2.yaml"
    assert main(["generate", "--p", "3", "--k", "2", "--n", "2", "--out", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize("name,argv", [
    ("p3k2n2", ("--mode", "both")),
    ("p3k2n2_every_pair", ("--mode", "numeric", "--sample", "3321")),
])
def test_verify_p3k2n2_matches_golden(k2_path, capsys, request, name, argv):
    # d = 81: the numeric oracle reads no BLAS, so every byte is pinned, the
    # residual of the 200 sampled pairs and of all 3,321 pairs included
    code, out, _ = run(capsys, "verify", str(k2_path), *argv)
    golden = request.path.parent / "data" / f"verify_{name}.txt"
    assert code == EXIT_OK
    assert out == golden.read_text(encoding="utf-8")


def test_verify_partition_above_a_million_points(tmp_path, capsys):
    # p=3, n=7: the ambient Z_3^14 has 4,782,969 points; the seven single-factor
    # members are small, so the partition is read from the same index
    params = ConstructionParams.create(3, 1, 7)
    unit = [tuple(int(i == j) for j in range(14)) for i in range(14)]
    members = [(f"F[{i}]", "matrix_algebra", unit[2 * i:2 * i + 2]) for i in range(7)]
    path = tmp_path / "few.yaml"
    family_io.save(file_of(params, members), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "symbolic")
    assert code == EXIT_VERIFY_FAILED
    assert "partition: FAIL (checks=7, covered=56/4782968)\n  family: covers 56 of 4782968 nonzero points\n" in out


@pytest.mark.parametrize("rows", [2, 13, "shared"])
@pytest.mark.parametrize("mode", ["symbolic", "both", "numeric"])
def test_verify_prints_no_giant_integer(tmp_path, capsys, monkeypatch, rows, mode):
    # p=3, n=4600: one member of unit rows, or two members that share e_0; the ambient
    # 3^9200 has 4,390 digits, past Python's limit for printing an integer, and the dimension
    # 3^4600 has 2,195. The two members' index keys would pass int64: refused before any output
    members = {"U": (0, 1), "V": (0, 2)} if rows == "shared" else {"U": range(rows)}
    path = tmp_path / "wide.yaml"
    path.write_text("format_version: 1\np: 3\nk: 1\nn: 4600\npoly: [0]\nnonresidue: [2]\nmembers:\n" + "".join(
        f'- label: "{label}"\n  kind: matrix_algebra\n  generators:\n'
        + "".join(f"  - {[int(i == j) for j in range(9200)]}\n" for i in units) for label, units in members.items()))
    # a lone member needs no keys, and two are refused: no index is built
    monkeypatch.setattr(phase_space, "_owners", mock.Mock(side_effect=AssertionError("index built")))
    code, out, err = run(capsys, "verify", str(path), "--mode", mode)
    assert all(len(line) < 120 for line in (out + err).splitlines()), out + err
    if mode == "numeric":
        assert (code, err) == (EXIT_BAD_INPUT, "error: dimension 3^4600 exceeds guard 81\n")
        return
    if rows == "shared":
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err == "error: the ownership index of 2 members of Z_3^9200 needs keys up to 3^9200 * 2, past int64's 2^63\n"
        return
    assert code == EXIT_VERIFY_FAILED
    assert out.endswith("result: FAIL\n")
    assert "symbolic: FAIL (checks=2)\n" in out
    assert "  family: 1 members, expected (3^9200 - 1)/(3^2 - 1)\n" in out
    if rows == 2:
        assert "partition: FAIL (checks=1, covered=8/(3^9200 - 1))\n" in out
    elif rows == 13:
        assert "partition: skipped (ambient has 3^9200 points)\n" in out
    assert ("numeric: skipped (dimension 3^4600 exceeds guard 81)\n" in out) == (mode == "both")


def test_verify_builds_the_ownership_index_once(family_path, capsys, monkeypatch):
    calls = []
    owners = phase_space._owners
    monkeypatch.setattr(phase_space, "_owners", lambda members: calls.append(1) or owners(members))
    code, out, _ = run(capsys, "verify", str(family_path), "--mode", "both")
    assert code == EXIT_OK
    assert "partition: PASS (checks=10, covered=80/80)" in out
    assert len(calls) == 1


def _tamper_p3n3(path):
    """Three edits of the p=3, n=3 file, each through the writer's own format:
    member 5's rows become another basis of the same span, member 40 gets a
    dependent second row (dimension 1), member 60 becomes an isotropic span."""
    ff = family_io.load(path)
    r0, r1 = ff.rows.take([5]).rows.tolist()
    five = [tuple((x + y) % 3 for x, y in zip(r0, r1)), r1]
    r0 = ff.rows.take([40]).rows[0].tolist()
    forty = [r0, tuple(2 * x % 3 for x in r0)]
    family_io.save(with_rows(ff, {5: five, 40: forty, 60: [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]}), path)


@pytest.mark.parametrize("name,pkn,tamper", [
    ("p3k2n2", ("3", "2", "2"), None),
    ("p3n3_tampered", ("3", "1", "3"), _tamper_p3n3),
])
def test_verify_symbolic_matches_golden(tmp_path, capsys, request, name, pkn, tamper):
    path = tmp_path / "fam.yaml"
    p, k, n = pkn
    run(capsys, "generate", "--p", p, "--k", k, "--n", n, "--out", str(path))
    if tamper:
        tamper(path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "symbolic")
    golden = request.path.parent / "data" / f"verify_symbolic_{name}.txt"
    assert code == (EXIT_VERIFY_FAILED if tamper else EXIT_OK)
    assert out == golden.read_text(encoding="utf-8")


def test_verify_both_mixed_row_counts_matches_golden(tmp_path, capsys, request):
    # p=3, n=3 with stored row counts 3, 2 and 3 among 2: member 5 gains the
    # dependent row r0 + r1, member 40 lists its rows in reverse echelon order,
    # member 60 gains an all-zero row; every span is unchanged
    path = tmp_path / "fam.yaml"
    run(capsys, "generate", "--p", "3", "--n", "3", "--out", str(path))
    ff = family_io.load(path)
    five, forty, sixty = (ff.rows.take([i]).rows.tolist() for i in (5, 40, 60))
    edits = {5: five + [[(x + y) % 3 for x, y in zip(*five)]], 40: forty[::-1], 60: sixty + [[0] * 6]}
    family_io.save(with_rows(ff, edits), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    golden = request.path.parent / "data" / "verify_p3n3_mixed_counts.txt"
    assert code == EXIT_VERIFY_FAILED
    assert _mask_residual(out) == _mask_residual(golden.read_text(encoding="utf-8"))


# --- example --------------------------------------------------------------------


def test_example_matches_golden(capsys, request):
    golden = request.path.parent / "data" / "example_table.txt"
    code, out, _ = run(capsys, "example")
    assert code == EXIT_OK
    assert out == golden.read_text(encoding="utf-8")


def test_example_row_structure(capsys):
    _, out, _ = run(capsys, "example")
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("span{π(C_{1,0})} = {")
    assert lines[-1].startswith("span{π(D_{∞})} = {")
    for line in lines:
        assert line.count("⊗") == 9  # nine monomials per row


# --- mub ------------------------------------------------------------------------


def test_mub_p3(tmp_path, capsys):
    out_path = tmp_path / "mub.txt"
    code, out, _ = run(capsys, "mub", "--p", "3", "--k", "1", "--out", str(out_path))
    assert code == EXIT_OK
    assert "10 bases of C^9" in out
    text = out_path.read_text()
    assert sum(1 for li in text.splitlines() if li.startswith("basis ")) == 10
    # 10 bases x 9 vectors, one line each
    assert sum(1 for li in text.splitlines() if li and not li.startswith(("#", "basis"))) == 90


def test_mub_p5(tmp_path, capsys):
    code, out, _ = run(capsys, "mub", "--p", "5", "--out", str(tmp_path / "m.txt"))
    assert code == EXIT_OK
    assert "26 bases of C^25" in out


def test_mub_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "mub", "--p", "3", "--out", str(a))
    run(capsys, "mub", "--p", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def _format_complex(z):
    return f"{z.real:+.15e}{z.imag:+.15e}j"


def _reference_text(basis):
    """The writer as one f-string per entry: one line per column."""
    return "".join(
        " ".join(_format_complex(z) for z in np.asarray(basis[:, col])) + "\n"
        for col in range(basis.shape[1])
    )


# the exact bases pin the file bytes once; CI checks the same digests
MUB_SHA256 = {
    (3, 1): "92a101060e0e27c960c3a5610ee97e1f18863f546c11116dacad848d7f779a3d",
    (5, 1): "a36c37a390e52e8332d5d5e7b85cb802112ab5f3c21ad0b77853b000bc60c157",
    (3, 2): "04e0922872ee4d0600ffaa00daa656937324a1af44834e118e282f20368820f0",
}


@pytest.mark.parametrize("p,k", [
    pytest.param(3, 1, id="3"), pytest.param(5, 1, id="5"), pytest.param(3, 2, id="3-k2"),
])
def test_mub_file_matches_per_entry_formatter(tmp_path, capsys, p, k):
    masas = build_masa_spread(ConstructionParams.create(p, k, 2))
    bases = verify.extract_mub_bases(masas)
    want = [f"# {len(bases)} mutually unbiased bases of C^{p ** (2 * k)} (p={p}, k={k}, "
            f"basis vectors are columns, one per line)\n"]
    for label, basis in zip(masas.labels(), bases):
        text = _reference_text(basis)
        assert _basis_bytes(basis) == text.encode("ascii")
        want += [f"basis {label}\n", text]
    out_path = tmp_path / "mub.txt"
    code, out, _ = run(capsys, "mub", "--p", str(p), "--k", str(k), "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_bytes() == "".join(want).encode("utf-8")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == MUB_SHA256[p, k]
    checks, resid = re.search(r"unbiasedness: PASS \(checks=(\d+), max_residual=(\S+)\)", out).groups()
    assert int(checks) == (len(bases) * (len(bases) + 1)) // 2
    assert float(resid) <= 1e-13


def test_basis_text_special_values_match_per_entry_formatter():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -1 / 3,
              float("nan"), float("inf"), float("-inf"), 1.0]
    basis = np.array([complex(x, y) for x in values for y in values[::-1]]).reshape(12, 12)
    basis = basis[:, :5]  # not square: rows per line and lines per basis differ
    text = _basis_bytes(basis)
    assert text == _reference_text(basis).encode("ascii")
    assert b"-0.000000000000000e+00" in text
    assert b"+nan" in text and b"-inf" in text


def test_mub_guard(tmp_path, capsys):
    code, _, err = run(capsys, "mub", "--p", "11", "--out", str(tmp_path / "x.txt"))
    assert code == EXIT_BAD_INPUT
    assert "guard" in err


# --- randomized fault injection (small version; the acceptance suite runs 20) ----


def test_random_single_coordinate_corruption_detected(family_path, capsys):
    rng = random.Random(0)
    original = family_io.load(family_path)
    for _ in range(5):
        member = rng.randrange(len(original.rows))
        rows = original.rows.take([member]).rows.tolist()
        row = rows[rng.randrange(len(rows))]
        pos = rng.randrange(len(row))
        row[pos] = (row[pos] + rng.randrange(1, 3)) % 3
        family_io.save(with_rows(original, {member: rows}), family_path)
        code, _, _ = run(capsys, "verify", str(family_path))
        assert code == EXIT_VERIFY_FAILED
