"""Exit-code and determinism tests for the command-line surface."""

import random
import re
import time

import numpy as np
import pytest
import yaml

from qospread import family_io, verify
from qospread.cli import EXIT_BAD_INPUT, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, _basis_text, main
from qospread.constructions import ConstructionParams, build_masa_spread


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
    assert len(ff.members) == 10
    assert ff.nonresidue == (2,)


def test_generate_n1(tmp_path, capsys):
    path = tmp_path / "one.yaml"
    code, out, _ = run(capsys, "generate", "--p", "3", "--n", "1", "--out", str(path))
    assert code == EXIT_OK
    assert len(family_io.load(path).members) == 1


def test_generate_rejects_p4(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--p", "4", "--out", str(tmp_path / "x.yaml"))
    assert code == EXIT_BAD_INPUT
    assert "must be an odd prime" in err


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


def test_generate_with_overrides(tmp_path, capsys):
    path = tmp_path / "alt.yaml"
    code, _, _ = run(capsys, "generate", "--p", "7", "--out", str(path), "--d-override", "5")
    assert code == EXIT_OK
    ff = family_io.load(path)
    assert ff.nonresidue == (5,)
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
    doc = yaml.safe_load(family_path.read_text())
    doc["members"][0]["generators"][0][3] = (doc["members"][0]["generators"][0][3] + 1) % 3
    family_path.write_text(yaml.safe_dump(doc))
    code, out, _ = run(capsys, "verify", str(family_path))
    assert code == EXIT_VERIFY_FAILED
    assert "result: FAIL" in out


def test_verify_detects_span_preserving_corruption(family_path, capsys):
    # D[0] stores rows (1,0,0,0) and (0,1,0,0); bumping one coordinate inside
    # the span leaves every set-theoretic check intact, so only the
    # canonical-row integrity check can see it
    doc = yaml.safe_load(family_path.read_text())
    d0 = next(m for m in doc["members"] if m["label"] == "D[0]")
    d0["generators"][0][1] = 2
    family_path.write_text(yaml.safe_dump(doc))
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
        ("p: 3\n", "p: 2001-02-30\n"),  # the YAML timestamp constructor raises
        ("p: 3\n", f"p: {'7' * 5000}\n"),  # past Python's integer digit limit
        ("p: 3\n", f"p: {'[' * 5000}{']' * 5000}\n"),  # past the recursion limit
    ],
    ids=["timestamp", "huge-int", "deep-nesting"],
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
    assert err.startswith("error: malformed family file: not UTF-8 text")
    assert out == ""


def test_verify_all_identical_members_fails_fast(tmp_path, capsys):
    # p=5, n=3: all 651 members carry the first member's rows, so every pair
    # of the 211,575 shares all 24 nonzero points; the listing stops at the cap
    path = tmp_path / "same.yaml"
    run(capsys, "generate", "--p", "5", "--n", "3", "--out", str(path))
    ff = family_io.load(path)
    for member in ff.members:
        member.rows = ff.members[0].rows
    family_io.save(ff, path)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    elapsed = time.perf_counter() - start
    assert code == EXIT_VERIFY_FAILED
    assert "integrity: ok (651 members, canonical rows)" in out
    assert "  ... and 981 more failures" in out  # 20 shown + 1,000 pairs + the stop entry
    assert "partition: FAIL (checks=651, covered=24/15624)" in out
    assert elapsed < 3.0, f"verify took {elapsed:.2f} s"


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.yaml"))
    assert code == EXIT_IO


def test_verify_numeric_guard_exceeded(tmp_path, capsys):
    path = tmp_path / "big.yaml"
    run(capsys, "generate", "--p", "5", "--n", "3", "--out", str(path))
    code, _, err = run(capsys, "verify", str(path), "--mode", "numeric")
    assert code == EXIT_BAD_INPUT
    assert "guard" in err
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
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        src, dst = duplicate
        doc["members"][dst]["generators"] = doc["members"][src]["generators"]
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--mode", "both")
    golden = request.path.parent / "data" / f"verify_p3n3_{name}.txt"
    assert code == (EXIT_VERIFY_FAILED if duplicate else EXIT_OK)
    assert _mask_residual(out) == _mask_residual(golden.read_text(encoding="utf-8"))


def _tamper_p3n3(path):
    """Three edits of the p=3, n=3 file, each through the writer's own format:
    member 5's rows become another basis of the same span, member 40 gets a
    dependent second row (dimension 1), member 60 becomes an isotropic span."""
    ff = family_io.load(path)
    r0, r1 = ff.members[5].rows
    ff.members[5].rows = [tuple((x + y) % 3 for x, y in zip(r0, r1)), r1]
    r0 = ff.members[40].rows[0]
    ff.members[40].rows = [r0, tuple(2 * x % 3 for x in r0)]
    ff.members[60].rows = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    family_io.save(ff, path)


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


@pytest.mark.parametrize("p", [3, 5])
def test_mub_file_matches_per_entry_formatter(tmp_path, capsys, p):
    # the bases are extracted in this process, so the comparison does not depend on LAPACK
    masas = build_masa_spread(ConstructionParams.create(p, 1, 2))
    bases = verify.extract_mub_bases(masas, seed=0)
    want = [f"# {len(bases)} mutually unbiased bases of C^{p * p} (p={p}, k=1, "
            f"basis vectors are columns, one per line)\n"]
    for label, basis in zip(masas.labels(), bases):
        assert _basis_text(basis) == _reference_text(basis)
        want += [f"basis {label}\n", _reference_text(basis)]
    out_path = tmp_path / "mub.txt"
    code, _, _ = run(capsys, "mub", "--p", str(p), "--out", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_bytes() == "".join(want).encode("utf-8")


def test_basis_text_special_values_match_per_entry_formatter():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, -1 / 3,
              float("nan"), float("inf"), float("-inf"), 1.0]
    basis = np.array([complex(x, y) for x in values for y in values[::-1]]).reshape(12, 12)
    basis = basis[:, :5]  # not square: rows per line and lines per basis differ
    assert _basis_text(basis) == _reference_text(basis)
    assert "-0.000000000000000e+00" in _basis_text(basis)
    assert "+nan" in _basis_text(basis) and "-inf" in _basis_text(basis)


def test_mub_guard(tmp_path, capsys):
    code, _, err = run(capsys, "mub", "--p", "11", "--out", str(tmp_path / "x.txt"))
    assert code == EXIT_BAD_INPUT
    assert "guard" in err


# --- randomized fault injection (small version; the acceptance suite runs 20) ----


def test_random_single_coordinate_corruption_detected(family_path, capsys):
    rng = random.Random(0)
    original = family_path.read_text()
    for _ in range(5):
        doc = yaml.safe_load(original)
        member = rng.choice(doc["members"])
        row = rng.choice(member["generators"])
        pos = rng.randrange(len(row))
        row[pos] = (row[pos] + rng.randrange(1, 3)) % 3
        family_path.write_text(yaml.safe_dump(doc))
        code, _, _ = run(capsys, "verify", str(family_path))
        assert code == EXIT_VERIFY_FAILED
