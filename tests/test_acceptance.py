"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; without ``-s`` pytest still reports them for failures.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from qospread import family_io
from qospread.cli import EXIT_OK, EXIT_VERIFY_FAILED, main
from qospread.constructions import ConstructionParams, build_masa_spread, build_recursive, build_spread_2
from qospread.finite_field import field_trace, gf
from qospread.phase_space import GFPhasePoint, PhasePoint, _disjointness, pi1
from qospread.verify import check_mub_overlaps, expected_count, extract_mub_bases, verify_qo_numeric, verify_symbolic
from qospread.weyl import WeylMonomial, synthesize
from helpers import (c_members, commutation_phase, counting_identity_holds, d_members, gf_symplectic,
                     symplectic_product, table, weyl_mul, with_rows)


@contextmanager
def criterion(num, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"acceptance {num:02d} PASS  {description} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.1f}s, budget {budget_seconds}s"


# The ten rows of the M_9 example with D = 2, as monomial sets per family label.
EXAMPLE_TABLE = {
    "C_{1,0}": {"I⊗I", "S⊗W", "S^2⊗W^2", "W⊗S^2", "SW⊗S^2W", "S^2W⊗S^2W^2",
                "W^2⊗S", "SW^2⊗SW", "S^2W^2⊗SW^2"},
    "C_{1,1}": {"I⊗I", "SW⊗W", "S^2W^2⊗W^2", "W⊗S^2W^2", "SW^2⊗S^2", "S^2⊗S^2W",
                "W^2⊗SW", "S⊗SW^2", "S^2W⊗S"},
    "C_{1,2}": {"I⊗I", "SW^2⊗W", "S^2W⊗W^2", "W⊗S^2W", "S⊗S^2W^2", "S^2W^2⊗S^2",
                "W^2⊗SW^2", "SW⊗S", "S^2⊗SW"},
    "C_{2,0}": {"I⊗I", "S⊗W^2", "S^2⊗W", "W^2⊗S^2", "SW^2⊗S^2W^2", "S^2W^2⊗S^2W",
                "W⊗S", "SW⊗SW^2", "S^2W⊗SW"},
    "C_{2,1}": {"I⊗I", "SW⊗W^2", "S^2W^2⊗W", "W^2⊗S^2W^2", "S⊗S^2W", "S^2W⊗S^2",
                "W⊗SW", "SW^2⊗S", "S^2⊗SW^2"},
    "C_{2,2}": {"I⊗I", "SW^2⊗W^2", "S^2W⊗W", "W^2⊗S^2W", "SW⊗S^2", "S^2⊗S^2W^2",
                "W⊗SW^2", "S⊗SW", "S^2W^2⊗S"},
    "D_{0}": {"I⊗I", "SW⊗I", "S^2W^2⊗I", "SW^2⊗I", "S^2⊗I", "W⊗I", "S^2W⊗I",
              "W^2⊗I", "S⊗I"},
    "D_{1}": {"I⊗I", "SW⊗S^2W^2", "S^2W^2⊗SW", "SW^2⊗S^2W", "S^2⊗S", "W⊗W^2",
              "S^2W⊗SW^2", "W^2⊗W", "S⊗S^2"},
    "D_{2}": {"I⊗I", "SW⊗SW", "S^2W^2⊗S^2W^2", "SW^2⊗SW^2", "S^2⊗S^2", "W⊗W",
              "S^2W⊗S^2W", "W^2⊗W^2", "S⊗S"},
    "D_{∞}": {"I⊗I", "I⊗S", "I⊗S^2", "I⊗W", "I⊗SW", "I⊗S^2W", "I⊗W^2", "I⊗SW^2",
              "I⊗S^2W^2"},
}


def parse_example_output(text):
    rows = {}
    for line in text.splitlines():
        head, body = line.split(" = ", 1)
        label = head[len("span{π("):-len(")}")]
        rows[label] = set(body.strip("{} ").split(", "))
    return rows


def test_criterion_1_golden_example(capsys, request):
    with criterion(1, "golden ten-row M_9 example table, byte for byte", 1.0):
        code = main(["example"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        golden = (request.path.parent / "data" / "example_table.txt").read_text(encoding="utf-8")
        assert out == golden
        rows = parse_example_output(out)
        assert rows == EXAMPLE_TABLE


def test_criterion_2_spread_counts():
    with criterion(2, "two-block spread counts 10/26/50/82 verify exactly", 5.0):
        for p, k, want in [(3, 1, 10), (5, 1, 26), (7, 1, 50), (3, 2, 82)]:
            fam = build_spread_2(ConstructionParams.create(p, k, 2))
            assert len(fam.members) == want == p ** (2 * k) + 1
            rep = verify_symbolic(fam)[0]
            assert rep.passed, rep.describe()


def test_criterion_3_partition_exactness():
    with criterion(3, "spread partitions and the D/C union identity, exact"):
        for p, k in [(3, 1), (5, 1), (7, 1), (3, 2)]:
            fam = build_spread_2(ConstructionParams.create(p, k, 2))
            rep = _disjointness(fam.rows, fam.labels())[1]
            assert rep.passed and rep.covered == p ** (4 * k) - 1
        for p, k in [(3, 1), (5, 1), (7, 1), (3, 2)]:
            params = ConstructionParams.create(p, k, 2)
            size = params.field.size
            c = c_members(params).subspaces()  # C[a,b] with a slowest, then C[inf]
            rest, cs, ds = c[size:-1], c[:size] + c[-1:], d_members(params).subspaces()
            # D covers exactly C[0,*] and C[inf]: both complete C[a,*], a != 0, to a partition
            assert _disjointness(table(rest + ds))[1].passed
            assert _disjointness(table(rest + cs))[1].passed


def test_criterion_4_numeric_quasi_orthogonality():
    with criterion(4, "dense trace condition on p=3 and p=5 spreads, residual < 1e-9", 60.0):
        for p in (3, 5):
            fam = build_spread_2(ConstructionParams.create(p, 1, 2))
            rep = verify_qo_numeric(fam, 1e-9)
            assert rep.passed
            assert rep.checks_run == len(fam.members) * (len(fam.members) - 1) // 2
            assert rep.max_residual < 1e-9


def test_criterion_5_weyl_relations():
    with criterion(5, "product and commutation rules over all 6561 monomial pairs (p=3, m=2)", 30.0):
        pts = [PhasePoint(3, 2, c) for c in itertools.product(range(3), repeat=4)]
        mats = {u: synthesize(WeylMonomial(u)) for u in pts}
        lam = np.exp(2j * np.pi / 3)
        count = 0
        for u in pts:
            for v in pts:
                prod = mats[u] @ mats[v]
                sym = synthesize(weyl_mul(WeylMonomial(u), WeylMonomial(v)))
                assert np.abs(sym - prod).max() < 1e-9
                flip = lam ** commutation_phase(u, v) * (mats[v] @ mats[u])
                assert np.abs(prod - flip).max() < 1e-9
                count += 1
        assert count == 6561


def test_criterion_6_trace_compatibility():
    with criterion(6, "trace identity for the coordinate map, exact (GF(9))"):
        f9 = gf(3, 2)
        elements = list(f9.elements())
        rng = random.Random(2024)

        def rand_point():
            return GFPhasePoint(tuple(rng.choice(elements) for _ in range(4)))

        for _ in range(10_000):
            a, b = rand_point(), rand_point()
            assert field_trace(gf_symplectic(a, b)) == symplectic_product(pi1(a), pi1(b))
        zero = f9.zero()
        firsts = [GFPhasePoint((x, y, zero, zero)) for x in elements for y in elements]
        for a in firsts:
            ia = pi1(a)
            for b in firsts:
                lhs = field_trace(gf_symplectic(a, b, partial=True))
                assert lhs == symplectic_product(ia, pi1(b), nfactors=2)


def test_criterion_7_recursion():
    with criterion(7, "recursive families: 91 members (n=3), 820 (n=4), sampled numeric", 120.0):
        fam3 = build_recursive(ConstructionParams.create(3, 1, 3))
        assert len(fam3.members) == 91
        exact, rep = verify_symbolic(fam3)
        assert exact.passed
        assert rep.passed and rep.covered == 3**6 - 1

        fam4 = build_recursive(ConstructionParams.create(3, 1, 4))
        assert len(fam4.members) == 820
        assert verify_symbolic(fam4)[0].passed
        rep = verify_qo_numeric(fam4, 1e-9, sample_pairs=200)
        assert rep.passed
        assert rep.checks_run == 200
        assert rep.max_residual < 1e-9


def test_criterion_8_counting_identity():
    with criterion(8, "recursion counting identity, exact integers (p<=11, k<=2, n<=5)"):
        for p in (3, 5, 7, 11):
            for k in (1, 2):
                for n in (3, 4, 5):
                    assert counting_identity_holds(p, k, n)
                assert expected_count(p, k, 1) == 1


def test_criterion_9_mub_bridge():
    with criterion(9, "masa spreads yield 10 and 26 mutually unbiased bases, residual < 1e-9", 60.0):
        for p, want in [(3, 10), (5, 26)]:
            masas = build_masa_spread(ConstructionParams.create(p, 1, 2))
            assert len(masas.members) == want
            rep = check_mub_overlaps(extract_mub_bases(masas), 1e-9, masas.labels())
            assert rep.passed
            assert rep.max_residual < 1e-9


def test_criterion_10_fault_injection(tmp_path, capsys):
    with criterion(10, "20 random single-coordinate corruptions all exit 1"):
        path = tmp_path / "fam.yaml"
        assert main(["generate", "--p", "3", "--k", "1", "--n", "2", "--out", str(path)]) == EXIT_OK
        capsys.readouterr()
        pristine = family_io.load(path)
        assert main(["verify", str(path)]) == EXIT_OK
        capsys.readouterr()
        rng = random.Random(1234)
        for trial in range(20):
            member = rng.randrange(len(pristine.rows))
            rows = pristine.rows.take([member]).rows.tolist()
            row = rng.randrange(len(rows))
            pos = rng.randrange(4)
            rows[row][pos] = (rows[row][pos] + rng.randrange(1, 3)) % 3
            family_io.save(with_rows(pristine, {member: rows}), path)  # the writer's layout
            code = main(["verify", str(path)])
            capsys.readouterr()
            assert code == EXIT_VERIFY_FAILED, f"corruption {trial} went undetected"
