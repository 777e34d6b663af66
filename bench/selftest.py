"""Quick self-test of the benchmark on the tiny grid p=3, k=1, n=2 (~40 s).

    python3 bench/selftest.py

Checks that the whole pipeline (generate, verify, fault-injected verify,
mub, traced pass, micro-benchmarks) passes on two seeds; that every metric
named in BENCHMARK.json is emitted with its unit; that a wrong digest, a
wrong verdict, a numeric oracle that checks fewer pairs than pinned, an
undetected fault and layer self times that do not account for the traced
commands' wall time are counted as failed operations rather than passed;
and that run.py refuses to report anything from a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run

TINY = run.Workload("tiny", 3, 1, 2, "7c3e4c1a102eb928edb280f9140c7d64da7489c32b27f68b202a90280c3f88b8",
                    numeric="PASS", numeric_checks=45, fault=True, mub=True)


# rows the printed table must have: every end-to-end metric, and every
# per-layer metric of the traced run (the JSON line carries a subset)
TABLE_ROWS = {
    False: "setup_s generate_s verify_s verify_fail_s mub_s pass_s cpu_s peak_rss_mb numeric_pair_coverage "
           "error_rate",
    True: "finite_field.params_s finite_field.mul_ns finite_field.trace_ns constructions.build_s "
          "constructions.embed_hat_s constructions.members phase_space.pi1_us phase_space.pairwise_s "
          "phase_space.pair_checks phase_space.partition_s phase_space.points_covered "
          "phase_space.span_enumerate_s phase_space.span_enumerate_us modlin.rref_us family_io.serialize_s "
          "family_io.bytes_written family_io.parse_s family_io.bytes_read family_io.to_family_s "
          "family_io.integrity_s weyl.synthesize_us weyl.stack_bytes_computed verify.symbolic_s "
          "verify.numeric_s verify.numeric_pairs verify.numeric_pair_coverage verify.numeric_gflop_computed "
          "verify.mub_extract_s verify.mub_check_s cli.self_s cli.mub_bytes_written trace.overhead_s "
          "trace.span_overhead_s trace.residual_s trace.outside_s",
}


def run_quiet(wl: run.Workload, seed: int, trace: bool) -> tuple[dict, set[str]]:
    """The result object and the metric names of the printed table."""
    run_dir = run.RUN_ROOT / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()
    try:
        with contextlib.redirect_stdout(text):
            res = run.run_workload(wl, seed, 0.1, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in text.getvalue().splitlines():
        if line.startswith("# FAILED"):
            print("    ", line[2:], flush=True)
    return res, {line.split()[0] for line in text.getvalue().splitlines() if line and line[0].isalpha()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            errors.append(what)

    for seed, trace, key in ((1, False, "end_to_end"), (2, False, "end_to_end"), (1, True, "per_layer")):
        res, rows = run_quiet(TINY, seed, trace)
        expect(res["correct"] and res["failed"] == 0, f"tiny grid passes the gate, seed {seed}, trace {int(trace)}")
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[key]}
        expect(got == want, f"--trace {int(trace)} emits exactly the {key} metrics of BENCHMARK.json, "
                            f"with their units {sorted(set(got) ^ set(want))}")
        missing = set(TABLE_ROWS[trace].split()) - rows
        expect(not missing, f"--trace {int(trace)} prints a row for every metric {sorted(missing)}")

    res, _ = run_quiet(dataclasses.replace(TINY, digest="0" * 64), 1, trace=False)
    expect(not res["correct"] and res["failed"] >= 1, "a wrong digest counts as a failed operation")

    res, _ = run_quiet(dataclasses.replace(TINY, numeric="skipped"), 1, trace=False)
    expect(not res["correct"] and res["failed"] >= 1, "a wrong verdict counts as a failed operation")

    res, _ = run_quiet(dataclasses.replace(TINY, numeric_checks=46), 1, trace=False)
    expect(not res["correct"] and res["failed"] >= 1,
           "a numeric oracle that checks fewer pairs than pinned counts as a failed operation")

    def layer(outside: float) -> dict:
        return {"trace.outside_s": ("s", outside), "trace.setup_sum_s": ("s", 0.8)}

    expect(run.closure(layer(1.1)) is None and run.closure(layer(0.5)) is None,
           "closure holds while the time outside the spans is commands x setup_s, within half of it")
    expect(run.closure(layer(1.3)) is not None and run.closure(layer(0.3)) is not None,
           "closure fails when the self times miss or double count time")
    closure = run.closure
    run.closure = lambda _layer: "closure: forced"
    try:
        res, _ = run_quiet(TINY, 1, trace=True)
    finally:
        run.closure = closure
    expect(not res["correct"] and res["failed"] >= 1, "a failed closure counts as a failed operation")

    inject = run.inject_fault

    def no_fault(src, dst, i, j):
        labels = inject(src, dst, i, j)
        shutil.copyfile(src, dst)  # undo the fault, keep the expected labels
        return labels

    run.inject_fault = no_fault
    try:
        res, _ = run_quiet(TINY, 1, trace=False)
    finally:
        run.inject_fault = inject
    expect(not res["correct"] and res["failed"] >= 1, "a fault the verifier misses counts as a failed operation")

    bare = run.RUN_ROOT / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ext_field", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the sources run.py exits {proc.returncode} and prints no result")
    with contextlib.suppress(OSError):
        run.RUN_ROOT.rmdir()

    print("selftest:", "PASS" if not errors else f"FAIL ({len(errors)})")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
