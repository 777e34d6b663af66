"""The qospread benchmark: the CLI end to end, as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` next to this
directory, nothing is installed.  One harness process runs the workload's
commands one after the other (a closed loop with one client), each in a
fresh interpreter (``python -m qospread.cli ...``), so every operation pays
the cold caches a CLI user pays (``phase_space._nonzero_coords`` and
``weyl._factor_matrix`` are per-process caches).  A *pass* is one run of the
workload's command list; passes repeat until the next one would overrun
``--seconds``, and there is always at least one.

Workloads are fixed parameter grids (see ``WORKLOADS``).  The seed only picks
which member pair the fault injection duplicates.

Every operation is checked: exit code, verdict lines, the sha256 of each
generated family file (the byte-determinism contract) and, for ``mub``, an
independent numpy re-check of the written bases outside the timed region.
A failed check counts in ``failed``; ``error_rate`` is failed / attempted.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
the run's samples).  ``--trace 1`` runs the untraced passes too, then one
traced pass (``trace_cli.py``: spans around every layer boundary, one fresh
interpreter per command) and the micro-benchmarks (``micro.py``), and
reports the per-layer metrics, including the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a human
readable table with every metric, its unit, median, tail percentile and
sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

SETUP_SAMPLES = 8  # half before the passes, half after
OP_TIMEOUT_S = 170
MUB_TOL = 1e-9
FAULT_BAND = 64


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    k: int
    n: int
    digest: str  # sha256 of the generated family file
    numeric: str | None = None  # expected numeric verdict of `verify`; None: no verify
    numeric_checks: int = 0  # pairs the numeric oracle must check when it says PASS
    fault: bool = False  # also verify a copy with one member duplicated
    mub: bool = False  # also run `mub --p p --k k`

    @property
    def members(self) -> int:
        return (self.p ** (2 * self.k * self.n) - 1) // (self.p ** (2 * self.k) - 1)


WORKLOADS = {
    # GF(9) arithmetic in the constructions and the write side of family_io;
    # bypasses verify (symbolic verification of this family takes minutes).
    "ext_field": Workload("ext_field", 3, 2, 3,
                          "0a5e9571601af570788d2e81b7025f34929d989a296f4794c82ad07cb19b4fdd"),
    # k = 1, so field arithmetic is trivial: the O(N^2) pair loop, the
    # partition pass and the YAML parse dominate; the faulty copy takes the
    # witness path.  d = 343 is above the numeric guard.
    "prime_wide": Workload("prime_wide", 7, 1, 3,
                           "471c2b713a47cd01d738df0415ae805097bfaf4c48d10ec4719b518a1e34c59a",
                           numeric="skipped", fault=True),
    # d = 81, the largest size the numeric guard allows: dense synthesis,
    # BLAS, eigh and the MUB text output dominate.
    "dense_numeric": Workload("dense_numeric", 3, 2, 2,
                              "75da2b8e7a47dc3434626e11d9f44aa4005a81822177b3265abe3db313390e2d",
                              numeric="PASS", numeric_checks=200, mub=True),
}


@dataclass
class Result:
    kind: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stdout: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Op:
    kind: str  # generate, verify, verify_fail or mub
    argv: list[str]
    check: Callable[[Result], list[str]]
    prepare: Callable[[], None] | None = None


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(run_dir)
    return env


def spawn(cmd: list[str], run_dir: Path, kind: str) -> Result:
    """Run one command to completion; wall time, CPU and peak RSS from wait4."""
    err_path = run_dir / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=child_env(run_dir), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    res = Result(kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, out.decode("utf-8", "replace"))
    if res.rc not in (0, 1):
        tail = err_path.read_text("utf-8", "replace").strip().splitlines()[-3:]
        res.problems.append(f"exit {res.rc}: {' | '.join(tail)}")
    return res


def run_op(op: Op, run_dir: Path, tracer_out: Path | None = None) -> Result:
    if op.prepare is not None:
        try:
            op.prepare()
        except (OSError, ValueError, IndexError) as exc:
            return Result(op.kind, 0.0, 0.0, 0.0, -1, "", [f"prepare failed: {exc}"])
    if tracer_out is None:
        cmd = [sys.executable, "-m", "qospread.cli", *op.argv]
    else:
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(SRC), str(tracer_out), "--", *op.argv]
    res = spawn(cmd, run_dir, op.kind)
    if not res.problems:
        try:
            res.problems += op.check(res)
        except (OSError, ValueError, IndexError) as exc:
            res.problems.append(f"check failed: {exc}")
    return res


# ---------------------------------------------------------------- checks

def verdicts(stdout: str) -> dict[str, str]:
    """First word after 'name: ' on each unindented report line."""
    out = {}
    for line in stdout.splitlines():
        if line and not line[0].isspace() and ": " in line:
            key, rest = line.split(": ", 1)
            out[key] = rest.split(" ", 1)[0]
    return out


def expect(got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [f"{key}: got {got.get(key)!r}, want {val!r}" for key, val in want.items() if got.get(key) != val]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_generate(wl: Workload, path: Path) -> Callable[[Result], list[str]]:
    def check(res: Result) -> list[str]:
        problems = []
        if res.rc != 0:
            problems.append(f"exit {res.rc}, want 0")
        if f": {wl.members} members of " not in res.stdout:
            problems.append(f"output does not report {wl.members} members")
        digest = sha256(path)
        if digest != wl.digest:
            problems.append(f"sha256 {digest} != pinned {wl.digest}")
        return problems
    return check


def pairs_checked(stdout: str) -> int:
    """The pair count of a `numeric: PASS (checks=N, ...)` line, 0 without one."""
    match = re.search(r"^numeric: PASS \(checks=(\d+)", stdout, re.M)
    return int(match.group(1)) if match else 0


def check_verify(wl: Workload) -> Callable[[Result], list[str]]:
    want = {"integrity": "ok", "symbolic": "PASS", "partition": "PASS", "numeric": wl.numeric, "result": "PASS"}

    def check(res: Result) -> list[str]:
        problems = [] if res.rc == 0 else [f"exit {res.rc}, want 0"]
        if wl.numeric == "PASS":
            checks = pairs_checked(res.stdout)
            if checks < wl.numeric_checks:
                problems.append(f"numeric oracle checked {checks} pairs, want at least {wl.numeric_checks}")
        return problems + expect(verdicts(res.stdout), want)
    return check


def check_verify_fail(labels: list[str]) -> Callable[[Result], list[str]]:
    want = {"integrity": "ok", "symbolic": "FAIL", "result": "FAIL"}

    def check(res: Result) -> list[str]:
        problems = [] if res.rc == 1 else [f"exit {res.rc}, want 1"]
        pair = f"{labels[0]} & {labels[1]}"
        if not any(pair in line for line in res.stdout.splitlines()):
            problems.append(f"the injected pair {pair} is not named")
        return problems + expect(verdicts(res.stdout), want)
    return check


def fault_pair(members: int, seed: int) -> tuple[int, int]:
    """Member j gets member i's rows.  i comes from a fixed band in the middle
    of the list, because the partition check's witness scan stops at the first
    index of the bad pair: the seed changes which pair, not how much work."""
    rng = random.Random(seed)
    width = max(1, min(FAULT_BAND, members // 4))
    i = members // 2 - width // 2 + rng.randrange(width)
    return i, rng.randrange(i + 1, members)


def inject_fault(src: Path, dst: Path, i: int, j: int) -> list[str]:
    """Copy a family file with member j's generator rows replaced by member
    i's.  The rows stay canonical, so only the oracles can catch it.
    Returns the two labels in file order."""
    lines = src.read_text("utf-8").split("\n")
    starts = [idx for idx, line in enumerate(lines) if line.startswith("- label: ")] + [len(lines)]

    def row_span(m: int) -> tuple[int, int]:
        rows = [idx for idx in range(starts[m], starts[m + 1]) if lines[idx].startswith("  - [")]
        return rows[0], rows[-1] + 1

    def label(m: int) -> str:
        return lines[starts[m]][len("- label: "):].strip('"')

    (a0, a1), (b0, b1) = row_span(i), row_span(j)
    out = lines[:b0] + lines[a0:a1] + lines[b1:]
    dst.write_text("\n".join(out), "utf-8")
    return [label(i), label(j)]


def read_mub_file(path: Path) -> list:
    import numpy as np

    bases, current = [], None
    for line in path.read_text("utf-8").splitlines():
        if line.startswith("#") or not line:
            continue
        if line.startswith("basis "):
            current = []
            bases.append(current)
        else:
            current.append([complex(tok) for tok in line.split()])
    return [np.array(cols) for cols in bases]  # row c = basis vector c


def mub_residuals(bases: list) -> tuple[float, float]:
    """Largest | |<x, z>|^2 - 1/d | over every cross pair of bases, and the
    largest deviation of any basis from orthonormality."""
    import numpy as np

    d = bases[0].shape[1]
    vecs = np.stack(bases)
    worst_cross = worst_ortho = 0.0
    for b in range(len(bases)):
        gram = vecs[b].conj() @ vecs[b].T
        worst_ortho = max(worst_ortho, float(np.abs(gram - np.eye(d)).max()))
        rest = vecs[b + 1:].reshape(-1, d)
        if len(rest):
            overlap = np.abs(vecs[b].conj() @ rest.T) ** 2
            worst_cross = max(worst_cross, float(np.abs(overlap - 1.0 / d).max()))
    return worst_cross, worst_ortho


def check_mub(wl: Workload, path: Path) -> Callable[[Result], list[str]]:
    def check(res: Result) -> list[str]:
        problems = [] if res.rc == 0 else [f"exit {res.rc}, want 0"]
        problems += expect(verdicts(res.stdout), {"unbiasedness": "PASS"})
        bases = read_mub_file(path)
        d = wl.p ** (2 * wl.k)
        if len(bases) != d + 1 or any(b.shape != (d, d) for b in bases):
            return problems + [f"want {d + 1} bases of {d} vectors in C^{d}"]
        cross, ortho = mub_residuals(bases)
        if not cross <= MUB_TOL:
            problems.append(f"re-check: unbiasedness residual {cross:.3e} > {MUB_TOL}")
        if not ortho <= MUB_TOL:
            problems.append(f"re-check: orthonormality residual {ortho:.3e} > {MUB_TOL}")
        return problems
    return check


def build_ops(wl: Workload, run_dir: Path, seed: int) -> list[Op]:
    family = run_dir / f"{wl.name}.yaml"
    grid = ["--p", str(wl.p), "--k", str(wl.k)]
    ops = [Op("generate", ["generate", *grid, "--n", str(wl.n), "--out", str(family)],
              check_generate(wl, family))]
    if wl.numeric is not None:
        ops.append(Op("verify", ["verify", str(family), "--mode", "both"], check_verify(wl)))
    if wl.fault:
        faulty = run_dir / f"{wl.name}-fault.yaml"
        labels: list[str] = []

        def prepare() -> None:
            if not labels:
                labels.extend(inject_fault(family, faulty, *fault_pair(wl.members, seed)))

        ops.append(Op("verify_fail", ["verify", str(faulty), "--mode", "both"],
                      check_verify_fail(labels), prepare))
    if wl.mub:
        out = run_dir / "mub.txt"
        ops.append(Op("mub", ["mub", *grid, "--out", str(out)], check_mub(wl, out)))
    return ops


# ---------------------------------------------------------------- measuring

def measure_setup(run_dir: Path, samples: int) -> list[Result]:
    """Cold `--help`: interpreter start plus import of the whole package."""
    cmd = [sys.executable, "-m", "qospread.cli", "--help"]
    results = []
    for _ in range(samples):
        res = spawn(cmd, run_dir, "setup")
        if res.rc != 0 or not res.stdout.startswith("usage:"):
            res.problems.append(f"--help: exit {res.rc}, no usage text")
        results.append(res)
    return results


def run_passes(ops: list[Op], run_dir: Path, seconds: float) -> list[list[Result]]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([run_op(op, run_dir) for op in ops])
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            return passes


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest of the usual percentiles with at least 10 samples above it."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return q, cuts[int(q * 10) - 1]
    return None


def coverage(wl: Workload, res: Result) -> float:
    return pairs_checked(res.stdout) / (wl.members * (wl.members - 1) // 2)


def end_to_end(wl: Workload, setup: list[Result], passes: list[list[Result]], failed: int, attempted: int):
    """Samples per metric: name -> (unit, [values])."""
    ops = [res for one in passes for res in one]

    def by_kind(kind: str) -> list[float]:
        return [res.wall_s for res in ops if res.kind == kind]

    return {
        "setup_s": ("s", [res.wall_s for res in setup]),
        "generate_s": ("s", by_kind("generate")),
        "pass_s": ("s", [sum(res.wall_s for res in one) for one in passes]),
        "cpu_s": ("s", [sum(res.cpu_s for res in one) for one in passes]),
        "peak_rss_mb": ("MB", [max(res.rss_mb for res in ops)]),
        "verify_s": ("s", by_kind("verify")),
        "verify_fail_s": ("s", by_kind("verify_fail")),
        "mub_s": ("s", by_kind("mub")),
        "numeric_pair_coverage": ("ratio", [coverage(wl, res) for res in ops if res.kind == "verify"]),
        "error_rate": ("ratio", [failed / attempted]),
    }


def traced_pass(ops: list[Op], run_dir: Path) -> tuple[list[Result], list[dict], list[Result]]:
    """The traced commands, their span summaries, and a `--help` run just
    before each, which times interpreter start at the same moments."""
    results, traces, helps = [], [], []
    for idx, op in enumerate(ops):
        helps += measure_setup(run_dir, 1)
        out = run_dir / f"trace-{idx}.json"
        res = run_op(op, run_dir, tracer_out=out)
        results.append(res)
        traces.append(json.loads(out.read_text("utf-8")) if out.exists() else {})
    return results, traces, helps


def per_layer(ops: list[Op], traces: list[dict], traced: list[Result], passes: list[float],
              setup_s: float, helps: list[float], micro: dict) -> dict[str, tuple[str, float]]:
    def func(name: str, key: str) -> float:
        return sum(t.get("funcs", {}).get(name, {}).get(key, 0) for t in traces)

    def counter(name: str) -> float:
        return sum(t.get("counters", {}).get(name, 0) for t in traces)

    layers = {}
    for t in traces:
        for layer, self_s in t.get("layers", {}).items():
            layers[layer.lstrip("_")] = layers.get(layer.lstrip("_"), 0.0) + self_s
    self_sum = sum(layers.values())
    traced_s = sum(res.wall_s for res in traced)
    untraced_s = statistics.median(passes)
    spans = sum(f["calls"] for t in traces for f in t.get("funcs", {}).values())
    span_ns = statistics.median([t["span_ns"] for t in traces]) if traces else 0.0
    harness_s = sum(t.get("harness_s", 0.0) for t in traces)
    all_pairs = counter("verify.numeric_all_pairs")
    mub_out = [Path(op.argv[-1]) for op in ops if op.kind == "mub"]
    metrics = {f"{layer}.self_s": ("s", value) for layer, value in layers.items()}
    metrics.update({
        "finite_field.params_s": ("s", func("constructions.ConstructionParams.create", "total_s")),
        "finite_field.trace_calls": ("count", func("finite_field.field_trace", "calls")),
        "constructions.build_s": ("s", func("constructions.build_recursive", "total_s")),
        "constructions.embed_hat_s": ("s", func("constructions.embed_hat", "total_s")),
        "constructions.members": ("count", counter("constructions.members")),
        "phase_space.pairwise_s": ("s", func("phase_space.check_pairwise_trivial", "total_s")),
        "phase_space.pair_checks": ("count", counter("phase_space.pair_checks")),
        "phase_space.partition_s": ("s", func("phase_space.check_partition", "total_s")),
        "phase_space.points_covered": ("count", counter("phase_space.points_covered")),
        "phase_space.span_enumerate_s": ("s", func("phase_space.span_enumerate", "total_s")),
        "phase_space.span_points": ("count", counter("phase_space.span_points")),
        "modlin.rref_calls": ("count", func("_modlin.rref", "calls")),
        "modlin.rows_reduced": ("count", counter("modlin.rows_reduced")),
        "family_io.serialize_s": ("s", func("family_io.serialize", "total_s")),
        "family_io.bytes_written": ("B", counter("family_io.bytes_written")),
        "family_io.parse_s": ("s", func("family_io.parse", "total_s")),
        "family_io.bytes_read": ("B", counter("family_io.bytes_read")),
        "family_io.to_family_s": ("s", func("family_io.to_family", "total_s")),
        "family_io.integrity_s": ("s", func("family_io.noncanonical_members", "total_s")),
        "weyl.synthesize_calls": ("count", func("weyl.synthesize", "calls")),
        "weyl.stack_bytes_computed": ("B", counter("weyl.stack_bytes_computed")),
        "verify.symbolic_s": ("s", func("verify.verify_qo_symbolic", "self_s")),
        "verify.numeric_s": ("s", func("verify.verify_qo_numeric", "total_s")),
        "verify.numeric_pairs": ("count", counter("verify.numeric_pairs")),
        "verify.numeric_pair_coverage": ("ratio", counter("verify.numeric_pairs") / all_pairs if all_pairs else 0.0),
        "verify.numeric_gflop_computed": ("GFLOP", counter("verify.numeric_gflop_computed")),
        "verify.mub_extract_s": ("s", func("verify.extract_mub_bases", "total_s")),
        "verify.mub_check_s": ("s", func("verify.check_mub_overlaps", "total_s")),
        "cli.mub_bytes_written": ("B", sum(path.stat().st_size for path in mub_out if path.exists())),
        "trace.untraced_s": ("s", untraced_s),
        "trace.traced_s": ("s", traced_s),
        "trace.overhead_s": ("s", traced_s - untraced_s),
        "trace.spans": ("count", spans),
        "trace.span_ns": ("ns", span_ns),
        "trace.span_overhead_s": ("s", spans * span_ns / 1e9),
        "trace.self_sum_s": ("s", self_sum),
        "trace.residual_s": ("s", untraced_s - len(ops) * setup_s - self_sum),
        "trace.harness_s": ("s", harness_s),
        "trace.outside_s": ("s", traced_s - harness_s - self_sum),
        "trace.setup_sum_s": ("s", len(ops) * statistics.median(helps)),
    })
    for name, value in micro.items():
        metrics[name] = ("ns" if name.endswith("_ns") else "us", value)
    return metrics


def closure(layer: dict[str, tuple[str, float]]) -> str | None:
    """Why the layer self times do not account for the traced commands, or
    None if they do.  What the traced processes spent outside the spans and
    the tracer's own wrapping is interpreter start, import and exit, which
    ``--help`` measures: it must come to commands x the median of the
    ``--help`` runs between the traced commands, within half of that
    (start-up varies by about a fifth between processes, and exit frees more
    memory after real work than after ``--help``)."""
    outside, setup_sum = layer["trace.outside_s"][1], layer["trace.setup_sum_s"][1]
    if abs(outside - setup_sum) <= setup_sum / 2:
        return None
    return (f"closure: traced commands spent {outside:.4f} s outside the spans, "
            f"not commands x --help = {setup_sum:.4f} s within half of it")


def run_micro(run_dir: Path) -> tuple[dict, list[str]]:
    res = spawn([sys.executable, str(BENCH / "micro.py"), str(SRC)], run_dir, "micro")
    if res.rc != 0 or not res.stdout.strip():
        return {}, res.problems or [f"micro.py: exit {res.rc}"]
    return json.loads(res.stdout.strip().splitlines()[-1]), []


# ---------------------------------------------------------------- reporting

def environment() -> dict:
    import numpy
    import yaml

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "blas": "unknown",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unknown"),
        "cpu": platform.processor() or "unknown",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    getter = getattr(dll, sym)
                    getter.restype = ctypes.c_int
                    env["blas_threads"] = getter()
                    break
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def print_table(title: str, rows: dict[str, tuple[str, list[float]]]) -> None:
    print(title)
    print(f"{'metric':34} {'unit':7} {'median':>14} {'tail':>22} {'n':>4}")
    for name, (unit, values) in rows.items():
        if not values:
            print(f"{name:34} {unit:7} {'n/a':>14} {'-':>22} {0:>4}")
            continue
        tl = tail(values)
        tail_txt = f"p{tl[0]:g}={tl[1]:.6g}" if tl else "- (<20 samples)"
        print(f"{name:34} {unit:7} {statistics.median(values):14.6g} {tail_txt:>22} {len(values):>4}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    ops = build_ops(wl, run_dir, seed)
    warmup = measure_setup(run_dir, 1)  # may compile bytecode: not timed
    setup = measure_setup(run_dir, SETUP_SAMPLES // 2)
    passes = run_passes(ops, run_dir, seconds)
    setup += measure_setup(run_dir, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    traced, helps, micro_problems, layer = [], [], [], {}
    if trace:
        traced, traces, helps = traced_pass(ops, run_dir)
        micro, micro_problems = run_micro(run_dir)
        layer = per_layer(ops, traces, traced, [sum(res.wall_s for res in one) for one in passes],
                          statistics.median([res.wall_s for res in setup]), [res.wall_s for res in helps], micro)
        unclosed = closure(layer)
        if unclosed and traced:  # a failed operation of the traced pass
            traced[-1].problems.append(unclosed)
    checked = warmup + setup + [res for one in passes for res in one] + helps + traced
    problems = [(res.kind, msg) for res in checked for msg in res.problems]
    problems += [("micro", msg) for msg in micro_problems]
    attempted = len(checked) + (1 if trace else 0)
    failed = sum(1 for res in checked if res.problems) + (1 if micro_problems else 0)
    samples = end_to_end(wl, setup, passes, failed, attempted)

    print(f"# qospread benchmark: workload={wl.name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} passes={len(passes)} operations={attempted} failed={failed}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for kind, msg in problems:
        print(f"# FAILED {kind}: {msg}")
    print_table("## end to end (untraced)", samples)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if not trace:
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]][1]), "unit": samples[m["name"]][0]}
                   for m in spec["end_to_end"]}
    else:
        print_table("## per layer (traced pass, one fresh interpreter per command)",
                    {name: (unit, [value]) for name, (unit, value) in layer.items()})
        print(f"# closure: {layer['trace.outside_s'][1]:.4f} s outside the spans vs "
              f"{layer['trace.setup_sum_s'][1]:.4f} s of --help: "
              f"{'ok' if unclosed is None else 'FAILED'}; untraced - setup_s - self times = "
              f"{layer['trace.residual_s'][1]:+.4f} s against {layer['trace.span_overhead_s'][1]:.4f} s of span cost")
        metrics = {m["name"]: {"value": layer[m["name"]][1], "unit": layer[m["name"]][0]}
                   for m in spec["per_layer"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qospread" / "cli.py").is_file():
        print(f"error: no qospread sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
