"""Run the benchmark ten times per workload and report how steady it is.

    python3 bench/steady.py [--out FILE]

For every workload of BENCHMARK.json and the seeds 1..10 it runs
``run.py --trace 0`` for ``run_seconds``, then one ``run.py --trace 1`` with
seed 1.  Per workload it prints one row per metric of run.py's table (name,
unit, median over the seeds), and for each end-to-end metric of
BENCHMARK.json the median of the runs' values, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread).  A spread above a third of the metric's bound is
flagged; ``setup_s`` is only compared by its median.  ``--out`` writes
everything, with the environment, as JSON (this is how ``baseline.json``
was made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    """The result object, the environment and the rows of the printed table
    (name -> (unit, median); it also has the metrics the JSON line leaves out)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((line[len("# env "):] for line in lines if line.startswith("# env ")), "{}")
    table = {}
    for line in lines[:-1]:
        cells = line.split()
        if line[:1].isalpha() and cells[0] != "metric" and cells[2] != "n/a":
            table[cells[0]] = (cells[1], float(cells[2]))
    return json.loads(lines[-1]), json.loads(env), table


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, tables = [], []
        for seed in SEEDS:
            result, report["env"], table = run(workload, seed, seconds, 0)
            runs.append(result)
            tables.append(table)
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        entry = {"all_correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {},
                 "table_medians": {name: statistics.median([t[name][1] for t in tables if name in t])
                                   for name in tables[0]}}
        for name, median in entry["table_medians"].items():
            print(f"  {workload:14} {name:22} {tables[0][name][0]:6} median={median:.6g}", flush=True)
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {workload:14} {name:12} median={stats['median']:.4f} q1={stats['q1']:.4f} "
                  f"q3={stats['q3']:.4f} spread={stats['spread']:.4f} bound={bound}{flag}", flush=True)
        traced, _, table = run(workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "correct": traced["correct"], "metrics": traced["metrics"],
                              "table": {name: value for name, (_, value) in table.items()}}
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
