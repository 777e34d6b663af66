"""Per-call micro-benchmarks of the hot layer functions at fixed inputs.

    python3 bench/micro.py SRC_DIR

Prints one JSON object: the median time per call over five repeats, each
repeat long enough (about 40 ms) to swamp the clock's resolution.  The inputs
do not depend on any workload, so a change to ``finite_field`` or
``phase_space`` shows here even when the end-to-end time hides it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

REPEATS = 5
REPEAT_S = 0.04


def per_call(body, calls_per_body: int) -> float:
    """Median seconds per call of ``body``, which makes ``calls_per_body`` calls."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            body()
        if time.perf_counter() - t0 >= REPEAT_S:
            break
        number *= 2
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            body()
        times.append((time.perf_counter() - t0) / (number * calls_per_body))
    return statistics.median(times)


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0])
    from qospread import (GFPhasePoint, PhasePoint, Subspace, WeylMonomial, field_trace, find_nonresidue, gf,
                          pi1, span_enumerate, synthesize)
    from qospread import _modlin

    field = gf(3, 2)  # GF(9)
    elems = list(field.elements())
    one, zero, t = field.one(), field.zero(), elems[3]
    # the generator rows of the member C[t, 1+t] of the p=3, k=2, n=2 spread,
    # as the construction feeds them to rref before canonicalisation
    b, d = elems[4], find_nonresidue(field)
    gens = [GFPhasePoint((one, b, zero, t)), GFPhasePoint((zero, t, -one, b * d))]
    rows = [pi1(g.scale(tp)).coords for g in gens for tp in field.power_basis()]
    member = Subspace.from_generators(3, 4, rows)
    points = [GFPhasePoint((elems[i % 9], elems[(2 * i + 1) % 9], elems[(5 * i + 3) % 9], elems[(7 * i + 2) % 9]))
              for i in range(81)]
    monomial = WeylMonomial(PhasePoint(3, 4, (1, 2, 0, 1, 2, 2, 1, 0)))

    def mul_all():
        for x in elems:
            for y in elems:
                x * y

    def trace_all():
        for x in elems:
            field_trace(x)

    def pi1_all():
        for pt in points:
            pi1(pt)

    out = {
        "finite_field.mul_ns": per_call(mul_all, len(elems) ** 2) * 1e9,
        "finite_field.trace_ns": per_call(trace_all, len(elems)) * 1e9,
        "phase_space.pi1_us": per_call(pi1_all, len(points)) * 1e6,
        "modlin.rref_us": per_call(lambda: _modlin.rref(rows, 3), 1) * 1e6,
        "phase_space.span_enumerate_us": per_call(lambda: span_enumerate(member), 1) * 1e6,
        "weyl.synthesize_us": per_call(lambda: synthesize(monomial, 81), 1) * 1e6,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
