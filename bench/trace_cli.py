"""Run one qospread CLI command in-process with a span at every layer boundary.

    python3 bench/trace_cli.py SRC_DIR OUT_JSON -- <cli arguments>

The wrappers live here, not in the package.  Every public module-level
function of each layer module, plus the public methods in ``METHODS``, is
replaced by a timing wrapper in every ``qospread`` module namespace that
binds it (``from .x import f`` makes a second binding).  ``cli.main`` is the
root span.  Operators and properties of the value types (``GFElement``,
``PhasePoint``, ...) are not wrapped: they are called hundreds of thousands
of times per command, and their time counts to the layer that calls them.

A span's self time is its duration minus the durations of the spans it
called directly, so the layers' self times add up to the ``cli.main`` span.
The spans are aggregated in memory (per function: calls, outermost inclusive
time, self time) and written as JSON when the command returns, together with
the measured cost of one span (``span_ns``) and the time spent wrapping and
measuring it (``harness_s``), so the caller can tell the tracing overhead
apart from the program's own time.  The command's stdout is left alone so
the caller can check its verdicts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable

LAYERS = ("finite_field", "_modlin", "phase_space", "constructions", "weyl",
          "verify", "family_io", "cli")
METHODS = {
    "constructions": ("ConstructionParams.create",),
    "phase_space": ("Subspace.from_generators",),
}


def _gflop(args, rep):
    params = args[0].params
    block = params.p ** (2 * params.k) - 1  # non-identity monomials per member
    dim = params.p ** (params.k * params.n)
    # cross = flat1 @ flat2.T per pair; one complex multiply-add is 8 real flops
    return rep.checks_run * block * block * dim * dim * 8 / 1e9


# Counters taken from the arguments and result of each outermost call:
# function -> [(counter, amount(args, result)), ...].
HOOKS = {
    "constructions.build_recursive": [("constructions.members", lambda a, r: len(r.members))],
    "phase_space.check_pairwise_trivial": [("phase_space.pair_checks", lambda a, r: r.checks_run)],
    "phase_space.check_partition": [("phase_space.points_covered", lambda a, r: r.covered or 0)],
    "phase_space.span_enumerate": [("phase_space.span_points", lambda a, r: len(r))],
    "_modlin.rref": [("modlin.rows_reduced", lambda a, r: len(a[0]))],
    "family_io.serialize": [("family_io.bytes_written", lambda a, r: len(r.encode()))],
    "family_io.parse": [("family_io.bytes_read", lambda a, r: len(a[0].encode()))],
    "weyl.synthesize": [("weyl.stack_bytes_computed", lambda a, r: r.nbytes)],
    "verify.verify_qo_numeric": [
        ("verify.numeric_pairs", lambda a, r: r.checks_run),
        ("verify.numeric_all_pairs", lambda a, r: len(a[0].members) * (len(a[0].members) - 1) // 2),
        ("verify.numeric_gflop_computed", _gflop),
    ],
}
COUNTERS = [name for hooks in HOOKS.values() for name, _ in hooks]


class Tracer:
    def __init__(self) -> None:
        # Open spans, innermost last, over a sentinel for "no span": the ns
        # their child spans covered.
        self.stack: list[int] = [0]
        self.readers: dict[str, tuple[str, Callable[[], tuple[int, int, int]]]] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, layer: str, fn):
        stack, clock, counters = self.stack, time.perf_counter_ns, self.counters
        hooks = HOOKS.get(name, ())
        calls = outer_ns = self_ns = depth = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal calls, outer_ns, self_ns, depth
            stack.append(0)
            depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_ns += dur - stack.pop()
                stack[-1] += dur
                calls += 1
                depth -= 1
                if not depth:  # outermost call: recursion is not counted twice
                    outer_ns += dur
            if not depth:
                for counter, amount in hooks:
                    counters[counter] += amount(args, result)
            return result

        self.readers[name] = (layer, lambda: (calls, outer_ns, self_ns))
        return wrapper

    def install(self) -> None:
        """Wrap the layer boundaries of the already imported package."""
        modules = {layer: importlib.import_module(f"qospread.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replaced[obj] = self.wrap(f"{layer}.{attr}", layer, obj)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(f"{layer}.{qual}", layer, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"{layer}.{qual}", layer, raw))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qospread" and not mod_name.startswith("qospread."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def summary(self) -> dict:
        funcs, layers = {}, dict.fromkeys(LAYERS, 0.0)
        for name, (layer, read) in sorted(self.readers.items()):
            calls, outer_ns, self_ns = read()
            layers[layer] += self_ns / 1e9
            if calls:
                funcs[name] = {"calls": calls, "total_s": outer_ns / 1e9, "self_s": self_ns / 1e9}
        return {"funcs": funcs, "layers": layers, "counters": self.counters, "span_ns": span_cost_ns()}


def span_cost_ns(calls: int = 10000, repeats: int = 5) -> float:
    """What a span adds to the time of the call it wraps: a no-op called
    through a wrapper and inside an enclosing span, minus the bare no-op;
    the median of ``repeats`` rounds of ``calls`` calls."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", "", noop)
    rounds = []
    for _ in range(repeats):
        tracer.stack.append(0)  # an open span, as in the program
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter_ns()
        tracer.stack.pop()
        rounds.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(rounds)[repeats // 2]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_cli.py SRC_DIR OUT_JSON -- <cli arguments>", file=sys.stderr)
        return 2
    src, out, cli_argv = argv[0], argv[1], argv[3:]
    sys.path.insert(0, src)
    from qospread import cli

    start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    root = tracer.wrap("cli.main", "cli", cli.main)
    ready = time.perf_counter()
    rc = root(cli_argv)
    sys.stdout.flush()
    done = time.perf_counter()
    summary = tracer.summary()
    summary["harness_s"] = (ready - start) + (time.perf_counter() - done)  # wrapping and calibrating
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
