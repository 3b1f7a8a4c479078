"""Traced `isograph` child process for the benchmark's per-layer run.

    python3 perfbench/tracer.py OUT.json -- <isograph CLI arguments>
    python3 perfbench/tracer.py OUT.json --mul-bench

The first form wraps the public functions of each isograph module in
spans, runs the CLI in this process and writes the spans and counters to
OUT.json; the CLI's stdout and exit code pass through unchanged.  The
second form times `Field.mul_t` per extension degree at p = 61.

Spans live in memory until the process ends.  Each span records its id,
its parent's id, the id of the operation it belongs to (one triple for
`reciprocity`, one graph for `verify`), its name and its start and end.
Nothing under src/ knows about this module: the wrappers are installed
from here, by replacing every reference a module namespace holds to the
wrapped function.
"""

from __future__ import annotations

import functools
import json
import os
import random
import statistics
import sys
import time
from collections import Counter

# wrapped function -> span name; the first two are operation roots
SPANS = {
    ("zeta", "reciprocity_check"): "zeta.reciprocity",
    ("cli", "_verify_one"): "cli.verify_one",
    ("cli", "verify_graph"): "cli.verify_graph",
    ("cli", "load_graph_file"): "cli.load",
    ("cli", "write_graph_file"): "cli.write",
    ("supersingular", "build_class_table"): "supersingular.class_table",
    ("curves", "torsion_basis"): "curves.torsion_basis",
    ("curves", "x_multiples"): "curves.x_multiples",
    ("curves", "velu_quotient"): "curves.velu_quotient",
    ("enhanced", "GraphBuilder.level_subgroups"): "enhanced.level_subgroups",
    # the public `arrows` property only caches what this method computes
    ("enhanced", "GraphBuilder._build_arrows"): "enhanced.arrows",
    ("enhanced", "GraphBuilder.push_subgroup"): "enhanced.push",
    ("enhanced", "GraphBuilder.build"): "enhanced.build",
    ("spectral", "spectrum"): "spectral.spectrum",
    ("spectral", "cheeger_constant"): "spectral.cheeger",
    ("spectral", "ramanujan_report"): "spectral.ramanujan",
    ("zeta", "ihara_zeta"): "zeta.ihara",
    ("zeta", "edge_matrix_zeta"): "zeta.edge_oracle",
    ("polys", "charpoly_int"): "polys.charpoly",
    ("polys", "poly_matrix_det"): "polys.poly_det",
    ("graph", "covering_map"): "graph.covering",
    ("graph", "verify_covering"): "graph.covering",
}
ROOTS = {"zeta.reciprocity", "cli.verify_one"}
MUL_BENCH_DEGREES = (2, 6, 12, 24, 40, 72)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.mul_calls: Counter = Counter()
        self.push_keys: set = set()

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            if name in ROOTS and parent is None:
                self.op += 1
            rec = [sid, parent, self.op, name, clock(), None]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Self time and calls per span name; a span's self time is its
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for sid, _, _, name, start, end in self.spans:
            self_s[name] += end - start - child_time[sid]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls)}


def _replace_everywhere(modules, old, new) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    import isograph.cli  # noqa: F401  (loads every submodule)
    from isograph import curves, enhanced, fields

    pkg = sys.modules["isograph"]
    modules = [pkg] + [
        m for n, m in sys.modules.items() if n.startswith("isograph.") and m
    ]
    for (modname, qualname), span_name in SPANS.items():
        mod = sys.modules[f"isograph.{modname}"]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.span(span_name, vars(cls)[meth]))
        else:
            original = getattr(mod, qualname)
            _replace_everywhere(modules, original, tracer.span(span_name, original))

    counts, mul_calls, push_keys = tracer.counts, tracer.mul_calls, tracer.push_keys
    primes: set = set()
    class_table = sys.modules["isograph.supersingular"].build_class_table

    def keyed_class_table(p):
        # build_class_table is memoized per process, so this counts the
        # tables the process actually built
        primes.add(p)
        counts["supersingular.distinct_p"] = len(primes)
        return class_table(p)

    _replace_everywhere(modules, class_table, keyed_class_table)

    mul_t = fields.Field.mul_t

    def counted_mul_t(self, a, b):
        mul_calls[self.deg] += 1
        return mul_t(self, a, b)

    fields.Field.mul_t = counted_mul_t

    random_point = curves.EllipticCurve.random_point

    def counted_random_point(self, rng):
        counts["curves.random_point_calls"] += 1
        return random_point(self, rng)

    curves.EllipticCurve.random_point = counted_random_point

    init = enhanced.GraphBuilder.__init__

    def counted_init(self, *args, **kwargs):
        counts["enhanced.builders"] += 1
        self._trace_id = counts["enhanced.builders"]  # id() is reused after GC
        init(self, *args, **kwargs)

    enhanced.GraphBuilder.__init__ = counted_init

    push = enhanced.GraphBuilder.push_subgroup

    def keyed_push(self, ci, t, r, s):
        push_keys.add((self._trace_id, ci, t, r, s))
        return push(self, ci, t, r, s)

    enhanced.GraphBuilder.push_subgroup = keyed_push

    load = isograph.cli.load_graph_file

    def sized_load(path):
        counts["cli.bytes_read"] += os.path.getsize(path)
        return load(path)

    isograph.cli.load_graph_file = sized_load

    write = isograph.cli.write_graph_file

    def sized_write(path, *args):
        write(path, *args)
        counts["cli.bytes_written"] += os.path.getsize(path)

    isograph.cli.write_graph_file = sized_write


def run_traced(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from isograph import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["counts"] = dict(tracer.counts)
        summary["counts"]["enhanced.push_distinct"] = len(tracer.push_keys)
        summary["mul_calls"] = {str(d): n for d, n in sorted(tracer.mul_calls.items())}
        summary["spans"] = tracer.spans
        with open(out_path, "w") as fh:
            json.dump(summary, fh)
    return code


def mul_bench(out_path: str, reps: int = 7, batch: int = 200) -> int:
    """Median microseconds per `Field.mul_t` at p = 61, per degree."""
    from isograph.fields import make_extension_field

    result = {}
    for d in MUL_BENCH_DEGREES:
        field = make_extension_field(61, d)
        rng = random.Random(d)
        xs = [field.random_t(rng) for _ in range(batch + 1)]
        pairs = list(zip(xs, xs[1:]))
        mul = field.mul_t
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            times.append((time.perf_counter() - t0) / batch * 1e6)
        result[str(d)] = statistics.median(times)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    out, rest = sys.argv[1], sys.argv[2:]
    if rest == ["--mul-bench"]:
        sys.exit(mul_bench(out))
    if rest[:1] != ["--"]:
        sys.exit("usage: tracer.py OUT.json (-- ARGS... | --mul-bench)")
    sys.exit(run_traced(out, rest[1:]))
