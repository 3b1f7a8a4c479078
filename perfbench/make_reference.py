#!/usr/bin/env python3
"""Regenerate reference.json from the checkout's current program.

    python3 perfbench/make_reference.py

Runs the grid and the reciprocity triples once with seed 0 and stores
what the benchmark compares against: exit codes, every grid manifest
entry, the grid-level summary, seed-independent digests of each cached
graph's adjacency and edge arrays, and the reciprocity certificates.
Only rerun it after a change that is meant to alter these outputs, and
review the diff.
"""

from __future__ import annotations

import json
import sys

import oracle
from run import GRID, TRIPLES, WORK, Bench, grid_argv, read_cache, reciprocity_argv


def main() -> int:
    WORK.mkdir(exist_ok=True)
    bench = Bench("grid-cold", seed=0, tol=0.0, reference={})
    cache_dir = bench.fresh_dir()
    child = bench.cli(grid_argv(0, cache_dir), None)
    manifest = json.loads(child.stdout)
    _, files = read_cache(cache_dir)
    grid = {
        "command": GRID,
        "exit_code": child.code,
        "summary": {k: manifest[k] for k in ("skipped_inadmissible", "failures", "ok")},
        "graphs": {},
    }
    for entry in manifest["graphs"]:
        key = oracle.graph_key(entry["p"], entry["l"], entry["N"])
        grid["graphs"][key] = {"entry": entry, "digests": oracle.graph_digests(files[key])}
    reciprocity = {}
    for triple in TRIPLES:
        child = bench.cli(reciprocity_argv(triple, 0), None)
        reciprocity[oracle.graph_key(*triple)] = {
            "exit_code": child.code,
            "certificate": json.loads(child.stdout),
        }
    with open(oracle.REFERENCE, "w") as fh:
        json.dump({"grid": grid, "reciprocity": reciprocity}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
