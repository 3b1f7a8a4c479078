#!/usr/bin/env python3
"""Survey diagonal parity across a parameter grid.

The diagonal entry B[i][i] counts degree-l endomorphism kernels at class
i. A trace-zero endomorphism phi (phi-hat = -phi) shares its kernel with
its dual, contributing an odd count. This survey builds every admissible
graph in a grid and reports which ones carry such odd diagonal entries,
together with the adjacency spectrum for context.

Usage:
    python3 scripts/parity_survey.py
    python3 scripts/parity_survey.py --grid "p in {13,37,61}, l in {3,5,7}, N in {1,2,3,5,6}"
"""

import argparse
import sys

from isograph.cli import parse_grid
from isograph.enhanced import GraphBuilder
from isograph.spectral import spectrum

DEFAULT_GRID = "p in {13,37,61}, l in {3,5,7}, N in {1,2,3,5,6}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", default=DEFAULT_GRID)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    triples, _ = parse_grid(args.grid)
    builders = {}
    odd_entries = []
    for p, l, N in triples:
        builders.setdefault((p, l), GraphBuilder(p, l, seed=args.seed))
        g = builders[(p, l)].build(N)
        if g.parity_violations:
            odd_entries.append((p, l, N, g))

    print(f"surveyed {len(triples)} graphs; "
          f"{len(odd_entries)} with odd diagonal entries\n")
    for p, l, N, g in odd_entries:
        diag = [g.brandt[i][i] for i in range(g.n)]
        eigs = spectrum(g).eigenvalues
        shown = ", ".join(f"{x:.4f}" for x in eigs[:8])
        if g.n > 8:
            shown += ", ..."
        print(f"(p={p}, l={l}, N={N})  nu={g.n}")
        print(f"  diagonal        {diag}")
        print(f"  odd at vertices {list(g.parity_violations)}")
        print(f"  spectrum        [{shown}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
