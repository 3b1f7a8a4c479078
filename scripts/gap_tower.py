#!/usr/bin/env python3
"""Spectral-gap trend along a divisibility tower of levels.

For a fixed (p, l), climb a chain of levels M1 | M2 | ... and report the
second-largest adjacency eigenvalue rho^1 and its distance to the
asymptotic bound 2 sqrt(l) at each level.  The sequence should be
non-decreasing and stay below the bound.

Usage:
    python3 scripts/gap_tower.py                # default 13 5, chain 1|2|6|42
    python3 scripts/gap_tower.py 37 5 --chain "1|2|6"
"""

import argparse
import math
import sys

from isograph.enhanced import AdmissibilityError, GraphBuilder, check_admissible
from isograph.spectral import spectrum


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("p", type=int, nargs="?", default=13)
    ap.add_argument("l", type=int, nargs="?", default=5)
    ap.add_argument("--chain", default="1|2|6|42", help="levels joined by |")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        levels = [int(x) for x in args.chain.split("|")]
    except ValueError:
        ap.error(f"--chain {args.chain!r}: levels must be integers joined by |")
    try:
        for N in levels:
            check_admissible(args.p, args.l, N)
    except AdmissibilityError as e:
        ap.error(str(e))
    for a, b in zip(levels, levels[1:]):
        if b % a != 0:
            ap.error(f"{a} does not divide {b}: not a chain")

    bound = 2 * math.sqrt(args.l)
    builder = GraphBuilder(args.p, args.l, seed=args.seed)
    print(f"p = {args.p}, l = {args.l}, bound 2 sqrt(l) = {bound:.9f}")
    print(f"{'N':>6} {'vertices':>9} {'rho^1':>14} {'gap to bound':>14}")
    previous = float("-inf")
    monotone = True
    for N in levels:
        g = builder.build(N)
        s = spectrum(g)
        r = s.eigenvalues[1] if g.n > 1 else float("-inf")
        gap = bound - r
        flag = "" if r >= previous - 1e-9 else "   <-- decreased!"
        monotone = monotone and not flag
        print(f"{N:>6} {g.n:>9} {r:>14.9f} {gap:>14.9f}{flag}")
        previous = r
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
